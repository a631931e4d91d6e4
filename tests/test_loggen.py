"""Tests for synthetic log generation by counting-based uniform sampling."""

import hashlib
import itertools
import math

import pytest

from declarekit import (
    Activity,
    Constraint,
    PathCountTable,
    TemplateKind,
    Trace,
    build_generator,
    check_direct,
    generate_log,
    generator_alphabet,
    sample_trace,
    write_factlog,
    write_label_manifest,
)
from declarekit.loggen import GeneratorError, mix_seed

from oracles import reference_generator

A0, A1 = Activity("a_0"), Activity("a_1")


def _con(kind):
    return Constraint(0, kind, A0, A1)


def _brute_count(dfa, labels, length):
    """Accepted strings of exactly `length`, counted the slow way."""
    total = 0
    for combo in itertools.product(labels, repeat=length):
        if dfa.accepts(tuple(Activity(x) for x in combo)):
            total += 1
    return total


def test_generator_alphabet_fills_and_sorts():
    named = (Activity("a_1"), Activity("x"))
    labels = [a.label for a in generator_alphabet(named, 4)]
    assert labels == ["a_0", "a_1", "a_2", "x"]


def test_generator_alphabet_must_cover_named():
    with pytest.raises(GeneratorError):
        generator_alphabet((A0, A1, Activity("c")), 2)


def test_chain_response_length_two_has_single_positive():
    """At length 2 over two activities only a_0 a_1 satisfies the chain."""
    gen = build_generator(_con(TemplateKind.CHAIN_RESPONSE), 2)
    table = PathCountTable.build(gen, 2, 4)
    assert table.total(2) == 1
    trace = sample_trace(table, 2, seed=123)
    assert [e.label for e in trace] == ["a_0", "a_1"]


@pytest.mark.parametrize("length", [-1, 5])
def test_sample_trace_rejects_lengths_outside_its_table(length):
    """The table counts lengths 0 to 4: -1 would read the last row and 5
    no row at all."""
    table = PathCountTable.build(build_generator(_con(TemplateKind.RESPONSE), 3), 3, 4)
    with pytest.raises(GeneratorError, match=f"length {length} is outside"):
        sample_trace(table, length, seed=0)


def test_counts_match_exhaustive_enumeration():
    """The dynamic program equals brute-force string counting."""
    kinds = (
        TemplateKind.RESPONSE,
        TemplateKind.ALTERNATE_PRECEDENCE,
        TemplateKind.CHAIN_SUCCESSION,
        TemplateKind.EXCLUSIVE_CHOICE,
    )
    for kind in kinds:
        for k in (2, 3):
            labels = [a.label for a in generator_alphabet((A0, A1), k)]
            for positive in (True, False):
                gen = build_generator(_con(kind), k, positive)
                table = PathCountTable.build(gen, k, 7)
                for t in range(8):
                    assert table.total(t) == _brute_count(gen, labels, t), (
                        kind, k, positive, t,
                    )


def test_sampling_is_uniform():
    """Frequencies stay within four sigma of the flat expectation."""
    gen = build_generator(_con(TemplateKind.RESPONSE), 2)
    length = 5
    table = PathCountTable.build(gen, 2, length)
    total = table.total(length)
    assert total > 1
    n = 20_000
    seen: dict[tuple, int] = {}
    for i in range(n):
        trace = sample_trace(table, length, seed=mix_seed(97, i))
        key = tuple(e.label for e in trace)
        seen[key] = seen.get(key, 0) + 1
    assert len(seen) == total
    p = 1.0 / total
    bound = 4 * math.sqrt(n * p * (1 - p))
    for key, hits in seen.items():
        assert abs(hits - n * p) <= bound, (key, hits)


def test_sampled_traces_have_requested_length_and_both_activities():
    gen = build_generator(_con(TemplateKind.PRECEDENCE), 6)
    table = PathCountTable.build(gen, 6, 12)
    for i in range(50):
        trace = sample_trace(table, 12, seed=mix_seed(5, i))
        labels = {e.label for e in trace}
        assert len(trace) == 12
        assert "a_0" in labels and "a_1" in labels


def test_generate_log_halves_and_verifies():
    for kind in (TemplateKind.RESPONSE, TemplateKind.CHAIN_PRECEDENCE):
        con = _con(kind)
        generated = generate_log(con, 40, 10, 5, seed=11)
        assert len(generated.log) == 40
        assert sum(generated.labels) == 20
        for trace, positive in zip(generated.log, generated.labels):
            assert len(trace) == 10
            assert check_direct(con, trace).sat == positive, (kind, trace)


def test_generate_log_is_reproducible():
    con = _con(TemplateKind.ALTERNATE_RESPONSE)
    one = generate_log(con, 10, 8, 4, seed=3)
    two = generate_log(con, 10, 8, 4, seed=3)
    other = generate_log(con, 10, 8, 4, seed=4)
    assert one.log == two.log
    assert one.log != other.log


# SHA-256 of write_factlog(generate_log(kind(a_0, a_1), 20, 10, 5, seed=7).log)
_PINNED_LOGS = {
    TemplateKind.RESPONSE: "4882cca1c6c3c637d09760badc9891b620403d57f1275e4d1bb89f9ce7ff7f85",
    TemplateKind.PRECEDENCE: "d0ad0d5d5b7d7cd961ea191875ba4eec6d6e0865aea8e70bf87bb02c70d36a6a",
    TemplateKind.ALTERNATE_RESPONSE: "12c2277bc451c350e13f2c2fc87478ac86ac3e776dca795305f66af1860e0127",
    TemplateKind.CHAIN_RESPONSE: "f55a870afcfc7d5165c752d76246a3e6a4d2e82d9e4e0f7e7fbf9f76d3406fc4",
    TemplateKind.ALTERNATE_PRECEDENCE: "ff38eea39101442c35dc7b62f15a89176d15e33dd96536d33d3c39f3ba22f451",
    TemplateKind.CHAIN_PRECEDENCE: "6dd7b855f1fd6f495e797f5ccf46499b4058526ca6aca64c3b155c2874e3f396",
    TemplateKind.SUCCESSION: "7f4e4be6454fd14cf624f05f559d2050af0bc48c52decd16b4080fc021798303",
    TemplateKind.ALTERNATE_SUCCESSION: "be4538c0a64a1f286246de2c7d87fee30ec1a38afa883c0f4578821df5b15821",
    TemplateKind.CHAIN_SUCCESSION: "6496c217ac913a58a212f7088c36298d9bdb0a5993523413049144b0ca161671",
}


def test_generated_logs_are_pinned():
    """A fixed seed gives the same log bytes for every ordering template."""
    for kind, digest in _PINNED_LOGS.items():
        text = write_factlog(generate_log(_con(kind), 20, 10, 5, seed=7).log)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, kind


def test_generate_log_requires_even_count():
    with pytest.raises(GeneratorError):
        generate_log(_con(TemplateKind.RESPONSE), 5, 8, 4, seed=0)


def test_generate_log_impossible_length_names_polarity():
    """Length 1 cannot hold both activities, so the positive half is empty."""
    with pytest.raises(GeneratorError, match="positive"):
        generate_log(_con(TemplateKind.RESPONSE), 2, 1, 4, seed=0)


def test_label_manifest_format():
    generated = generate_log(_con(TemplateKind.RESPONSE), 4, 6, 3, seed=1)
    lines = write_label_manifest(generated).strip().split("\n")
    assert lines[0] == "trace_id,label"
    assert lines[1] == "0,positive"
    assert lines[-1] == "3,negative"


def test_mix_seed_spreads_streams():
    outs = {mix_seed(42, i) for i in range(1000)}
    assert len(outs) == 1000


def test_build_generator_needs_two_symbols():
    with pytest.raises(GeneratorError):
        build_generator(_con(TemplateKind.RESPONSE), 1)


@pytest.mark.parametrize("kind", TemplateKind)
def test_generator_equals_the_product_construction(kind):
    """The minimal DFA of f & F a & F b (!f for the negative half) is,
    table for table, the template automaton (complemented) times two
    occurrence automata, in every argument order."""
    for activation, target in ((A0, A1), (A1, A0), (A0, A0)):
        constraint = Constraint(0, kind, activation, target)
        for positive in (True, False):
            assert build_generator(constraint, 3, positive) == reference_generator(
                constraint, positive
            ), (activation, target, positive)
