"""The acceptance gate: eight end-to-end criteria, one test per criterion.

Each test carries its stated tolerance (exact values, runtime caps).
The terminal summary at the end of a verbose run lists one PASSED or
FAILED line per criterion.
"""

import statistics
import time
from fractions import Fraction
from pathlib import Path

from declarekit import (
    Activity,
    Backend,
    Constraint,
    DeclareModel,
    EventLog,
    Query,
    QueryTerm,
    TemplateKind,
    Trace,
    Variable,
    check_direct,
    conformance_check,
    exhaustive_check,
    generate_log,
    parse_csv,
    parse_factlog,
    parse_xes,
    query_check,
    random_check,
    support,
    template_dfa,
    to_facts_dict,
    to_facts_json,
    write_csv,
    write_factlog,
    write_report,
)
from declarekit.loggen import PathCountTable, build_generator, generator_alphabet
import itertools

FIXTURES = Path(__file__).parent / "fixtures"

A, B = Activity("a"), Activity("b")
A0, A1 = Activity("a_0"), Activity("a_1")


def test_criterion_1_worked_trace_verdicts():
    """Three kinds against aaabc, abacb, abab agree across all backends, <1 s."""
    started = time.perf_counter()
    traces = [
        Trace.from_labels(1, "aaabc"),
        Trace.from_labels(2, "abacb"),
        Trace.from_labels(3, "abab"),
    ]
    expected = {
        TemplateKind.RESPONSE: (True, True, True),
        TemplateKind.ALTERNATE_RESPONSE: (False, True, True),
        TemplateKind.CHAIN_RESPONSE: (False, False, True),
    }
    log = EventLog(tuple(traces))
    for kind, verdicts in expected.items():
        model = DeclareModel((Constraint(0, kind, A, B),))
        for backend in Backend:
            report = conformance_check(log, model, backend)
            got = tuple(report.matrix[(tr.id, 0)] for tr in traces)
            assert got == verdicts, (kind, backend, got)
    assert time.perf_counter() - started < 1.0


def test_criterion_2_query_example_values():
    """Response(a,?y) on {abab, abac, abadabd} at 0.5, in exact rationals.

    Every trace contains a, so no trace satisfies Response(a,y) vacuously;
    a trace counts only if each of its a's is followed later by y.
    - b: abab and abadabd; in abac the a at position 2 sees only c. 2/3.
    - c: abac only (abab and abadabd hold no c). 1/3.
    - d: abadabd only, the one trace with a d. 1/3.
    - a: the last a of every trace has no later a. Under the direct
      backend's strict reading of Response(a,a) that fails every trace, 0;
      the reflexive formula reading would give 1 (see test_direct.py).
    The brute-force formula oracle gives the same b, c and d. At threshold
    1/2 only b remains.
    """
    started = time.perf_counter()
    log = EventLog((
        Trace.from_labels(0, "abab"),
        Trace.from_labels(1, "abac"),
        Trace.from_labels(2, "abadabd"),
    ))
    y = Variable("y")
    query = Query(terms=(QueryTerm(TemplateKind.RESPONSE, A, y),))

    supports = {
        label: support(Constraint(0, TemplateKind.RESPONSE, A, Activity(label)), log)
        for label in "abcd"
    }
    assert supports["a"] == Fraction(0)
    assert supports["c"] == Fraction(1, 3)
    assert supports["b"] == Fraction(2, 3), supports
    assert supports["d"] == Fraction(1, 3), supports

    answers = query_check(query, log, Fraction(1, 2))
    got = {ans.binding[y].label: ans.support for ans in answers}
    assert got == {"b": Fraction(2, 3)}, got
    assert time.perf_counter() - started < 1.0


def test_criterion_3_response_automaton_export():
    """Response(a,b) minimizes to the published two-state table, <1 s."""
    started = time.perf_counter()
    dfa = template_dfa(TemplateKind.RESPONSE, A, B)
    facts = to_facts_dict(dfa, "Response", activation=A, target=B)
    assert facts == {
        "kind": "Response",
        "initial": 0,
        "accepting": [0],
        "transitions": [
            [0, "*", 0],
            [0, "arg_0", 1],
            [0, "arg_1", 0],
            [1, "*", 1],
            [1, "arg_0", 1],
            [1, "arg_1", 0],
        ],
    }
    assert time.perf_counter() - started < 1.0


def test_criterion_4_backend_cross_validation():
    """No backend disagreement: exhaustive to length 10 plus 1e5 samples, <2 min."""
    started = time.perf_counter()
    assert exhaustive_check(max_len=10) == []
    assert random_check(n_samples=100_000, max_len=20, seed=0) == []
    assert time.perf_counter() - started < 120.0


def test_criterion_5_subsumption_hierarchy():
    """Template implications hold on 1e4 random traces, lengths to 60."""
    import random

    rng = random.Random(60)
    labels = [f"a_{i}" for i in range(5)]
    act, tgt = Activity(labels[0]), Activity(labels[1])
    cons = {kind: Constraint(0, kind, act, tgt) for kind in TemplateKind}
    chains = [
        (TemplateKind.CHAIN_RESPONSE, TemplateKind.ALTERNATE_RESPONSE),
        (TemplateKind.ALTERNATE_RESPONSE, TemplateKind.RESPONSE),
        (TemplateKind.RESPONSE, TemplateKind.RESPONDED_EXISTENCE),
        (TemplateKind.CHAIN_PRECEDENCE, TemplateKind.ALTERNATE_PRECEDENCE),
        (TemplateKind.ALTERNATE_PRECEDENCE, TemplateKind.PRECEDENCE),
    ]
    conjunctions = [
        (TemplateKind.SUCCESSION, TemplateKind.RESPONSE, TemplateKind.PRECEDENCE),
        (
            TemplateKind.ALTERNATE_SUCCESSION,
            TemplateKind.ALTERNATE_RESPONSE,
            TemplateKind.ALTERNATE_PRECEDENCE,
        ),
        (
            TemplateKind.CHAIN_SUCCESSION,
            TemplateKind.CHAIN_RESPONSE,
            TemplateKind.CHAIN_PRECEDENCE,
        ),
    ]
    for _ in range(10_000):
        trace = Trace.from_labels(
            0, [rng.choice(labels) for _ in range(rng.randrange(61))]
        )
        verdict = {kind: check_direct(cons[kind], trace).sat for kind in TemplateKind}
        for stronger, weaker in chains:
            assert not verdict[stronger] or verdict[weaker], (stronger, weaker, trace)
        for whole, left, right in conjunctions:
            assert verdict[whole] == (verdict[left] and verdict[right]), (whole, trace)


def test_criterion_6_generator_correctness():
    """Generated halves verify under the direct backend; counts match brute force."""
    family = (
        TemplateKind.RESPONSE,
        TemplateKind.ALTERNATE_RESPONSE,
        TemplateKind.CHAIN_RESPONSE,
        TemplateKind.PRECEDENCE,
        TemplateKind.ALTERNATE_PRECEDENCE,
        TemplateKind.CHAIN_PRECEDENCE,
    )
    for kind in family:
        con = Constraint(0, kind, A0, A1)
        for length in (50, 100):
            generated = generate_log(con, 1000, length, 15, seed=1000 + length)
            labels = generated.labels
            assert sum(labels) == 500 and len(labels) == 1000
            for trace, positive in zip(generated.log, labels):
                assert check_direct(con, trace).sat == positive, (kind, length, trace.id)
                present = {e.label for e in trace}
                assert "a_0" in present and "a_1" in present, (kind, length, trace.id)

        for k in (2, 3):
            concrete = [a.label for a in generator_alphabet((A0, A1), k)]
            for positive in (True, False):
                gen = build_generator(con, k, positive)
                table = PathCountTable.build(gen, k, 7)
                for t in range(8):
                    brute = sum(
                        1
                        for combo in itertools.product(concrete, repeat=t)
                        if gen.accepts(tuple(Activity(x) for x in combo))
                    )
                    assert table.total(t) == brute, (kind, k, positive, t)


def test_criterion_7_bench_runtime_caps():
    """13 single-constraint models over a 1000x50 log finish <10 s per backend."""
    generated = generate_log(
        Constraint(0, TemplateKind.RESPONSE, A0, A1), 1000, 50, 15, seed=77
    )
    log = generated.log
    models = [
        DeclareModel((Constraint(0, kind, A0, A1),)) for kind in TemplateKind
    ]
    medians = {}
    for backend in Backend:
        per_model = []
        started = time.perf_counter()
        for model in models:
            t0 = time.perf_counter()
            conformance_check(log, model, backend)
            per_model.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        medians[backend] = statistics.median(per_model)
        assert elapsed < 10.0, (backend, elapsed)
    trend = "holds" if medians[Backend.DIRECT] <= medians[Backend.DFA] else "does not hold"
    print(
        f"median per-model seconds: direct={medians[Backend.DIRECT]:.4f} "
        f"tree={medians[Backend.TREE]:.4f} dfa={medians[Backend.DFA]:.4f}; "
        f"direct<=dfa trend {trend} (informational)"
    )


def test_criterion_8_round_trip_and_determinism():
    """XES to facts and back is identity; serialized outputs are byte-stable
    across runs and across the format the log was read from."""
    log = parse_xes(FIXTURES / "orders.xes")
    assert parse_factlog(write_factlog(log)) == log

    model = DeclareModel((
        Constraint(0, TemplateKind.RESPONSE, Activity("receive order"), Activity("ship")),
        Constraint(1, TemplateKind.PRECEDENCE, Activity("receive order"), Activity("cancel")),
    ))
    # The same log read from each format, each checked twice: one report.
    reports = [
        write_report(
            conformance_check(source, model),
            "json",
            log_name="orders.xes",
            model_name="orders-model",
        )
        for source in (log, parse_factlog(write_factlog(log)), parse_csv(write_csv(log)))
        for _ in range(2)
    ]
    assert len(set(reports)) == 1

    for kind in TemplateKind:
        dfa = template_dfa(kind, A, B)
        one = to_facts_json(dfa, kind.camel, activation=A, target=B)
        two = to_facts_json(dfa, kind.camel, activation=A, target=B)
        assert one == two, kind
