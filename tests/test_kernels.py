"""The whole-log kernels against the kernels they replaced, kept in
oracles.py: direct.scan_log, which computes each primitive column once per
call and combines columns as big integers, and automata.walk_log, which
steps every running trace at once. Also the supports view that
conformance_check reports."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declarekit import (
    Activity,
    Backend,
    CheckReport,
    Constraint,
    DeclareModel,
    EventLog,
    TemplateKind,
    Trace,
    check_direct,
    compile_formula,
    conformance_check,
    minimize,
    parse_formula,
    template_dfa,
    write_report,
)
from declarekit.automata import _LOCKSTEP_MIN, _Lockstep, _colored_product, walk_log
from declarekit.core import code_events
from declarekit.direct import scan_log
from declarekit.tasks import SupportView

from oracles import reference_scan_log, reference_walk_log

A, B, C, W = (Activity(x) for x in "abcw")


def _constraints(pairs):
    """Every kind over every pair, a = b pairs included."""
    return [
        Constraint(i, kind, x, y)
        for i, (kind, (x, y)) in enumerate(itertools.product(TemplateKind, pairs))
    ]


_MODEL = _constraints([(A, B), (B, A), (A, A), (C, B), (C, C)])


def _assert_kernels_match_references(traces, constraints, named=()):
    named = [*named, *(a for c in constraints for a in (c.activation, c.target))]
    coded = code_events(traces, named)
    assert scan_log(constraints, coded) == reference_scan_log(constraints, coded)
    dfas = [template_dfa(c.kind, c.activation, c.target) for c in constraints]
    assert walk_log(dfas, coded) == reference_walk_log(dfas, coded)
    return coded


# Many traces of few lengths, so that the lockstep walk runs.
_LOGS = st.lists(st.integers(0, 9), min_size=1, max_size=4).flatmap(
    lambda lengths: st.lists(
        st.sampled_from(lengths).flatmap(lambda k: st.text("abcw", min_size=k, max_size=k)),
        max_size=3 * _LOCKSTEP_MIN,
    )
)


@given(_LOGS)
@settings(max_examples=60, deadline=None)
def test_kernels_match_the_trace_at_a_time_kernels(words):
    traces = [Trace.from_labels(i, word) for i, word in enumerate(words)]
    _assert_kernels_match_references(traces, _MODEL)


@pytest.mark.parametrize(
    "words",
    [[], [""], [""] * 50, ["ab"] * 40 + [""] * 40, ["w"] * 33, ["abab", "ba"] * 40],
    ids=["no_traces", "one_empty", "only_empty", "half_empty", "unnamed_only", "two_lengths"],
)
def test_kernels_on_empty_and_uniform_logs(words):
    traces = [Trace.from_labels(i, word) for i, word in enumerate(words)]
    _assert_kernels_match_references(traces, _MODEL)


def test_kernels_on_a_log_of_260_labels():
    """Codes that do not fit in a byte: the coded events are a list, the
    Alternate kinds delete codes from text, and every dfa group reads one
    event at a time."""
    rng = random.Random(260)
    labels = [Activity(f"x{i}") for i in range(260)]
    traces = [Trace(i, rng.choices(labels, k=rng.choice((3, 7, 12)))) for i in range(300)]
    pairs = [(labels[0], labels[1]), (labels[259], labels[258]), (labels[7], labels[7])]
    coded = _assert_kernels_match_references(traces, _constraints(pairs), named=labels)
    assert isinstance(coded.events, list)


def test_skewed_lengths_walk_in_lockstep_then_one_event_at_a_time():
    """2,000 short traces and one of 20,000 events: the layout holds each
    event at most once, and the long trace alone takes the event loop."""
    rng = random.Random(2000)
    words = ["".join(rng.choices("abcw", k=rng.randint(0, 8))) for _ in range(2000)]
    words.insert(1234, "".join(rng.choices("abcw", k=20_000)))
    traces = [Trace.from_labels(i, word) for i, word in enumerate(words)]
    coded = _assert_kernels_match_references(traces, _constraints([(A, B), (C, C)]))
    steps = _Lockstep(coded.events, len(coded.codes) + 1, coded.lengths)
    assert steps.live == 1 and steps.order[0] == 1234
    assert steps.running and len(steps.layout) <= sum(coded.lengths)
    assert len(steps.running) <= 8


def _at_least(label, k):
    """At least k events of `label`, over the named activities a and b."""
    body = "true"
    for _ in range(k):
        body = f"F({label} & X({body}))" if body != "true" else f"F {label}"
    return parse_formula(f"({body}) & (F a | !F a) & (F b | !F b)")


def test_products_over_256_cells_keep_the_event_loop():
    """A group whose product has more than 256 (state, column) cells walks
    one event at a time, beside groups that walk in lockstep."""
    many = [minimize(compile_formula(_at_least(x, 9))) for x in "ab"]
    moves, _ = _colored_product(many)
    assert len(moves) * len(moves[0]) > 256
    few = [template_dfa(kind, A, C) for kind in TemplateKind]
    moves, _ = _colored_product(few)
    assert len(moves) * len(moves[0]) <= 256
    dfas = [*many, template_dfa(TemplateKind.RESPONSE, A, B), *few]
    rng = random.Random(9)
    traces = [
        Trace.from_labels(i, rng.choices("abcw", k=rng.choice((10, 20, 30)))) for i in range(200)
    ]
    coded = code_events(traces, (A, B, C, W))
    assert walk_log(dfas, coded) == reference_walk_log(dfas, coded)


def test_supports_view_reads_as_the_dict_of_fractions():
    words = ["ab", "ba", "b", "", "aab", "c"]
    traces = [Trace.from_labels(i, word) for i, word in enumerate(words)]
    log = EventLog(traces)
    model = DeclareModel(_constraints([(A, B), (C, A)]))  # backends agree on these
    want = {
        c.id: Fraction(sum(check_direct(c, tr).sat for tr in traces), len(traces))
        for c in model.constraints
    }
    for backend in Backend:
        report = conformance_check(log, model, backend)
        view = report.supports
        assert type(view) is SupportView
        assert view == want and dict(view) == want
        assert list(view) == [c.id for c in model.constraints]
        assert all(type(view[cid]) is Fraction for cid in view)
        twins = [copy.copy(view), copy.deepcopy(view)] + [
            pickle.loads(pickle.dumps(view, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for twin in twins:
            assert type(twin) is SupportView and twin == want
        assert repr(view) == repr(want) and view.copy() == want and type(view.copy()) is dict
        assert 0 in view and 999 not in view and [] not in view
        for key in (999, [], "0"):
            with pytest.raises(KeyError):
                view[key]
        as_dict = CheckReport(
            report.backend, report.trace_ids, report.constraint_ids, report.matrix,
            report.compliant, dict(view),
        )
        assert write_report(report) == write_report(as_dict)

    empty = conformance_check(EventLog(()), model)
    assert empty.supports == {c.id: Fraction(0) for c in model.constraints}
    assert b'"0": "0/1"' in write_report(empty)


def test_report_repr_shows_every_cell_and_no_address():
    traces = [Trace.from_labels(i, word) for i, word in enumerate(["ab", "ba", ""])]
    model = DeclareModel(_constraints([(A, B)]))
    for backend in Backend:
        reports = [conformance_check(EventLog(traces), model, backend) for _ in range(2)]
        text = repr(reports[0])
        assert "object at" not in text and text == repr(reports[1])
        assert repr(reports[0].matrix) == repr(dict(reports[0].matrix))
