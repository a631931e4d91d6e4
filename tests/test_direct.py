"""Tests for the positional-scan backend: verdicts, failures, witnesses."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declarekit import (
    Activity,
    Backend,
    Constraint,
    TemplateKind,
    Trace,
    check_direct,
    check_log,
    eval_tree,
    template_formula,
)
from declarekit.direct import (
    ACTIVATION_NOT_FOLLOWED_BY_TARGET,
    ACTIVATION_WITHOUT_ALTERNATING_TARGET,
    ACTIVATION_WITHOUT_TARGET,
    BOTH_ALTERNATIVES_OCCURRED,
    EMPTY_TRACE,
    NO_ALTERNATIVE_OCCURRED,
    OCCURS_WITHOUT_COUNTERPART,
    TARGET_AT_START,
    TARGET_BEFORE_ACTIVATION,
)

from oracles import all_traces

A, B = Activity("a"), Activity("b")


def _con(kind, act=A, tgt=B, cid=0):
    return Constraint(cid, kind, act, tgt)


def test_response_witnesses_map_activations_to_targets():
    """On abacb each a is discharged by the next b, recorded positionally."""
    v = check_direct(_con(TemplateKind.RESPONSE), Trace.from_labels(0, "abacb"))
    assert v.sat
    assert dict(v.witnesses) == {0: 1, 2: 4}
    assert v.failures == ()


def test_response_failure_names_the_position():
    v = check_direct(_con(TemplateKind.RESPONSE), Trace.from_labels(0, "aabcba"))
    assert not v.sat
    assert v.failures == ((5, ACTIVATION_WITHOUT_TARGET),)


def test_alternate_response_flags_first_repeated_activation():
    v = check_direct(
        _con(TemplateKind.ALTERNATE_RESPONSE), Trace.from_labels(0, "aaabc")
    )
    assert not v.sat
    assert (0, ACTIVATION_WITHOUT_ALTERNATING_TARGET) in v.failures


def test_chain_response_requires_immediate_target():
    v = check_direct(_con(TemplateKind.CHAIN_RESPONSE), Trace.from_labels(0, "acb"))
    assert not v.sat
    assert v.failures == ((0, ACTIVATION_NOT_FOLLOWED_BY_TARGET),)


def test_precedence_flags_early_target():
    v = check_direct(_con(TemplateKind.PRECEDENCE), Trace.from_labels(0, "bab"))
    assert not v.sat
    assert v.failures == ((0, TARGET_BEFORE_ACTIVATION),)


def test_chain_precedence_flags_target_at_start():
    v = check_direct(_con(TemplateKind.CHAIN_PRECEDENCE), Trace.from_labels(0, "ba"))
    assert not v.sat
    assert (0, TARGET_AT_START) in v.failures


def test_choice_failure_has_no_position():
    v = check_direct(_con(TemplateKind.CHOICE), Trace.from_labels(0, "www"))
    assert not v.sat
    assert v.failures == ((None, NO_ALTERNATIVE_OCCURRED),)


def test_exclusive_choice_rejects_both():
    v = check_direct(_con(TemplateKind.EXCLUSIVE_CHOICE), Trace.from_labels(0, "ab"))
    assert not v.sat
    assert v.failures == ((None, BOTH_ALTERNATIVES_OCCURRED),)


def test_coexistence_names_the_lonely_side():
    v = check_direct(_con(TemplateKind.COEXISTENCE), Trace.from_labels(0, "awa"))
    assert not v.sat
    assert v.failures == ((0, OCCURS_WITHOUT_COUNTERPART),)


def test_empty_trace_verdicts():
    """Only the two choice templates fail on a trace with no events."""
    empty = Trace(0, ())
    for kind in TemplateKind:
        v = check_direct(_con(kind), empty)
        if kind in (TemplateKind.CHOICE, TemplateKind.EXCLUSIVE_CHOICE):
            assert not v.sat, kind
            assert v.failures == ((None, EMPTY_TRACE),)
        else:
            assert v.sat, kind
            assert v.failures == (), kind


def test_failures_exactly_when_unsat():
    for kind in TemplateKind:
        con = _con(kind)
        for trace in all_traces(("a", "b", "w"), 5):
            v = check_direct(con, trace)
            assert v.sat == (not v.failures), (kind, trace)


def test_agrees_with_formula_on_exhaustive_grid():
    """Scan verdicts equal formula verdicts on every trace up to length 7."""
    for kind in TemplateKind:
        con = _con(kind)
        f = template_formula(kind, A, B)
        for trace in all_traces(("a", "b", "w"), 7):
            assert check_direct(con, trace).sat == eval_tree(f, trace), (kind, trace)


def test_log_kernel_matches_check_direct_on_every_short_trace():
    """The log kernel gives check_direct's .sat on every {a,b,w} trace up
    to length 8, each followed by an empty trace, checked as one log.

    All 13 kinds at (a,b), (a,a) and (b,a) form one model, so the strict
    Response(a,a) reading holds for the kernel too, and empty traces sit
    between traces of every length.
    """
    empty = Trace(0, ())
    traces = [tr for trace in all_traces(("a", "b", "w"), 8) for tr in (trace, empty)]
    model = [
        _con(kind, act, tgt, cid)
        for cid, (kind, (act, tgt)) in enumerate(
            itertools.product(TemplateKind, ((A, B), (A, A), (B, A)))
        )
    ]
    verdicts = check_log(traces, model, Backend.DIRECT)
    for con, column in zip(model, verdicts):
        want = [check_direct(con, trace).sat for trace in traces[::2]]
        assert list(column[::2]) == want, con
        assert set(column[1::2]) == {check_direct(con, empty).sat}, con
    assert check_log(
        (Trace.from_labels(0, "a"),), (_con(TemplateKind.RESPONSE, A, A),), Backend.DIRECT
    ) == [bytearray((0,))]


_SPELLINGS = st.lists(st.text(alphabet="abcxy", max_size=12), min_size=1, max_size=12)
# Activation and target are sometimes equal and sometimes absent from a trace.
_KERNEL_SPECS = st.lists(
    st.tuples(st.sampled_from(list(TemplateKind)), st.sampled_from("abcxyz"),
              st.sampled_from("abcxyz")),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(spellings=_SPELLINGS, specs=_KERNEL_SPECS)
def test_log_kernel_matches_check_direct_on_random_logs(spellings, specs):
    traces = [Trace.from_labels(i, s) for i, s in enumerate(spellings)]
    model = [_con(kind, Activity(a), Activity(b), cid) for cid, (kind, a, b) in enumerate(specs)]
    verdicts = check_log(traces, model, Backend.DIRECT)
    for con, column in zip(model, verdicts):
        assert list(column) == [check_direct(con, trace).sat for trace in traces], con


def test_reflexive_response_uses_strict_future():
    """Response(a,a) asks for a later occurrence, so a lone a fails.

    The formula reading G(a -> F a) is vacuously true instead; the two
    backends deliberately part ways when activation and target coincide.
    """
    con = _con(TemplateKind.RESPONSE, A, A)
    assert not check_direct(con, Trace.from_labels(0, "a")).sat
    assert check_direct(con, Trace.from_labels(0, "")).sat
    assert eval_tree(template_formula(TemplateKind.RESPONSE, A, A), Trace.from_labels(0, "a"))


def test_step_counter_is_near_linear():
    """Work stays proportional to trace length plus occurrence count."""
    n = 5000
    labels = ["a" if i % 3 == 0 else ("b" if i % 3 == 1 else "w") for i in range(n)]
    trace = Trace.from_labels(0, labels)
    for kind in TemplateKind:
        v = check_direct(_con(kind), trace)
        assert v.steps <= 4 * n, (kind, v.steps)


def test_witnesses_only_for_response_side_kinds():
    """Kinds with a per-activation obligation pair each activation to a target."""
    trace = Trace.from_labels(0, "abab")
    response_side = (
        TemplateKind.RESPONSE,
        TemplateKind.ALTERNATE_RESPONSE,
        TemplateKind.CHAIN_RESPONSE,
        TemplateKind.SUCCESSION,
        TemplateKind.ALTERNATE_SUCCESSION,
        TemplateKind.CHAIN_SUCCESSION,
    )
    for kind in TemplateKind:
        v = check_direct(_con(kind), trace)
        if kind in response_side:
            assert dict(v.witnesses) == {0: 1, 2: 3}, kind
        else:
            assert dict(v.witnesses) == {}, kind


def test_failures_sorted_with_positionless_last():
    v = check_direct(_con(TemplateKind.SUCCESSION), Trace.from_labels(0, "bwawb"))
    positions = [p for p, _ in v.failures]
    numbered = [p for p in positions if p is not None]
    assert numbered == sorted(numbered)
    if None in positions:
        assert positions.index(None) == len(positions) - 1
