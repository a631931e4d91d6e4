"""Tests for the backend cross-validation harness."""

import itertools
import json

import pytest

from declarekit import (
    Activity,
    EventLog,
    TemplateKind,
    Trace,
    exhaustive_check,
    parse_factlog,
    random_check,
    template_formula,
)
from declarekit import direct
from declarekit.xcheck import ALL_KINDS, Disagreement

from oracles import all_traces, naive_eval


def test_all_kinds_covers_every_template():
    assert set(ALL_KINDS) == set(TemplateKind)


def test_exhaustive_length_zero_is_empty_trace_only():
    assert exhaustive_check(max_len=0) == []


def test_exhaustive_small_grid_agrees():
    assert exhaustive_check(max_len=5) == []


def test_random_check_is_seeded():
    assert random_check(n_samples=500, max_len=12, seed=7) == []


def test_disagreement_serializes():
    d = Disagreement(
        kind=TemplateKind.RESPONSE,
        trace=Trace.from_labels(0, "ab"),
        verdicts={"direct": True, "tree": False, "dfa": True},
        factlog="trace(0,0,a).\ntrace(0,1,b).\n",
    )
    doc = d.to_json_dict()
    assert doc["kind"] == "Response"
    assert doc["verdicts"] == {"direct": True, "tree": False, "dfa": True}
    assert "trace(0,0,a)" in doc["factlog"]
    json.dumps(doc)  # stays JSON-encodable


def test_negative_sizes_are_rejected():
    with pytest.raises(ValueError):
        exhaustive_check(max_len=-1)
    with pytest.raises(ValueError):
        random_check(n_samples=-5)
    with pytest.raises(ValueError):
        random_check(n_samples=1, max_len=-1)


def test_planted_split_verdict_is_reported(monkeypatch):
    """A direct Response rule that never fails splits direct from tree and
    dfa on exactly the traces that violate Response, in canonical order."""

    def never_fails(traces, act, tgt):
        return itertools.repeat(True, len(traces))

    monkeypatch.setitem(direct._LOG_RULES, TemplateKind.RESPONSE, never_fails)
    out = exhaustive_check(max_len=4)

    response = template_formula(TemplateKind.RESPONSE, Activity("a"), Activity("b"))
    want = [tr.events for tr in all_traces(("a", "b", "w"), 4) if not naive_eval(response, tr)]
    assert want
    assert [d.trace.events for d in out] == want
    rank = {Activity("a"): 0, Activity("b"): 1, Activity("w"): 2}
    keys = [(len(d.trace), [rank[e] for e in d.trace.events]) for d in out]
    assert keys == sorted(keys)
    for d in out:
        assert d.kind is TemplateKind.RESPONSE
        assert d.verdicts == {"direct": True, "tree": False, "dfa": False}
        assert parse_factlog(d.factlog) == EventLog([d.trace])
