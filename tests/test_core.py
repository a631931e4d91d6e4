"""Tests for activities, traces, logs, and model containers."""

import copy
import pickle
from fractions import Fraction

import pytest

from declarekit import (
    Activity,
    Constraint,
    DeclareModel,
    EventLog,
    TemplateKind,
    Trace,
)


def test_activity_interning():
    """Equal labels give the very same object, so identity comparison is safe."""
    assert Activity("a") is Activity("a")
    assert Activity("a") is not Activity("b")


def test_activity_rejects_empty_and_wildcard():
    with pytest.raises(ValueError):
        Activity("")
    with pytest.raises(ValueError):
        Activity("*")


def test_activity_orders_by_label():
    acts = [Activity(x) for x in ("m", "a", "z", "b")]
    assert [a.label for a in sorted(acts)] == ["a", "b", "m", "z"]


def test_activity_survives_pickling():
    a = Activity("pickled")
    assert pickle.loads(pickle.dumps(a)) is a


def test_trace_from_labels():
    t = Trace.from_labels(3, ["a", "b", "a"])
    assert t.id == 3
    assert len(t) == 3
    assert t[0] is Activity("a")
    assert [e.label for e in t] == ["a", "b", "a"]


def test_trace_rejects_negative_id():
    with pytest.raises(ValueError):
        Trace.from_labels(-1, ["a"])


def test_event_log_alphabet_sorted():
    log = EventLog((Trace.from_labels(0, "ba"), Trace.from_labels(1, "ca")))
    assert tuple(a.label for a in log.alphabet) == ("a", "b", "c")


def test_event_log_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        EventLog((Trace.from_labels(0, "a"), Trace.from_labels(0, "b")))


def test_event_log_lookup_and_iteration():
    t0, t1 = Trace.from_labels(0, "ab"), Trace.from_labels(7, "ba")
    log = EventLog((t0, t1))
    assert log.get(7) == t1
    assert list(log) == [t0, t1]
    assert len(log) == 2


def test_template_kind_accepts_both_spellings():
    assert TemplateKind.from_name("AlternateResponse") is TemplateKind.ALTERNATE_RESPONSE
    assert TemplateKind.from_name("Alternate Response") is TemplateKind.ALTERNATE_RESPONSE
    assert TemplateKind.from_name("Co-Existence") is TemplateKind.COEXISTENCE
    assert TemplateKind.from_name("Coexistence") is TemplateKind.COEXISTENCE


def test_template_kind_unknown_name_lists_valid_ones():
    with pytest.raises(ValueError) as err:
        TemplateKind.from_name("Sometimes")
    message = str(err.value)
    for kind in TemplateKind:
        assert kind.camel in message


def test_template_kind_has_thirteen_members():
    assert len(TemplateKind) == 13


def test_model_rejects_duplicate_constraint_ids():
    a, b = Activity("a"), Activity("b")
    c0 = Constraint(0, TemplateKind.RESPONSE, a, b)
    c1 = Constraint(0, TemplateKind.PRECEDENCE, a, b)
    with pytest.raises(ValueError):
        DeclareModel((c0, c1))


def test_model_keeps_declaration_order():
    a, b = Activity("a"), Activity("b")
    c1 = Constraint(5, TemplateKind.RESPONSE, a, b)
    c0 = Constraint(2, TemplateKind.PRECEDENCE, a, b)
    model = DeclareModel((c1, c0))
    assert [c.id for c in model] == [5, 2]


def _records():
    """One instance of every immutable record class in the package."""
    from declarekit import (
        Backend, CheckReport, Disagreement, Query, QueryAnswer, QueryTerm,
        Variable, check_direct, conformance_check, generate_log, template_dfa,
    )
    from declarekit.core import code_events
    from declarekit.ingest import _FactScanner
    from declarekit.loggen import PathCountTable, build_generator
    from declarekit.ltlf import TRUE, Atom, Until, parse_formula

    a, b = Activity("a"), Activity("b")
    trace = Trace.from_labels(3, "abba")
    constraint = Constraint(7, TemplateKind.RESPONSE, a, b)
    dfa = template_dfa(TemplateKind.RESPONSE, a, b)
    log = EventLog([trace, Trace.from_labels(4, "ba")])
    report = conformance_check(log, DeclareModel([constraint]), Backend.TREE)
    x = Variable("x")
    term = QueryTerm(TemplateKind.RESPONSE, a, x)
    return [
        trace,
        code_events(log.traces, (a, b)),
        constraint,
        dfa,
        check_direct(constraint, trace),
        _FactScanner('bind(0,arg_0,"a b").').facts()[0],
        PathCountTable.build(build_generator(constraint, 4), 4, 5),
        generate_log(constraint, 2, 4, 4, 1),
        report,
        CheckReport(
            report.backend, report.trace_ids, report.constraint_ids, dict(report.matrix),
            report.compliant, report.supports,
        ),
        x,
        term,
        Query((term,), {x: (b,)}),
        QueryAnswer(binding={x: b}, support=Fraction(1, 2)),
        Disagreement(TemplateKind.RESPONSE, trace, {"direct": True}, "trace(3,0,a)."),
        TRUE,
        Atom(a),
        Until(Atom(a), parse_formula("F b")),
    ]


def test_records_round_trip_and_stay_frozen():
    """Equality, hashing, deep copies and every pickle protocol give back
    an equal record; no field can be assigned or deleted."""
    for record in _records():
        twins = [copy.deepcopy(record)] + [
            pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        try:
            digest = hash(record)
        except TypeError:  # a record that holds a dict cannot be hashed
            digest = None
        for twin in twins:
            assert type(twin) is type(record) and twin is not record, repr(record)
            assert twin == record and not twin != record, repr(record)
            if digest is not None:
                assert hash(twin) == digest, repr(record)
        for name in type(record)._fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.no_such_field = 1


def test_record_equality_needs_the_same_class_and_fields():
    from declarekit import DirectVerdict, Variable
    from declarekit.ltlf import Atom, Eventually, Globally

    a = Atom(Activity("a"))
    assert Eventually(a) == Eventually(a) and Eventually(a) != Globally(a)
    assert hash(Eventually(a)) == hash((a,))
    assert Variable("x") != Variable("y") and Variable("x") != "x"
    assert hash(Variable("x")) == hash(("x",))
    assert repr(Variable("x")) == "Variable(name='x')"
    # `steps` is a count of work, not part of the verdict.
    assert DirectVerdict(True, (), {}, steps=3) == DirectVerdict(True, (), {})
    assert repr(DirectVerdict(True, (), {})) == (
        "DirectVerdict(sat=True, failures=(), witnesses={}, steps=0)"
    )


def test_record_constructor_takes_each_field_once():
    from declarekit import QueryTerm

    kind, b = TemplateKind.RESPONSE, Activity("b")
    assert QueryTerm(kind, b, target=b) == QueryTerm(target=b, activation=b, kind=kind)
    for args, kwargs in (
        ((kind, b), {}),
        ((kind, b, b, b), {}),
        ((kind, b, b), {"target": b}),
        ((kind, b, b), {"source": b}),
    ):
        with pytest.raises(TypeError, match="QueryTerm"):
            QueryTerm(*args, **kwargs)
