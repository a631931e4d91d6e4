"""Tests for conformance checking, support, and query checking."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declarekit import (
    Activity,
    Backend,
    Constraint,
    DeclareModel,
    EmptyLogError,
    EventLog,
    Query,
    QueryAnswer,
    QueryTerm,
    TemplateKind,
    Trace,
    Variable,
    check_direct,
    check_log,
    conformance_check,
    eval_tree,
    pretty,
    query_check,
    support,
    template_dfa,
    template_formula,
)

from oracles import naive_eval

A, B, C, D = (Activity(x) for x in "abcd")


def _log(*labelings):
    return EventLog(tuple(Trace.from_labels(i, s) for i, s in enumerate(labelings)))


def _alone(con, trace, backend):
    """The verdict of `check_log` on a log of this one trace."""
    return check_log((trace,), (con,), backend)[0][0] == 1


def _brute_answers(query, log, threshold, *, domains=None):
    """Reference query checking: try every binding, keep enough support."""
    variables = query.variables()
    domains = [query.domains.get(v, log.alphabet) for v in variables]
    results = []
    for combo in itertools.product(*domains):
        binding = dict(zip(variables, combo))
        hits = 0
        for trace in log:
            ok = True
            for term in query.terms:
                act = binding.get(term.activation, term.activation)
                tgt = binding.get(term.target, term.target)
                con = Constraint(0, term.kind, act, tgt)
                if not check_direct(con, trace).sat:
                    ok = False
                    break
            hits += ok
        sup = Fraction(hits, len(log))
        if sup >= threshold:
            results.append(QueryAnswer(binding=binding, support=sup))
    results.sort(key=lambda r: (-r.support, tuple(r.binding[v].label for v in variables)))
    return results


# --------------------------------------------------------------------------
# Conformance checking
# --------------------------------------------------------------------------

def test_conformance_matrix_and_compliant_set():
    log = _log("abc", "acb", "bca")
    model = DeclareModel((
        Constraint(0, TemplateKind.RESPONSE, A, B),
        Constraint(1, TemplateKind.PRECEDENCE, A, C),
    ))
    report = conformance_check(log, model)
    assert report.matrix[(0, 0)] and report.matrix[(0, 1)]
    assert report.matrix[(1, 0)] and report.matrix[(1, 1)]
    assert not report.matrix[(2, 0)] and not report.matrix[(2, 1)]
    assert report.compliant == frozenset({0, 1})
    assert report.supports == {0: Fraction(2, 3), 1: Fraction(2, 3)}


def test_matrix_is_a_read_only_view_of_its_cells():
    """The matrix reads as the dict of its cells: equality both ways, keys
    constraint by constraint over the traces in log order, len, and a
    KeyError for an unknown trace or constraint or a malformed key."""
    log = EventLog((Trace.from_labels(5, "ab"), Trace.from_labels(2, "ba"), Trace(9, ())))
    model = DeclareModel((
        Constraint(3, TemplateKind.RESPONSE, A, B),
        Constraint(1, TemplateKind.CHOICE, A, B),
    ))
    cells = {(5, 3): True, (2, 3): False, (9, 3): True, (5, 1): True, (2, 1): True, (9, 1): False}
    for backend in Backend:
        matrix = conformance_check(log, model, backend).matrix
        assert matrix == cells and cells == matrix, backend
        assert matrix != {**cells, (9, 1): True}
        assert list(matrix.items()) == list(cells.items())
        assert len(matrix) == len(cells)
        assert all(type(v) is bool for v in matrix.values())
        for key in ((7, 3), (5, 0), (3, 5), (5,), "x", None):
            with pytest.raises(KeyError):
                matrix[key]
            assert key not in matrix
        with pytest.raises(TypeError):
            matrix[5, 3] = False
    empty = conformance_check(log, DeclareModel(()), Backend.DIRECT).matrix
    assert empty == {} and len(empty) == 0 and list(empty) == []


def test_conformance_identical_across_backends():
    log = _log("abab", "aabc", "bcab", "", "wawb")
    model = DeclareModel(
        tuple(
            Constraint(i, kind, A, B)
            for i, kind in enumerate(TemplateKind)
        )
    )
    reports = [conformance_check(log, model, backend) for backend in Backend]
    assert reports[0].matrix == reports[1].matrix == reports[2].matrix
    assert reports[0].compliant == reports[1].compliant == reports[2].compliant


def test_conformance_matches_fresh_checkers_cell_by_cell():
    log = _log(*("ab" * (i % 5) for i in range(40)))
    model = DeclareModel((
        Constraint(0, TemplateKind.ALTERNATE_RESPONSE, A, B),
        Constraint(1, TemplateKind.CHAIN_SUCCESSION, A, B),
    ))
    for backend in Backend:
        report = conformance_check(log, model, backend)
        cells = {
            (tr.id, c.id): _alone(c, tr, backend)
            for tr in log.traces
            for c in model.constraints
        }
        assert report.matrix == cells, backend
        assert report.trace_ids == tuple(range(40))
        assert report.compliant == frozenset(
            tr.id for tr in log.traces if all(cells[(tr.id, c.id)] for c in model.constraints)
        )
        assert report.supports == {
            c.id: Fraction(sum(cells[(tr.id, c.id)] for tr in log.traces), 40)
            for c in model.constraints
        }


def test_check_log_matches_direct_verdicts():
    con = Constraint(0, TemplateKind.ALTERNATE_PRECEDENCE, A, B)
    traces = [Trace.from_labels(i, s) for i, s in enumerate(["", "ab", "bb", "abab", "bab"])]
    want = [check_direct(con, trace).sat for trace in traces]
    for backend in Backend:
        (column,) = check_log(traces, (con,), backend)
        assert [v == 1 for v in column] == want, backend
        for trace, sat in zip(traces, want):
            assert _alone(con, trace, backend) == sat, (backend, trace)


# Consecutive traces over disjoint alphabets, either of which may be empty:
# an index leaking from one row into the next would show in the second.
_ROW_PAIRS = st.lists(
    st.tuples(st.text(alphabet="abc", max_size=7), st.text(alphabet="xyz", max_size=7)),
    min_size=1,
    max_size=5,
)
# Activation and target range over both alphabets, so they are sometimes
# equal and sometimes absent from a trace.
_SPECS = st.lists(
    st.tuples(st.sampled_from(list(TemplateKind)), st.sampled_from("abcxyz"),
              st.sampled_from("abcxyz")),
    min_size=1,
    max_size=6,
)


@settings(max_examples=120, deadline=None)
@given(pairs=_ROW_PAIRS, specs=_SPECS)
def test_shared_row_index_matches_fresh_checkers(pairs, specs):
    """Each matrix cell equals a fresh checker and, for a != b, the oracle.

    Cells with activation equal to target are compared with the fresh
    checker only: the direct backend's strict Response(a,a) reading is
    pinned in test_direct.py.
    """
    log = _log(*(row for pair in pairs for row in pair))
    model = DeclareModel(
        Constraint(i, kind, Activity(a), Activity(b)) for i, (kind, a, b) in enumerate(specs)
    )
    for backend in Backend:
        report = conformance_check(log, model, backend)
        for con in model:
            formula = template_formula(con.kind, con.activation, con.target)
            for trace in log:
                got = report.matrix[(trace.id, con.id)]
                assert got == _alone(con, trace, backend), (backend, con, trace)
                if con.activation is not con.target:
                    assert got == naive_eval(formula, trace), (backend, con, trace)


def test_replayed_kernel_entry_points_keep_working():
    """The standalone per-call forms that timing harnesses replay cell by cell."""
    trace = Trace.from_labels(0, "abwbaab")
    for kind in TemplateKind:
        con = Constraint(0, kind, A, B)
        formula = template_formula(kind, A, B)
        want = naive_eval(formula, trace)
        verdict = check_direct(con, trace)
        assert verdict.sat == want, kind
        assert isinstance(verdict.steps, int) and verdict.steps >= 0
        assert eval_tree(formula, trace) == want, kind
        dfa = template_dfa(kind, A, B)
        assert dfa.accepts(trace.events) == want, kind
        assert dfa.n_states >= 1
    before = template_dfa.cache_info()
    cached = template_dfa(TemplateKind.RESPONSE, A, B)
    assert template_dfa.cache_info().hits == before.hits + 1
    uncached = template_dfa.__wrapped__(TemplateKind.RESPONSE, A, B)
    assert uncached == cached and uncached is not cached
    assert template_dfa.cache_info().misses == before.misses


def test_backends_agree_on_more_than_255_activities():
    """A generated log over 300 activities and 150 constraints naming every
    one of them: the tree plan has 300 atoms, more than one byte codes,
    each dfa product's table is 301 codes wide, and direct's trace strings
    hold characters past chr(255)."""
    from declarekit import generate_log
    from declarekit.core import code_events
    from declarekit.ltlf import Atom, _plan

    acts = [Activity(f"a_{i}") for i in range(300)]
    log = generate_log(Constraint(0, TemplateKind.RESPONSE, acts[0], acts[1]), 200, 40, 300, 11).log
    assert len(log.alphabet) > 255
    kinds = list(TemplateKind)
    constraints = [
        Constraint(i, kinds[i % len(kinds)], acts[2 * i], acts[2 * i + 1]) for i in range(150)
    ]
    formulas = tuple(template_formula(c.kind, c.activation, c.target) for c in constraints)
    assert sum(op is Atom for op, _, _ in _plan(formulas)[0]) == 300
    named = (a for c in constraints for a in (c.activation, c.target))
    assert max("".join(code_events(log.traces, named).strings)) > chr(255)
    verdicts = [check_log(log.traces, constraints, backend) for backend in Backend]
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert 0 < sum(map(sum, verdicts[0])) < len(log) * len(constraints)
    for i, trace in enumerate(log.traces[:3]):
        for j, f in enumerate(formulas):
            assert verdicts[1][j][i] == naive_eval(f, trace), (trace.id, pretty(f))


def test_support_is_exact_rational():
    log = _log("ab", "aw", "ww")
    con = Constraint(0, TemplateKind.RESPONSE, A, B)
    assert support(con, log) == Fraction(2, 3)


def test_support_counts_duplicate_traces_separately():
    """The log is a multiset: repeats weigh in each time."""
    log = _log("aw", "aw", "ab", "ab")
    con = Constraint(0, TemplateKind.RESPONSE, A, B)
    assert support(con, log) == Fraction(1, 2)


def test_support_requires_nonempty_log():
    con = Constraint(0, TemplateKind.RESPONSE, A, B)
    with pytest.raises(EmptyLogError):
        support(con, EventLog(()))


# --------------------------------------------------------------------------
# Query checking
# --------------------------------------------------------------------------

def test_query_single_variable_supports():
    """Response(a,?y) on {abab, abac, abadabd}: supports come out exact."""
    log = _log("abab", "abac", "abadabd")
    y = Variable("y")
    query = Query(terms=(QueryTerm(TemplateKind.RESPONSE, A, y),))
    answers = query_check(query, log, Fraction(1, 100))
    by_label = {ans.binding[y].label: ans.support for ans in answers}
    assert by_label == {
        "b": Fraction(2, 3),
        "c": Fraction(1, 3),
        "d": Fraction(1, 3),
    }


def test_query_excludes_reflexive_binding_without_later_occurrence():
    """?y=a scores zero: the final a of each trace is never answered."""
    log = _log("abab", "abac", "abadabd")
    y = Variable("y")
    query = Query(terms=(QueryTerm(TemplateKind.RESPONSE, A, y),))
    answers = query_check(query, log, Fraction(1, 1000))
    labels = {ans.binding[y].label for ans in answers}
    assert "a" not in labels


def test_query_threshold_half_keeps_only_b():
    log = _log("abab", "abac", "abadabd")
    y = Variable("y")
    query = Query(terms=(QueryTerm(TemplateKind.RESPONSE, A, y),))
    answers = query_check(query, log, Fraction(1, 2))
    assert [(ans.binding[y].label, ans.support) for ans in answers] == [
        ("b", Fraction(2, 3))
    ]


def test_query_matches_brute_force_on_random_logs():
    import random

    rng = random.Random(99)
    labels = "abcd"
    for _ in range(20):
        log = _log(*(
            "".join(rng.choice(labels) for _ in range(rng.randrange(0, 7)))
            for _ in range(5)
        ))
        kind = rng.choice(list(TemplateKind))
        query = Query(terms=(QueryTerm(kind, Variable("x"), Variable("y")),))
        threshold = Fraction(rng.randrange(1, 5), 5)
        got = query_check(query, log, threshold)
        want = _brute_answers(query, log, threshold)
        assert [(a.binding, a.support) for a in got] == [
            (a.binding, a.support) for a in want
        ], (kind, threshold)


def test_query_conjunction_of_terms():
    """All terms must hold per trace; {Response(?x,?y), Precedence(?x,?z)} at 1."""
    log = _log("abc", "abcb")
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    query = Query(
        terms=(
            QueryTerm(TemplateKind.RESPONSE, x, y),
            QueryTerm(TemplateKind.PRECEDENCE, x, z),
        )
    )
    answers = query_check(query, log, Fraction(1))
    bindings = {
        tuple(ans.binding[v].label for v in (x, y, z)) for ans in answers
    }
    assert ("a", "b", "b") in bindings
    assert answers == _brute_answers(query, log, Fraction(1))


def test_query_two_terms_match_formula_oracle(monkeypatch):
    """Answers and their order equal the formula oracle's, on every backend.

    Disjoint domains keep activation and target apart in both terms, where
    the backends agree. Every backend checks the whole log at once over
    events coded once, and indexes no trace.
    """
    import random

    import declarekit.automata
    import declarekit.core
    import declarekit.direct
    import declarekit.ltlf
    import declarekit.tasks
    from declarekit.direct import index_positions
    from declarekit.ltlf import And

    from oracles import brute_support

    rng = random.Random(4)
    log = _log(*("".join(rng.choices("abcd", k=rng.randrange(8))) for _ in range(30)))
    x, y = Variable("x"), Variable("y")
    query = Query(
        terms=(
            QueryTerm(TemplateKind.RESPONSE, x, y),
            QueryTerm(TemplateKind.COEXISTENCE, y, B),
        ),
        domains={x: (A, B), y: (C, D)},
    )
    threshold = Fraction(1, 4)
    want = []
    for combo in itertools.product((A, B), (C, D)):
        binding = dict(zip((x, y), combo))
        f = And(tuple(
            template_formula(t.kind, binding.get(t.activation, t.activation),
                             binding.get(t.target, t.target))
            for t in query.terms
        ))
        sup = brute_support(f, log.traces)
        if sup >= threshold:
            want.append((binding, sup))
    want.sort(key=lambda row: (-row[1], row[0][x].label, row[0][y].label))
    assert len({sup for _, sup in want}) > 1

    calls = []

    def counting_index(events):
        calls.append(len(events))
        return index_positions(events)

    # Only check_direct, the one-trace explainer, indexes positions.
    monkeypatch.setattr(declarekit.direct, "index_positions", counting_index)
    for module in (declarekit.core, declarekit.tasks, declarekit.ltlf, declarekit.automata):
        assert not hasattr(module, "index_positions"), module
    for backend in Backend:
        calls.clear()
        got = query_check(query, log, threshold, backend)
        assert [(a.binding, a.support) for a in got] == want, backend
        assert calls == [], backend


def test_query_respects_explicit_domains():
    log = _log("abab", "abac")
    y = Variable("y")
    query = Query(
        terms=(QueryTerm(TemplateKind.RESPONSE, A, y),),
        domains={y: (B, C)},
    )
    answers = query_check(query, log, Fraction(1, 100))
    assert {ans.binding[y].label for ans in answers} == {"b", "c"}


def test_query_takes_each_domain_value_once():
    log = _log("ab")
    y = Variable("y")
    query = Query(terms=(QueryTerm(TemplateKind.RESPONSE, A, y),), domains={y: (B, B)})
    answers = query_check(query, log, 1)
    assert [(ans.binding, ans.support) for ans in answers] == [({y: B}, 1)]


def test_query_answers_sorted_by_support_then_labels():
    log = _log("ab", "ac", "aw")
    y = Variable("y")
    query = Query(terms=(QueryTerm(TemplateKind.RESPONDED_EXISTENCE, A, y),))
    answers = query_check(query, log, Fraction(1, 100))
    keys = [(-ans.support, ans.binding[y].label) for ans in answers]
    assert keys == sorted(keys)


def test_query_budget_cutoff_matches_oracle():
    """Stopping a binding at its violation budget loses no answer.

    At 2/5 the budget is three violations of five, which cuts d-b off;
    disjoint domains keep activation and target apart on every backend.
    """
    from oracles import brute_support

    log = _log("abab", "abac", "abadabd", "bcd", "")
    x, y = Variable("x"), Variable("y")
    query = Query(terms=(QueryTerm(TemplateKind.SUCCESSION, x, y),), domains={x: (A, D), y: (B, C)})
    threshold = Fraction(2, 5)
    supports = {
        (ax, ay): brute_support(template_formula(TemplateKind.SUCCESSION, ax, ay), log.traces)
        for ax, ay in itertools.product((A, D), (B, C))
    }
    want = sorted(
        ((-sup, ax.label, ay.label) for (ax, ay), sup in supports.items() if sup >= threshold)
    )
    assert 0 < len(want) < len(supports)
    for backend in Backend:
        answers = query_check(query, log, threshold, backend)
        got = [(-ans.support, ans.binding[x].label, ans.binding[y].label) for ans in answers]
        assert got == want, backend


def test_query_threshold_validation():
    log = _log("ab")
    query = Query(terms=(QueryTerm(TemplateKind.RESPONSE, A, Variable("y")),))
    for bad in (0, Fraction(0), -1, Fraction(3, 2), 1.5):
        with pytest.raises(ValueError):
            query_check(query, log, bad)
    # exactly 1 is allowed
    assert query_check(query, log, 1) is not None


def test_query_accepts_float_and_string_thresholds():
    log = _log("abab", "abac", "abadabd")
    y = Variable("y")
    query = Query(terms=(QueryTerm(TemplateKind.RESPONSE, A, y),))
    as_fraction = query_check(query, log, Fraction(1, 2))
    as_string = query_check(query, log, "1/2")
    assert as_fraction == as_string


def test_query_empty_log_rejected():
    query = Query(terms=(QueryTerm(TemplateKind.RESPONSE, A, Variable("y")),))
    with pytest.raises(EmptyLogError):
        query_check(query, EventLog(()), Fraction(1, 2))


def test_query_backends_agree():
    log = _log("abab", "abac", "abadabd")
    y = Variable("y")
    query = Query(terms=(QueryTerm(TemplateKind.CHAIN_RESPONSE, A, y),))
    results = {
        backend: query_check(query, log, Fraction(1, 100), backend)
        for backend in Backend
    }
    assert results[Backend.DIRECT] == results[Backend.TREE] == results[Backend.DFA]
