"""Tests for the formula layer: parsing, printing, semantics, normal form."""

import copy
import itertools
import pickle
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from declarekit import (
    Activity,
    Backend,
    Constraint,
    FormulaSyntaxError,
    TemplateKind,
    Trace,
    check_log,
    ev_empty,
    eval_tree,
    nnf,
    parse_formula,
    pretty,
    template_formula,
)
from declarekit import ltlf
from declarekit.core import code_events
from declarekit.ltlf import (
    FALSE,
    TRUE,
    And,
    Atom,
    Eventually,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakNext,
    WeakUntil,
    _plan,
    atoms,
    eval_log,
    subformulas,
)

from oracles import _sat, all_traces, naive_eval

A, B, C = Activity("a"), Activity("b"), Activity("c")


# --------------------------------------------------------------------------
# Node classes
# --------------------------------------------------------------------------

def test_nodes_of_one_arity_differ_by_class():
    x, y = Atom(A), Atom(B)
    assert Not(x) != Next(x)
    assert Until(x, y) != WeakUntil(x, y)
    assert And((x, y)) != Or((x, y))
    assert Until(x, y) == Until(Atom(A), Atom(B))


def test_equal_nodes_hash_equal():
    f = parse_formula("G(a -> X(!a U b)) & (a R b) & Xw F a")
    g = parse_formula("G(a -> X(!a U b)) & (a R b) & Xw F a")
    assert f is g
    assert hash(f) == hash(g)
    assert {f: 1}[g] == 1


def test_threads_building_the_same_nodes_get_one_object_each():
    """Threads that build the same new nodes at once all get the pool's."""
    texts = [iff_chain(8, f"thread{i}_") for i in range(40)]  # atoms no other test uses
    built = [None] * 4

    def build(k):
        built[k] = [parse_formula(text) for text in texts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(len(built))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for nodes in built:
        assert all(node is first for node, first in zip(nodes, built[0], strict=True))


def test_nodes_are_frozen_and_slotted():
    x = Atom(A)
    for node in (Not(x), Next(x), Until(x, x), Release(x, x), And((x, x)), Or((x, x))):
        field = type(node)._fields[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(node, field, x)
        assert not hasattr(node, "__dict__")


def test_nary_nodes_need_two_operands():
    with pytest.raises(ValueError, match="And needs at least two operands"):
        And((Atom(A),))
    with pytest.raises(ValueError, match="Or needs at least two operands"):
        Or(())


def test_every_node_class_pickles_and_deep_copies():
    x, y = Atom(A), Atom(B)
    nodes = [
        x, TRUE, FALSE, Not(x), And((x, y, TRUE)), Or((x, FALSE)), Implies(x, y),
        Iff(x, y), Next(x), WeakNext(x), Until(x, y), Release(x, y), WeakUntil(x, y),
        Eventually(x), Globally(x), parse_formula("G(a -> F b) & (Xw c | !(a U b))"),
    ]
    for node in nodes:
        copies = [copy.deepcopy(node)] + [
            pickle.loads(pickle.dumps(node, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for twin in copies:
            assert type(twin) is type(node)
            assert twin == node and hash(twin) == hash(node), repr(node)


def test_node_repr_names_the_class():
    x = Atom(A)
    assert repr(Not(x)).startswith("Not(arg=Atom(")
    assert repr(WeakNext(x)).startswith("WeakNext(arg=")
    assert repr(WeakUntil(x, x)).startswith("WeakUntil(left=")
    assert repr(And((x, x))).startswith("And(args=(")


# --------------------------------------------------------------------------
# Parsing and printing
# --------------------------------------------------------------------------

def test_parse_response_shape():
    f = parse_formula("G(a -> F b)")
    assert f == Globally(Implies(Atom(A), Eventually(Atom(B))))


def test_parse_weak_until_negated_atom():
    f = parse_formula("!b W a")
    assert f == WeakUntil(Not(Atom(B)), Atom(A))


def test_parse_flattens_conjunction_chains():
    f = parse_formula("a & b & c")
    assert isinstance(f, And)
    assert len(f.args) == 3


def test_parse_precedence_binds_unary_tightest():
    # !a U b parses as (!a) U b, not !(a U b)
    assert parse_formula("!a U b") == Until(Not(Atom(A)), Atom(B))


def test_parse_until_is_right_associative():
    assert parse_formula("a U b U c") == Until(Atom(A), Until(Atom(B), Atom(C)))


def test_parse_quoted_label():
    f = parse_formula('F "send order"')
    assert f == Eventually(Atom(Activity("send order")))


def test_parse_reserved_word_needs_quotes():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("F F")
    assert parse_formula('F "F"') == Eventually(Atom(Activity("F")))


def test_syntax_error_reports_offset():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("G(a -> )")
    assert err.value.offset == 7


def test_trailing_garbage_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("a b")


_BINARY_OPS = {"<->": Iff, "->": Implies, "|": Or, "&": And, "U": Until, "W": WeakUntil,
               "R": Release}
_UNARY_OPS = {"!": Not, "X": Next, "Xw": WeakNext, "F": Eventually, "G": Globally}

# Row o1, column o2 (both in _BINARY_OPS order): how "a o1 b o2 c" groups.
# L is (a o1 b) o2 c, R is a o1 (b o2 c), N is one n-ary node over a, b, c.
_PAIR_GROUPING = {
    "<->": "RRRRRRR",
    "->": "LRRRRRR",
    "|": "LLNRRRR",
    "&": "LLLNRRR",
    "U": "LLLLRRR",
    "W": "LLLLRRR",
    "R": "LLLLRRR",
}


def _node(op: str, *args):
    cls = _BINARY_OPS[op]
    return cls(args) if cls in (And, Or) else cls(*args)


def test_every_pair_of_binary_operators_groups_as_pinned():
    """Each pair's tree, and its printing with and without brackets."""
    a, b, c = Atom(A), Atom(B), Atom(C)
    for o1, row in _PAIR_GROUPING.items():
        for o2, grouping in zip(_BINARY_OPS, row, strict=True):
            text = f"a {o1} b {o2} c"
            f = parse_formula(text)
            if grouping == "N":
                assert f == _node(o1, a, b, c), text
            elif grouping == "L":
                assert f == _node(o2, _node(o1, a, b), c), text
            else:
                assert f == _node(o1, a, _node(o2, b, c)), text
            assert pretty(f) == text
            # Brackets that agree with the grouping are dropped, others kept.
            for bracketed, side in ((f"(a {o1} b) {o2} c", "L"), (f"a {o1} (b {o2} c)", "R")):
                assert pretty(parse_formula(bracketed)) == (
                    text if grouping == side else bracketed
                ), bracketed


def test_unary_operators_bind_tighter_than_every_binary_one():
    a, b = Atom(A), Atom(B)
    for u, cls in _UNARY_OPS.items():
        gap = "" if u == "!" else " "
        for o in _BINARY_OPS:
            f = parse_formula(f"{u} a {o} b")
            assert f == _node(o, cls(a), b)
            assert pretty(f) == f"{u}{gap}a {o} b"
            g = parse_formula(f"a {o} {u} b")
            assert g == _node(o, a, cls(b))
            assert pretty(g) == f"a {o} {u}{gap}b"
            assert pretty(parse_formula(f"{u} (a {o} b)")) == f"{u}(a {o} b)"


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("(a & b", "expected rparen, found ''", 6),
        ("a b", "unexpected trailing input 'b'", 2),
        ("(a))", "unexpected trailing input ')'", 3),
        ("true false", "unexpected trailing input 'false'", 5),
        ("U", "operator 'U' found where an operand was expected", 0),
        ("a U W b", "operator 'W' found where an operand was expected", 4),
        ("a U", "unexpected token ''", 3),
        ('"\\x"', "bad escape in quoted label", 1),
        ('"open', "unexpected character '\"'", 0),
        ("$", "unexpected character '$'", 0),
        ("a <- b", "unexpected character '<'", 2),
        ("", "unexpected token ''", 0),
        ("   ", "unexpected token ''", 3),
        ("a ->", "unexpected token ''", 4),
        (")", "unexpected token ')'", 0),
        ("()", "unexpected token ')'", 1),
        ("F F", "unexpected token ''", 3),
        ("!(a U)", "unexpected token ')'", 5),
        ("a & & b", "unexpected token '&'", 4),
        ("a <-> <-> b", "unexpected token '<->'", 6),
        ('"*"', 'the label "*" is reserved and cannot name an activity', 0),
        ('F ""', "activity label must be a non-empty string", 2),
        ('a & F "*"', 'the label "*" is reserved and cannot name an activity', 6),
    ],
)
def test_syntax_errors_are_pinned(text, message, offset):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


def _tall(ops: tuple[str, ...]):
    """The shape whose operators, but one in each bracket, sit on left
    operands, where the parser's cursor opens no level: with U, &, | and
    -> it is (... U a & a | a -> a) U a & ..., and the token that opens
    level n is its last operator."""

    def text(n: int) -> str:
        out = "a"
        for i in range(n):
            if i and i % len(ops) == 0:
                out = f"({out})"
            out += f" {ops[i % len(ops)]} a"
        return out

    return text, lambda n: text(n).rindex(" ", 0, -2) + 1


# Formulas n levels deep, each with the offset of the token that opens
# level n: the shapes that once ended in RecursionError, and the ones a
# tree n levels tall parses from with fewer levels open at once.
DEEP_SHAPES = {
    "brackets": (lambda n: "(" * n + "a" + ")" * n, lambda n: n - 1),
    "negations": (lambda n: "!" * n + "a", lambda n: n - 1),
    "implications": (lambda n: "a -> " * n + "a", lambda n: 5 * n - 3),
    "nexts": (lambda n: "X " * n + "a", lambda n: 2 * n - 2),
    "untils": (lambda n: "a U " * n + "a", lambda n: 4 * n - 2),
    "mixed": (lambda n: "(!" * (n // 2) + "!" * (n % 2) + "a" + ")" * (n // 2), lambda n: n - 1),
    "left untils": _tall(("U", "&", "|", "->")),
    # -> puts a negated W on its left, which nnf expands.
    "left weak untils": _tall(("W", "&", "|", "->")),
}


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_nesting_is_bounded_below_every_recursion_limit(shape):
    """At the bound a formula parses, prints, normalizes and compiles; one
    level past it is a syntax error at the token that opens that level."""
    from declarekit import compile_formula

    text, offset = DEEP_SHAPES[shape]
    bound = ltlf._MAX_NESTING
    f = parse_formula(text(bound))
    assert parse_formula(pretty(f)) == f
    assert compile_formula(nnf(f)).n_states == compile_formula(f).n_states
    assert compile_formula(nnf(Not(f))).n_states == compile_formula(Not(f)).n_states
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text(bound + 1))
    assert err.value.offset == offset(bound + 1)
    assert str(err.value) == f"formula nests deeper than {bound} levels (at offset {offset(bound + 1)})"


_atoms = st.sampled_from([Atom(A), Atom(B), Atom(C)])


def _formulas(children):
    unary = st.sampled_from(["!", "X", "Xw", "F", "G"])
    binary = st.sampled_from(["U", "W", "R", "->", "<->"])
    return st.one_of(
        st.builds(lambda op, f: parse_formula(f"{op}({pretty(f)})"), unary, children),
        st.builds(
            lambda op, f, g: parse_formula(f"({pretty(f)}) {op} ({pretty(g)})"),
            binary,
            children,
            children,
        ),
        st.builds(lambda fs: And(tuple(fs)), st.lists(children, min_size=2, max_size=3)),
        st.builds(lambda fs: Or(tuple(fs)), st.lists(children, min_size=2, max_size=3)),
    )


formula_strategy = st.recursive(_atoms, _formulas, max_leaves=12)
# All 12 operators over three atoms and both constants.
_any_formula = st.recursive(
    st.sampled_from([Atom(A), Atom(B), Atom(C), TRUE, FALSE]), _formulas, max_leaves=12
)


@given(formula_strategy)
@settings(max_examples=200, deadline=None)
def test_pretty_round_trips(f):
    """Printing then reparsing reproduces the same tree."""
    assert parse_formula(pretty(f)) == f


# --------------------------------------------------------------------------
# Template formulas
# --------------------------------------------------------------------------

def test_all_templates_build():
    for kind in TemplateKind:
        f = template_formula(kind, A, B)
        assert pretty(f)


def test_response_template_text():
    assert pretty(template_formula(TemplateKind.RESPONSE, A, B)) == "G(a -> F b)"


def test_precedence_template_text():
    assert pretty(template_formula(TemplateKind.PRECEDENCE, A, B)) == "!b W a"


def test_alternate_response_template_text():
    f = template_formula(TemplateKind.ALTERNATE_RESPONSE, A, B)
    assert pretty(f) == "G(a -> X(!a U b))"


def test_chain_precedence_includes_initial_exclusion():
    """Chain precedence also forbids the target at the first position."""
    f = template_formula(TemplateKind.CHAIN_PRECEDENCE, A, B)
    assert not eval_tree(f, Trace.from_labels(0, "b"))
    assert eval_tree(f, Trace.from_labels(0, "ab"))


def test_succession_is_conjunction_of_sides():
    pairs = [
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
    for whole, resp, prec in pairs:
        f = template_formula(whole, A, B)
        assert isinstance(f, And)
        assert set(f.args) == {
            template_formula(resp, A, B),
            template_formula(prec, A, B),
        }


def test_template_rejects_equal_arguments_nowhere():
    # binding both slots to the same activity is allowed; semantics decide
    f = template_formula(TemplateKind.RESPONSE, A, A)
    assert eval_tree(f, Trace.from_labels(0, "a"))


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

def test_eval_response_example():
    f = parse_formula("G(a -> F b)")
    assert eval_tree(f, Trace.from_labels(0, "aaabc"))
    assert not eval_tree(f, Trace.from_labels(0, "aabca"))


def test_empty_trace_valuations():
    cases = {
        "F a": False,
        "G a": True,
        "X a": False,
        "Xw a": True,
        "a U b": False,
        "a W b": True,
        "a R b": True,
        "a -> b": True,
        "a | b": False,
    }
    empty = Trace(0, ())
    for text, expected in cases.items():
        f = parse_formula(text)
        assert ev_empty(f) == expected, text
        assert eval_tree(f, empty) == expected, text


def test_choice_templates_fail_on_empty_trace():
    empty = Trace(0, ())
    for kind in TemplateKind:
        f = template_formula(kind, A, B)
        expected = kind not in (TemplateKind.CHOICE, TemplateKind.EXCLUSIVE_CHOICE)
        assert eval_tree(f, empty) == expected, kind


@given(formula_strategy, st.lists(st.sampled_from("abc"), max_size=6))
@settings(max_examples=300, deadline=None)
def test_eval_matches_naive_semantics(f, labels):
    trace = Trace.from_labels(0, labels)
    assert eval_tree(f, trace) == naive_eval(f, trace)


def test_eval_matches_naive_on_exhaustive_grid():
    """A fixed formula set against every trace over {a,b,c} up to length 5."""
    texts = [
        "G(a -> F b)", "!b W a", "a U b", "X a", "Xw a", "F(a | b)",
        "F a <-> F b", "G(a -> X(!a U b))", "G(X b -> a) & !b",
        "a R b", "(a U b) | G a", "!(F a & F b)", "G F a", "F G b",
    ]
    for text in texts:
        f = parse_formula(text)
        for trace in all_traces(("a", "b", "c"), 5):
            assert eval_tree(f, trace) == naive_eval(f, trace), (text, trace)


def test_globally_eventually_means_last_position():
    """GF a holds exactly when the final event is a (vacuously on no events)."""
    f = parse_formula("G F a")
    for trace in all_traces(("a", "b"), 6):
        expected = len(trace) == 0 or trace[len(trace) - 1] is A
        assert eval_tree(f, trace) == expected


def _eval_table(f, trace):
    """(preorder node id, position) -> satisfaction, for every node of f
    at every position of a trace, from one eval_log over the log of the
    trace's suffixes: the operators look only forward, so node g holds
    at position t exactly when it holds on suffix t."""
    nodes = subformulas(f)
    suffixes = [Trace(t, trace.events[t:]) for t in range(len(trace))]
    verdicts = eval_log(nodes, code_events(suffixes, atoms(f)))
    return {(i, t): v == 1 for i, column in enumerate(verdicts) for t, v in enumerate(column)}


def test_eval_table_has_one_cell_per_node_and_position():
    f = parse_formula("G(a -> F b)")
    trace = Trace.from_labels(0, "abab")
    table = _eval_table(f, trace)
    n_nodes = len(list(subformulas(f)))
    assert len(table) == n_nodes * len(trace)
    assert table[(0, 0)] == eval_tree(f, trace)


def test_eval_table_matches_naive_at_every_position():
    from oracles import desugar, _sat

    f = parse_formula("(a U b) & G(c -> X a)")
    trace = Trace.from_labels(0, "acabcb")
    table = _eval_table(f, trace)
    nodes = list(subformulas(f))
    core = [desugar(g) for g in nodes]
    for idx, g in enumerate(core):
        for pos in range(len(trace)):
            assert table[(idx, pos)] == _sat(g, trace.events, pos), (idx, pos)


# Lengths at and around the 30-bit digit and 64-bit word boundaries, where a
# carry or bit-order slip in the mask arithmetic would first show.
_LONG_LENGTHS = (1, 2, 29, 30, 31, 59, 60, 61, 62, 63, 64, 65, 127, 128, 129, 200)

_LONG_FORMULAS = [
    "a U b", "a W b", "a R b", "X a", "Xw a", "F a", "G a",
    "G(a -> X(!a U b))", "(!b W a) & G(b -> Xw(!b W a))",
    "(a U (b R c)) W X c", "F G(a | c)", "!(a U X b) <-> (c R Xw a)",
]


def _long_traces(n, rng):
    """Uniform, a-heavy (long U/W chains) and two fixed shapes of length n."""
    yield "".join(rng.choice("abc") for _ in range(n))
    yield "".join(rng.choices("abc", weights=(20, 1, 1), k=n))
    yield "a" * (n - 1) + "b"
    yield "b" + "a" * (n - 1)


def _memoize_sat(monkeypatch):
    """Cache oracles._sat per (node, position) for one trace.

    _sat recurses through its module global, so patching the global also
    caches the nested calls: nested U then costs O(n^2), not O(n^3), on
    the long traces, and the semantics stay those written in the oracle.
    """
    import oracles

    memo = {}

    def sat(f, events, i):
        key = (id(f), i)  # the nodes outlive the memo: the caller holds them
        if key not in memo:
            memo[key] = _sat(f, events, i)
        return memo[key]

    monkeypatch.setattr(oracles, "_sat", sat)
    return sat


def test_eval_table_matches_naive_on_long_traces(monkeypatch):
    """Every node at every position, on traces up to 200 events, against the oracle."""
    from oracles import desugar

    rng = random.Random(20261018)
    formulas = [parse_formula(text) for text in _LONG_FORMULAS]
    cores = [[desugar(g) for g in subformulas(f)] for f in formulas]
    cells = 0
    for n in _LONG_LENGTHS:
        for labels in _long_traces(n, rng):
            trace = Trace.from_labels(0, labels)
            sat = _memoize_sat(monkeypatch)
            for f, core in zip(formulas, cores):
                table = _eval_table(f, trace)
                assert len(table) == len(core) * n
                for node_id, g in enumerate(core):
                    for pos in range(n):
                        assert table[(node_id, pos)] == sat(g, trace.events, pos), (
                            pretty(f), labels, node_id, pos,
                        )
                cells += len(table)
                assert eval_tree(f, trace) == table[(0, 0)]
    assert cells > 100_000


def test_model_plan_has_one_step_per_distinct_subformula():
    """One plan for 13 templates over three disjoint pairs: 102 steps where
    the formulas planned one by one take 279, and one atom per activity."""
    pairs = [(Activity(f"p{i}"), Activity(f"p{i + 1}")) for i in (0, 2, 4)]
    formulas = tuple(template_formula(kind, a, b) for kind in TemplateKind for a, b in pairs)
    steps, roots = _plan(formulas)
    assert len(steps) == len({g for f in formulas for g in subformulas(f)}) == 102
    assert sum(len(_plan((f,))[0]) for f in formulas) == 279
    assert sorted(atom.label for op, _, atom in steps if op is Atom) == [
        f"p{i}" for i in range(6)
    ]
    # One root step per formula, of the formula's own node class.
    assert [steps[r][0] for r in roots] == [type(f) for f in formulas]
    assert len(set(roots)) == len(formulas)


def test_equal_formulas_share_one_root():
    response = template_formula(TemplateKind.RESPONSE, A, B)
    succession = template_formula(TemplateKind.SUCCESSION, A, B)
    steps, roots = _plan((response, succession, response))
    assert len(steps) == len(_plan((succession,))[0])
    assert roots[0] == roots[2]
    # Succession's first conjunct is Response: its step is Response's root.
    assert steps[roots[1]][1][0] == roots[0]
    traces = list(all_traces(("a", "b", "w"), 4))
    verdicts = eval_log((response, succession, response), code_events(traces, (A, B)))
    for i, trace in enumerate(traces):
        want = [naive_eval(f, trace) for f in (response, succession, response)]
        assert [column[i] == 1 for column in verdicts] == want, trace.events


def test_only_root_masks_outlive_their_readers(monkeypatch):
    """After a plan of several formulas is evaluated, every step's mask is
    dropped after its last reader and every atom's mask once its step
    reads it; only the roots' masks are left, Response's too, though
    Succession reads it."""
    formulas = tuple(template_formula(kind, A, B) for kind in TemplateKind)
    formulas += (template_formula(TemplateKind.RESPONSE, B, C),)
    steps, roots = _plan(formulas)
    built = []

    def recorded(atoms, coded):
        built.append(atom_masks(atoms, coded))
        return built[-1]

    atom_masks = ltlf._atom_masks
    monkeypatch.setattr(ltlf, "_atom_masks", recorded)
    traces = list(all_traces(("a", "b", "c", "w"), 3))
    masks = ltlf._eval_steps(steps, roots, code_events(traces, (A, B, C)))
    assert len(masks) == len(steps) > len(set(roots))
    assert [k for k, m in enumerate(masks) if m is not None] == sorted(set(roots))
    assert built == [{}]


def sweep_with_empty_traces(max_len):
    """Every trace over {a, b, w} up to max_len, each followed by an empty one."""
    empty = Trace(0, ())
    return [t for trace in all_traces(("a", "b", "w"), max_len) for t in (trace, empty)]


def test_log_evaluation_matches_oracle_on_every_short_trace(monkeypatch):
    """All 13 kinds at (a,b), (a,a) and (b,a) as one plan, over one log of
    every {a,b,w} trace up to length 8 with empty traces between them:
    every verdict equals the formula oracle's."""
    from oracles import _empty, desugar

    formulas = [
        template_formula(kind, x, y) for kind in TemplateKind for x, y in ((A, B), (A, A), (B, A))
    ]
    traces = sweep_with_empty_traces(8)
    verdicts = eval_log(formulas, code_events(traces, (A, B)))
    assert [len(column) for column in verdicts] == [len(traces)] * len(formulas)
    # Equal subformulas of the oracle's cores are one interned node, so
    # the per-trace memo serves them once across all 39 formulas.
    cores = [desugar(f) for f in formulas]
    for i, trace in enumerate(traces):
        if trace.events:
            sat = _memoize_sat(monkeypatch)
            want = [sat(core, trace.events, 0) for core in cores]
        else:
            want = [_empty(core) for core in cores]
        assert [column[i] == 1 for column in verdicts] == want, trace.events


@given(
    st.lists(_any_formula, min_size=1, max_size=3),
    st.lists(st.lists(st.sampled_from("abcw"), max_size=8), max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_log_evaluation_matches_oracle_on_random_logs(formulas, logs):
    """Any formulas on a random multi-trace log."""
    traces = [Trace.from_labels(i, labels) for i, labels in enumerate(logs)]
    verdicts = eval_log(formulas, code_events(traces, (A, B, C)))
    for f, column in zip(formulas, verdicts):
        assert [v == 1 for v in column] == [naive_eval(f, t) for t in traces], pretty(f)


def test_tree_alternate_succession_is_linear_in_trace_length():
    """400k events check in well under a second (about 18 s when U and W
    loop over positions, on a 2-core Xeon VM).

    Until, WeakUntil and Release are carry chains over whole-trace masks,
    so the tree backend is linear in trace length.
    """
    n = 400_000
    constraint = Constraint(0, TemplateKind.ALTERNATE_SUCCESSION, A, B)
    good = Trace.from_labels(0, "ab" * (n // 2))
    bad = Trace.from_labels(1, "ab" * (n // 2 - 1) + "ba")
    started = time.perf_counter()
    (verdicts,) = check_log((good, bad), (constraint,), Backend.TREE)
    elapsed = time.perf_counter() - started
    assert verdicts == bytearray((1, 0))
    assert elapsed < 2.0, elapsed


# --------------------------------------------------------------------------
# Negation normal form
# --------------------------------------------------------------------------

def test_nnf_known_rewrites():
    f = nnf(parse_formula("!G(a -> F b)"))
    assert pretty(f) == "F(a & G !b)"
    g = nnf(parse_formula("!(!b W a)"))
    assert pretty(g) == "F b & b R !a"


def test_nnf_pushes_negation_to_atoms():
    def only_atomic_negs(f):
        for g in subformulas(f):
            if isinstance(g, Not) and not isinstance(g.arg, Atom):
                return False
            if isinstance(g, (Implies,)):
                return False
        return True

    for text in ["!(a U b)", "!(a R b)", "!(a W b)", "!X a", "!Xw a", "!(a <-> b)"]:
        assert only_atomic_negs(nnf(parse_formula(text))), text


@given(_any_formula)
@settings(max_examples=300, deadline=None)
def test_nnf_leaves_only_negated_atoms(f):
    for g in (f, Not(f)):
        for node in subformulas(nnf(g)):
            assert not isinstance(node, (Implies, Iff)), node
            assert not isinstance(node, Not) or isinstance(node.arg, Atom), node


@given(formula_strategy, st.lists(st.sampled_from("abc"), max_size=6))
@settings(max_examples=300, deadline=None)
def test_nnf_preserves_meaning(f, labels):
    trace = Trace.from_labels(0, labels)
    assert eval_tree(nnf(f), trace) == eval_tree(f, trace)


def test_nnf_preserves_meaning_bulk_random():
    """A seeded volume run: random formulas, random traces, one comparison each."""
    rng = random.Random(20260816)
    atoms = ["a", "b", "c"]

    def grow(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        shape = rng.randrange(7)
        if shape == 0:
            return f"!({grow(depth - 1)})"
        if shape == 1:
            return f"({grow(depth - 1)}) {rng.choice(['&', '|'])} ({grow(depth - 1)})"
        if shape == 2:
            return f"({grow(depth - 1)}) {rng.choice(['U', 'W', 'R'])} ({grow(depth - 1)})"
        if shape == 3:
            return f"({grow(depth - 1)}) {rng.choice(['->', '<->'])} ({grow(depth - 1)})"
        return f"{rng.choice(['X', 'Xw', 'F', 'G'])}({grow(depth - 1)})"

    for _ in range(10_000):
        f = parse_formula(grow(3))
        trace = Trace.from_labels(
            0, [rng.choice(atoms) for _ in range(rng.randrange(8))]
        )
        assert eval_tree(nnf(f), trace) == eval_tree(f, trace), pretty(f)


def iff_chain(n, prefix=""):
    """The text a <-> b <-> a <-> ... of n terms. nnf puts each side of a
    <-> in both polarities, so its tree after nnf has more than 2^n leaves."""
    return " <-> ".join(prefix + "ab"[i % 2] for i in range(n))


@pytest.mark.parametrize("n", (8, 16, 32))
def test_nnf_of_an_iff_chain_is_a_dag_of_linearly_many_nodes(n, monkeypatch):
    """nnf rewrites each distinct node at most once per polarity and shares
    the rewrites, counted by its calls, by a distinct-node walk and by the
    pool's growth."""
    f = parse_formula(iff_chain(n, f"cliff{n}_"))  # atoms that no other test uses
    rewrites = []
    rewrite = ltlf._rewrite
    monkeypatch.setattr(ltlf, "_rewrite", lambda *args: rewrites.append(args[:2]) or rewrite(*args))
    pooled = len(ltlf.Formula._pool)
    g = nnf(f)
    assert len(rewrites) <= 2 * len(subformulas(f)) == 2 * n + 2
    assert len(ltlf.Formula._pool) - pooled <= len(subformulas(g)) <= 6 * n
    assert nnf(f) is g and atoms(g) == atoms(f)
