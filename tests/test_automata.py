"""Tests for formula-to-DFA compilation, minimization, and exports."""

import itertools
import json

import pytest
from hypothesis import example, given, settings

from declarekit import (
    Activity,
    StateBudgetExceeded,
    TemplateKind,
    Trace,
    compile_formula,
    complement,
    eval_tree,
    minimize,
    parse_formula,
    pretty,
    product,
    template_dfa,
    template_formula,
    to_dot,
    to_facts_dict,
    to_facts_json,
)
from declarekit import automata
from declarekit.automata import walk_log
from declarekit.core import code_events
from declarekit.ltlf import FALSE, TRUE

from oracles import all_traces, assert_minimal, naive_eval
from test_ltlf import _any_formula, sweep_with_empty_traces

A, B, C = Activity("a"), Activity("b"), Activity("c")


def _language(dfa, max_len):
    """Acceptance verdict of every trace over {a,b,w} up to max_len."""
    return tuple(dfa.accepts(tr.events) for tr in all_traces(("a", "b", "w"), max_len))


def _formula_language(f, max_len):
    return tuple(eval_tree(f, tr) for tr in all_traces(("a", "b", "w"), max_len))


def test_response_dfa_facts():
    """Response(a,b) compiles to the published two-state automaton."""
    dfa = minimize(compile_formula(template_formula(TemplateKind.RESPONSE, A, B)))
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


def test_constant_formulas_compile_to_one_state():
    for f, accepts_empty in ((TRUE, True), (FALSE, False)):
        dfa = minimize(compile_formula(f))
        assert dfa.n_states == 1
        assert dfa.accepts(()) == accepts_empty


def test_compiled_language_matches_tree_evaluation():
    """Every template DFA agrees with formula evaluation on all traces to length 5."""
    for kind in TemplateKind:
        f = template_formula(kind, A, B)
        dfa = template_dfa(kind, A, B)
        assert _language(dfa, 5) == _formula_language(f, 5), kind


def test_template_dfas_are_minimal():
    for kind in TemplateKind:
        assert_minimal(template_dfa(kind, A, B))


def test_minimize_is_idempotent():
    for kind in TemplateKind:
        dfa = template_dfa(kind, A, B)
        assert minimize(dfa) == dfa


def _breadth_first_order(dfa):
    """States in the order a breadth-first walk from state 0 visits them,
    taking each state's columns in order."""
    order, seen = [0], {0}
    for s in order:
        for t in dfa.moves[s]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order


def test_minimize_numbers_states_breadth_first():
    kinds = list(TemplateKind)
    dfas = []
    for kind in kinds:
        for act, tgt in ((A, B), (A, A)):
            dfa = template_dfa(kind, act, tgt)
            dfas += [dfa, minimize(complement(dfa))]
    for kind, other in zip(kinds, kinds[1:] + kinds[:1]):
        dfas.append(minimize(product(template_dfa(kind, A, B), template_dfa(other, A, B))))
    for dfa in dfas:
        assert dfa.initial == 0
        assert _breadth_first_order(dfa) == list(range(dfa.n_states))


_ABCW_TRACES = tuple(all_traces(("a", "b", "c", "w"), 4))


@given(_any_formula)
@example(parse_formula("G(b | a | c) W X(b U a)"))
@settings(max_examples=150, deadline=None)
def test_arbitrary_formulas_compile_to_their_language(f):
    """Residuals that differ only in how And and Or nest are one state, so
    small formulas stay small; the DFA agrees with naive evaluation."""
    dfa = minimize(compile_formula(f, state_budget=64))
    for tr in _ABCW_TRACES:
        assert dfa.accepts(tr.events) == naive_eval(f, tr), (pretty(f), tr.events)


_ABC_BASES = tuple(tr.events for tr in all_traces(("a", "b", "c"), 2))


@given(_any_formula)
@example(parse_formula("X X a"))
@example(parse_formula("G(a -> X b)"))
@example(parse_formula("X(b U a) & Xw Xw !c"))
@settings(max_examples=100, deadline=None)
def test_colored_walk_matches_dense_walk(f):
    """One log walk of a formula's automaton and its complement, as one
    colored product, gives each trace the dense walk's verdicts. Runs of
    unnamed events are longer than the automaton, and events of atoms the
    formula does not name are unnamed too."""
    dfa = minimize(compile_formula(f, state_budget=64))
    run = (Activity("w"),) * (dfa.n_states + 1)
    sweep = []
    for base in _ABC_BASES:
        for k in range(len(base) + 1):
            sweep.append(base[:k] + run + base[k:])
        sweep.append(run + tuple(x for ev in base for x in (ev, *run)))
    traces = [Trace(i, events) for i, events in enumerate(sweep)]
    accepted, rejected = walk_log(
        (dfa, complement(dfa)), code_events(traces, (A, B, C, Activity("w")))
    )
    for i, trace in enumerate(traces):
        want = dfa.accepts(trace.events)
        assert (accepted[i], rejected[i]) == (want, not want), (pretty(f), trace.events)
        assert want == naive_eval(f, trace), (pretty(f), trace.events)


_PAIRS = ((A, B), (A, A), (B, A))


def test_colored_products_match_each_automaton_on_every_short_trace():
    """All 13 kinds at (a,b), (a,a) and (b,a) in one model, over one log of
    every {a,b,w} trace up to length 8 with empty traces between them:
    each product state's verdict tuple is the tuple of the automata's own
    dense walks."""
    dfas = [template_dfa(kind, x, y) for kind in TemplateKind for x, y in _PAIRS]
    assert len({dfa.named for dfa in dfas}) == 2  # (a, b) and (b, a) share a product
    traces = sweep_with_empty_traces(8)
    verdicts = walk_log(dfas, code_events(traces, (A, B)))
    for i, trace in enumerate(traces):
        got = tuple(column[i] == 1 for column in verdicts)
        assert got == tuple(dfa.accepts(trace.events) for dfa in dfas), trace.events


def test_oversized_product_is_split(monkeypatch):
    """A group whose product exceeds the state cap walks in parts, with the
    same verdicts."""
    dfas = [template_dfa(kind, x, y) for kind in TemplateKind for x, y in _PAIRS]
    traces = sweep_with_empty_traces(5)
    coded = code_events(traces, (A, B))
    whole = walk_log(dfas, coded)
    built = []
    real = automata._colored_product

    def recording(parts, limit):
        product = real(parts, limit)
        built.append((len(parts), product is None))
        return product

    monkeypatch.setattr(automata, "_PRODUCT_STATES", 4)
    monkeypatch.setattr(automata, "_colored_product", recording)
    assert walk_log(dfas, coded) == whole
    assert (26, True) in built  # the (a, b) group, over the cap
    assert max(size for size, failed in built if not failed) < 26


def test_minimize_preserves_language():
    f = parse_formula("G(a -> X(!a U b)) & F b")
    raw = compile_formula(f)
    small = minimize(raw)
    assert small.n_states <= raw.n_states
    assert _language(raw, 5) == _language(small, 5)
    assert_minimal(small)


def test_chain_response_run_examples():
    dfa = template_dfa(TemplateKind.CHAIN_RESPONSE, A, B)
    assert not dfa.accepts(Trace.from_labels(0, "aaaba").events)
    assert dfa.accepts(Trace.from_labels(0, "abab").events)
    assert dfa.accepts(Trace.from_labels(0, "").events)


def test_unnamed_symbols_fall_to_wildcard():
    """Activities the formula never mentions all behave like one another."""
    dfa = template_dfa(TemplateKind.ALTERNATE_RESPONSE, A, B)
    for labels in itertools.product(("a", "b", "x"), repeat=4):
        swapped = tuple("y" if s == "x" else s for s in labels)
        t1 = Trace.from_labels(0, labels)
        t2 = Trace.from_labels(0, swapped)
        assert dfa.accepts(t1.events) == dfa.accepts(t2.events)


def test_complement_flips_every_verdict():
    dfa = template_dfa(TemplateKind.PRECEDENCE, A, B)
    flipped = complement(dfa)
    for tr in all_traces(("a", "b", "w"), 4):
        assert flipped.accepts(tr.events) == (not dfa.accepts(tr.events))


def test_product_is_intersection():
    response = template_dfa(TemplateKind.RESPONSE, A, B)
    precedence = template_dfa(TemplateKind.PRECEDENCE, A, B)
    chain = complement(template_dfa(TemplateKind.CHAIN_RESPONSE, A, B))
    for dfas in ((response, precedence), (response, precedence, chain)):
        both = product(*dfas)
        for tr in all_traces(("a", "b", "w"), 4):
            expected = all(d.accepts(tr.events) for d in dfas)
            assert both.accepts(tr.events) == expected, (len(dfas), tr.events)


def test_succession_dfa_equals_product_of_sides():
    whole = template_dfa(TemplateKind.SUCCESSION, A, B)
    built = minimize(
        product(
            template_dfa(TemplateKind.RESPONSE, A, B),
            template_dfa(TemplateKind.PRECEDENCE, A, B),
        )
    )
    assert whole == built


def test_state_budget_enforced():
    f = template_formula(TemplateKind.ALTERNATE_SUCCESSION, A, B)
    with pytest.raises(StateBudgetExceeded):
        compile_formula(f, state_budget=1)


def test_facts_json_is_deterministic():
    dfa = template_dfa(TemplateKind.CHAIN_PRECEDENCE, A, B)
    one = to_facts_json(dfa, "ChainPrecedence", activation=A, target=B)
    two = to_facts_json(dfa, "ChainPrecedence", activation=A, target=B)
    assert one == two
    doc = json.loads(one)
    assert doc["kind"] == "ChainPrecedence"
    rows = doc["transitions"]
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))


def test_dot_output_shape():
    dfa = template_dfa(TemplateKind.RESPONSE, A, B)
    dot = to_dot(dfa, activation=A, target=B)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert "arg_0" in dot and "*" in dot


def test_minimal_state_counts_are_stable():
    """Pinned sizes of the 13 minimized template automata."""
    sizes = {kind: template_dfa(kind, A, B).n_states for kind in TemplateKind}
    assert sizes == {
        TemplateKind.CHOICE: 2,
        TemplateKind.EXCLUSIVE_CHOICE: 4,
        TemplateKind.RESPONDED_EXISTENCE: 3,
        TemplateKind.COEXISTENCE: 4,
        TemplateKind.RESPONSE: 2,
        TemplateKind.PRECEDENCE: 3,
        TemplateKind.ALTERNATE_RESPONSE: 3,
        TemplateKind.ALTERNATE_PRECEDENCE: 3,
        TemplateKind.CHAIN_RESPONSE: 3,
        TemplateKind.CHAIN_PRECEDENCE: 3,
        TemplateKind.SUCCESSION: 4,
        TemplateKind.ALTERNATE_SUCCESSION: 3,
        TemplateKind.CHAIN_SUCCESSION: 3,
    }
