"""Tests for formula-to-DFA compilation, minimization, and exports."""

import hashlib
import itertools
import json
import random
import re

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
from declarekit.ltlf import FALSE, TRUE, atoms, eval_log, ev_empty, nnf, subformulas

from oracles import all_traces, assert_minimal, naive_eval
from test_ltlf import _any_formula, iff_chain, sweep_with_empty_traces

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


def test_template_dfa_instances_equal_their_own_compilation():
    """An instance of a kind's shared automaton equals the instance compiled
    and minimized on its own, for every ordered pair of labels: either
    label order, labels that sort around the placeholders arg_0 and arg_1
    or are them, and activation equal to target."""
    labels = [Activity(s) for s in ("a", "b", "arg_0", "arg_1", "Z", "é")]
    for kind in TemplateKind:
        for x, y in itertools.product(labels, repeat=2):
            want = minimize(compile_formula(template_formula(kind, x, y)))
            assert template_dfa.__wrapped__(kind, x, y) == want, (kind, x, y)
            assert template_dfa(kind, x, y) == want, (kind, x, y)


def _with_unreachable_states(dfa):
    """`dfa` behind three states no symbol reaches, numbered first: one
    accepting sink, one copy of the initial state and one that enters both."""
    shift = [s + 3 for s in range(dfa.n_states)]
    width = len(dfa.named) + 1
    moves = (
        (0,) * width,
        tuple(shift[t] for t in dfa.moves[dfa.initial]),
        (1,) + (0,) * (width - 1),
        *(tuple(shift[t] for t in row) for row in dfa.moves),
    )
    accepting = {0} | {shift[s] for s in dfa.accepting}
    if dfa.initial in dfa.accepting:
        accepting.add(1)
    return automata.Dfa(dfa.named, moves, shift[dfa.initial], frozenset(accepting))


def _reachable_part(dfa):
    """The states reachable from the initial one, renumbered in order."""
    states, number = [dfa.initial], {dfa.initial: 0}
    for s in states:  # grows as the walk finds states
        for t in dfa.moves[s]:
            if t not in number:
                number[t] = len(states)
                states.append(t)
    moves = tuple(tuple(number[t] for t in dfa.moves[s]) for s in states)
    accepting = frozenset(number[s] for s in dfa.accepting if s in number)
    return automata.Dfa(dfa.named, moves, 0, accepting)


def test_minimize_is_idempotent():
    """Minimizing a minimal DFA changes nothing, and states that no symbol
    reaches change nothing either: a DFA minimizes to the same table as its
    reachable part."""
    for kind in TemplateKind:
        for act, tgt in _PAIRS:
            dfa = template_dfa(kind, act, tgt)
            raw = compile_formula(template_formula(kind, act, tgt))
            assert minimize(dfa) == dfa
            for whole in (dfa, complement(dfa), raw, complement(raw)):
                padded = _with_unreachable_states(whole)
                assert minimize(padded) == minimize(whole), (kind, act, tgt)
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 8)
        named = (A, B)[: rng.randint(0, 2)]
        moves = tuple(
            tuple(rng.randrange(n) for _ in range(len(named) + 1)) for _ in range(n)
        )
        accepting = frozenset(s for s in range(n) if rng.random() < 0.5)
        dfa = automata.Dfa(named, moves, rng.randrange(n), accepting)
        assert minimize(dfa) == minimize(_reachable_part(dfa)), dfa


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
    # Any group walk_log builds holds only copies of these automata, so no
    # product has more states than theirs.
    moves, _ = automata._colored_product([dfa for dfa in dfas if dfa.named == (A, B)])
    assert len(moves) == 61
    traces = sweep_with_empty_traces(8)
    verdicts = walk_log(dfas, code_events(traces, (A, B)))
    for i, trace in enumerate(traces):
        got = tuple(column[i] == 1 for column in verdicts)
        assert got == tuple(dfa.accepts(trace.events) for dfa in dfas), trace.events


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


def test_iff_chains_compile_as_their_two_term_equivalents():
    """A 22-term a <-> b chain, alone, under G and left of U, gives the
    minimal DFA of its 2-term equivalent. Progression steps each distinct
    node of the normal form at most once per symbol, and ev_empty values
    each distinct node at most once, counted by the misses of their memos.
    The chain's normal form, a DAG whose tree has more than 2^22 leaves,
    compiles and evaluates too."""
    chain = iff_chain(22)
    coded = code_events(sweep_with_empty_traces(5), (A, B, C))
    for text in ("{}", "G({})", "F({}) U c"):
        f, two = parse_formula(text.format(chain)), parse_formula(text.format("a <-> b"))
        dag = nnf(f)
        nodes = len(subformulas(dag)) + 4  # and the markers of X and Xw
        progressed, valued = automata._progress.cache_info(), ev_empty.cache_info()
        dfa = minimize(compile_formula(f))
        assert ev_empty(dag) == ev_empty(f) == ev_empty(two), text
        progressed = automata._progress.cache_info().misses - progressed.misses
        assert progressed <= nodes * (len(atoms(f)) + 1), text
        assert ev_empty.cache_info().misses - valued.misses <= nodes + len(subformulas(f)), text
        assert dfa == minimize(compile_formula(two)) == minimize(compile_formula(dag)), text
        assert eval_log([dag, f], coded) == eval_log([two, two], coded), text


def test_dot_labels_escape_quotes_and_backslashes():
    """Every edge label is one DOT string, which reads back as the labels."""
    dfa = minimize(compile_formula(parse_formula(r'"say \"hi\"" U "back\\slash"')))
    edges = [line for line in to_dot(dfa).splitlines() if "[label=" in line and " -> " in line]
    names = set()
    for line in edges:
        m = re.fullmatch(r'  q\d+ -> q\d+ \[label="((?:[^"\\]|\\.)*)"\];', line)
        assert m is not None, line
        names.update(re.sub(r"\\(.)", r"\1", m.group(1)).split(", "))
    assert names == {'say "hi"', "back\\slash", "*"}


# SHA-256 of to_facts_json(dfa, kind.camel) and of to_dot(dfa) for each
# kind's automaton over arg_0 and arg_1.
_EXPORT_DIGESTS = {
    TemplateKind.CHOICE: (
        "56a7d682455865449430af0b35beae4e49c555887206cfec54763a2f6c8e373f",
        "1792eca48bbb457720bd2f73fccf51b5829b386bbb24db63e1cf65655796ec31",
    ),
    TemplateKind.EXCLUSIVE_CHOICE: (
        "5e7eb0fdb62207f35a36d708d64838499c881b51cd2a9120f861a2f70838f20a",
        "1fb91e4921a1ac3a7319ac003b766266aeb458eface2b93230b9bec1ee019275",
    ),
    TemplateKind.RESPONDED_EXISTENCE: (
        "5575864245d0011084e28fd7646c3151f898a8b96e035a2343d5f995121cd508",
        "23deacc3cc4345d40e3f67c57fcd5db1ee5868a43f07f791b909ff8596c805f9",
    ),
    TemplateKind.COEXISTENCE: (
        "0e05bb40eea0cca4a4a5f7a233b598c96bc82a025f838d25d7865059caaae5b2",
        "a93aaef63253843dffff8200cdcae57b631868cf7adaebf5059c794880dc9029",
    ),
    TemplateKind.RESPONSE: (
        "449ae6eceaa0a4d9b11766ac6cc3caa70148aa1eb09b87bc8f70bb563ded42d5",
        "fca96a4270c5cd60d6b1b1d0d79b54f2a17bfabe5c1d2aa9b8bc0a11cb577507",
    ),
    TemplateKind.PRECEDENCE: (
        "21a1126dcc8743a5404bc4faffb034f8a2cf7dbe346ea0c45a579f209d045326",
        "932b78ff8979e77032d70ee22647a0fbb4438661165270cac398eb6e67359078",
    ),
    TemplateKind.ALTERNATE_RESPONSE: (
        "61050a9d1028d86b8c0bd96b10f312944f52f94157d270368dd2365503bece1a",
        "387bc0bab38fd278b7ccfd859c275e8e8e1928369408f53314425b49d41ae248",
    ),
    TemplateKind.ALTERNATE_PRECEDENCE: (
        "803eaeaf0ac46bec8d24cf3b8fdf08afe41d063a2b6b235773c0356a36aa1788",
        "4dacc7ccf68a69474cc3977653b7aed34613b5293b789fe88d323a8bad862c35",
    ),
    TemplateKind.CHAIN_RESPONSE: (
        "56d6511e1f29d111272c00ead7e88135748a2baf69fa9f07b0cd6d96ecc28113",
        "2bf0bf99542f83f6d121558ae09cebddaf0a119da631da99f7d1ea535b1ba185",
    ),
    TemplateKind.CHAIN_PRECEDENCE: (
        "98da8c55ff46ba4f494c2dd91083de7f5687da7f82d21869485a9305e31f6573",
        "12d55fbc88ebdb52b2f6aa097c091a403c39071373ef544b7462c159459ee4bb",
    ),
    TemplateKind.SUCCESSION: (
        "a697240a693165d4799c7d8008002bd8ae4639a6d4c744815b36de6c094bc091",
        "1641cf2e830c0e6c6a765e411614d64b0ead355da355bd0cf55bf605aaa9c3af",
    ),
    TemplateKind.ALTERNATE_SUCCESSION: (
        "4b998f250c1a0256158001f9bc0724f9ec90d7047e52eda2719e87fb00858715",
        "6384a08d9b06cc21c535ed361b13270de7488cf7a7c2d79b63ee202aa218f3c7",
    ),
    TemplateKind.CHAIN_SUCCESSION: (
        "73f941fdd1c5bf47d2ec8f23a65207f269982ea5d63fb9adee4e6b8c56c7f402",
        "0c4e48c397cee7c6f9d8b062ff5a499644bebf1f1e41c626031d40c09b66484e",
    ),
}


@pytest.mark.parametrize(
    "text",
    ['G("a\\"b" -> F "c\\\\d")', 'G("é" -> X "日 🙂")', 'F "tab\there" | "x\x7fy" U b'],
    ids=["quote_backslash", "non_ascii", "control"],
)
def test_facts_json_is_the_layout_json_dumps_gives(text):
    """Formula labels with quotes, backslashes and non-ASCII text: the
    facts, kind included, read as json.dumps(..., indent=2) writes them."""
    f = parse_formula(text)
    dfa = minimize(compile_formula(f))
    kind = pretty(f)
    assert to_facts_json(dfa, kind) == json.dumps(to_facts_dict(dfa, kind), indent=2) + "\n"


def test_template_exports_are_pinned():
    """Every template's facts and dot bytes, so minimize's canonical
    numbering cannot drift."""
    for kind in TemplateKind:
        dfa = template_dfa(kind, Activity("arg_0"), Activity("arg_1"))
        digests = tuple(
            hashlib.sha256(text.encode()).hexdigest()
            for text in (to_facts_json(dfa, kind.camel), to_dot(dfa))
        )
        assert digests == _EXPORT_DIGESTS[kind], kind


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
