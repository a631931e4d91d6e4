"""Independent reference implementations the real modules are tested against.

Everything here favors being obviously correct over being fast: the
temporal evaluator is the quantifier definition written out verbatim,
path counts come from enumerating every string, and DFA minimality is
established by brute-force word distinguishability.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
from fractions import Fraction
from xml.etree import ElementTree

from declarekit.automata import Dfa, complement, minimize, product, template_dfa
from declarekit.core import Activity, EventLog, Trace
from declarekit.ingest import IngestError, _FactScanner, _as_activity, _as_int, _fact_name
from declarekit.ltlf import (
    And,
    Atom,
    Eventually,
    FalseConst,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueConst,
    Until,
    WeakNext,
    WeakUntil,
    TRUE,
)


def desugar(f: Formula) -> Formula:
    """Rewrite to the {atoms, booleans, X, U} core by the textbook identities.

    Xw p = !X !p, F p = true U p, G p = !F !p, p W q = (p U q) | G p,
    p R q = !(!p U !q).
    """
    if isinstance(f, (TrueConst, FalseConst, Atom)):
        return f
    if isinstance(f, Not):
        return Not(desugar(f.arg))
    if isinstance(f, And):
        return And(tuple(desugar(g) for g in f.args))
    if isinstance(f, Or):
        return Or(tuple(desugar(g) for g in f.args))
    if isinstance(f, Implies):
        return Implies(desugar(f.left), desugar(f.right))
    if isinstance(f, Iff):
        return Iff(desugar(f.left), desugar(f.right))
    if isinstance(f, Next):
        return Next(desugar(f.arg))
    if isinstance(f, WeakNext):
        return Not(Next(Not(desugar(f.arg))))
    if isinstance(f, Until):
        return Until(desugar(f.left), desugar(f.right))
    if isinstance(f, Eventually):
        return Until(TRUE, desugar(f.arg))
    if isinstance(f, Globally):
        return Not(Until(TRUE, Not(desugar(f.arg))))
    if isinstance(f, WeakUntil):
        left, right = desugar(f.left), desugar(f.right)
        return Or((Until(left, right), Not(Until(TRUE, Not(left)))))
    if isinstance(f, Release):
        left, right = desugar(f.left), desugar(f.right)
        return Not(Until(Not(left), Not(right)))
    raise TypeError(f"unknown node {type(f).__name__}")


def _sat(f: Formula, events: tuple[Activity, ...], i: int) -> bool:
    """Core semantics at position i of a nonempty trace, quantifiers spelled out."""
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, FalseConst):
        return False
    if isinstance(f, Atom):
        return events[i] is f.activity
    if isinstance(f, Not):
        return not _sat(f.arg, events, i)
    if isinstance(f, And):
        return all(_sat(g, events, i) for g in f.args)
    if isinstance(f, Or):
        return any(_sat(g, events, i) for g in f.args)
    if isinstance(f, Implies):
        return (not _sat(f.left, events, i)) or _sat(f.right, events, i)
    if isinstance(f, Iff):
        return _sat(f.left, events, i) == _sat(f.right, events, i)
    if isinstance(f, Next):
        return i + 1 < len(events) and _sat(f.arg, events, i + 1)
    if isinstance(f, Until):
        for j in range(i, len(events)):
            if _sat(f.right, events, j) and all(
                _sat(f.left, events, t) for t in range(i, j)
            ):
                return True
        return False
    raise TypeError(f"non-core node {type(f).__name__}")


def _empty(f: Formula) -> bool:
    """Core semantics on the empty trace: no positions, so X and U have no witness."""
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, (FalseConst, Atom, Next, Until)):
        return False
    if isinstance(f, Not):
        return not _empty(f.arg)
    if isinstance(f, And):
        return all(_empty(g) for g in f.args)
    if isinstance(f, Or):
        return any(_empty(g) for g in f.args)
    if isinstance(f, Implies):
        return (not _empty(f.left)) or _empty(f.right)
    if isinstance(f, Iff):
        return _empty(f.left) == _empty(f.right)
    raise TypeError(f"non-core node {type(f).__name__}")


def naive_eval(f: Formula, trace: Trace) -> bool:
    core = desugar(f)
    if len(trace) == 0:
        return _empty(core)
    return _sat(core, trace.events, 0)


def all_traces(labels: tuple[str, ...], max_len: int):
    """Every trace over the given labels up to max_len, shortest first."""
    tid = 0
    for n in range(max_len + 1):
        for combo in itertools.product(labels, repeat=n):
            yield Trace.from_labels(tid, combo)
            tid += 1


def brute_support(f: Formula, traces) -> Fraction:
    traces = list(traces)
    hits = sum(1 for tr in traces if naive_eval(f, tr))
    return Fraction(hits, len(traces))


def brute_count_accepted(accepts, labels: tuple[str, ...], length: int) -> int:
    """Number of strings of exactly `length` over `labels` that `accepts` takes."""
    total = 0
    for combo in itertools.product(labels, repeat=length):
        if accepts(tuple(Activity(x) for x in combo)):
            total += 1
    return total


def acceptance_vector(dfa, state: int, max_len: int) -> tuple[bool, ...]:
    """Acceptance of every word up to max_len when started from `state`.

    Words run over the DFA's own symbol columns (named activities plus
    the wildcard class), so two states with equal vectors up to
    n_states are language-equivalent.
    """
    width = len(dfa.named) + 1
    out = []
    for n in range(max_len + 1):
        for word in itertools.product(range(width), repeat=n):
            s = state
            for col in word:
                s = dfa.moves[s][col]
            out.append(s in dfa.accepting)
    return tuple(out)


def assert_minimal(dfa) -> None:
    """Fail unless every state is reachable and no two are equivalent."""
    width = len(dfa.named) + 1
    seen = {dfa.initial}
    frontier = [dfa.initial]
    while frontier:
        s = frontier.pop()
        for col in range(width):
            t = dfa.moves[s][col]
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    assert seen == set(range(dfa.n_states)), "unreachable states present"
    vectors = {acceptance_vector(dfa, s, dfa.n_states) for s in range(dfa.n_states)}
    assert len(vectors) == dfa.n_states, "equivalent states present"


def reference_generator(constraint, positive: bool):
    """The generator automaton built without its formula: the template's
    automaton, complemented for the negative half, intersected with two
    two-state automata that each wait for one argument, then minimized."""
    base = template_dfa(constraint.kind, constraint.activation, constraint.target)
    if not positive:
        base = complement(base)
    waits = []
    for activity in (constraint.activation, constraint.target):
        col = base.named.index(activity)
        start = tuple(1 if c == col else 0 for c in range(len(base.named) + 1))
        seen = (1,) * len(start)
        waits.append(Dfa(base.named, (start, seen), 0, frozenset({1})))
    return minimize(product(base, *waits))


# --------------------------------------------------------------------------
# Log documents, read and written a trace and an event at a time

def reference_parse_factlog(text: str) -> EventLog:
    """The token-by-token reader the regex fast path replaced, kept as the
    oracle: the scanner reads every fact, then each is checked in order."""
    by_trace: dict[int, dict[int, Activity]] = {}
    lines: dict[int, int] = {}
    for fact in _FactScanner(text).facts():
        if fact.name != "trace" or len(fact.args) != 3:
            raise IngestError(
                f"expected trace/3 facts, found {fact.name}/{len(fact.args)}", fact.line
            )
        tid = _as_int(fact.args[0], fact.line)
        pos = _as_int(fact.args[1], fact.line)
        act = _as_activity(fact.args[2], fact.line)
        if tid < 0 or pos < 0:
            raise IngestError("trace id and position must be non-negative", fact.line)
        slots = by_trace.setdefault(tid, {})
        if pos in slots:
            raise IngestError(f"trace {tid} repeats position {pos}", fact.line)
        slots[pos] = act
        lines[tid] = fact.line
    traces = []
    for tid in sorted(by_trace):
        slots = by_trace[tid]
        missing = [p for p in range(len(slots)) if p not in slots]
        if missing:
            raise IngestError(f"trace {tid} is missing position {missing[0]}", lines[tid])
        traces.append(Trace(tid, tuple(slots[p] for p in range(len(slots)))))
    return EventLog(traces)


def reference_write_factlog(log: EventLog) -> str:
    """write_factlog as it walked traces: one fact per event, by id."""
    out = []
    for trace in sorted(log.traces, key=lambda tr: tr.id):
        if not trace.events:
            raise IngestError(f"trace {trace.id} has no events; fact form cannot hold it")
        for pos, act in enumerate(trace.events):
            out.append(f"trace({trace.id},{pos},{_fact_name(act.label)}).")
    return "\n".join(out) + ("\n" if out else "")


def reference_write_xes(log: EventLog) -> str:
    """write_xes as it walked traces: each event's label escaped in turn."""
    def esc(s: str) -> str:
        return (
            s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
            .replace("\n", "&#10;").replace("\t", "&#9;").replace("\r", "&#13;")
        )

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">',
    ]
    for trace in log.traces:
        out.append("  <trace>")
        out.append(f'    <string key="concept:name" value="{trace.id}"/>')
        for act in trace.events:
            out.append("    <event>")
            out.append(f'      <string key="concept:name" value="{esc(act.label)}"/>')
            out.append("    </event>")
        out.append("  </trace>")
    out.append("</log>")
    return "\n".join(out) + "\n"


def reference_write_csv(log: EventLog) -> str:
    """write_csv as it walked traces: csv.writer spells every row, quoting
    every field of a row whose label holds a carriage return."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    quote_all = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(["case_id", "activity", "position"])
    for trace in log.traces:
        if not trace.events:
            raise IngestError(f"trace {trace.id} has no events; row form cannot hold it")
        for row in zip(itertools.repeat(trace.id), map(operator.attrgetter("label"), trace.events),
                       itertools.count()):
            (quote_all if "\r" in row[1] else writer).writerow(row)
    return buf.getvalue()


def reference_parse_xes(data: bytes) -> EventLog:
    """A well-formed XES document's traces in document order, numbered
    0, 1, ..., each event named by its concept:name string."""
    def local(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]

    traces = []
    for child in ElementTree.fromstring(data):
        if local(child.tag) == "trace":
            labels = [
                next(a.get("value") for a in event
                     if local(a.tag) == "string" and a.get("key") == "concept:name")
                for event in child if local(event.tag) == "event"
            ]
            traces.append(Trace.from_labels(len(traces), labels))
    return EventLog(traces)


def reference_parse_csv(text: str) -> EventLog:
    """A well-formed CSV log's cases ordered by id: case ids that are all
    non-negative integers kept, else numbered in order of first appearance; events by position, or
    in row order when there is no position column."""
    header, *rows = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    with_pos = header[2:3] == ["position"]
    cases: dict[str, list[tuple[int, str]]] = {}
    for row in filter(None, rows):
        events = cases.setdefault(row[0], [])
        events.append((int(row[2]) if with_pos else len(events), row[1]))
    try:
        ids = [int(case) for case in cases]
    except ValueError:
        ids = [-1]
    if min(ids, default=0) < 0:
        ids = list(range(len(cases)))
    traces = [Trace.from_labels(tid, [label for _, label in sorted(events)])
              for tid, events in zip(ids, cases.values())]
    return EventLog(sorted(traces, key=lambda tr: tr.id))


# --------------------------------------------------------------------------
# Whole-log kernels, one trace at a time

def _has(traces, x):
    return map(operator.contains, traces, itertools.repeat(x))


def _lacks(traces, x):
    return map(operator.not_, _has(traces, x))


def _log_response(traces, a, b):
    return _lacks(map(operator.itemgetter(2), map(str.rpartition, traces, itertools.repeat(b))), a)


def _log_precedence(traces, a, b):
    return _lacks(map(operator.itemgetter(0), map(str.partition, traces, itertools.repeat(a))), b)


def _unchained(traces, a, b):
    return map(str.replace, traces, itertools.repeat(a + b), itertools.repeat(""))


def _log_chain_succession(traces, a, b):
    rest = list(_unchained(traces, a, b))
    return map(operator.and_, _lacks(rest, a), _lacks(rest, b))


_REFERENCE_RULES = {
    "Choice": lambda t, a, b: map(operator.or_, _has(t, a), _has(t, b)),
    "ExclusiveChoice": lambda t, a, b: map(operator.ne, _has(t, a), _has(t, b)),
    "RespondedExistence": lambda t, a, b: map(operator.le, _has(t, a), _has(t, b)),
    "Coexistence": lambda t, a, b: map(operator.eq, _has(t, a), _has(t, b)),
    "Response": _log_response,
    "Precedence": _log_precedence,
    "Succession": lambda t, a, b: map(
        operator.and_, _log_response(t, a, b), _log_precedence(t, a, b)
    ),
    "ChainResponse": lambda t, a, b: _lacks(_unchained(t, a, b), a),
    "ChainPrecedence": lambda t, a, b: _lacks(_unchained(t, a, b), b),
    "ChainSuccession": _log_chain_succession,
}
_REFERENCE_SAME = {
    "Precedence": lambda t, a: itertools.repeat(1, len(t)),
    "AlternatePrecedence": lambda t, a: itertools.repeat(1, len(t)),
    "RespondedExistence": lambda t, a: itertools.repeat(1, len(t)),
    "Coexistence": lambda t, a: itertools.repeat(1, len(t)),
    "ExclusiveChoice": lambda t, a: itertools.repeat(0, len(t)),
    "Choice": _has,
}


def reference_scan_log(constraints, coded) -> list[bytearray]:
    """direct.scan_log as it checked one constraint at a time: each rule
    maps string operations over the traces afresh, and the Alternate
    kinds are the Chain rules on the traces with every other code deleted."""
    traces = coded.strings
    verdicts = []
    for c in constraints:
        a, b = chr(coded.codes[c.activation]), chr(coded.codes[c.target])
        kind = c.kind.camel
        if a == b:
            holds = _REFERENCE_SAME.get(kind, _lacks)(traces, a)
        elif kind.startswith("Alternate"):
            others = dict.fromkeys(range(len(coded.codes) + 1))
            del others[ord(a)], others[ord(b)]
            end = chr(len(coded.codes) + 1)
            kept = coded.text.translate(others).split(end)[:-1]
            holds = _REFERENCE_RULES[kind.replace("Alternate", "Chain")](kept, a, b)
        else:
            holds = _REFERENCE_RULES[kind](traces, a, b)
        verdicts.append(bytearray(holds))
    return verdicts


def reference_walk_log(dfas, coded) -> list[bytearray]:
    """automata.walk_log as it stepped one event at a time: each automaton
    reads every trace through its own dense table."""
    verdicts = []
    for dfa in dfas:
        column = [len(dfa.named)] * (len(coded.codes) + 1)
        for i, a in enumerate(dfa.named):
            code = coded.codes.get(a)
            if code is not None:
                column[code] = i
        table = [[row[c] for c in column] for row in dfa.moves]
        events = iter(coded.events)
        accepts = bytearray()
        for n in coded.lengths:
            state = dfa.initial
            for code in itertools.islice(events, n):
                state = table[state][code]
            accepts.append(state in dfa.accepting)
            next(events)
        verdicts.append(accepts)
    return verdicts
