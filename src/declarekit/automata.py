"""Deterministic finite automata compiled from temporal formulas.

A formula over named activities induces a DFA whose alphabet is the set
of named symbols plus one wildcard class standing for every other
activity (at most one formula atom can hold at a position, so unnamed
events are interchangeable). States are canonical residuals produced by
stepwise progression: sets of alternatives, each a set of obligations. A
state accepts when some alternative's obligations all hold on the empty
continuation.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import count, groupby, islice
from typing import Iterable, Sequence

from .core import Activity, CodedLog, Record, WILDCARD_LABEL, json_block, json_string
from .ltlf import (
    And,
    Atom,
    Eventually,
    FALSE,
    FalseConst,
    Formula,
    Globally,
    Next,
    Not,
    Or,
    Release,
    TRUE,
    TrueConst,
    Until,
    WeakNext,
    WeakUntil,
    atoms,
    ev_empty,
    nnf,
    pretty,
    template_formula,
)


class _OtherSymbol:
    """Transition class for activities outside the named set; OTHER is its
    one instance."""

    def __repr__(self) -> str:
        return "OTHER"


OTHER = _OtherSymbol()

# A transition symbol is either a named Activity or the OTHER class.
SymbolClass = Activity | _OtherSymbol


class StateBudgetExceeded(RuntimeError):
    """Compilation discovered more states than the configured budget."""


class Dfa(Record):
    """A total DFA over named symbols plus the wildcard class.

    Transition columns follow `named` order with the wildcard last, so
    `moves[s][i]` is the successor of state s on symbol i. States are
    numbered densely from 0.
    """

    # `_columns` is not a field: it is derived from `named`.
    __slots__ = ("named", "moves", "initial", "accepting", "_columns")
    _fields = ("named", "moves", "initial", "accepting")

    def __init__(
        self, named: tuple[Activity, ...], moves: tuple[tuple[int, ...], ...],
        initial: int, accepting: frozenset[int],
    ) -> None:
        n = len(moves)
        width = len(named) + 1
        for row in moves:
            if len(row) != width or any(not (0 <= t < n) for t in row):
                raise ValueError("transition table is not total over the symbol classes")
        if not (0 <= initial < n):
            raise ValueError("initial state out of range")
        if any(not (0 <= s < n) for s in accepting):
            raise ValueError("accepting state out of range")
        super().__init__(named, moves, initial, accepting)
        # Column of each named activity, built once rather than per `accepts`.
        object.__setattr__(self, "_columns", {a: i for i, a in enumerate(named)})

    @property
    def n_states(self) -> int:
        return len(self.moves)

    def accepts(self, events: tuple[Activity, ...]) -> bool:
        """Whether the DFA accepts the trace `events`."""
        columns = self._columns
        moves = self.moves
        other = len(self.named)
        state = self.initial
        for ev in events:
            state = moves[state][columns.get(ev, other)]
        return state in self.accepting


# --------------------------------------------------------------------------
# Progression
#
# A residual is a set of alternatives, each a set of obligations: formulas
# in negation normal form that are neither constants nor And/Or. It holds
# when every obligation of some alternative holds, so the empty set is
# false and the set of the empty alternative is true. An alternative that
# demands a superset of another's obligations is dropped (absorption), so
# residuals that differ only in how And and Or nest are equal sets.
#
# _progress(f, sym) is the residual after reading one event of class
# `sym`, chosen so that for every continuation (empty included) the
# continuation satisfies the residual exactly when sym followed by the
# continuation satisfies f. Strong next must not become satisfiable on
# the empty continuation, so it carries a "continuation is non-empty"
# marker (F true); weak next dually carries "continuation is empty"
# (G false). Both markers vanish under minimization. Nodes are interned,
# so both are memoised: a node shared in a DAG progresses once per symbol.

Residual = frozenset[frozenset[Formula]]

_TRUE: Residual = frozenset({frozenset()})
_FALSE: Residual = frozenset()
_NONEMPTY: Residual = frozenset({frozenset({Eventually(TRUE)})})
_EMPTY: Residual = frozenset({frozenset({Globally(FALSE)})})


def _absorb(alternatives) -> Residual:
    """The alternatives that contain no other alternative."""
    kept: list[frozenset[Formula]] = []
    for alt in sorted(set(alternatives), key=len):
        if not any(k <= alt for k in kept):
            kept.append(alt)
    return frozenset(kept)


def _and(x: Residual, y: Residual) -> Residual:
    return _absorb(a | b for a in x for b in y)


def _or(x: Residual, y: Residual) -> Residual:
    return _absorb(x | y)


@lru_cache(maxsize=4096)
def _residual(f: Formula) -> Residual:
    """A formula in negation normal form as a residual."""
    if isinstance(f, TrueConst):
        return _TRUE
    if isinstance(f, FalseConst):
        return _FALSE
    if isinstance(f, And):
        return reduce(_and, map(_residual, f.args))
    if isinstance(f, Or):
        return reduce(_or, map(_residual, f.args))
    return frozenset({frozenset({f})})


@lru_cache(maxsize=4096)
def _progress(f: Formula, sym: SymbolClass) -> Residual:
    """Progress a formula in negation normal form, as compile_formula
    feeds it: no -> or <->, and negation only on atoms."""
    if isinstance(f, (TrueConst, FalseConst)):
        return _residual(f)
    if isinstance(f, Atom):
        return _TRUE if f.activity is sym else _FALSE
    if isinstance(f, Not):
        return _FALSE if f.arg.activity is sym else _TRUE
    if isinstance(f, And):
        return reduce(_and, (_progress(x, sym) for x in f.args))
    if isinstance(f, Or):
        return reduce(_or, (_progress(x, sym) for x in f.args))
    if isinstance(f, Next):
        return _and(_residual(f.arg), _NONEMPTY)
    if isinstance(f, WeakNext):
        return _or(_residual(f.arg), _EMPTY)
    if isinstance(f, (Until, WeakUntil)):  # they differ only on the empty trace
        return _or(_progress(f.right, sym), _and(_progress(f.left, sym), _residual(f)))
    if isinstance(f, Release):
        return _and(_progress(f.right, sym), _or(_progress(f.left, sym), _residual(f)))
    if isinstance(f, Eventually):
        return _or(_progress(f.arg, sym), _residual(f))
    if isinstance(f, Globally):
        return _and(_progress(f.arg, sym), _residual(f))
    raise TypeError(f"not a formula node: {f!r}")


def compile_formula(f: Formula, *, state_budget: int = 4096) -> Dfa:
    """Build the DFA of a formula by exhaustive progression.

    The formula is normalized to negation normal form first. Discovery
    is breadth first from the normalized formula, so the initial state
    is 0 and numbering is reproducible. Raises StateBudgetExceeded when
    more than `state_budget` states appear.
    """
    start = _residual(nnf(f))
    named = atoms(f)
    symbols: tuple[SymbolClass, ...] = named + (OTHER,)

    state_ids: dict[Residual, int] = {start: 0}
    worklist: list[Residual] = [start]
    rows: list[tuple[int, ...]] = []
    i = 0
    while i < len(worklist):
        state = worklist[i]
        i += 1
        row = []
        for sym in symbols:
            succ = _FALSE
            for alt in state:
                succ = _or(succ, reduce(_and, (_progress(x, sym) for x in alt), _TRUE))
            nxt = state_ids.get(succ)
            if nxt is None:
                nxt = len(worklist)
                if nxt >= state_budget:
                    raise StateBudgetExceeded(
                        f"more than {state_budget} states while compiling {pretty(f)}"
                    )
                state_ids[succ] = nxt
                worklist.append(succ)
            row.append(nxt)
        rows.append(tuple(row))

    accepting = frozenset(
        i for s, i in state_ids.items() if any(all(map(ev_empty, alt)) for alt in s)
    )
    return Dfa(named=named, moves=tuple(rows), initial=0, accepting=accepting)


# --------------------------------------------------------------------------
# Minimization and complement

def minimize(dfa: Dfa) -> Dfa:
    """Language-preserving reduction to the least total DFA.

    Blocks are split by acceptance and refined on transition signatures
    until stable. The blocks are numbered breadth first from the initial
    state's, so blocks of unreachable states drop out and equal languages
    give equal tables.
    """
    width = len(dfa.named) + 1
    states = range(dfa.n_states)
    block = [1 if s in dfa.accepting else 0 for s in states]
    while True:
        fresh: dict[tuple[int, ...], int] = {}
        new_block = []
        for s in states:
            sig = (block[s],) + tuple([block[t] for t in dfa.moves[s]])
            if sig not in fresh:
                fresh[sig] = len(fresh)
            new_block.append(fresh[sig])
        if len(fresh) == len(set(block)):
            break
        block = new_block

    reps: dict[int, int] = {}
    for s in states:
        reps.setdefault(block[s], s)
    index = {block[dfa.initial]: 0}
    order = [block[dfa.initial]]
    rows = []
    for b in order:  # grows as the walk finds blocks
        row = []
        for c in range(width):
            t = block[dfa.moves[reps[b]][c]]
            if t not in index:
                index[t] = len(order)
                order.append(t)
            row.append(index[t])
        rows.append(tuple(row))
    accepting = frozenset(index[b] for b in order if reps[b] in dfa.accepting)
    return Dfa(named=dfa.named, moves=tuple(rows), initial=0, accepting=accepting)


def complement(dfa: Dfa) -> Dfa:
    """Swap the accepting set; valid because the table is total."""
    rejected = frozenset(range(dfa.n_states)) - dfa.accepting
    return Dfa(named=dfa.named, moves=dfa.moves, initial=dfa.initial, accepting=rejected)


# --------------------------------------------------------------------------
# Colored automata: automata over one alphabet walk a log together

def _colored_product(dfas: Sequence[Dfa]) -> tuple[list[list[int]], list[tuple[bool, ...]]]:
    """The synchronous product of automata over one alphabet, breadth first.

    Returns (moves, colors): state 0 is initial, moves[s][col] is as in
    `Dfa.moves`, and colors[s] tells which of `dfas` accept in state s.
    """
    width = len(dfas[0].named) + 1
    start = tuple(d.initial for d in dfas)
    ids = {start: 0}
    states = [start]
    moves = []
    for state in states:  # grows as the walk finds states
        row = []
        for col in range(width):
            succ = tuple([d.moves[s][col] for d, s in zip(dfas, state)])
            nxt = ids.get(succ)
            if nxt is None:
                nxt = ids[succ] = len(states)
                states.append(succ)
            row.append(nxt)
        moves.append(row)
    colors = [tuple([s in d.accepting for d, s in zip(dfas, state)]) for state in states]
    return moves, colors


def product(*dfas: Dfa) -> Dfa:
    """Synchronous product over a shared alphabet: the intersection."""
    if not dfas or any(d.named != dfas[0].named for d in dfas):
        raise ValueError("product requires identical named symbol tuples")
    moves, colors = _colored_product(dfas)
    accepting = frozenset(s for s, color in enumerate(colors) if all(color))
    return Dfa(named=dfas[0].named, moves=tuple(map(tuple, moves)), initial=0, accepting=accepting)


# The lockstep walk steps the running traces together while at least this
# many run, and while they are at least _PER_LENGTH times as many as their
# distinct lengths (laying out one step costs one slice per length); the
# traces still running after that take the event loop. Below 32 a few equal
# long traces step in lockstep far slower than event by event (2,000 short
# traces and 4 of 5,000 events: 10.0 ms at a minimum of 1, 2.0 ms at 32 or
# 128); below 4 per length a log of all-distinct lengths pays a slice per
# trace per step (traces of 1 to 1,000 events: 88 ms at 1, 18 ms at 4 or 8).
_LOCKSTEP_MIN = 32
_PER_LENGTH = 4


class _Lockstep:
    """The events of a coded log laid out step by step, for walking the
    traces together.

    `events` holds the codes of each trace followed by `end`, as
    `CodedLog.events` does. `order` sorts the traces by length, longest
    first. `running[t]` is the number of traces with more than t events,
    and `layout` holds, for each step t in turn, the t-th code of each of
    those traces in `order`: every event once, up to the step where too
    few traces run. `live` traces are longer than that.
    """

    def __init__(self, events: bytes, end: int, lengths: list[int]) -> None:
        n = len(lengths)
        self.traces = traces = events.split(bytes([end]))  # and one empty piece
        self.order = order = sorted(range(n), key=lengths.__getitem__, reverse=True)
        self.rank = list(map(dict(zip(order, count())).__getitem__, range(n)))
        # Each length, longest first, with the codes of its traces in one buffer.
        groups = [
            (k, b"".join(map(traces.__getitem__, same)))
            for k, same in groupby(order, key=lengths.__getitem__)
            if k
        ]
        live, m = len(groups), n - lengths.count(0)
        running: list[int] = []
        pieces: list[bytes] = []
        t = 0
        while live and m >= _LOCKSTEP_MIN and m >= _PER_LENGTH * live:
            running.append(m)
            pieces += [codes[t::k] for k, codes in islice(groups, live)]
            t += 1
            while live and groups[live - 1][0] == t:
                live -= 1
                m -= len(groups[live][1]) // t
        self.running = running
        self.layout = b"".join(pieces)
        self.live = m

    def walk(self, moves: list[list[int]], symbols: bytes, column: Sequence[int]) -> bytes:
        """Each trace's final state under `moves`, in log order.

        `symbols` is `layout` with each code c replaced by its column
        `column[c]`, and `len(moves) * width` is at most 256 for the
        width of a row of `moves`. States are held times the width, so
        that one step adds the state and symbol bytes of every running
        trace as two big integers, which no carry crosses, and reads all
        their successors through one translate of a table indexed by
        state × width + symbol. The traces still running then finish one
        event at a time.
        """
        width = len(moves[0])
        table = bytes([t * width for row in moves for t in row]).ljust(256, b"\0")
        states = bytes(len(self.order))  # every trace in state 0
        ended = []
        at = 0
        for m in self.running:
            if m < len(states):
                ended.append(states[m:])
                states = states[:m]
            cells = int.from_bytes(states, "big") + int.from_bytes(symbols[at:at + m], "big")
            states = cells.to_bytes(m, "big").translate(table)
            at += m
        t, live = len(self.running), self.live
        ended.append(states[live:])
        step = _dense_steps(moves, column)
        ended.append(bytes(
            step(state // width, self.traces[i][t:]) * width
            for i, state in zip(self.order, states[:live])
        ))
        by_length = b"".join(reversed(ended))
        return bytes(map(by_length.__getitem__, self.rank)).translate(
            bytes([cell // width for cell in range(256)])
        )


def _dense_steps(moves: list[list[int]], column: Sequence[int]):
    """A function that steps codes from a state under `moves`, one event
    at a time through a dense `table[state][code]`, and gives the state
    it ends in."""
    table = [list(map(row.__getitem__, column)) for row in moves]

    def step(state: int, codes: Iterable[int]) -> int:
        for code in codes:
            state = table[state][code]
        return state

    return step


def _walk_events(moves: list[list[int]], column: list[int], coded: CodedLog) -> list[int]:
    """Each trace's final state under `moves`, one event at a time."""
    step = _dense_steps(moves, column)
    finals = []
    events = iter(coded.events)
    for n in coded.lengths:
        finals.append(step(0, islice(events, n)))
        next(events)  # the code that ends the trace
    return finals


def walk_log(dfas: Sequence[Dfa], coded: CodedLog) -> list[bytearray]:
    """Whether each automaton accepts each trace of a coded log.

    Every named activity of `dfas` that occurs in the log must be among
    the coded activities. `verdicts[j][i]` is 1 when dfas[j] accepts
    trace i and 0 otherwise. Automata with the same named activities form
    one colored product, whose states carry the verdicts of all its
    members. When the log's codes fit in a byte, a product of at most 256
    (state, column) cells walks every trace at once, a step at a time
    over the traces still running, the longest first (`_Lockstep`). The
    few long traces left at the end, and every trace under a larger
    product or of a log of wider codes, read one event at a time through
    a dense `table[state][code]`.
    """
    verdicts = [bytearray() for _ in dfas]
    groups: dict[tuple[Activity, ...], list[int]] = {}
    for j, dfa in enumerate(dfas):
        groups.setdefault(dfa.named, []).append(j)
    shared = None  # the lockstep layout of coded.events, built on first use
    for members in groups.values():
        moves, colors = _colored_product([dfas[j] for j in members])
        named = dfas[members[0]].named
        column = [len(named)] * (len(coded.codes) + 1)
        for i, a in enumerate(named):
            code = coded.codes.get(a)
            if code is not None:
                column[code] = i
        finals: bytes | list[int]
        if isinstance(coded.events, bytes) and len(moves) * len(moves[0]) <= 256:
            if shared is None:
                shared = _Lockstep(coded.events, len(coded.codes) + 1, coded.lengths)
            symbols = shared.layout.translate(bytes(column).ljust(256, b"\0"))
            finals = shared.walk(moves, symbols, column)
        else:
            finals = _walk_events(moves, column, coded)
        for k, j in enumerate(members):
            accepts = bytes([color[k] for color in colors])
            if isinstance(finals, bytes):
                verdicts[j] = bytearray(finals.translate(accepts.ljust(256, b"\0")))
            else:
                verdicts[j] = bytearray(map(accepts.__getitem__, finals))
    return verdicts


# --------------------------------------------------------------------------
# Exports

def _symbol_names(dfa: Dfa, activation: Activity | None, target: Activity | None) -> list[str]:
    names = []
    for a in dfa.named:
        if activation is not None and a is activation:
            names.append("arg_0")
        elif target is not None and a is target:
            names.append("arg_1")
        else:
            names.append(a.label)
    names.append(WILDCARD_LABEL)
    return names


def to_facts_dict(
    dfa: Dfa,
    kind: str,
    *,
    activation: Activity | None = None,
    target: Activity | None = None,
) -> dict:
    """Fact-style JSON form: kind, transitions, initial, accepting.

    With activation/target given, their columns are exported as arg_0 and
    arg_1 so instantiations of one template share a representation.
    """
    names = _symbol_names(dfa, activation, target)
    order = {n: i for i, n in enumerate(sorted(names))}
    transitions = []
    for s, row in enumerate(dfa.moves):
        for col, t in enumerate(row):
            transitions.append([s, names[col], t])
    transitions.sort(key=lambda e: (e[0], order[e[1]]))
    return {
        "kind": kind,
        "initial": dfa.initial,
        "accepting": sorted(dfa.accepting),
        "transitions": transitions,
    }


def to_facts_json(
    dfa: Dfa,
    kind: str,
    *,
    activation: Activity | None = None,
    target: Activity | None = None,
) -> str:
    """`to_facts_dict` as the text json.dumps(..., indent=2) gives for it,
    and a line end, written directly (`json_string`, `json_block`)."""
    doc = to_facts_dict(dfa, kind, activation=activation, target=target)
    transitions = [
        json_block("[]", [f"      {s}", f"      {json_string(name)}", f"      {t}"], "    ")
        for s, name, t in doc["transitions"]
    ]
    return "".join((
        "{\n",
        f'  "kind": {json_string(kind)},\n',
        f'  "initial": {doc["initial"]},\n',
        '  "accepting": ',
        json_block("[]", [f"    {s}" for s in doc["accepting"]], "  "),
        ',\n  "transitions": ',
        json_block("[]", [f"    {block}" for block in transitions], "  "),
        "\n}\n",
    ))


def to_dot(
    dfa: Dfa,
    *,
    activation: Activity | None = None,
    target: Activity | None = None,
) -> str:
    """Graphviz rendering with doubled accepting states and an entry arrow."""
    names = _symbol_names(dfa, activation, target)
    lines = ["digraph dfa {", "  rankdir=LR;", '  __start [shape=none, label=""];']
    for s in range(dfa.n_states):
        shape = "doublecircle" if s in dfa.accepting else "circle"
        lines.append(f"  q{s} [shape={shape}, label=\"{s}\"];")
    lines.append(f"  __start -> q{dfa.initial};")
    for s, row in enumerate(dfa.moves):
        grouped: dict[int, list[str]] = {}
        for col, t in enumerate(row):
            grouped.setdefault(t, []).append(names[col])
        for t in sorted(grouped):
            label = ", ".join(grouped[t]).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  q{s} -> q{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Template automata

@lru_cache(maxsize=None)  # at most two per kind
def _kind_dfa(kind, same: bool) -> Dfa:
    """Minimal DFA of a template from arg_0 to arg_1, or from arg_0 to
    itself when `same`: its columns are arg_0, then arg_1, then the
    wildcard."""
    activation = Activity("arg_0")
    target = activation if same else Activity("arg_1")
    return minimize(compile_formula(template_formula(kind, activation, target)))


@lru_cache(maxsize=1024)
def template_dfa(kind, activation: Activity, target: Activity) -> Dfa:
    """Minimal DFA of one template instance (cached).

    Each kind compiles once, over placeholders; an instance takes that
    automaton's columns in the order of its own activities, and
    `minimize` numbers the states as compiling the instance would.
    """
    shared = _kind_dfa(kind, activation is target)
    if activation is target:
        named, columns = (activation,), (0, 1)
    elif activation < target:
        named, columns = (activation, target), (0, 1, 2)
    else:
        named, columns = (target, activation), (1, 0, 2)
    moves = tuple(tuple([row[c] for c in columns]) for row in shared.moves)
    return minimize(Dfa(named, moves, shared.initial, shared.accepting))
