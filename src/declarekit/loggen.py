"""Synthetic labeled logs drawn uniformly from constraint languages.

A generator automaton is the minimal DFA of `f & F a & F b`, for the
template's formula f over its activation a and target b, or of
`!f & F a & F b` for the negative class. Path counts per (state,
remaining length) use arbitrary precision integers, weighting the
wildcard class by the number of concrete activities it stands for, so
sampling is exactly uniform over the accepted strings of the requested
length.
"""

from __future__ import annotations

import random

from .automata import Dfa, compile_formula, minimize
from .core import Activity, Constraint, EventLog, Record, Trace
from .ltlf import And, Atom, Eventually, Not, template_formula


class GeneratorError(ValueError):
    """The requested language slice is empty or the setup is inconsistent."""


def build_generator(constraint: Constraint, alphabet_size: int, positive: bool = True) -> Dfa:
    """Automaton for traces that contain both arguments and satisfy the
    constraint (positive) or violate it (negative)."""
    if alphabet_size < 2:
        raise GeneratorError("alphabet size must be at least 2")
    f = template_formula(constraint.kind, constraint.activation, constraint.target)
    occur = [Eventually(Atom(x)) for x in (constraint.activation, constraint.target)]
    return minimize(compile_formula(And((f if positive else Not(f), *occur))))


def generator_alphabet(named: tuple[Activity, ...], alphabet_size: int) -> tuple[Activity, ...]:
    """The concrete alphabet: named activities padded with a_0, a_1, ...

    Fill labels that collide with a named label are skipped, so the
    result always has exactly `alphabet_size` distinct activities.
    """
    if alphabet_size < len(named):
        raise GeneratorError(
            f"alphabet size {alphabet_size} cannot cover {len(named)} named activities"
        )
    named_labels = {a.label for a in named}
    fill: list[Activity] = []
    i = 0
    while len(named) + len(fill) < alphabet_size:
        label = f"a_{i}"
        i += 1
        if label not in named_labels:
            fill.append(Activity(label))
    return tuple(sorted((*named, *fill)))


class PathCountTable(Record):
    """counts[r][s]: accepted continuations of length r from state s."""

    __slots__ = ("dfa", "alphabet_size", "counts", "_columns_memo")
    _fields = ("dfa", "alphabet_size", "counts")
    dfa: Dfa
    alphabet_size: int
    counts: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, dfa: Dfa, alphabet_size: int, max_len: int) -> "PathCountTable":
        if alphabet_size < len(dfa.named):
            raise GeneratorError(
                f"alphabet size {alphabet_size} cannot cover {len(dfa.named)} named activities"
            )
        weights = [1] * len(dfa.named) + [alphabet_size - len(dfa.named)]
        base = tuple(1 if s in dfa.accepting else 0 for s in range(dfa.n_states))
        levels = [base]
        for _ in range(max_len):
            prev = levels[-1]
            levels.append(
                tuple(
                    sum(w * prev[dst] for w, dst in zip(weights, row))
                    for row in dfa.moves
                )
            )
        return cls(dfa=dfa, alphabet_size=alphabet_size, counts=tuple(levels))

    def total(self, length: int) -> int:
        return self.counts[length][self.dfa.initial]

    def _columns(self) -> tuple[tuple[Activity, ...], tuple[tuple[Activity | None, int], ...]]:
        """The wildcard's activities, and each transition class's
        (activity, or None for the wildcard; weight). Built on first use
        and kept, as the table never changes."""
        try:
            return self._columns_memo
        except AttributeError:
            pass
        named = self.dfa.named
        others = tuple(a for a in generator_alphabet(named, self.alphabet_size) if a not in named)
        columns = (*((act, 1) for act in named), (None, len(others)))
        object.__setattr__(self, "_columns_memo", (others, columns))
        return self._columns_memo


_MASK64 = (1 << 64) - 1


def mix_seed(base: int, stream: int) -> int:
    """SplitMix-style mixer combining the base seed with a stream id."""
    z = (base ^ (stream * 0x9E3779B97F4A7C15)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def sample_trace(table: PathCountTable, length: int, seed: int) -> tuple[Activity, ...]:
    """Draw one string of exactly `length` symbols that `table.dfa`
    accepts, uniformly; the table must count up to `length`.

    At each step a transition class is picked with probability
    proportional to weight * continuations; a wildcard pick is then
    resolved to a concrete unnamed activity by its rank, so every
    accepted string has probability 1 / total.
    """
    if not 0 <= length < len(table.counts):
        raise GeneratorError(
            f"length {length} is outside the table's range 0..{len(table.counts) - 1}"
        )
    if table.total(length) <= 0:
        raise GeneratorError(f"no accepted traces of length {length}")
    others, columns = table._columns()
    randrange = random.Random(seed).randrange
    moves, counts = table.dfa.moves, table.counts

    state = table.dfa.initial
    events: list[Activity] = []
    for remaining in range(length, 0, -1):
        x = randrange(counts[remaining][state])
        below = counts[remaining - 1]
        for (act, weight), dst in zip(columns, moves[state]):
            block = weight * below[dst]
            if x < block:
                events.append(others[x // below[dst]] if act is None else act)
                state = dst
                break
            x -= block
        else:
            raise AssertionError("path count bookkeeping is inconsistent")
    return tuple(events)


class GeneratedLog(Record):
    """A log with one boolean label per trace (indexed by trace id)."""

    __slots__ = _fields = ("log", "labels")
    log: EventLog
    labels: tuple[bool, ...]


def generate_log(
    constraint: Constraint,
    n_traces: int,
    length: int,
    alphabet_size: int,
    seed: int,
) -> GeneratedLog:
    """Generate n_traces of fixed length, first half satisfying the
    constraint and second half violating it, all containing both the
    activation and the target.

    Each trace is drawn from its own SplitMix-derived stream, so any
    single trace is reproducible from (seed, trace id) alone.
    """
    if n_traces <= 0 or n_traces % 2:
        raise GeneratorError("n_traces must be positive and even")
    if length < 0:
        raise GeneratorError("length must be non-negative")

    halves = []
    for positive in (True, False):
        gen = build_generator(constraint, alphabet_size, positive)
        table = PathCountTable.build(gen, alphabet_size, length)
        if table.total(length) <= 0:
            polarity = "positive" if positive else "negative"
            raise GeneratorError(
                f"no {polarity} traces of length {length} contain both activities"
            )
        halves.append(table)

    labels = tuple(tid < n_traces // 2 for tid in range(n_traces))
    traces = [
        Trace(tid, sample_trace(halves[0 if positive else 1], length, mix_seed(seed, tid)))
        for tid, positive in enumerate(labels)
    ]
    return GeneratedLog(log=EventLog(traces), labels=labels)


def write_label_manifest(generated: GeneratedLog) -> str:
    """CSV rows trace_id,label with values positive/negative."""
    out = ["trace_id,label"]
    for trace, positive in zip(generated.log.traces, generated.labels):
        out.append(f"{trace.id},{'positive' if positive else 'negative'}")
    return "\n".join(out) + "\n"
