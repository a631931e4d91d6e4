"""Cross-validation of the three checking backends against each other.

Every template is evaluated by positional rules, by formula evaluation,
and by its compiled automaton over the same traces; any split verdict is
returned as a replayable disagreement. The trace alphabet is {a, b, w}:
a and b carry the activation and target roles, and w stands for every
activity outside the constraint (one extra symbol is enough, since
unnamed activities are interchangeable to all three backends).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .core import (
    Activity,
    Constraint,
    EventLog,
    PositionIndex,
    TemplateKind,
    Trace,
    index_positions,
)
from .ingest import write_factlog
from .tasks import Backend, make_row_checker

ALL_KINDS: tuple[TemplateKind, ...] = tuple(TemplateKind)


@dataclass(frozen=True)
class Disagreement:
    """One trace on which the backends split, with a replayable form."""

    kind: TemplateKind
    trace: Trace
    verdicts: Mapping[str, bool]
    factlog: str

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.camel,
            "trace": [a.label for a in self.trace.events],
            "verdicts": dict(self.verdicts),
            "factlog": self.factlog,
        }


# One row checker per backend, in Backend order (direct, tree, dfa), each
# holding one constraint over (a, b) per kind, compiled once.
_Rows = list[Callable[[Trace, PositionIndex], list[bool]]]


def _rows(kinds: tuple[TemplateKind, ...]) -> _Rows:
    act, tgt = Activity("a"), Activity("b")
    constraints = [Constraint(i, kind, act, tgt) for i, kind in enumerate(kinds)]
    return [make_row_checker(constraints, b) for b in Backend]


def _compare(
    events: tuple[Activity, ...],
    kinds: tuple[TemplateKind, ...],
    rows: _Rows,
    out: list[Disagreement],
) -> None:
    trace = Trace(0, events)
    index = index_positions(events)
    direct, tree, dfa = (row(trace, index) for row in rows)
    for kind, d, t, f in zip(kinds, direct, tree, dfa):
        if d is not t or t is not f:
            out.append(
                Disagreement(
                    kind=kind,
                    trace=trace,
                    verdicts={"direct": d, "tree": t, "dfa": f},
                    factlog=write_factlog(EventLog([trace])),
                )
            )


def exhaustive_check(
    kinds: Iterable[TemplateKind] | None = None,
    max_len: int = 10,
) -> list[Disagreement]:
    """Compare the backends on every trace over {a, b, w} up to max_len.

    Traces are visited by length, then lexicographically in (a, b, w)
    order, so the disagreement list has a canonical order. max_len=0
    checks only the empty trace; a negative max_len raises ValueError.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be 0 or more, got {max_len}")
    kinds = ALL_KINDS if kinds is None else tuple(kinds)
    rows = _rows(kinds)
    symbols = (Activity("a"), Activity("b"), Activity("w"))
    out: list[Disagreement] = []
    for length in range(max_len + 1):
        for events in itertools.product(symbols, repeat=length):
            _compare(events, kinds, rows, out)
    return out


def random_check(
    kinds: Iterable[TemplateKind] | None = None,
    n_samples: int = 100_000,
    max_len: int = 20,
    seed: int = 0,
) -> list[Disagreement]:
    """Compare the backends on seeded random traces over {a, b, w}.

    Lengths are uniform on 0..max_len and symbols uniform, so longer
    traces than the exhaustive sweep can reach are still exercised
    deterministically. Negative n_samples or max_len raise ValueError.
    """
    if n_samples < 0 or max_len < 0:
        raise ValueError(f"n_samples and max_len must be 0 or more, got {n_samples}, {max_len}")
    kinds = ALL_KINDS if kinds is None else tuple(kinds)
    rows = _rows(kinds)
    symbols = (Activity("a"), Activity("b"), Activity("w"))
    rng = random.Random(seed)
    out: list[Disagreement] = []
    for _ in range(n_samples):
        length = rng.randint(0, max_len)
        events = tuple(rng.choice(symbols) for _ in range(length))
        _compare(events, kinds, rows, out)
    return out
