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
from typing import Iterator, Mapping

from .core import Activity, Constraint, EventLog, Record, TemplateKind, Trace, code_events
from .tasks import Backend, _check_coded

ALL_KINDS: tuple[TemplateKind, ...] = tuple(TemplateKind)

# Traces are checked this many at a time, which bounds the memory a long
# sweep holds.
_BATCH = 1024


class Disagreement(Record):
    """One trace on which the backends split, with a replayable form."""

    __slots__ = _fields = ("kind", "trace", "verdicts", "factlog")
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


def _compare(sweep: Iterator[tuple[Activity, ...]]) -> list[Disagreement]:
    """Check every trace of a sweep with one constraint over (a, b) per
    kind on every backend, a batch of traces at a time. Split verdicts
    come in sweep order, then in ALL_KINDS order."""
    act, tgt = Activity("a"), Activity("b")
    constraints = [Constraint(i, kind, act, tgt) for i, kind in enumerate(ALL_KINDS)]
    out: list[Disagreement] = []
    while batch := [Trace(0, events) for events in itertools.islice(sweep, _BATCH)]:
        # Per kind, the (direct, tree, dfa) verdict columns over the batch,
        # whose events are coded once for all three backends.
        coded = code_events(batch, (act, tgt))
        columns = list(zip(*(_check_coded(coded, constraints, b) for b in Backend)))
        split = sorted(
            (i, k)
            for k, (direct, tree, dfa) in enumerate(columns)
            if not direct == tree == dfa
            for i, verdicts in enumerate(zip(direct, tree, dfa))
            if len(set(verdicts)) > 1
        )
        for i, k in split:
            from .ingest import write_factlog  # loaded here: only disagreements need it
            d, t, f = (column[i] == 1 for column in columns[k])
            out.append(
                Disagreement(
                    kind=ALL_KINDS[k],
                    trace=batch[i],
                    verdicts={"direct": d, "tree": t, "dfa": f},
                    factlog=write_factlog(EventLog([batch[i]])),
                )
            )
    return out


def exhaustive_check(max_len: int = 10) -> list[Disagreement]:
    """Compare the backends on every trace over {a, b, w} up to max_len.

    Traces are visited by length, then lexicographically in (a, b, w)
    order, so the disagreement list has a canonical order. max_len=0
    checks only the empty trace; a negative max_len raises ValueError.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be 0 or more, got {max_len}")
    symbols = (Activity("a"), Activity("b"), Activity("w"))
    sweep = itertools.chain.from_iterable(
        itertools.product(symbols, repeat=length) for length in range(max_len + 1)
    )
    return _compare(sweep)


def random_check(
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
    symbols = (Activity("a"), Activity("b"), Activity("w"))
    rng = random.Random(seed)

    def sweep() -> Iterator[tuple[Activity, ...]]:
        for _ in range(n_samples):
            length = rng.randint(0, max_len)
            yield tuple(rng.choice(symbols) for _ in range(length))

    return _compare(sweep())
