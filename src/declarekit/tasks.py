"""Log-level analysis tasks: conformance checking and query checking.

Three interchangeable backends produce identical verdicts whenever a
constraint's activation and target differ: positional rules (direct),
formula evaluation (tree), and compiled automata (dfa). Supports are
exact rationals over the number of traces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .automata import template_dfa
from .core import (
    Activity,
    Constraint,
    DeclareModel,
    EventLog,
    PositionIndex,
    TemplateKind,
    Trace,
    index_positions,
    named_positions,
)
from .direct import direct_checker
from .ltlf import template_formula, tree_row_checker


class Backend(Enum):
    """Evaluation strategy; all agree when activation differs from target."""

    DIRECT = "direct"
    TREE = "tree"
    DFA = "dfa"

    @classmethod
    def from_name(cls, name: str) -> "Backend":
        for b in cls:
            if b.value == name:
                return b
        valid = ", ".join(b.value for b in cls)
        raise ValueError(f"unknown backend {name!r}; valid backends: {valid}")


class EmptyLogError(ValueError):
    """Raised for tasks whose result is undefined on a log with no traces."""


def make_checker(constraint: Constraint, backend: Backend) -> Callable[..., bool]:
    """The one-constraint `make_row_checker`: `checker(trace, index=None)`.

    Pass the trace's shared `index_positions` when there is one; without
    it, the checker builds it.
    """
    row = make_row_checker((constraint,), backend)

    def holds(trace: Trace, index: PositionIndex | None = None) -> bool:
        if index is None:
            index = index_positions(trace.events)
        return row(trace, index)[0]

    return holds


def make_row_checker(
    constraints: Sequence[Constraint], backend: Backend
) -> Callable[[Trace, PositionIndex], list[bool]]:
    """Bind a model's constraints to one backend, sharing work across them.

    `row(trace, index)` lists the verdicts of `constraints` in order on a
    trace with `index_positions` `index`. tree evaluates one plan holding
    each distinct subformula once; dfa merges the positions of each
    distinct automaton alphabet once and walks only those positions.
    """
    if backend is Backend.DIRECT:
        checkers = [direct_checker(c) for c in constraints]
        return lambda trace, index: [fn(trace, index) for fn in checkers]
    if backend is Backend.TREE:
        return tree_row_checker(
            [template_formula(c.kind, c.activation, c.target) for c in constraints]
        )
    if backend is Backend.DFA:
        dfas = [template_dfa(c.kind, c.activation, c.target) for c in constraints]
        alphabets = dict.fromkeys(dfa.named for dfa in dfas)

        def row(trace: Trace, index: PositionIndex) -> list[bool]:
            events = trace.events
            positions = {named: named_positions(index, named) for named in alphabets}
            return [dfa.accepts(events, positions[dfa.named]) for dfa in dfas]

        return row
    raise ValueError(f"unhandled backend {backend!r}")


@dataclass(frozen=True)
class CheckReport:
    """Conformance result: per-(trace, constraint) verdicts plus rollups.

    `matrix` maps (trace id, constraint id) to satisfaction; `compliant`
    holds ids of traces satisfying every constraint; `supports` maps each
    constraint id to its exact satisfaction rate over the log.
    """

    backend: Backend
    trace_ids: tuple[int, ...]
    constraint_ids: tuple[int, ...]
    matrix: Mapping[tuple[int, int], bool]
    compliant: frozenset[int]
    supports: Mapping[int, Fraction]


def conformance_check(
    log: EventLog,
    model: DeclareModel,
    backend: Backend = Backend.DIRECT,
) -> CheckReport:
    """Check every trace against every constraint, one trace at a time."""
    ids = [c.id for c in model.constraints]
    row = make_row_checker(model.constraints, backend)

    matrix: dict[tuple[int, int], bool] = {}
    compliant = []
    sat_counts = [0] * len(ids)
    for trace in log.traces:
        # One position index per row, shared by its constraints and dropped with it.
        verdicts = row(trace, index_positions(trace.events))
        tid = trace.id
        for i, ok in enumerate(verdicts):
            matrix[(tid, ids[i])] = ok
            if ok:
                sat_counts[i] += 1
        if all(verdicts):
            compliant.append(tid)

    n = len(log)
    supports = {
        cid: (Fraction(count, n) if n else Fraction(0)) for cid, count in zip(ids, sat_counts)
    }
    return CheckReport(
        backend=backend,
        trace_ids=tuple(tr.id for tr in log.traces),
        constraint_ids=tuple(ids),
        matrix=matrix,
        compliant=frozenset(compliant),
        supports=supports,
    )


def support(constraint: Constraint, log: EventLog, backend: Backend = Backend.DIRECT) -> Fraction:
    """Fraction of traces satisfying the constraint; undefined on empty logs."""
    if len(log) == 0:
        raise EmptyLogError("support is undefined on an empty log")
    fn = make_checker(constraint, backend)
    hits = sum(1 for tr in log.traces if fn(tr))
    return Fraction(hits, len(log))


# --------------------------------------------------------------------------
# Query checking

@dataclass(frozen=True)
class Variable:
    """A query placeholder; rendered as ?name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")

    def __str__(self) -> str:
        return f"?{self.name}"


Slot = Activity | Variable


@dataclass(frozen=True)
class QueryTerm:
    """One template whose argument slots may hold activities or variables."""

    kind: TemplateKind
    activation: Slot
    target: Slot


@dataclass(frozen=True)
class Query:
    """A conjunctive query: every term must hold for a binding to count.

    `domains` restricts candidate activities per variable; variables
    without an entry range over the whole log alphabet.
    """

    terms: tuple[QueryTerm, ...]
    domains: Mapping[Variable, tuple[Activity, ...]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("query needs at least one term")
        if self.domains is None:
            object.__setattr__(self, "domains", {})

    def variables(self) -> tuple[Variable, ...]:
        seen = {
            slot.name: slot
            for term in self.terms
            for slot in (term.activation, term.target)
            if isinstance(slot, Variable)
        }
        return tuple(seen[name] for name in sorted(seen))


@dataclass(frozen=True)
class QueryAnswer:
    binding: Mapping[Variable, Activity]
    support: Fraction


def query_check(
    query: Query,
    log: EventLog,
    threshold,
    backend: Backend = Backend.DIRECT,
) -> list[QueryAnswer]:
    """All bindings whose instantiated terms reach the support threshold.

    The threshold is a rational in (0, 1]; a binding is kept when at most
    floor((1 - threshold) * |log|) traces violate its instantiation,
    which is exactly support >= threshold. A binding is dropped as soon
    as it exceeds that violation budget. Answers come sorted by
    descending support, then by binding labels in variable-name order.
    """
    s = Fraction(threshold)
    if not (0 < s <= 1):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if len(log) == 0:
        raise EmptyLogError("query checking is undefined on an empty log")

    variables = query.variables()
    domains = []
    for v in variables:
        domain = tuple(query.domains.get(v, log.alphabet))
        if not domain:
            raise ValueError(f"empty domain for variable {v}")
        domains.append(domain)

    n = len(log)
    max_violations = math.floor((1 - s) * n)
    answers: list[QueryAnswer] = []
    # One position index per trace, shared by every term of every binding.
    # They live for the whole query: about 64 bytes per event, less than
    # loading the log peaked at, where indexing per binding would repeat
    # the work once per binding.
    indexed = [(trace, index_positions(trace.events)) for trace in log.traces]

    for combo in itertools.product(*domains):
        binding = dict(zip(variables, combo))

        def fill(slot: Slot) -> Activity:
            return binding[slot] if isinstance(slot, Variable) else slot

        row = make_row_checker(
            [
                Constraint(i, term.kind, fill(term.activation), fill(term.target))
                for i, term in enumerate(query.terms)
            ],
            backend,
        )
        violations = 0
        for trace, index in indexed:
            if not all(row(trace, index)):
                violations += 1
                if violations > max_violations:
                    break
        if violations <= max_violations:
            answers.append(
                QueryAnswer(binding=binding, support=Fraction(n - violations, n))
            )

    answers.sort(
        key=lambda ans: (
            -ans.support,
            tuple(ans.binding[v].label for v in variables),
        )
    )
    return answers
