"""Log-level analysis tasks: conformance checking and query checking.

Three interchangeable backends produce identical verdicts whenever a
constraint's activation and target differ: positional rules (direct),
formula evaluation (tree), and compiled automata (dfa). Every task gets
its verdicts from `check_log`, one call per log: direct checks trace by
trace over a per-trace position index, while tree and dfa check the
whole log at a time over events coded once as small integers. Supports
are exact rationals over the number of traces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .automata import template_dfa, walk_log
from .core import (
    Activity,
    CodedLog,
    Constraint,
    DeclareModel,
    EventLog,
    TemplateKind,
    Trace,
    code_events,
    index_positions,
)
from .direct import direct_checker
from .ltlf import eval_log, template_formula


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


def check_log(
    traces: Sequence[Trace], constraints: Sequence[Constraint], backend: Backend
) -> list[bytearray]:
    """Every constraint's verdict on every trace: `verdicts[j][i]` is 1
    when constraints[j] holds on traces[i] and 0 otherwise.

    direct checks one trace at a time, its constraints sharing the trace's
    `index_positions`. tree and dfa code each event once and check the
    whole log at a time: tree evaluates one plan holding each distinct
    subformula once per block of traces, and dfa walks one colored
    product automaton per group of constraints over the same activities.
    """
    if backend is Backend.DIRECT:
        checkers = [direct_checker(c) for c in constraints]
        verdicts = [bytearray(len(traces)) for _ in checkers]
        for i, trace in enumerate(traces):
            # One position index per trace, shared by its constraints.
            index = index_positions(trace.events)
            for column, holds in zip(verdicts, checkers):
                column[i] = holds(trace, index)
        return verdicts
    named = (a for c in constraints for a in (c.activation, c.target))
    return _check_coded(code_events(traces, named), constraints, backend)


def _check_coded(
    coded: CodedLog, constraints: Sequence[Constraint], backend: Backend
) -> list[bytearray]:
    """`check_log` for tree or dfa, on a log coded by `code_events` with
    every activity the constraints name among the coded ones."""
    if backend is Backend.TREE:
        formulas = [template_formula(c.kind, c.activation, c.target) for c in constraints]
        return eval_log(formulas, coded)
    if backend is Backend.DFA:
        dfas = [template_dfa(c.kind, c.activation, c.target) for c in constraints]
        return walk_log(dfas, coded)
    raise ValueError(f"unhandled backend {backend!r}")


def make_checker(constraint: Constraint, backend: Backend) -> Callable[[Trace], bool]:
    """One constraint on one trace at a time: `checker(trace) -> bool`."""
    if backend is Backend.DIRECT:
        return direct_checker(constraint)
    return lambda trace: check_log((trace,), (constraint,), backend)[0][0] == 1


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
    """Check every trace against every constraint.

    One `check_log` call gives each constraint's verdicts on the whole
    log; the matrix, compliant set and supports are read off them.
    """
    ids = [c.id for c in model.constraints]
    verdicts = check_log(log.traces, model.constraints, backend)
    trace_ids = tuple(tr.id for tr in log.traces)
    n = len(trace_ids)

    matrix: dict[tuple[int, int], bool] = {}
    supports = {}
    # Verdicts are bytes 0 and 1, so the bytewise AND of all columns, taken
    # as big integers, marks the traces on which every constraint holds.
    every = int.from_bytes(b"\1" * n, "big")
    for j, cid in enumerate(ids):
        column, verdicts[j] = verdicts[j], None  # dropped once read
        matrix.update(zip(zip(trace_ids, itertools.repeat(cid)), map(bool, column)))
        supports[cid] = Fraction(sum(column), n) if n else Fraction(0)
        every &= int.from_bytes(column, "big")
    compliant = itertools.compress(trace_ids, every.to_bytes(n, "big"))
    return CheckReport(
        backend=backend,
        trace_ids=trace_ids,
        constraint_ids=tuple(ids),
        matrix=matrix,
        compliant=frozenset(compliant),
        supports=supports,
    )


def support(constraint: Constraint, log: EventLog, backend: Backend = Backend.DIRECT) -> Fraction:
    """Fraction of traces satisfying the constraint; undefined on empty logs."""
    if len(log) == 0:
        raise EmptyLogError("support is undefined on an empty log")
    (column,) = check_log(log.traces, (constraint,), backend)
    return Fraction(sum(column), len(log))


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
    which is exactly support >= threshold. On the direct backend a
    binding is dropped as soon as it exceeds that violation budget; tree
    and dfa check each binding on the whole log at once, over events
    coded once for the whole query. Answers come sorted by
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
    if backend is Backend.DIRECT:
        # One position index per trace, shared by every term of every
        # binding. They live for the whole query: about 64 bytes per event,
        # less than loading the log peaked at, where indexing per binding
        # would repeat the work once per binding.
        indexed = [(trace, index_positions(trace.events)) for trace in log.traces]
    else:
        # Each event coded once for the whole query; every binding checks
        # the whole log at once.
        named = [a for term in query.terms for a in (term.activation, term.target)
                 if isinstance(a, Activity)]
        coded = code_events(log.traces, itertools.chain(named, *domains))

    for combo in itertools.product(*domains):
        binding = dict(zip(variables, combo))

        def fill(slot: Slot) -> Activity:
            return binding[slot] if isinstance(slot, Variable) else slot

        constraints = [
            Constraint(i, term.kind, fill(term.activation), fill(term.target))
            for i, term in enumerate(query.terms)
        ]
        if backend is Backend.DIRECT:
            # A binding stops at the first trace over its violation budget.
            checkers = [direct_checker(c) for c in constraints]
            violations = 0
            for trace, index in indexed:
                if not all(holds(trace, index) for holds in checkers):
                    violations += 1
                    if violations > max_violations:
                        break
        else:
            violations = n - sum(map(all, zip(*_check_coded(coded, constraints, backend))))
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
