"""Log-level analysis tasks: conformance checking and query checking.

Three interchangeable backends produce identical verdicts whenever a
constraint's activation and target differ: positional rules (direct),
formula evaluation (tree), and compiled automata (dfa). Every task gets
its verdicts from `check_log`, one call per log: the log's events, coded
once as small integers, are mapped to the constraints' codes and every
backend checks the whole log at a time.
Verdicts stay in per-constraint columns up to the report, and supports
are exact rationals over the number of traces.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .core import (
    Activity,
    CodedLog,
    Constraint,
    DeclareModel,
    EventLog,
    Record,
    TemplateKind,
    Trace,
    code_events,
)


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
    traces: EventLog | Sequence[Trace], constraints: Sequence[Constraint], backend: Backend
) -> list[bytearray]:
    """Every constraint's verdict on every trace of a log or a sequence of
    traces: `verdicts[j][i]` is 1 when constraints[j] holds on trace i
    and 0 otherwise.

    Each event is coded once, or a log's own codes are mapped to the
    constraints' codes, and every backend checks the whole log at a
    time: direct maps each constraint's rule over the traces as strings
    of codes, tree evaluates one plan holding each distinct subformula
    once over the whole log, and dfa walks one colored product
    automaton per group of constraints over the same activities.
    """
    named = (a for c in constraints for a in (c.activation, c.target))
    return _check_coded(code_events(traces, named), constraints, backend)


def _check_coded(
    coded: CodedLog, constraints: Sequence[Constraint], backend: Backend
) -> list[bytearray]:
    """`check_log` on a log coded by `code_events` with every activity
    the constraints name among the coded ones. Each backend's modules are
    imported by its branch, so a check loads only the backend it runs."""
    if backend is Backend.DIRECT:
        from .direct import scan_log

        return scan_log(constraints, coded)
    if backend is Backend.TREE:
        from .ltlf import eval_log, template_formula

        formulas = [template_formula(c.kind, c.activation, c.target) for c in constraints]
        return eval_log(formulas, coded)
    if backend is Backend.DFA:
        from .automata import template_dfa, walk_log

        dfas = [template_dfa(c.kind, c.activation, c.target) for c in constraints]
        return walk_log(dfas, coded)
    raise ValueError(f"unhandled backend {backend!r}")


def _every(columns: Sequence[bytearray], n: int) -> int:
    """The bytewise AND of verdict columns over n traces, as a big
    integer: byte i is 1 when every column holds on trace i. Verdicts are
    bytes 0 and 1, so its bit count is the number of such traces."""
    columns = map(int.from_bytes, columns, itertools.repeat("big"))
    return functools.reduce(operator.and_, columns, int.from_bytes(b"\1" * n, "big"))


class VerdictMatrix(Mapping[tuple[int, int], bool]):
    """A read-only view of verdict columns as (trace id, constraint id)
    -> bool.

    `columns[j][i]` is 1 when constraint_ids[j] holds on trace_ids[i] and
    0 otherwise. Keys run constraint by constraint, each over the traces
    in order; the view equals the dict of the same cells.
    """

    __slots__ = ("trace_ids", "constraint_ids", "columns", "_rows", "_cols")

    def __init__(
        self, trace_ids: tuple[int, ...], constraint_ids: tuple[int, ...],
        columns: Sequence[bytearray],
    ):
        self.trace_ids = trace_ids
        self.constraint_ids = constraint_ids
        self.columns = columns
        self._rows = {tid: i for i, tid in enumerate(trace_ids)}
        self._cols = {cid: j for j, cid in enumerate(constraint_ids)}

    def __getitem__(self, key: tuple[int, int]) -> bool:
        try:
            tid, cid = key
            return self.columns[self._cols[cid]][self._rows[tid]] == 1
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None

    def __len__(self) -> int:
        return len(self._rows) * len(self._cols)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((tid, cid) for cid in self.constraint_ids for tid in self.trace_ids)

    def __reduce__(self):
        return VerdictMatrix, (self.trace_ids, self.constraint_ids, self.columns)


class CheckReport(Record):
    """Conformance result: per-(trace, constraint) verdicts plus rollups.

    `matrix` maps (trace id, constraint id) to satisfaction, as a
    `VerdictMatrix` from `conformance_check`; `compliant`
    holds ids of traces satisfying every constraint; `supports` maps each
    constraint id to its exact satisfaction rate over the log.
    """

    __slots__ = _fields = (
        "backend", "trace_ids", "constraint_ids", "matrix", "compliant", "supports",
    )
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

    One `check_log` call gives each constraint's verdict column on the
    whole log; the matrix is a view over the columns, and the compliant
    set and supports are read off them.
    """
    ids = tuple(c.id for c in model.constraints)
    columns = check_log(log, model.constraints, backend)
    trace_ids = log.trace_ids
    n = len(trace_ids)

    supports = {
        cid: Fraction(column.count(1), n) if n else Fraction(0)
        for cid, column in zip(ids, columns)
    }
    compliant = itertools.compress(trace_ids, _every(columns, n).to_bytes(n, "big"))
    return CheckReport(
        backend=backend,
        trace_ids=trace_ids,
        constraint_ids=ids,
        matrix=VerdictMatrix(trace_ids, ids, columns),
        compliant=frozenset(compliant),
        supports=supports,
    )


def support(constraint: Constraint, log: EventLog, backend: Backend = Backend.DIRECT) -> Fraction:
    """Fraction of traces satisfying the constraint; undefined on empty logs."""
    if len(log) == 0:
        raise EmptyLogError("support is undefined on an empty log")
    (column,) = check_log(log, (constraint,), backend)
    return Fraction(sum(column), len(log))


# --------------------------------------------------------------------------
# Query checking

class Variable(Record):
    """A query placeholder; rendered as ?name."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("variable name must be non-empty")
        super().__init__(name)

    def __str__(self) -> str:
        return f"?{self.name}"


Slot = Activity | Variable


class QueryTerm(Record):
    """One template whose argument slots may hold activities or variables."""

    __slots__ = _fields = ("kind", "activation", "target")
    kind: TemplateKind
    activation: Slot
    target: Slot


class Query(Record):
    """A conjunctive query: every term must hold for a binding to count.

    `domains` restricts candidate activities per variable; variables
    without an entry range over the whole log alphabet.
    """

    __slots__ = _fields = ("terms", "domains")

    def __init__(
        self, terms: tuple[QueryTerm, ...],
        domains: Mapping[Variable, tuple[Activity, ...]] | None = None,
    ) -> None:
        if not terms:
            raise ValueError("query needs at least one term")
        super().__init__(terms, {} if domains is None else domains)

    def variables(self) -> tuple[Variable, ...]:
        seen = {
            slot.name: slot
            for term in self.terms
            for slot in (term.activation, term.target)
            if isinstance(slot, Variable)
        }
        return tuple(seen[name] for name in sorted(seen))


class QueryAnswer(Record):
    __slots__ = _fields = ("binding", "support")
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
    which is exactly support >= threshold. Events are coded once for the
    whole query, and every backend checks each binding on the whole log
    at once. Answers come sorted by descending support, then by binding
    labels in variable-name order.
    """
    s = Fraction(threshold)
    if not (0 < s <= 1):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if len(log) == 0:
        raise EmptyLogError("query checking is undefined on an empty log")

    variables = query.variables()
    domains = []
    for v in variables:
        domain = tuple(dict.fromkeys(query.domains.get(v, log.alphabet)))
        if not domain:
            raise ValueError(f"empty domain for variable {v}")
        domains.append(domain)

    n = len(log)
    max_violations = math.floor((1 - s) * n)
    answers: list[QueryAnswer] = []
    named = [a for term in query.terms for a in (term.activation, term.target)
             if isinstance(a, Activity)]
    coded = code_events(log, itertools.chain(named, *domains))

    for combo in itertools.product(*domains):
        binding = dict(zip(variables, combo))

        def fill(slot: Slot) -> Activity:
            return binding[slot] if isinstance(slot, Variable) else slot

        constraints = [
            Constraint(i, term.kind, fill(term.activation), fill(term.target))
            for i, term in enumerate(query.terms)
        ]
        violations = n - _every(_check_coded(coded, constraints, backend), n).bit_count()
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
