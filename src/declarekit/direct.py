"""Direct constraint checking by positional occurrence scans.

Each template gets a dedicated rule over activation and target positions:
no formula evaluation, no automaton, just ordered index walks. Verdicts
carry failure positions with reason tags plus, for response-like kinds,
a witness map from each activation to the position discharging it.
Out-of-range bounds (before the first or after the last position) are
explicit None values rather than sentinel integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .core import Constraint, PositionIndex, TemplateKind, Trace, index_positions
from .ltlf import ev_empty, template_formula

# Reason tags, stable for report consumers.
ACTIVATION_WITHOUT_TARGET = "activation_without_target"
ACTIVATION_WITHOUT_ALTERNATING_TARGET = "activation_without_alternating_target"
ACTIVATION_NOT_FOLLOWED_BY_TARGET = "activation_not_followed_by_target"
TARGET_BEFORE_ACTIVATION = "target_before_activation"
TARGET_WITHOUT_ACTIVATION = "target_without_activation"
REPEATED_TARGET_WITHOUT_ACTIVATION = "repeated_target_without_activation"
TARGET_WITHOUT_ALTERNATING_ACTIVATION = "target_without_alternating_activation"
TARGET_NOT_PRECEDED_BY_ACTIVATION = "target_not_preceded_by_activation"
TARGET_AT_START = "target_at_start"
NO_ALTERNATIVE_OCCURRED = "no_alternative_occurred"
BOTH_ALTERNATIVES_OCCURRED = "both_alternatives_occurred"
OCCURS_WITHOUT_COUNTERPART = "occurs_without_counterpart"
EMPTY_TRACE = "empty_trace"

Failure = tuple[int | None, str]


@dataclass(frozen=True)
class DirectVerdict:
    """Outcome of one constraint on one trace.

    `failures` is empty exactly when `sat` holds; positions are None for
    whole-trace conditions. `witnesses` maps each discharged activation
    position to its witness position. `steps` counts rule iterations
    over the activation and target positions, linear in their number;
    the position index, shared per trace, is not counted.
    """

    sat: bool
    failures: tuple[Failure, ...]
    witnesses: Mapping[int, int]
    steps: int = field(default=0, compare=False)


# Rules share one signature (events, act, tgt, act_pos, tgt_pos, failures,
# witnesses); each adds failures and witnesses in place and returns its steps.

def _response(events, act, tgt, act_pos, tgt_pos, failures, witnesses) -> int:
    """Every activation needs the target strictly later."""
    steps = 0
    j = 0
    m = len(tgt_pos)
    for t in act_pos:
        steps += 1
        while j < m and tgt_pos[j] <= t:
            j += 1
            steps += 1
        if j < m:
            witnesses[t] = tgt_pos[j]
        else:
            failures.append((t, ACTIVATION_WITHOUT_TARGET))
    return steps


def _alternate_response(events, act, tgt, act_pos, tgt_pos, failures, witnesses) -> int:
    """Every activation needs the target before the next activation."""
    steps = 0
    j = 0
    m = len(tgt_pos)
    for i, t in enumerate(act_pos):
        steps += 1
        nxt = act_pos[i + 1] if i + 1 < len(act_pos) else None
        while j < m and tgt_pos[j] <= t:
            j += 1
            steps += 1
        if j < m and (nxt is None or tgt_pos[j] < nxt):
            witnesses[t] = tgt_pos[j]
        else:
            failures.append((t, ACTIVATION_WITHOUT_ALTERNATING_TARGET))
    return steps


def _chain_response(events, act, tgt, act_pos, tgt_pos, failures, witnesses) -> int:
    """Every activation needs the target at the very next position."""
    n = len(events)
    for t in act_pos:
        if t + 1 < n and events[t + 1] is tgt:
            witnesses[t] = t + 1
        else:
            failures.append((t, ACTIVATION_NOT_FOLLOWED_BY_TARGET))
    return len(act_pos)


def _precedence(events, act, tgt, act_pos, tgt_pos, failures, witnesses) -> int:
    """No target before the first activation; targets need some activation."""
    steps = 0
    if not tgt_pos:
        return steps
    if not act_pos:
        for t in tgt_pos:
            failures.append((t, TARGET_WITHOUT_ACTIVATION))
            steps += 1
        return steps
    first_act = act_pos[0]
    for t in tgt_pos:
        steps += 1
        if t < first_act:
            failures.append((t, TARGET_BEFORE_ACTIVATION))
        else:
            break
    return steps


def _alternate_precedence(events, act, tgt, act_pos, tgt_pos, failures, witnesses) -> int:
    """Precedence plus: consecutive targets enclose at least one activation.

    The enclosure test counts activations in the closed interval between
    the two target positions, so a shared activation/target activity can
    never trigger it (the endpoints themselves count).
    """
    steps = _precedence(events, act, tgt, act_pos, tgt_pos, failures, witnesses)
    j = 0
    m = len(act_pos)
    for prev, cur in zip(tgt_pos, tgt_pos[1:]):
        steps += 1
        while j < m and act_pos[j] < prev:
            j += 1
            steps += 1
        if j >= m or act_pos[j] > cur:
            failures.append((cur, REPEATED_TARGET_WITHOUT_ACTIVATION))
    return steps


def _alt_succession_precedence(events, act, tgt, act_pos, tgt_pos, failures, witnesses) -> int:
    """Each target needs an activation after the previous target."""
    steps = 0
    j = 0
    m = len(act_pos)
    prev_tgt: int | None = None
    for t in tgt_pos:
        steps += 1
        while j < m and (prev_tgt is not None and act_pos[j] <= prev_tgt):
            j += 1
            steps += 1
        if j >= m or act_pos[j] >= t:
            failures.append((t, TARGET_WITHOUT_ALTERNATING_ACTIVATION))
        prev_tgt = t
    return steps


def _chain_precedence(events, act, tgt, act_pos, tgt_pos, failures, witnesses) -> int:
    """Every target sits right after an activation; none may open the trace."""
    for t in tgt_pos:
        if t == 0:
            failures.append((0, TARGET_AT_START))
        elif events[t - 1] is not act:
            failures.append((t, TARGET_NOT_PRECEDED_BY_ACTIVATION))
    return len(tgt_pos)


def _choice(events, act, tgt, act_pos, tgt_pos, failures, witnesses) -> int:
    if not act_pos and not tgt_pos:
        failures.append((None, NO_ALTERNATIVE_OCCURRED))
    return 0


def _exclusive_choice(events, act, tgt, act_pos, tgt_pos, failures, witnesses) -> int:
    if act_pos and tgt_pos:
        failures.append((None, BOTH_ALTERNATIVES_OCCURRED))
    elif not act_pos and not tgt_pos:
        failures.append((None, NO_ALTERNATIVE_OCCURRED))
    return 0


def _responded_existence(events, act, tgt, act_pos, tgt_pos, failures, witnesses) -> int:
    if act_pos and not tgt_pos:
        failures.append((act_pos[0], ACTIVATION_WITHOUT_TARGET))
    return 0


def _coexistence(events, act, tgt, act_pos, tgt_pos, failures, witnesses) -> int:
    if act_pos and not tgt_pos:
        failures.append((act_pos[0], OCCURS_WITHOUT_COUNTERPART))
    elif tgt_pos and not act_pos:
        failures.append((tgt_pos[0], OCCURS_WITHOUT_COUNTERPART))
    return 0


_K = TemplateKind
# Each kind's rules, run in order on the same failure and witness lists.
_RULES = {
    _K.RESPONSE: (_response,),
    _K.ALTERNATE_RESPONSE: (_alternate_response,),
    _K.CHAIN_RESPONSE: (_chain_response,),
    _K.PRECEDENCE: (_precedence,),
    _K.ALTERNATE_PRECEDENCE: (_alternate_precedence,),
    _K.CHAIN_PRECEDENCE: (_chain_precedence,),
    _K.SUCCESSION: (_response, _precedence),
    _K.ALTERNATE_SUCCESSION: (_alternate_response, _alt_succession_precedence),
    _K.CHAIN_SUCCESSION: (_chain_response, _chain_precedence),
    _K.CHOICE: (_choice,),
    _K.EXCLUSIVE_CHOICE: (_exclusive_choice,),
    _K.RESPONDED_EXISTENCE: (_responded_existence,),
    _K.COEXISTENCE: (_coexistence,),
}


def _rules_for(kind: TemplateKind):
    rules = _RULES.get(kind)
    if rules is None:
        raise ValueError(f"unhandled template kind {kind!r}")
    return rules


def direct_checker(constraint: Constraint) -> Callable[..., bool]:
    """Resolve the constraint's rules once; `holds(trace, index=None)` is
    `check_direct(constraint, trace, index=index).sat`.

    The same rule functions run, but no verdict is built, and a kind with
    two rules stops after the first one that records a failure. `index`
    is the trace's `index_positions`, shared by callers that check many
    constraints on one trace; without it, holds builds it.
    """
    kind = constraint.kind
    act = constraint.activation
    tgt = constraint.target
    rules = _rules_for(kind)
    empty = ev_empty(template_formula(kind, act, tgt))

    def holds(trace: Trace, index: PositionIndex | None = None) -> bool:
        events = trace.events
        if not events:
            return empty
        if index is None:
            index = index_positions(events)
        act_pos = index.get(act, ())
        tgt_pos = index.get(tgt, ())
        failures: list[Failure] = []
        witnesses: dict[int, int] = {}
        for rule in rules:
            rule(events, act, tgt, act_pos, tgt_pos, failures, witnesses)
            if failures:
                return False
        return True

    return holds


def check_direct(
    constraint: Constraint,
    trace: Trace,
    *,
    index: PositionIndex | None = None,
) -> DirectVerdict:
    """Evaluate one constraint on one trace by positional rules.

    `index` is the trace's `index_positions`, shared by callers that
    check many constraints on one trace; without it the index is built
    here, in one pass over the events.
    """
    events = trace.events
    kind = constraint.kind
    act = constraint.activation
    tgt = constraint.target

    if not events:
        sat = ev_empty(template_formula(kind, act, tgt))
        failures = () if sat else ((None, EMPTY_TRACE),)
        return DirectVerdict(sat=sat, failures=failures, witnesses={}, steps=0)

    rules = _rules_for(kind)
    if index is None:
        index = index_positions(events)
    act_pos = index.get(act, ())
    tgt_pos = index.get(tgt, ())
    failures: list[Failure] = []
    witnesses: dict[int, int] = {}
    steps = 0
    for rule in rules:
        steps += rule(events, act, tgt, act_pos, tgt_pos, failures, witnesses)

    if len(failures) > 1:
        # Whole-trace (None) failures come alone, so these are (position, tag) pairs.
        failures.sort()
    return DirectVerdict(
        sat=not failures,
        failures=tuple(failures),
        witnesses=witnesses,
        steps=steps,
    )
