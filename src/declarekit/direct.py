"""Direct constraint checking: each template's semantics as its own rule,
with no formula and no automaton, under a strict reading in which
Response(a, a) asks for a later a.

`scan_log` checks whole logs: each rule is a few string operations
mapped over every trace, one character per event code. `check_direct`
explains one constraint on one trace by ordered walks over activation
and target positions: failure positions with reason tags plus, for
response-like kinds, a witness map from each activation to the position
discharging it. Positions out of range are None, not sentinel integers.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Mapping, Sequence

from .core import Activity, CodedLog, Constraint, Record, TemplateKind, Trace

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


class DirectVerdict(Record):
    """Outcome of one constraint on one trace.

    `failures` is empty exactly when `sat` holds; positions are None for
    whole-trace conditions. `witnesses` maps each discharged activation
    position to its witness position. `steps` counts rule iterations
    over the activation and target positions, linear in their number;
    indexing the positions is not counted. Equality ignores `steps`.
    """

    __slots__ = _fields = ("sat", "failures", "witnesses", "steps")

    def __init__(
        self, sat: bool, failures: tuple[Failure, ...], witnesses: Mapping[int, int],
        steps: int = 0,
    ) -> None:
        super().__init__(sat, failures, witnesses, steps)

    def _key(self) -> tuple:
        return (self.sat, self.failures, self.witnesses)


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


# Ascending positions of each activity of a trace; absent activities have no entry.
PositionIndex = dict[Activity, list[int]]


def index_positions(events: tuple[Activity, ...]) -> PositionIndex:
    """The ascending positions of each activity of a trace, in one pass."""
    index: PositionIndex = {}
    for t, ev in enumerate(events):
        pos = index.get(ev)
        if pos is None:
            index[ev] = [t]
        else:
            pos.append(t)
    return index


def check_direct(constraint: Constraint, trace: Trace) -> DirectVerdict:
    """Evaluate one constraint on one trace by positional rules, over an
    index of the trace's positions built in one pass."""
    events = trace.events
    kind = constraint.kind
    act = constraint.activation
    tgt = constraint.target

    if not events:
        # Only Choice and Exclusive Choice ask for an occurrence.
        sat = kind not in (_K.CHOICE, _K.EXCLUSIVE_CHOICE)
        failures = () if sat else ((None, EMPTY_TRACE),)
        return DirectVerdict(sat=sat, failures=failures, witnesses={}, steps=0)

    rules = _RULES.get(kind)
    if rules is None:
        raise ValueError(f"unhandled template kind {kind!r}")
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


# --------------------------------------------------------------------------
# Whole logs

def _has(traces, x):
    """Per trace, whether character x occurs in it."""
    return map(operator.contains, traces, repeat(x))


def _lacks(traces, x):
    return map(operator.not_, _has(traces, x))


def _log_response(traces, a, b):
    """No activation after the last target."""
    return _lacks(map(operator.itemgetter(2), map(str.rpartition, traces, repeat(b))), a)


def _log_precedence(traces, a, b):
    """No target before the first activation."""
    return _lacks(map(operator.itemgetter(0), map(str.partition, traces, repeat(a))), b)


def _unchained(traces, a, b):
    """Each trace with every activation-target pair deleted."""
    return map(str.replace, traces, repeat(a + b), repeat(""))


def _log_chain_response(traces, a, b):
    return _lacks(_unchained(traces, a, b), a)


def _log_chain_precedence(traces, a, b):
    return _lacks(_unchained(traces, a, b), b)


def _log_chain_succession(traces, a, b):
    rest = list(_unchained(traces, a, b))
    return map(operator.and_, _lacks(rest, a), _lacks(rest, b))


# Each kind's rule for an activation character a and a different target
# character b: (traces, a, b) -> per trace, whether the constraint holds.
# On the empty string only Choice and Exclusive Choice fail.
_LOG_RULES = {
    _K.CHOICE: lambda t, a, b: map(operator.or_, _has(t, a), _has(t, b)),
    _K.EXCLUSIVE_CHOICE: lambda t, a, b: map(operator.ne, _has(t, a), _has(t, b)),
    _K.RESPONDED_EXISTENCE: lambda t, a, b: map(operator.le, _has(t, a), _has(t, b)),
    _K.COEXISTENCE: lambda t, a, b: map(operator.eq, _has(t, a), _has(t, b)),
    _K.RESPONSE: _log_response,
    _K.PRECEDENCE: _log_precedence,
    _K.SUCCESSION: lambda t, a, b: map(
        operator.and_, _log_response(t, a, b), _log_precedence(t, a, b)
    ),
    _K.CHAIN_RESPONSE: _log_chain_response,
    _K.CHAIN_PRECEDENCE: _log_chain_precedence,
    _K.CHAIN_SUCCESSION: _log_chain_succession,
    # The Alternate kinds are the Chain rules on the traces with every
    # character other than a and b deleted.
    _K.ALTERNATE_RESPONSE: _log_chain_response,
    _K.ALTERNATE_PRECEDENCE: _log_chain_precedence,
    _K.ALTERNATE_SUCCESSION: _log_chain_succession,
}
_ALTERNATE = frozenset((_K.ALTERNATE_RESPONSE, _K.ALTERNATE_PRECEDENCE, _K.ALTERNATE_SUCCESSION))

# With activation equal to target, the strict reading depends only on
# whether the activity occurs; kinds not listed hold when it does not.
_SAME_RULES = {
    _K.PRECEDENCE: lambda t, a: repeat(1, len(t)),
    _K.ALTERNATE_PRECEDENCE: lambda t, a: repeat(1, len(t)),
    _K.RESPONDED_EXISTENCE: lambda t, a: repeat(1, len(t)),
    _K.COEXISTENCE: lambda t, a: repeat(1, len(t)),
    _K.EXCLUSIVE_CHOICE: lambda t, a: repeat(0, len(t)),
    _K.CHOICE: _has,
}


def scan_log(constraints: Sequence[Constraint], coded: CodedLog) -> list[bytearray]:
    """Every constraint's verdict on every trace of a coded log, under
    the same strict reading as `check_direct`.

    Every activity the constraints name must be among the coded ones.
    `verdicts[j][i]` is 1 when constraints[j] holds on trace i and 0
    otherwise. Each rule runs over `coded.strings` as a few maps of
    string operations, and the Alternate kinds delete the other codes
    once per (activation, target) pair.
    """
    traces = coded.strings
    kept: dict[tuple[str, str], list[str]] = {}
    verdicts = []
    for c in constraints:
        a, b = chr(coded.codes[c.activation]), chr(coded.codes[c.target])
        if a == b:
            holds = _SAME_RULES.get(c.kind, _lacks)(traces, a)
        elif c.kind in _ALTERNATE:
            pair = kept.get((a, b))
            if pair is None:
                others = dict.fromkeys(range(len(coded.codes) + 1))
                del others[ord(a)], others[ord(b)]
                end = chr(len(coded.codes) + 1)
                pair = kept[a, b] = coded.text.translate(others).split(end)[:-1]
            holds = _LOG_RULES[c.kind](pair, a, b)
        else:
            holds = _LOG_RULES[c.kind](traces, a, b)
        verdicts.append(bytearray(holds))
    return verdicts
