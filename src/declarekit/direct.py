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
#
# A verdict column is a big integer with one byte per trace, 1 where the
# constraint holds and 0 where it fails, so `| & ^` combine columns bytewise.

def _occurs(strings, x: str) -> int:
    """The column of whether character x occurs in each string."""
    return int.from_bytes(bytes(map(operator.contains, strings, repeat(x))), "big")


def _memo(primitive):
    """Compute a primitive once per argument tuple within one scan."""
    def column(scan, *args):
        key = (primitive, *args)
        found = scan.memo.get(key)
        if found is None:
            found = scan.memo[key] = primitive(scan, *args)
        return found
    return column


class _Scan:
    """The primitive verdict columns of one coded log, each computed on
    first use and kept for the rest of one `scan_log` call: whether each
    code occurs, and per (activation, target) pair Response, Precedence
    and the two halves of Chain Succession, over the traces and over the
    traces with every other code deleted."""

    def __init__(self, coded: CodedLog) -> None:
        self.coded = coded
        self.traces = coded.strings
        self.ones = int.from_bytes(b"\1" * len(coded.lengths), "big")
        self.memo: dict[tuple, object] = {}

    @_memo
    def has(self, x: str) -> int:
        return _occurs(self.traces, x)

    def lacks(self, x: str) -> int:
        return self.ones ^ self.has(x)

    @_memo
    def response(self, a: str, b: str) -> int:
        """No activation after the last target."""
        after = map(operator.itemgetter(2), map(str.rpartition, self.traces, repeat(b)))
        return self.ones ^ _occurs(after, a)

    @_memo
    def precedence(self, a: str, b: str) -> int:
        """No target before the first activation."""
        before = map(operator.itemgetter(0), map(str.partition, self.traces, repeat(a)))
        return self.ones ^ _occurs(before, b)

    @_memo
    def unchained(self, a: str, b: str, alternate: bool) -> list[str]:
        """Each trace with every activation-target pair deleted; with
        `alternate`, every code other than a and b is deleted first."""
        coded = self.coded
        end = len(coded.codes) + 1
        text = coded.text
        if alternate:
            others = [c for c in range(end) if c != ord(a) and c != ord(b)]
            if isinstance(coded.events, bytes):
                text = coded.events.translate(None, bytes(others)).decode("latin-1")
            else:
                text = text.translate(dict.fromkeys(others))
        # A pair never straddles two traces: the end code is neither a nor b.
        return text.replace(a + b, "").split(chr(end))[:-1]

    @_memo
    def chain_response(self, a: str, b: str, alternate: bool) -> int:
        return self.ones ^ _occurs(self.unchained(a, b, alternate), a)

    @_memo
    def chain_precedence(self, a: str, b: str, alternate: bool) -> int:
        return self.ones ^ _occurs(self.unchained(a, b, alternate), b)


# Each kind's rule for an activation character a and a different target
# character b: (scan, a, b) -> its verdict column. On the empty string
# only Choice and Exclusive Choice fail. The Alternate kinds are the
# Chain rules on the traces with every character other than a and b
# deleted.
_LOG_RULES = {
    _K.CHOICE: lambda s, a, b: s.has(a) | s.has(b),
    _K.EXCLUSIVE_CHOICE: lambda s, a, b: s.has(a) ^ s.has(b),
    _K.RESPONDED_EXISTENCE: lambda s, a, b: s.lacks(a) | s.has(b),
    _K.COEXISTENCE: lambda s, a, b: s.lacks(a) ^ s.has(b),
    _K.RESPONSE: lambda s, a, b: s.response(a, b),
    _K.PRECEDENCE: lambda s, a, b: s.precedence(a, b),
    _K.SUCCESSION: lambda s, a, b: s.response(a, b) & s.precedence(a, b),
    _K.CHAIN_RESPONSE: lambda s, a, b: s.chain_response(a, b, False),
    _K.CHAIN_PRECEDENCE: lambda s, a, b: s.chain_precedence(a, b, False),
    _K.CHAIN_SUCCESSION: lambda s, a, b: (
        s.chain_response(a, b, False) & s.chain_precedence(a, b, False)
    ),
    _K.ALTERNATE_RESPONSE: lambda s, a, b: s.chain_response(a, b, True),
    _K.ALTERNATE_PRECEDENCE: lambda s, a, b: s.chain_precedence(a, b, True),
    _K.ALTERNATE_SUCCESSION: lambda s, a, b: (
        s.chain_response(a, b, True) & s.chain_precedence(a, b, True)
    ),
}

# With activation equal to target, the strict reading depends only on
# whether the activity occurs; kinds not listed hold when it does not.
_SAME_RULES = {
    _K.PRECEDENCE: lambda s, a: s.ones,
    _K.ALTERNATE_PRECEDENCE: lambda s, a: s.ones,
    _K.RESPONDED_EXISTENCE: lambda s, a: s.ones,
    _K.COEXISTENCE: lambda s, a: s.ones,
    _K.EXCLUSIVE_CHOICE: lambda s, a: 0,
    _K.CHOICE: lambda s, a: s.has(a),
}


def scan_log(constraints: Sequence[Constraint], coded: CodedLog) -> list[bytearray]:
    """Every constraint's verdict on every trace of a coded log, under
    the same strict reading as `check_direct`.

    Every activity the constraints name must be among the coded ones.
    `verdicts[j][i]` is 1 when constraints[j] holds on trace i and 0
    otherwise. Each primitive (whether a code occurs, and per
    (activation, target) pair Response, Precedence and the chain halves,
    over the traces and over the Alternate kinds' kept traces) is one
    map of string operations over `coded.strings` or one pass over
    `coded.text`, computed once per call; each kind combines those
    columns as big integers with `| & ^`.
    """
    scan = _Scan(coded)
    n = len(coded.lengths)
    verdicts = []
    for c in constraints:
        a, b = chr(coded.codes[c.activation]), chr(coded.codes[c.target])
        if a == b:
            column = _SAME_RULES.get(c.kind, _Scan.lacks)(scan, a)
        else:
            column = _LOG_RULES[c.kind](scan, a, b)
        verdicts.append(bytearray(column.to_bytes(n, "big")))
    return verdicts
