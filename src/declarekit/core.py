"""Domain model: activities, traces, event logs, and Declare constraints."""

from __future__ import annotations

import itertools
import threading
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

WILDCARD_LABEL = "*"


class Activity:
    """An interned activity label.

    Constructing the same label twice yields the same object, so equality
    and hashing are identity based and cheap; ordering compares labels.
    The wildcard label ``*`` is reserved for automaton transition tables
    and never names an activity.

    The intern pool is process-global and only grows: every label ever
    read stays alive until the process exits. Formula nodes have a pool
    of the same kind (`ltlf.Formula`).
    """

    __slots__ = ("_label",)

    _pool: dict[str, "Activity"] = {}
    _lock = threading.Lock()

    def __new__(cls, label: str) -> "Activity":
        pool = cls._pool
        hit = pool.get(label)
        if hit is not None:
            return hit
        if not isinstance(label, str) or not label:
            raise ValueError("activity label must be a non-empty string")
        if label == WILDCARD_LABEL:
            raise ValueError('the label "*" is reserved and cannot name an activity')
        with cls._lock:
            hit = pool.get(label)
            if hit is None:
                hit = super().__new__(cls)
                hit._label = label
                pool[label] = hit
        return hit

    @property
    def label(self) -> str:
        return self._label

    def __lt__(self, other: "Activity") -> bool:
        return self._label < other._label

    def __le__(self, other: "Activity") -> bool:
        return self._label <= other._label

    def __gt__(self, other: "Activity") -> bool:
        return self._label > other._label

    def __ge__(self, other: "Activity") -> bool:
        return self._label >= other._label

    def __repr__(self) -> str:
        return f"Activity({self._label!r})"

    def __reduce__(self):
        return (Activity, (self._label,))


class Record:
    """Base of the package's immutable records.

    `_fields` names a record's fields in constructor order; each is kept
    in a slot. Records of the same class are equal when their fields are,
    and hash as the tuple of them. A field is set once, by the
    constructor: assigning or deleting one raises AttributeError. Records
    pickle and copy through the constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        """Take each field once, by position or by name."""
        fields = self._fields
        if len(args) + len(kwargs) != len(fields) or not kwargs.keys() <= {*fields[len(args):]}:
            raise TypeError(f"{type(self).__name__}() takes the arguments {', '.join(fields)}")
        for name, value in (*zip(fields, args), *kwargs.items()):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        """The values that equality and hashing compare."""
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Trace(Record):
    """One case: an identifier plus the finite sequence of its events."""

    __slots__ = _fields = ("id", "events")

    def __init__(self, id: int, events: Iterable[Activity]) -> None:
        if id < 0:
            raise ValueError("trace id must be non-negative")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "events", events if isinstance(events, tuple) else tuple(events))

    @classmethod
    def from_labels(cls, id: int, labels: Iterable[str]) -> "Trace":
        return cls(id, tuple(Activity(s) for s in labels))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Activity]:
        return iter(self.events)

    def __getitem__(self, i: int) -> Activity:
        return self.events[i]


class CodedLog(Record):
    """The events of a log, each coded once as a small integer.

    Activity a is code `codes[a]`, 0 up to len(codes) - 1, and every other
    activity is code len(codes). `events` holds, trace after trace, the
    codes of a trace's events followed by len(codes) + 1, which ends the
    trace: as bytes when that end code fits in a byte, else as a list of
    ints. `lengths[i]` is the number of events of trace i. `text` and
    `strings` spell the codes as characters, built on first use and kept.
    """

    # `__dict__` holds the cached properties.
    __slots__ = ("codes", "events", "lengths", "__dict__")
    _fields = ("codes", "events", "lengths")
    codes: dict[Activity, int]
    events: bytes | list[int]
    lengths: list[int]

    @cached_property
    def text(self) -> str:
        """`events` as a string of one character, chr(code), per code."""
        if isinstance(self.events, bytes):
            return self.events.decode("latin-1")  # chr(byte) for every byte
        return "".join(map(chr, self.events))

    @cached_property
    def strings(self) -> list[str]:
        """Each trace as a string of one character, chr(code), per event."""
        return self.text.split(chr(len(self.codes) + 1))[:-1]


def code_buffer(codes: list[int], end: int) -> bytes | list[int]:
    """Codes no greater than `end` as `CodedLog.events` holds them."""
    return bytes(codes) if end < 256 else codes


def remap(events: bytes | list[int], table: Sequence[int]) -> bytes | list[int]:
    """`events` with each code c replaced by table[c]: bytes when every
    entry of the table fits in a byte, as `CodedLog.events` holds codes,
    by one `bytes.translate` when `events` are bytes too."""
    if max(table, default=0) > 255:
        return list(map(table.__getitem__, events))
    if isinstance(events, bytes):
        return events.translate(bytes(table).ljust(256, b"\0"))
    return bytes(map(table.__getitem__, events))


_END = (None,)  # stands for the code that ends a trace


def code_events(log: EventLog | Sequence[Trace], activities: Iterable[Activity]) -> CodedLog:
    """Code the events of a log or of a sequence of traces, with
    `activities` in order as codes 0, 1, ... and every other activity as
    one more code.

    An `EventLog` is recoded from its own coded form: one table maps each
    of its codes to one of these (`remap`).
    """
    codes = {a: i for i, a in enumerate(dict.fromkeys(activities))}
    other = len(codes)
    if isinstance(log, EventLog):
        own = log.coded
        table = [codes.get(a, other) for a in own.codes] + [other, other + 1]
        return CodedLog(codes, remap(own.events, table), own.lengths)
    lookup = {**codes, None: other + 1}
    stream = itertools.chain.from_iterable(part for trace in log for part in (trace.events, _END))
    events = list(map(lookup.get, stream, itertools.repeat(other)))
    return CodedLog(codes, code_buffer(events, other + 1), [len(trace.events) for trace in log])


class EventLog:
    """An ordered collection of traces with unique ids.

    Empty traces are admitted; the log alphabet is the set of activities
    occurring in at least one trace, exposed sorted by label.

    A log is stored as its coded form only: a label table and one buffer
    of event codes, which every reader builds (`from_codes`) and which
    `EventLog(traces)` builds from its traces. Backends and writers read
    codes; `traces` is built from them on first use and kept.
    """

    __slots__ = ("_traces", "_ids", "_coded", "_by_id", "_alphabet")

    def __init__(self, traces: Iterable[Trace]):
        tup = tuple(traces)
        by_id: dict[int, Trace] = {}
        for tr in tup:
            if tr.id in by_id:
                raise ValueError(f"duplicate trace id {tr.id}")
            by_id[tr.id] = tr
        self._traces = tup
        self._by_id = by_id
        self._ids = tuple(by_id)
        self._coded = code_events(tup, itertools.chain.from_iterable(tr.events for tr in tup))
        self._alphabet = None

    @classmethod
    def from_codes(cls, ids: Sequence[int], codes: Sequence[list], labels: Iterable) -> EventLog:
        """The log whose trace ids[i], in id order, holds the events coded
        codes[i], a list of ints, code c being the activity of the c-th of
        the `labels`. The ids are distinct and non-negative, and each label
        occurs in some trace.
        """
        order = sorted(range(len(ids)), key=ids.__getitem__)
        table = {Activity(label): c for c, label in enumerate(labels)}
        stop = len(table) + 1  # the code that ends a trace
        buffer: list[int] = []
        for i in order:
            buffer += codes[i]
            buffer.append(stop)
        log = cls.__new__(cls)
        log._ids = tuple(map(ids.__getitem__, order))
        log._coded = CodedLog(table, code_buffer(buffer, stop), [len(codes[i]) for i in order])
        log._traces = log._by_id = log._alphabet = None
        return log

    @property
    def traces(self) -> tuple[Trace, ...]:
        if self._traces is None:
            labels = tuple(self._coded.codes)
            events = [tuple(map(labels.__getitem__, map(ord, s))) for s in self._coded.strings]
            self._traces = tuple(map(Trace, self._ids, events))
        return self._traces

    @property
    def trace_ids(self) -> tuple[int, ...]:
        return self._ids

    @property
    def coded(self) -> CodedLog:
        """The log's own coded form, whose codes are exactly its activities,
        numbered in the order they were first met."""
        return self._coded

    @property
    def alphabet(self) -> tuple[Activity, ...]:
        if self._alphabet is None:
            self._alphabet = tuple(sorted(self._coded.codes))
        return self._alphabet

    def get(self, trace_id: int) -> Trace:
        if self._by_id is None:
            self._by_id = dict(zip(self._ids, self.traces))
        return self._by_id[trace_id]

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EventLog) and self.traces == other.traces

    def __hash__(self) -> int:
        return hash(self.traces)

    def __repr__(self) -> str:
        return f"EventLog({len(self)} traces, {len(self.alphabet)} activities)"

    def __reduce__(self):
        return EventLog, (self.traces,)


class TemplateKind(Enum):
    """The thirteen binary Declare templates.

    The enum value is the display name used in model documents; ``camel``
    is the compact spelling accepted alongside it on the command line.
    """

    CHOICE = "Choice"
    EXCLUSIVE_CHOICE = "Exclusive Choice"
    RESPONDED_EXISTENCE = "Responded Existence"
    COEXISTENCE = "Co-Existence"
    RESPONSE = "Response"
    PRECEDENCE = "Precedence"
    ALTERNATE_RESPONSE = "Alternate Response"
    ALTERNATE_PRECEDENCE = "Alternate Precedence"
    CHAIN_RESPONSE = "Chain Response"
    CHAIN_PRECEDENCE = "Chain Precedence"
    SUCCESSION = "Succession"
    ALTERNATE_SUCCESSION = "Alternate Succession"
    CHAIN_SUCCESSION = "Chain Succession"

    @property
    def label(self) -> str:
        return self.value

    @property
    def camel(self) -> str:
        return self.name.title().replace("_", "")

    @classmethod
    def from_name(cls, name: str) -> "TemplateKind":
        """Resolve a display name or camel-case name to a kind."""
        kind = _BY_NAME.get(name)
        if kind is None:
            valid = ", ".join(k.camel for k in cls)
            raise ValueError(f"unknown template name {name!r}; valid names: {valid}")
        return kind


_BY_NAME: dict[str, TemplateKind] = {}
for _k in TemplateKind:
    _BY_NAME[_k.value] = _k
    _BY_NAME[_k.camel] = _k


class Constraint(Record):
    """A template instantiated with a concrete activation and target."""

    __slots__ = _fields = ("id", "kind", "activation", "target")

    def __init__(self, id: int, kind: TemplateKind, activation: Activity, target: Activity):
        if id < 0:
            raise ValueError("constraint id must be non-negative")
        super().__init__(id, kind, activation, target)


class DeclareModel:
    """A set of constraints with unique ids, kept in declaration order."""

    __slots__ = ("_constraints", "_by_id")

    def __init__(self, constraints: Iterable[Constraint]):
        tup = tuple(constraints)
        by_id: dict[int, Constraint] = {}
        for c in tup:
            if c.id in by_id:
                raise ValueError(f"duplicate constraint id {c.id}")
            by_id[c.id] = c
        self._constraints = tup
        self._by_id = by_id

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return self._constraints

    def get(self, constraint_id: int) -> Constraint:
        return self._by_id[constraint_id]

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DeclareModel) and self._constraints == other._constraints

    def __repr__(self) -> str:
        return f"DeclareModel({len(self._constraints)} constraints)"


def json_string(text: str) -> str:
    """`text` as a JSON string, escaped as json.dumps escapes it by
    default (ensure_ascii). Printable ASCII needs only its quotes and
    backslashes escaped, so `json` loads only for any other text."""
    if text.isascii() and text.isprintable():
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


def json_block(brackets: str, items: list[str], indent: str) -> str:
    """Rendered, indented items between `brackets`, laid out as
    json.dumps(..., indent=2) lays out a container at depth `indent`."""
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + indent + brackets[1]
