"""Reading and writing logs, models, queries, and reports.

Fact documents (logs, models, queries) share one grammar: a sequence of
facts `name(arg, ...).` where arguments are integers, identifiers,
quoted labels, or one-level calls like var(y). Identifiers starting with
a lowercase letter are written bare; anything else is quoted. The
wildcard label "*" is rejected everywhere. XES support covers the
concept:name subset, gzipped or plain; CSV carries case_id, activity,
and an optional position column, and any columns after them are ignored.
Every log reader codes each label the first time it meets it and builds
the log from its codes (`EventLog.from_codes`); every writer reads them.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import os
import re
from itertools import count, groupby, islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .core import (
    Activity, Constraint, DeclareModel, EventLog, Record, TemplateKind, json_block, json_string,
)

if TYPE_CHECKING:  # only queries need tasks, at run time
    from .tasks import CheckReport, Query, Variable


class IngestError(ValueError):
    """Malformed input document; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# --------------------------------------------------------------------------
# Fact documents

class _Fact(Record):
    __slots__ = _fields = ("name", "args", "line")
    name: str
    args: tuple
    line: int


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_QUOTED = r'"(?:[^"\\]|\\.)*"'
_WS = r"(?:\s+|%[^\r\n]*)"
_NAME_RE = re.compile(_NAME)
_INT_RE = re.compile(r"-?\d+")
_QUOTED_RE = re.compile(_QUOTED)
_WS_RE = re.compile(_WS + "+")
# One trace/3 fact as write_factlog spells it, with the whitespace and
# comments after it. The whitespace comes last so that a failed match never
# backtracks through it.
_TRACE_FACT_RE = re.compile(rf"trace\((\d+),(\d+),({_NAME}|{_QUOTED})\)\.{_WS}*")


def _too_long(digits: str) -> str:
    return f"integer of {len(digits)} digits is too long"


def _unescape(tok: str) -> str:
    return tok[1:-1].replace('\\"', '"').replace("\\\\", "\\")


# A byte-order mark, as spreadsheet exports write one; readers skip it
# where a document starts.
_BOM = "\ufeff"


class _FactScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 1 if text.startswith(_BOM) else 0
        self._mark = self._newlines = 0  # newlines before offset _mark
        # Lines end in "\n" or "\r\n", or in "\r" in a file that has no "\n".
        self._eol = "\r" if "\r" in text and "\n" not in text else "\n"

    def line(self, pos: int | None = None) -> int:
        """Line of `pos` (default: the cursor). Offsets come in ascending
        order, so counting on from the previous one keeps parsing linear."""
        pos = self.pos if pos is None else pos
        if pos < self._mark:
            self._mark = self._newlines = 0
        self._newlines += self.text.count(self._eol, self._mark, pos)
        self._mark = pos
        return self._newlines + 1

    def skip_ws(self) -> None:
        m = _WS_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()

    def error(self, message: str) -> IngestError:
        return IngestError(message, self.line())

    def expect(self, ch: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise self.error(f"expected {ch!r}, found {found!r}")
        self.pos += 1

    def term(self):
        m = _QUOTED_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return ("quoted", _unescape(m.group()))
        m = _INT_RE.match(self.text, self.pos)
        if m:
            try:
                value = int(m.group())
            except ValueError:  # longer than the interpreter converts
                raise self.error(_too_long(m.group())) from None
            self.pos = m.end()
            return value
        m = _NAME_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            self.pos = m.end()
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "(":
                self.pos += 1
                self.skip_ws()
                inner = self.term()
                self.skip_ws()
                self.expect(")")
                return ("call", name, inner)
            return ("ident", name)
        raise self.error("expected an argument")

    def fact(self) -> _Fact:
        """Read the fact that starts at the cursor."""
        start = self.pos
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise self.error(f"expected a fact name, found {self.text[self.pos]!r}")
        name = m.group()
        self.pos = m.end()
        self.skip_ws()
        self.expect("(")
        args = []
        while True:
            self.skip_ws()
            args.append(self.term())
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == ",":
                self.pos += 1
                continue
            break
        self.expect(")")
        self.skip_ws()
        self.expect(".")
        return _Fact(name, tuple(args), self.line(start))

    def facts(self) -> list[_Fact]:
        out = []
        while True:
            self.skip_ws()
            if self.pos >= len(self.text):
                return out
            out.append(self.fact())


def _as_label(arg, line: int) -> str:
    if isinstance(arg, tuple) and arg[0] in ("ident", "quoted"):
        return arg[1]
    raise IngestError("expected an activity name", line)


def _as_activity(arg, line: int) -> Activity:
    label = _as_label(arg, line)
    try:
        return Activity(label)
    except ValueError as exc:
        raise IngestError(str(exc), line) from None


def _as_int(arg, line: int) -> int:
    if not isinstance(arg, int):
        raise IngestError("expected an integer", line)
    return arg


# --------------------------------------------------------------------------
# Event logs as trace/3 facts

def _code(codes: dict[str, int], label: str) -> int:
    """The code of `label` in `codes`, which numbers labels 0, 1, ... in
    the order a reader meets them; ValueError when Activity refuses one."""
    code = codes.get(label)
    if code is None:
        Activity(label)
        code = codes[label] = len(codes)
    return code


def _trace_fact(fact: _Fact, codes: dict[str, int]) -> tuple[int, int, int]:
    """Id, position and label code (`_code`) of a trace/3 fact the scanner read."""
    if fact.name != "trace" or len(fact.args) != 3:
        raise IngestError(f"expected trace/3 facts, found {fact.name}/{len(fact.args)}", fact.line)
    tid = _as_int(fact.args[0], fact.line)
    pos = _as_int(fact.args[1], fact.line)
    label = _as_label(fact.args[2], fact.line)
    try:
        code = _code(codes, label)
    except ValueError as exc:
        raise IngestError(str(exc), fact.line) from None
    if tid < 0 or pos < 0:
        raise IngestError("trace id and position must be non-negative", fact.line)
    return tid, pos, code


def _first_error(scanner: _FactScanner, exc: IngestError, rest: int) -> IngestError:
    """`exc`, unless a fact from offset `rest` on is malformed: a document's
    grammar errors come before the faults of its well-formed facts."""
    scanner.pos = rest
    scanner.facts()
    return exc


def parse_factlog(text: str) -> EventLog:
    """Parse trace(Id, Position, Activity) facts into an event log.

    Positions of each trace must be exactly 0..len-1 with no repeats;
    traces come out ordered by id. A fact spelled as write_factlog spells
    it is read with one regex match; any other fact is read by the
    scanner, which accepts the whole grammar and words every error.
    """
    scanner = _FactScanner(text)
    match = _TRACE_FACT_RE.match
    by_trace: dict[int, dict[int, int]] = {}  # trace id -> position -> code
    last: dict[int, int] = {}  # trace id -> offset of its last fact
    codes: dict[str, int] = {}  # label -> its code
    spelled: dict[str, int] = {}  # label as spelled -> its code
    scanner.skip_ws()
    at, end = scanner.pos, len(text)
    while at < end:
        m = match(text, at)
        if m is not None:
            nxt = m.end()
            tid_s, pos_s, label = m.groups()
            try:
                tid, pos = int(tid_s), int(pos_s)
            except ValueError:  # longer than the interpreter converts
                err = IngestError(_too_long(max(tid_s, pos_s, key=len)), scanner.line(at))
                raise _first_error(scanner, err, nxt) from None
            code = spelled.get(label)
            if code is None:
                try:
                    name = _unescape(label) if label[0] == '"' else label
                    code = spelled[label] = _code(codes, name)
                except ValueError as exc:
                    err = IngestError(str(exc), scanner.line(at))
                    raise _first_error(scanner, err, nxt) from None
        else:
            scanner.pos = at
            fact = scanner.fact()
            scanner.skip_ws()
            nxt = scanner.pos
            try:
                tid, pos, code = _trace_fact(fact, codes)
            except IngestError as exc:
                raise _first_error(scanner, exc, nxt) from None
        slots = by_trace.get(tid)
        if slots is None:
            slots = by_trace[tid] = {}
        if pos in slots:
            err = IngestError(f"trace {tid} repeats position {pos}", scanner.line(at))
            raise _first_error(scanner, err, nxt)
        slots[pos] = code
        last[tid] = at
        at = nxt
    ids = sorted(by_trace)
    runs = []
    for tid in ids:
        slots = by_trace[tid]
        events = list(map(slots.get, range(len(slots))))
        if None in events:
            raise IngestError(
                f"trace {tid} is missing position {events.index(None)}", scanner.line(last[tid])
            )
        runs.append(events)
    return EventLog.from_codes(ids, runs, codes)


_BARE_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


def _fact_name(label: str) -> str:
    if _BARE_RE.match(label):
        return label
    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def write_factlog(log: EventLog) -> str:
    """One trace/3 fact per line, trace ids then positions ascending.

    A trace with no events has no fact to carry it, so such logs are
    refused rather than silently thinned. Each label is spelled once.
    """
    coded = log.coded
    names = [_fact_name(act.label) for act in coded.codes]
    out = []
    for tid, events in sorted(zip(log.trace_ids, coded.strings)):  # ids are unique
        if not events:
            raise IngestError(f"trace {tid} has no events; fact form cannot hold it")
        out += [f"trace({tid},{pos},{names[ord(c)]}).\n" for pos, c in enumerate(events)]
    return "".join(out)


# --------------------------------------------------------------------------
# Declare models as constraint/2 + bind/3 facts

class _ConstraintFacts:
    """constraint/2 and slot-filling facts, shared by models and queries.

    A constraint id is declared once, each of its slots is filled once,
    and a fill for an id that is never declared is an error.
    """

    def __init__(self) -> None:
        self.kinds: dict[int, TemplateKind] = {}  # declaration order
        self.lines: dict[int, int] = {}
        self.slots: dict[int, dict[str, object]] = {}
        self.fill_lines: dict[int, int] = {}  # first fill of each id

    def read(self, fact: _Fact) -> bool:
        """Take a constraint/2 or bind/3 fact; False for any other fact."""
        if fact.name == "constraint" and len(fact.args) == 2:
            cid = _as_int(fact.args[0], fact.line)
            arg = fact.args[1]
            if not (isinstance(arg, tuple) and arg[0] == "quoted"):
                raise IngestError("template name must be quoted", fact.line)
            try:
                kind = TemplateKind.from_name(arg[1])
            except ValueError as exc:
                raise IngestError(str(exc), fact.line) from None
            if cid in self.kinds:
                raise IngestError(f"constraint {cid} declared twice", fact.line)
            self.kinds[cid] = kind
            self.lines[cid] = fact.line
            return True
        if fact.name == "bind" and len(fact.args) == 3:
            self.fill(fact, _as_activity(fact.args[2], fact.line))
            return True
        return False

    def fill(self, fact: _Fact, value) -> None:
        """Fill slot args[1] of constraint args[0] with `value`."""
        cid = _as_int(fact.args[0], fact.line)
        slot = fact.args[1]
        if not (isinstance(slot, tuple) and slot[0] == "ident" and slot[1] in ("arg_0", "arg_1")):
            raise IngestError("bind slot must be arg_0 or arg_1", fact.line)
        per = self.slots.setdefault(cid, {})
        if slot[1] in per:
            raise IngestError(f"constraint {cid} binds {slot[1]} twice", fact.line)
        per[slot[1]] = value
        self.fill_lines.setdefault(cid, fact.line)

    def complete(self) -> list[tuple[int, TemplateKind, object, object]]:
        """(id, kind, arg_0, arg_1) per constraint, in declaration order."""
        out = []
        for cid, kind in self.kinds.items():
            per = self.slots.get(cid, {})
            for slot in ("arg_0", "arg_1"):
                if slot not in per:
                    raise IngestError(f"constraint {cid} is missing a bind for {slot}", self.lines[cid])
            out.append((cid, kind, per["arg_0"], per["arg_1"]))
        for cid, line in self.fill_lines.items():
            if cid not in self.kinds:
                raise IngestError(f"bind facts for undeclared constraint {cid}", line)
        return out


def parse_model(text: str) -> DeclareModel:
    """Parse constraint(Id,"Kind") and bind(Id,arg_0/arg_1,Activity) facts."""
    facts = _ConstraintFacts()
    for fact in _FactScanner(text).facts():
        if not facts.read(fact):
            raise IngestError(
                f"expected constraint/2 or bind/3 facts, found {fact.name}/{len(fact.args)}",
                fact.line,
            )
    return DeclareModel([Constraint(*row) for row in facts.complete()])


def write_model(model: DeclareModel) -> str:
    out = []
    for c in model.constraints:
        out.append(f'constraint({c.id},"{c.kind.label}").')
        out.append(f"bind({c.id},arg_0,{_fact_name(c.activation.label)}).")
        out.append(f"bind({c.id},arg_1,{_fact_name(c.target.label)}).")
    return "\n".join(out) + ("\n" if out else "")


# --------------------------------------------------------------------------
# Queries: bind/3 for fixed slots, var_bind/3 for variables, domain/2 limits

def _as_variable(arg, line: int) -> Variable:
    from .tasks import Variable

    if isinstance(arg, tuple) and arg[0] == "call" and arg[1] == "var":
        inner = arg[2]
        if isinstance(inner, tuple) and inner[0] in ("ident", "quoted"):
            return Variable(inner[1])
    raise IngestError("expected var(Name)", line)


def parse_query(text: str) -> Query:
    """Parse a query document.

    Example:
        constraint(0,"Response"). bind(0,arg_0,a). var_bind(0,arg_1,var(y)).
        domain(var(y),b). domain(var(y),d).
    """
    from .tasks import Query, QueryTerm

    facts = _ConstraintFacts()
    domains: dict[Variable, list[Activity]] = {}
    first_line: dict[Variable, int] = {}  # of each variable's first domain/2 fact
    for fact in _FactScanner(text).facts():
        if facts.read(fact):
            continue
        if fact.name == "var_bind" and len(fact.args) == 3:
            facts.fill(fact, _as_variable(fact.args[2], fact.line))
        elif fact.name == "domain" and len(fact.args) == 2:
            var = _as_variable(fact.args[0], fact.line)
            domains.setdefault(var, []).append(_as_activity(fact.args[1], fact.line))
            first_line.setdefault(var, fact.line)
        else:
            raise IngestError(
                "expected constraint/2, bind/3, var_bind/3 or domain/2 facts",
                fact.line,
            )
    terms = tuple(QueryTerm(kind, arg_0, arg_1) for _, kind, arg_0, arg_1 in facts.complete())
    if not terms:
        raise IngestError("query declares no constraints")
    query = Query(terms=terms, domains={v: tuple(acts) for v, acts in domains.items()})
    used = query.variables()
    for var, line in first_line.items():
        if var not in used:
            raise IngestError(f"domain/2 restricts var({var.name}), which no term uses", line)
    return query


# --------------------------------------------------------------------------
# XES (concept:name subset)

def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_xes(source) -> EventLog:
    """Parse a XES document from a path, file object, or XML text.

    An os.PathLike is read as a file, decompressed when its name ends in
    .gz; an object with .read() is read; anything else, a str naming a
    file included, is the document itself. Only event concept:name
    attributes are read; trace ids follow document order. A document laid
    out as write_xes lays it out, with no escape in its labels, is read a
    trace at a time by regex; the XML parser reads every other one, and
    every one that pass cannot vouch for, so every error is the XML
    parser's.
    """
    if isinstance(source, os.PathLike):
        return _parse_file(source, parse_xes, _read_bytes)
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, str):
        data = data.encode("utf-8")
    log = _parse_xes_written(data)
    return _parse_xes_tree(data) if log is None else log


# write_xes's layout: its head and tail, and one trace with its events.
# The trace's own name is not read, so only digits are vouched for there.
# The patterns are compiled on first use, from re's cache after that: every
# command imports this module, and most read no XES.
_XES_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">\n'
)
_XES_TAIL = "</log>\n"
_XES_TRACE = (
    '  <trace>\n    <string key="concept:name" value="[0-9]+"/>\n'
    '((?:    <event>\n      <string key="concept:name" value="[^"<>]*"/>\n    </event>\n)*)'
    "  </trace>\n"
)
_XES_LABEL = 'value="([^"<>]*)"'
# What a label hands to the XML parser: an escape, which that parser
# decodes, and the characters XML 1.0 cannot carry or an attribute value
# does not keep (raw whitespace reads as a space).
_XES_UNREAD = r"[&\x00-\x1f\ufffe\uffff]"


def _parse_xes_written(data: bytes) -> EventLog | None:
    """The log of a document in write_xes's exact layout, read with one
    regex match per trace and one findall for its labels; None for any
    other document, for bytes that are not UTF-8, and for a value that
    holds an escape or a character in _XES_UNREAD, or that Activity
    refuses."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not (text.startswith(_XES_HEAD) and text.endswith(_XES_TAIL)):
        return None
    match, labels = re.compile(_XES_TRACE).match, re.compile(_XES_LABEL).findall
    codes: dict[str, int] = {}  # label, written as it is -> its code
    runs = []
    at, end = len(_XES_HEAD), len(text) - len(_XES_TAIL)
    while at < end:
        m = match(text, at, end)
        if m is None:
            return None
        at = m.end()
        values = labels(m.group(1))
        try:
            runs.append(list(map(codes.__getitem__, values)))
        except KeyError:
            if re.search(_XES_UNREAD, "".join(values)):
                return None
            try:
                runs.append([_code(codes, value) for value in values])
            except ValueError:
                return None
    return EventLog.from_codes(range(len(runs)), runs, codes)


def _parse_xes_tree(data: bytes) -> EventLog:
    """The log of any XES document, read through ElementTree, its labels
    coded as they are met."""
    from xml.etree import ElementTree  # imported here: only XES documents need it

    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        raise IngestError(f"malformed XES document: {exc}") from None
    if _local(root.tag) != "log":
        raise IngestError(f"expected a <log> root element, found <{_local(root.tag)}>")

    codes: dict[str, int] = {}  # label -> its code
    runs = []
    for child in root:
        if _local(child.tag) != "trace":
            continue
        tid = len(runs)
        events = []
        for idx, node in enumerate(el for el in child if _local(el.tag) == "event"):
            label = None
            for attr in node:
                if _local(attr.tag) == "string" and attr.get("key") == "concept:name":
                    label = attr.get("value")
                    break
            if label is None:
                raise IngestError(f"trace {tid} event {idx} has no concept:name")
            try:
                events.append(_code(codes, label))
            except ValueError as exc:
                raise IngestError(f"trace {tid} event {idx}: {exc}") from None
        runs.append(events)
    return EventLog.from_codes(range(len(runs)), runs, codes)


def _xes_event(label: str) -> str:
    """The <event> element of an event of `label`, as write_xes lays it out."""
    # Raw whitespace in an attribute value would be read back as a space.
    value = (
        label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;").replace("\n", "&#10;").replace("\t", "&#9;").replace("\r", "&#13;")
    )
    return f'    <event>\n      <string key="concept:name" value="{value}"/>\n    </event>\n'


def write_xes(log: EventLog) -> str:
    """Traces in log order, each named by its id; a trace's events are
    written by one str.translate of its codes into their <event> elements."""
    coded = log.coded
    events = [_xes_event(act.label) for act in coded.codes]
    out = [_XES_HEAD]
    for tid, codes in zip(log.trace_ids, coded.strings):
        head = f'  <trace>\n    <string key="concept:name" value="{tid}"/>\n'
        out += (head, codes.translate(events), "  </trace>\n")
    out.append(_XES_TAIL)
    return "".join(out)


# --------------------------------------------------------------------------
# CSV

def parse_csv(source) -> EventLog:
    """Parse case_id/activity[/position] rows from a path, file object, or text.

    An os.PathLike is read as a file; an object with .read() is read;
    anything else, a str naming a file included, is the document itself.
    Every row has one field per header column. Rows are grouped by case
    id; numeric ids are kept, otherwise ids become 0.. in first-appearance
    order. A case id of digits too long for int() is an IngestError naming
    its first row. With a position column, rows may arrive shuffled and
    are ordered by their positions, which must not repeat within a case.
    """
    if isinstance(source, os.PathLike):
        return _parse_file(source, _parse_csv_text)
    if hasattr(source, "read"):
        source = source.read()
    return _parse_csv_text(source)


def _parse_csv_text(text: str) -> EventLog:
    """A document with no quote, CR or NUL is read a chunk at a time; the
    row reader reads every other one, and every one that the chunk reader
    cannot vouch for, so its errors and their lines are the row reader's."""
    if '"' not in text and "\r" not in text and "\0" not in text:
        log = _parse_csv_chunks(text)
        if log is not None:
            return log
    return _parse_csv_rows(text)


# Characters of text per chunk of _parse_csv_chunks, which also takes the
# rest of the line that the chunk ends in.
_CSV_CHUNK = 1 << 14
# Positions below this bound, spelled as write_csv spells them, are checked
# by comparing lists of spellings; int() reads the rest.
_SPELLED = [str(p) for p in range(1024)]


def _last_position(spelled: list[str], before: int | None) -> int | None:
    """The last of a run's positions, or None unless they are integers
    that grow, from above `before` when one is given. Positions that go on
    from `before` as write_csv spells them are checked by one comparison
    of lists; int() reads any others."""
    first = 0 if before is None else before + 1
    if first >= 0 and spelled == _SPELLED[first : first + len(spelled)]:
        return first + len(spelled) - 1
    try:
        pos = list(map(int, spelled))
    except ValueError:
        return None
    if before is not None and pos[0] <= before:
        return None
    return None if any(map(operator.ge, pos, islice(pos, 1, None))) else pos[-1]


def _parse_csv_chunks(text: str) -> EventLog | None:
    """The log of a CSV document with no quote, CR or NUL, read as columns,
    or None when a row may be faulty or only the row reader can read it:
    - a line without one field per header column, or with an empty case id
    - a label that Activity refuses
    - a position that is no integer, or that does not grow within its case
    - case ids that are not all distinct non-negative integers
    - a line longer than csv.field_size_limit()

    Each chunk of lines is split once, with a field that holds just the
    line end after each line, so the fields of column j are every step-th
    field from the j-th. Labels are coded in order of first occurrence,
    and each run of rows of one case appends its codes to that case's at
    once (`EventLog.from_codes`).
    """
    limit = csv.field_size_limit()
    nl = text.find("\n")
    head = text if nl < 0 else text[:nl]
    header = head.removeprefix(_BOM).split(",")
    if header[:2] != ["case_id", "activity"] or len(head) > limit:
        return None
    k = len(header)
    step = k + 1  # the fields of a line, and the "\n" field after them
    with_pos = k >= 3 and header[2] == "position"
    codes: dict[str, int] = {}  # label -> its code
    cases: dict[str, list[int]] = {}  # case id -> the codes of its events
    last: dict[str, int] = {}  # case id -> its last position so far
    at, end = len(head) + 1, len(text)
    while at < end:
        cut = text.find("\n", at + _CSV_CHUNK)
        cut = end if cut < 0 else cut + 1
        chunk = text[at:cut]
        at = cut
        if chunk[0] == "\n" or chunk[-1] != "\n" or "\n\n" in chunk:
            # Blank lines hold no row; every line of the chunk ends in "\n".
            chunk = "".join(line + "\n" for line in chunk.split("\n") if line)
            if not chunk:
                continue
        if len(chunk) > limit and max(map(len, chunk.split("\n"))) > limit:
            return None
        fields = chunk.replace("\n", ",\n,").split(",")
        lines = chunk.count("\n")
        # Each line holds k fields exactly when every step-th field is a "\n".
        if len(fields) != lines * step + 1 or fields[k::step].count("\n") != lines:
            return None
        ids = fields[0:-1:step]
        labels = fields[1::step]
        try:
            events = list(map(codes.__getitem__, labels))
        except KeyError:  # labels not seen before, coded in order of first occurrence
            try:
                for label in dict.fromkeys(labels):
                    _code(codes, label)
            except ValueError:
                return None
            events = list(map(codes.__getitem__, labels))
        column = fields[2::step]
        s = 0
        for case, rows in groupby(ids):
            e = s + len(list(rows))
            if not case:
                return None
            if with_pos:
                top = _last_position(column[s:e], last.get(case))
                if top is None:
                    return None
                last[case] = top
            got = cases.get(case)
            if got is None:
                cases[case] = events[s:e]
            else:
                got += events[s:e]
            s = e
    try:
        tids = list(map(int, cases))
    except ValueError:
        return None
    if len(set(tids)) != len(tids) or min(tids, default=0) < 0:
        return None
    return EventLog.from_codes(tids, list(cases.values()), codes)


def _parse_csv_rows(text: str) -> EventLog:
    """The log of any CSV document, read row by row by csv.reader, its
    labels coded as they are met. Of several faults, the one on the
    earliest line is reported."""
    buffer = io.StringIO(text, newline="")
    if text.startswith(_BOM):
        buffer.read(1)
    reader = csv.reader(buffer)
    cases: dict[str, list | dict] = {}  # case id -> codes, or position -> code
    codes: dict[str, int] = {}  # label -> its code
    first_lines: dict[str, int] = {}  # case id -> the line of its first row
    faults: list[IngestError] = []
    repeated = False  # whether a row repeated a position of its case
    with_pos = False
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError("empty CSV document")
        if header[:2] != ["case_id", "activity"]:
            raise IngestError("CSV header must start with case_id,activity", 1)
        with_pos = len(header) >= 3 and header[2] == "position"
        expected = len(header)
        # A quoted field may span lines: a row starts on the line after the
        # last line of the row before it.
        end = reader.line_num
        for row in reader:
            line = end + 1
            end = reader.line_num
            if not row:
                continue
            if len(row) != expected:
                raise IngestError(f"expected {expected} columns, found {len(row)}", line)
            case, label = row[0], row[1]
            if not case:
                raise IngestError("empty case id", line)
            try:
                code = _code(codes, label)
            except ValueError as exc:
                raise IngestError(str(exc), line) from None
            entries = cases.get(case)
            if entries is None:
                entries = cases[case] = {} if with_pos else []
                first_lines[case] = line
            if with_pos:
                try:
                    pos = int(row[2])
                except ValueError:
                    raise IngestError(f"bad position {row[2]!r}", line) from None
                if pos in entries and not repeated:
                    repeated = True
                    faults.append(IngestError(f"case {case!r} repeats a position", line))
                entries[pos] = code
            else:
                entries.append(code)
    except csv.Error as exc:
        faults.append(IngestError(f"malformed CSV: {exc}", reader.line_num))
    except IngestError as exc:
        faults.append(exc)
    del reader, buffer  # the StringIO holds a copy of the whole text

    # Faults that only the rows read together show.
    ids = []
    for case, line in first_lines.items():
        try:
            ids.append(int(case))
        except ValueError:
            if case.isascii() and case.isdigit():  # longer than the interpreter converts
                faults.append(IngestError(_too_long(case), line))
            ids.append(-1)
    if any(i < 0 for i in ids):
        ids = list(range(len(cases)))
    if len(set(ids)) != len(ids):
        seen: set[int] = set()
        for tid, line in zip(ids, first_lines.values()):
            if tid in seen:  # the first row of the later case
                faults.append(IngestError("case ids collide once read as numbers", line))
                break
            seen.add(tid)

    if faults:
        raise min(faults, key=lambda exc: exc.line or 0)
    runs = list(cases.values())
    if with_pos:
        runs = [[entries[pos] for pos in sorted(entries)] for entries in runs]
    return EventLog.from_codes(ids, runs, codes)


def _csv_row(label: str) -> str:
    """The row csv.writer writes for an event of `label`, as a format
    string of its case id and position. The writer quotes a line feed but
    not a lone carriage return, which readers take for a line end, so the
    row of a label that holds one has every field quoted."""
    buf = io.StringIO()
    quoting = csv.QUOTE_ALL if "\r" in label else csv.QUOTE_MINIMAL
    # csv.writer leaves braces as they are; str.format reads them doubled.
    braced = label.replace("{", "{{").replace("}", "}}")
    csv.writer(buf, lineterminator="\n", quoting=quoting).writerow(("{0}", braced, "{1}"))
    return buf.getvalue()


def write_csv(log: EventLog) -> str:
    """One row per event, case_id,activity,position, traces in log order;
    each label is spelled once."""
    coded = log.coded
    rows = [_csv_row(act.label) for act in coded.codes]
    out = ["case_id,activity,position\n"]
    for tid, events in zip(log.trace_ids, coded.strings):
        if not events:
            raise IngestError(f"trace {tid} has no events; row form cannot hold it")
        out += map(str.format, map(rows.__getitem__, map(ord, events)), repeat(tid), count())
    return "".join(out)


# --------------------------------------------------------------------------
# Reports

def _support_str(supports, cid: int) -> str:
    """A support as "p/q" in lowest terms: from the verdict counts of a
    `SupportView`, so that no Fraction is built, or from a Fraction."""
    counts = getattr(supports, "counts", None)
    if counts is None:
        fr = supports[cid]
        return f"{fr.numerator}/{fr.denominator}"
    p, q = counts[cid], supports.n
    if not q:
        return "0/1"
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}"


def _report_rows(report: CheckReport) -> tuple[list[int], Iterable[tuple[int, bytes]]]:
    """The constraint ids in ascending order, and per trace in ascending
    id order its id and its verdicts (1 or 0) in that constraint order.

    The verdict columns are laid end to end once, in that order, and each
    trace's row is one strided slice of them; a matrix that is not a view
    over columns is read into columns first.
    """
    tids, cids = report.trace_ids, report.constraint_ids
    columns = getattr(report.matrix, "columns", None)
    if columns is None:
        columns = [bytes([report.matrix[tid, cid] for tid in tids]) for cid in cids]
    order = sorted(range(len(cids)), key=cids.__getitem__)
    n = len(tids)
    cells = b"".join([columns[j] for j in order])
    rows = zip(tids, map(cells.__getitem__, map(slice, range(n), repeat(None), repeat(n))))
    if any(map(operator.gt, tids, tids[1:])):
        rows = sorted(rows)  # ids are unique, so they alone decide the order
    return [cids[j] for j in order], rows


def _report_json(report: CheckReport, log_name: str, model_name: str) -> bytes:
    """The text json.dumps(doc, indent=2) gives for the report document,
    and a line end, as ASCII bytes.

    Written directly, since that encoder runs in pure Python. Strings are
    escaped as ensure_ascii escapes them (`json_string`); the two cells
    of each constraint are rendered once, and so is each distinct row of
    verdicts, which the rows share. The document is joined once from
    those bytes, so the matrix text is copied once.
    """
    enc = json_string
    cids, verdicts = _report_rows(report)
    pairs = [(f"      {enc(str(cid))}: false", f"      {enc(str(cid))}: true") for cid in cids]
    blocks: dict[bytes, bytes] = {}  # verdict row -> its rendered cells
    rows = []
    for tid, bits in verdicts:
        block = blocks.get(bits)
        if block is None:
            cells = list(map(operator.getitem, pairs, bits))
            block = blocks[bits] = json_block("{}", cells, "    ").encode("ascii")
        rows += (b',\n    "%d": ' % tid, block)
    if rows:
        rows[0] = rows[0].removeprefix(b",\n")
    supports = [f'    {enc(str(cid))}: "{_support_str(report.supports, cid)}"' for cid in cids]
    compliant = [f"    {t}" for t in sorted(report.compliant)]
    head = (
        f'{{\n  "log": {enc(log_name)},\n  "model": {enc(model_name)},\n'
        f'  "backend": {enc(report.backend.value)},\n  "matrix": '
    )
    tail = "".join((
        ',\n  "compliant": ',
        json_block("[]", compliant, "  "),
        ',\n  "supports": ',
        json_block("{}", supports, "  "),
        "\n}\n",
    ))
    matrix = (b"{\n", *rows, b"\n  }") if rows else (b"{}",)
    return b"".join((head.encode("ascii"), *matrix, tail.encode("ascii")))


def write_report(
    report: CheckReport,
    format: str = "json",
    *,
    log_name: str = "",
    model_name: str = "",
) -> bytes:
    """Serialize a conformance report; output is identical across runs.

    JSON keys: log, model, backend, matrix, compliant, supports. Supports
    are exact rationals rendered as "p/q". The CSV form is a matrix with
    one row per trace plus a compliant column.
    """
    if format == "json":
        return _report_json(report, log_name, model_name)
    if format == "csv":
        cids, verdicts = _report_rows(report)
        compliant = report.compliant
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["trace_id", *(str(cid) for cid in cids), "compliant"])
        writer.writerows((tid, *bits, int(tid in compliant)) for tid, bits in verdicts)
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unknown report format {format!r}; use json or csv")


# --------------------------------------------------------------------------
# Path-based loading

def _read_text(path) -> str:
    # newline="" here and in _write_text: "\r" and "\r\n" inside labels survive.
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise IngestError(str(exc)) from None


def _read_bytes(path) -> bytes:
    """A file's bytes, decompressed when its name ends in .gz."""
    if not os.fspath(path).endswith(".gz"):
        with open(path, "rb") as fh:
            return fh.read()
    import gzip  # imported here, as in _write_text: only .gz paths need these
    import zlib

    with gzip.open(path, "rb") as fh:
        try:
            return fh.read()
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise IngestError(str(exc)) from None


def _parse_file(path, parse, read=_read_text):
    """parse(read(path)), with the path at the head of any IngestError
    either raises; the error keeps its line."""
    try:
        return parse(read(path))
    except IngestError as exc:
        exc.args = (f"{os.fspath(path)}: {exc}",)
        raise


def _write_text(path, text: str) -> None:
    """Write text, compressed when the name ends in .gz. The gzip header
    holds time 0, so equal text gives equal bytes."""
    if os.fspath(path).endswith(".gz"):
        import gzip

        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(text.encode("utf-8"))
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


# Each log suffix with its reader, the read whose result the reader takes,
# and its writer. _read_bytes and _write_text handle the .gz.
_LOG_FORMATS = (
    (".xes.gz", parse_xes, _read_bytes, write_xes),
    (".xes", parse_xes, _read_bytes, write_xes),
    (".lp", parse_factlog, _read_text, write_factlog),
    (".csv", _parse_csv_text, _read_text, write_csv),
)


def _log_format(path):
    """The (suffix, reader, read, writer) of a log path, chosen by suffix."""
    name = Path(path).name
    for fmt in _LOG_FORMATS:
        if name.endswith(fmt[0]):
            return fmt
    raise IngestError(
        f"cannot infer log format from suffix of {name!r}; "
        "expected .lp, .csv, .xes, or .xes.gz"
    )


def load_log(path) -> EventLog:
    """Read a log by extension: .xes, .xes.gz, .lp (facts), or .csv."""
    _, parse, read, _ = _log_format(path)
    return _parse_file(path, parse, read)


def save_log(log: EventLog, path) -> None:
    *_, write = _log_format(path)
    _write_text(path, write(log))


def load_model(path) -> DeclareModel:
    return _parse_file(path, parse_model)


def load_query(path) -> Query:
    return _parse_file(path, parse_query)
