"""Reading and writing logs, models, queries, and reports.

Fact documents (logs, models, queries) share one grammar: a sequence of
facts `name(arg, ...).` where arguments are integers, identifiers,
quoted labels, or one-level calls like var(y). Identifiers starting with
a lowercase letter are written bare; anything else is quoted. The
wildcard label "*" is rejected everywhere. XES support covers the
concept:name subset, gzipped or plain; CSV carries case_id, activity,
and an optional position column, and any columns after them are ignored.
"""

from __future__ import annotations

import csv
import io
import operator
import os
import re
from itertools import compress, islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .core import Activity, Constraint, DeclareModel, EventLog, Record, TemplateKind, Trace

if TYPE_CHECKING:  # tasks loads every backend; only queries need it, at run time
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


def _as_activity(arg, line: int) -> Activity:
    if isinstance(arg, tuple) and arg[0] in ("ident", "quoted"):
        try:
            return Activity(arg[1])
        except ValueError as exc:
            raise IngestError(str(exc), line) from None
    raise IngestError("expected an activity name", line)


def _as_int(arg, line: int) -> int:
    if not isinstance(arg, int):
        raise IngestError("expected an integer", line)
    return arg


# --------------------------------------------------------------------------
# Event logs as trace/3 facts

def _trace_fact(fact: _Fact) -> tuple[int, int, Activity]:
    """Id, position and activity of a trace/3 fact the scanner read."""
    if fact.name != "trace" or len(fact.args) != 3:
        raise IngestError(f"expected trace/3 facts, found {fact.name}/{len(fact.args)}", fact.line)
    tid = _as_int(fact.args[0], fact.line)
    pos = _as_int(fact.args[1], fact.line)
    act = _as_activity(fact.args[2], fact.line)
    if tid < 0 or pos < 0:
        raise IngestError("trace id and position must be non-negative", fact.line)
    return tid, pos, act


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
    by_trace: dict[int, dict[int, Activity]] = {}
    last: dict[int, int] = {}  # trace id -> offset of its last fact
    acts: dict[str, Activity] = {}  # label as spelled -> activity
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
            act = acts.get(label)
            if act is None:
                try:
                    act = acts[label] = Activity(_unescape(label) if label[0] == '"' else label)
                except ValueError as exc:
                    err = IngestError(str(exc), scanner.line(at))
                    raise _first_error(scanner, err, nxt) from None
        else:
            scanner.pos = at
            fact = scanner.fact()
            scanner.skip_ws()
            nxt = scanner.pos
            try:
                tid, pos, act = _trace_fact(fact)
            except IngestError as exc:
                raise _first_error(scanner, exc, nxt) from None
        slots = by_trace.get(tid)
        if slots is None:
            slots = by_trace[tid] = {}
        if pos in slots:
            err = IngestError(f"trace {tid} repeats position {pos}", scanner.line(at))
            raise _first_error(scanner, err, nxt)
        slots[pos] = act
        last[tid] = at
        at = nxt
    traces = []
    for tid in sorted(by_trace):
        slots = by_trace[tid]
        events = tuple(map(slots.get, range(len(slots))))
        if None in events:
            raise IngestError(
                f"trace {tid} is missing position {events.index(None)}", scanner.line(last[tid])
            )
        traces.append(Trace(tid, events))
    return EventLog(traces)


_BARE_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


def _fact_name(label: str) -> str:
    if _BARE_RE.match(label):
        return label
    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def write_factlog(log: EventLog) -> str:
    """One trace/3 fact per line, trace ids then positions ascending.

    A trace with no events has no fact to carry it, so such logs are
    refused rather than silently thinned.
    """
    out = []
    names: dict[Activity, str] = {}
    for trace in sorted(log.traces, key=lambda tr: tr.id):
        if not trace.events:
            raise IngestError(f"trace {trace.id} has no events; fact form cannot hold it")
        for pos, act in enumerate(trace.events):
            name = names.get(act)
            if name is None:
                name = names[act] = _fact_name(act.label)
            out.append(f"trace({trace.id},{pos},{name}).")
    return "\n".join(out) + ("\n" if out else "")


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
    for fact in _FactScanner(text).facts():
        if facts.read(fact):
            continue
        if fact.name == "var_bind" and len(fact.args) == 3:
            facts.fill(fact, _as_variable(fact.args[2], fact.line))
        elif fact.name == "domain" and len(fact.args) == 2:
            var = _as_variable(fact.args[0], fact.line)
            domains.setdefault(var, []).append(_as_activity(fact.args[1], fact.line))
        else:
            raise IngestError(
                "expected constraint/2, bind/3, var_bind/3 or domain/2 facts",
                fact.line,
            )
    terms = tuple(QueryTerm(kind, arg_0, arg_1) for _, kind, arg_0, arg_1 in facts.complete())
    if not terms:
        raise IngestError("query declares no constraints")
    return Query(terms=terms, domains={v: tuple(acts) for v, acts in domains.items()})


# --------------------------------------------------------------------------
# XES (concept:name subset)

def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_xes(source) -> EventLog:
    """Parse a XES document from a path, file object, or XML text.

    An os.PathLike is read as a file, decompressed when its name ends in
    .gz; an object with .read() is read; anything else, a str naming a
    file included, is the document itself. Only event concept:name
    attributes are read; trace ids follow document order.
    """
    if isinstance(source, os.PathLike):
        return _parse_file(source, parse_xes, _read_bytes)
    from xml.etree import ElementTree  # imported here: only XES documents need it

    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        raise IngestError(f"malformed XES document: {exc}") from None
    if _local(root.tag) != "log":
        raise IngestError(f"expected a <log> root element, found <{_local(root.tag)}>")

    traces = []
    tid = 0
    for child in root:
        if _local(child.tag) != "trace":
            continue
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
                events.append(Activity(label))
            except ValueError as exc:
                raise IngestError(f"trace {tid} event {idx}: {exc}") from None
        traces.append(Trace(tid, tuple(events)))
        tid += 1
    return EventLog(traces)


def write_xes(log: EventLog) -> str:
    def esc(s: str) -> str:
        # Raw whitespace in an attribute value would be read back as a space.
        return (
            s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
            .replace("\n", "&#10;").replace("\t", "&#9;").replace("\r", "&#13;")
        )

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<log xes.version="1.0" xmlns="http://www.xes-standard.org/">',
    ]
    for trace in log.traces:
        out.append("  <trace>")
        out.append(f'    <string key="concept:name" value="{trace.id}"/>')
        for act in trace.events:
            out.append("    <event>")
            out.append(f'      <string key="concept:name" value="{esc(act.label)}"/>')
            out.append("    </event>")
        out.append("  </trace>")
    out.append("</log>")
    return "\n".join(out) + "\n"


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
_CSV_CHUNK = 1 << 16
# Positions below this bound, spelled as write_csv spells them, are read
# from a table, about four times as fast as by int(), which reads the rest.
_SMALL_POSITIONS = 1024


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
    field from the j-th. Each run of rows of one case is appended to that
    case's events at once.
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
    small_positions = {str(p): p for p in range(_SMALL_POSITIONS)} if with_pos else {}
    acts: dict[str, Activity] = {}
    cases: dict[str, list[Activity]] = {}
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
        if "" in ids:
            return None
        labels = fields[1::step]
        for label in set(labels).difference(acts):
            try:
                acts[label] = Activity(label)
            except ValueError:
                return None
        events = list(map(acts.__getitem__, labels))
        starts = compress(range(1, lines), map(operator.ne, islice(ids, 1, None), ids))
        bounds = [0, *starts, lines]
        if with_pos:
            column = fields[2::step]
            try:
                pos = list(map(small_positions.__getitem__, column))
            except KeyError:  # a position past the table, or spelled otherwise
                try:
                    pos = list(map(int, column))
                except ValueError:
                    return None
            # Positions grow within a run, so they may fall only where one starts.
            falls = compress(range(1, lines), map(operator.ge, pos, islice(pos, 1, None)))
            if not set(bounds).issuperset(falls):
                return None
        for s, e in zip(bounds, islice(bounds, 1, None)):
            case = ids[s]
            got = cases.get(case)
            if got is None:
                cases[case] = events[s:e]
            elif with_pos and pos[s] <= last[case]:
                return None
            else:
                got += events[s:e]
            if with_pos:
                last[case] = pos[e - 1]
    try:
        tids = list(map(int, cases))
    except ValueError:
        return None
    if len(set(tids)) != len(tids) or min(tids, default=0) < 0:
        return None
    traces = map(Trace, tids, map(tuple, cases.values()))
    return EventLog(sorted(traces, key=operator.attrgetter("id")))


def _parse_csv_rows(text: str) -> EventLog:
    """The log of any CSV document, read row by row by csv.reader. Of
    several faults, the one on the earliest line is reported."""
    buffer = io.StringIO(text, newline="")
    if text.startswith(_BOM):
        buffer.read(1)
    reader = csv.reader(buffer)
    cases: dict[str, list] = {}  # case id -> activities, or (position, activity)
    first_lines: dict[str, int] = {}  # case id -> the line of its first row
    faults: list[IngestError] = []
    with_pos = False
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError("empty CSV document")
        if header[:2] != ["case_id", "activity"]:
            raise IngestError("CSV header must start with case_id,activity", 1)
        with_pos = len(header) >= 3 and header[2] == "position"
        expected = len(header)
        acts: dict[str, Activity] = {}
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
            act = acts.get(label)
            if act is None:
                try:
                    act = acts[label] = Activity(label)
                except ValueError as exc:
                    raise IngestError(str(exc), line) from None
            entries = cases.get(case)
            if entries is None:
                entries = cases[case] = []
                first_lines[case] = line
            if with_pos:
                try:
                    entries.append((int(row[2]), act))
                except ValueError:
                    raise IngestError(f"bad position {row[2]!r}", line) from None
            else:
                entries.append(act)
    except csv.Error as exc:
        faults.append(IngestError(f"malformed CSV: {exc}", reader.line_num))
    except IngestError as exc:
        faults.append(exc)
    del reader, buffer  # the StringIO holds a copy of the whole text

    # Faults that only the rows read together show. The row of a repeated
    # position is found by reading the document again, so a document that
    # loads pays nothing for it.
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

    traces = []
    for tid, (case, entries) in zip(ids, cases.items()):
        if with_pos:
            if len({pos for pos, _ in entries}) != len(entries):
                faults.append(_repeated_position(text))
                break
            entries.sort()  # positions are unique, so they alone decide the order
            entries = [act for _, act in entries]
        traces.append(Trace(tid, tuple(entries)))
    if faults:
        raise min(faults, key=lambda exc: exc.line or 0)
    traces.sort(key=lambda tr: tr.id)
    return EventLog(traces)


def _repeated_position(text: str) -> IngestError:
    """The fault of the first row that repeats a position of its case; the
    rows before it must be well formed, as _parse_csv_rows read them."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    seen = set()
    end = reader.line_num
    for row in reader:
        line = end + 1
        end = reader.line_num
        if row:
            key = (row[0], int(row[2]))
            if key in seen:
                return IngestError(f"case {row[0]!r} repeats a position", line)
            seen.add(key)
    raise AssertionError("no row repeats a position")


def write_csv(log: EventLog) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # The writer quotes "\n" but not a lone "\r", which readers take for a line end.
    quote_all = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(["case_id", "activity", "position"])
    for trace in log.traces:
        if not trace.events:
            raise IngestError(f"trace {trace.id} has no events; row form cannot hold it")
        for pos, act in enumerate(trace.events):
            (quote_all if "\r" in act.label else writer).writerow([trace.id, act.label, pos])
    return buf.getvalue()


# --------------------------------------------------------------------------
# Reports

def _fraction_str(fr) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _json_block(brackets: str, items: list[str], indent: str) -> str:
    """Rendered, indented items between `brackets`, laid out as
    json.dumps(..., indent=2) lays out a container at depth `indent`."""
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + indent + brackets[1]


def _report_rows(report: CheckReport) -> tuple[list[int], Iterable[tuple[int, tuple[int, ...]]]]:
    """The constraint ids in ascending order, and per trace in ascending
    id order its id and its verdicts (1 or 0) in that constraint order.

    The verdict columns are transposed once; a matrix that is not a view
    over columns is read into columns first.
    """
    tids, cids = report.trace_ids, report.constraint_ids
    columns = getattr(report.matrix, "columns", None)
    if columns is None:
        columns = [bytes(report.matrix[tid, cid] for tid in tids) for cid in cids]
    order = sorted(range(len(cids)), key=cids.__getitem__)
    rows = zip(tids, zip(*[columns[j] for j in order]) if order else repeat(()))
    if any(map(operator.gt, tids, tids[1:])):
        rows = sorted(rows)  # ids are unique, so they alone decide the order
    return [cids[j] for j in order], rows


def _report_json(report: CheckReport, log_name: str, model_name: str) -> str:
    """The text json.dumps(doc, indent=2) gives for the report document,
    and a line end.

    Written directly, since that encoder runs in pure Python. Strings are
    escaped as ensure_ascii escapes them; the two cells of each constraint
    are rendered once and picked per trace by the verdict. The matrix rows
    are joined once, straight into the document, so that no more than two
    copies of the matrix text are alive at a time.
    """
    from json.encoder import encode_basestring_ascii as enc  # only reports need it

    cids, verdicts = _report_rows(report)
    pairs = [(f"      {enc(str(cid))}: false", f"      {enc(str(cid))}: true") for cid in cids]
    rows = ",\n".join([
        f"    {enc(str(tid))}: "
        + _json_block("{}", list(map(operator.getitem, pairs, bits)), "    ")
        for tid, bits in verdicts
    ])
    supports = [
        f"    {enc(str(cid))}: {enc(_fraction_str(report.supports[cid]))}" for cid in cids
    ]
    compliant = [f"    {t}" for t in sorted(report.compliant)]
    return "".join((
        "{\n",
        f'  "log": {enc(log_name)},\n',
        f'  "model": {enc(model_name)},\n',
        f'  "backend": {enc(report.backend.value)},\n',
        '  "matrix": ',
        *(("{\n", rows, "\n  }") if rows else ("{}",)),
        ',\n  "compliant": ',
        _json_block("[]", compliant, "  "),
        ',\n  "supports": ',
        _json_block("{}", supports, "  "),
        "\n}\n",
    ))


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
        return _report_json(report, log_name, model_name).encode("ascii")
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
    # newline="" here and in save_log: "\r" and "\r\n" inside labels survive.
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise IngestError(str(exc)) from None


def _read_bytes(path) -> bytes:
    """A file's bytes, decompressed when its name ends in .gz."""
    import gzip  # imported here, as in save_log: only XES paths need these
    import zlib

    opener = gzip.open if os.fspath(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
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


def load_log(path) -> EventLog:
    """Read a log by extension: .xes, .xes.gz, .lp (facts), or .csv."""
    name = Path(path).name
    if name.endswith(".xes") or name.endswith(".xes.gz"):
        return _parse_file(path, parse_xes, _read_bytes)
    if name.endswith(".lp"):
        return _parse_file(path, parse_factlog)
    if name.endswith(".csv"):
        return _parse_file(path, _parse_csv_text)
    raise IngestError(
        f"cannot infer log format from suffix of {name!r}; "
        "expected .lp, .csv, .xes, or .xes.gz"
    )


def save_log(log: EventLog, path) -> None:
    p = Path(path)
    name = p.name
    if name.endswith(".xes.gz"):
        import gzip

        with gzip.open(p, "wt", encoding="utf-8", newline="") as fh:
            fh.write(write_xes(log))
        return
    if name.endswith(".xes"):
        p.write_text(write_xes(log), encoding="utf-8", newline="")
        return
    if name.endswith(".lp"):
        p.write_text(write_factlog(log), encoding="utf-8", newline="")
        return
    if name.endswith(".csv"):
        p.write_text(write_csv(log), encoding="utf-8", newline="")
        return
    raise IngestError(
        f"cannot infer log format from suffix of {name!r}; "
        "expected .lp, .csv, .xes, or .xes.gz"
    )


def load_model(path) -> DeclareModel:
    return _parse_file(path, parse_model)


def load_query(path) -> Query:
    return _parse_file(path, parse_query)
