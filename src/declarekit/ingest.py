"""Reading and writing logs, models, queries, and reports.

Fact documents (logs, models, queries) share one grammar: a sequence of
facts `name(arg, ...).` where arguments are integers, identifiers,
quoted labels, or one-level calls like var(y). Identifiers starting with
a lowercase letter are written bare; anything else is quoted. The
wildcard label "*" is rejected everywhere. XES support covers the
concept:name subset, gzipped or plain; CSV carries case_id, activity,
and an optional position column.
"""

from __future__ import annotations

import csv
import io
import os
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from .core import Activity, Constraint, DeclareModel, EventLog, TemplateKind, Trace

if TYPE_CHECKING:  # tasks loads every backend; only queries need it, at run time
    from .tasks import CheckReport, Query, Variable


class IngestError(ValueError):
    """Malformed input document; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# --------------------------------------------------------------------------
# Fact documents

@dataclass(frozen=True)
class _Fact:
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


def _unescape(tok: str) -> str:
    return tok[1:-1].replace('\\"', '"').replace("\\\\", "\\")


class _FactScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
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
            self.pos = m.end()
            return int(m.group())
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
            tid, pos = int(tid_s), int(pos_s)
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
    import gzip  # imported here, as in save_log: only XES paths need these
    from xml.etree import ElementTree

    if isinstance(source, os.PathLike):
        opener = gzip.open if os.fspath(source).endswith(".gz") else open
        with opener(source, "rb") as fh:
            data = fh.read()
    elif hasattr(source, "read"):
        data = source.read()
    else:
        data = source
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
    Rows are grouped by case id; numeric ids are kept, otherwise ids
    become 0.. in first-appearance order. With a position column, rows
    may arrive shuffled and are ordered by their positions, which must
    not repeat within a case.
    """
    if isinstance(source, os.PathLike):
        source = _read_text(source)
    elif hasattr(source, "read"):
        source = source.read()
    return _parse_csv_text(source)


def _parse_csv_text(text: str) -> EventLog:
    reader = csv.reader(io.StringIO(text, newline=""))
    cases: dict[str, list] = {}  # case id -> activities, or (position, activity)
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError("empty CSV document")
        if header[:2] != ["case_id", "activity"]:
            raise IngestError("CSV header must start with case_id,activity", 1)
        with_pos = len(header) >= 3 and header[2] == "position"
        expected = 3 if with_pos else 2
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
            if with_pos:
                try:
                    entries.append((int(row[2]), act))
                except ValueError:
                    raise IngestError(f"bad position {row[2]!r}", line) from None
            else:
                entries.append(act)
    except csv.Error as exc:
        raise IngestError(f"malformed CSV: {exc}", reader.line_num) from None
    del reader  # its StringIO holds a copy of the whole text

    try:
        ids = [int(case) for case in cases]
        if any(i < 0 for i in ids):
            raise ValueError
    except ValueError:
        ids = list(range(len(cases)))
    if len(set(ids)) != len(ids):
        raise IngestError("case ids collide once read as numbers")

    traces = []
    for tid, (case, entries) in zip(ids, cases.items()):
        if with_pos:
            if len({pos for pos, _ in entries}) != len(entries):
                raise IngestError(f"case {case!r} repeats a position")
            entries.sort()  # positions are unique, so they alone decide the order
            entries = [act for _, act in entries]
        traces.append(Trace(tid, tuple(entries)))
    traces.sort(key=lambda tr: tr.id)
    return EventLog(traces)


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


def _report_json(report: CheckReport, tids, cids, log_name: str, model_name: str) -> str:
    """The text json.dumps(doc, indent=2) gives for the report document.

    Written directly, since that encoder runs in pure Python. Strings are
    escaped as ensure_ascii escapes them; the two cells of each constraint
    are rendered once and picked per trace by the verdict.
    """
    enc = encode_basestring_ascii
    cells = [
        (cid, (f"      {enc(str(cid))}: false", f"      {enc(str(cid))}: true"))
        for cid in cids
    ]
    matrix = report.matrix
    rows = [
        f"    {enc(str(tid))}: "
        + _json_block("{}", [pair[matrix[tid, cid]] for cid, pair in cells], "    ")
        for tid in tids
    ]
    supports = [
        f"    {enc(str(cid))}: {enc(_fraction_str(report.supports[cid]))}" for cid in cids
    ]
    doc = [
        f'  "log": {enc(log_name)}',
        f'  "model": {enc(model_name)}',
        f'  "backend": {enc(report.backend.value)}',
        '  "matrix": ' + _json_block("{}", rows, "  "),
        '  "compliant": ' + _json_block("[]", [f"    {t}" for t in sorted(report.compliant)], "  "),
        '  "supports": ' + _json_block("{}", supports, "  "),
    ]
    return _json_block("{}", doc, "")


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
    tids = sorted(report.trace_ids)
    cids = sorted(report.constraint_ids)
    if format == "json":
        return (_report_json(report, tids, cids, log_name, model_name) + "\n").encode("ascii")
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["trace_id", *(str(cid) for cid in cids), "compliant"])
        for tid in tids:
            row = [tid]
            row.extend(int(report.matrix[(tid, cid)]) for cid in cids)
            row.append(int(tid in report.compliant))
            writer.writerow(row)
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unknown report format {format!r}; use json or csv")


# --------------------------------------------------------------------------
# Path-based loading

def _read_text(path) -> str:
    # newline="" here and in save_log: "\r" and "\r\n" inside labels survive.
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def load_log(path) -> EventLog:
    """Read a log by extension: .xes, .xes.gz, .lp (facts), or .csv."""
    p = Path(path)
    name = p.name
    if name.endswith(".xes") or name.endswith(".xes.gz"):
        return parse_xes(p)
    if name.endswith(".lp"):
        return parse_factlog(_read_text(p))
    if name.endswith(".csv"):
        return _parse_csv_text(_read_text(p))
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
    return parse_model(_read_text(path))


def load_query(path) -> Query:
    return parse_query(_read_text(path))
