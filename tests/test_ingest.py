"""Tests for the log, model, query, and report readers and writers."""

import csv
import gzip
import json
import pickle
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from declarekit import ingest
from declarekit.core import code_events
from declarekit import (
    Activity,
    Backend,
    CheckReport,
    Constraint,
    DeclareModel,
    EventLog,
    IngestError,
    TemplateKind,
    Trace,
    Variable,
    conformance_check,
    load_log,
    load_model,
    parse_csv,
    parse_factlog,
    parse_model,
    parse_query,
    parse_xes,
    save_log,
    write_csv,
    write_factlog,
    write_model,
    write_report,
    write_xes,
)
from oracles import reference_parse_factlog

FIXTURES = Path(__file__).parent / "fixtures"

A, B, C = Activity("a"), Activity("b"), Activity("c")


def _log(*labelings):
    return EventLog(tuple(Trace.from_labels(i, s) for i, s in enumerate(labelings)))


# --------------------------------------------------------------------------
# Fact-style logs
# --------------------------------------------------------------------------

def test_parse_factlog_basic():
    text = """
    % two short cases
    trace(0,0,a). trace(0,1,b). trace(0,2,c).
    trace(1,0,x). trace(1,1,y). trace(1,2,z).
    """
    log = parse_factlog(text)
    assert len(log) == 2
    assert [e.label for e in log.get(0)] == ["a", "b", "c"]
    assert [e.label for e in log.get(1)] == ["x", "y", "z"]


def test_parse_factlog_orders_positions_not_lines():
    text = "trace(0,1,b). trace(0,0,a)."
    log = parse_factlog(text)
    assert [e.label for e in log.get(0)] == ["a", "b"]


def test_parse_factlog_missing_position():
    with pytest.raises(IngestError, match="missing position 0"):
        parse_factlog("trace(0,1,a).")


def test_parse_factlog_duplicate_position():
    with pytest.raises(IngestError, match="position 0"):
        parse_factlog("trace(0,0,a). trace(0,0,b).")


def test_parse_factlog_reports_line_numbers():
    with pytest.raises(IngestError) as err:
        parse_factlog("trace(0,0,a).\ntrace(0,1,).")
    assert err.value.line == 2


def huge_integer() -> str:
    """Digits one past the interpreter's limit for int(), where it has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    return "1" * (limit + 1)


@pytest.mark.parametrize(
    "fact",
    [
        "trace({n},0,a).",  # as write_factlog spells facts
        "trace(0,{n},a).",
        "trace( {n} , 0, a ).",  # as only the scanner reads them
    ],
)
def test_parse_factlog_huge_integer_names_its_line(fact):
    n = huge_integer()
    with pytest.raises(IngestError, match=f"integer of {len(n)} digits") as err:
        parse_factlog("trace(0,0,a).\n" + fact.format(n=n) + "\n")
    assert err.value.line == 2


def test_parse_csv_huge_case_id_names_its_row():
    """A case id of digits int() cannot convert is an error, not a reason to
    renumber every case; ids that are not numbers still renumber."""
    n = huge_integer()
    with pytest.raises(IngestError, match=f"integer of {len(n)} digits") as err:
        parse_csv(f"case_id,activity\n7,a\n{n},b\n3,c\n{n},d\n")
    assert err.value.line == 3
    with pytest.raises(IngestError) as err:
        parse_csv(f"case_id,activity\nx,a\n{n},b\n")
    assert err.value.line == 3
    with pytest.raises(IngestError, match=f"integer of {len(n)} digits") as err:
        parse_csv(f"case_id,activity\n{n},a\n0,*\n")  # before a row fault
    assert err.value.line == 2
    assert [tr.id for tr in parse_csv("case_id,activity\n7,a\n3,c\n")] == [3, 7]
    assert [tr.id for tr in parse_csv("case_id,activity\n7,a\nx,b\n3,c\n")] == [0, 1, 2]


def test_parse_model_huge_integer_names_its_line():
    n = huge_integer()
    with pytest.raises(IngestError, match="too long") as err:
        parse_model(f'constraint(0,"Response").\nbind({n},arg_0,a).\n')
    assert err.value.line == 2


def test_parse_factlog_is_linear_in_facts():
    """60k facts parse in about a second; a quadratic scan takes over 20 s.

    Line numbers stay exact at the end of the document: a repeated
    position on the last line and a syntax error after it.
    """
    n = 60_000
    text = "\n".join(f"trace({i // 40},{i % 40},a{i % 7})." for i in range(n))
    started = time.perf_counter()
    log = parse_factlog(text)
    elapsed = time.perf_counter() - started
    assert sum(len(tr) for tr in log) == n
    assert elapsed < 10.0, elapsed
    with pytest.raises(IngestError) as err:
        parse_factlog(text + "\ntrace(0,0,b).")
    assert err.value.line == n + 1
    with pytest.raises(IngestError) as err:
        parse_factlog(text + "\n\ntrace(0,1,).")
    assert err.value.line == n + 2


def test_parse_factlog_quoted_labels():
    log = parse_factlog('trace(0,0,"send order"). trace(0,1,"Reply\\"now\\"").')
    assert log.get(0)[0].label == "send order"
    assert log.get(0)[1].label == 'Reply"now"'


def test_factlog_round_trip():
    log = _log("abc", "ba", "a")
    assert parse_factlog(write_factlog(log)) == log


def test_write_factlog_refuses_empty_traces():
    """A fact per event means a trace with no events would vanish."""
    with pytest.raises(IngestError, match="no events"):
        write_factlog(_log("ab", ""))


def test_write_factlog_quotes_when_needed():
    log = EventLog((Trace.from_labels(4, ["check stock", "ship"]),))
    text = write_factlog(log)
    assert 'trace(4,0,"check stock").' in text
    assert "trace(4,1,ship)." in text
    assert parse_factlog(text) == log


def test_parse_factlog_reads_canonical_facts_without_the_scanner(monkeypatch):
    log = EventLog((Trace.from_labels(0, ["a", 'say "hi"', "a\\b"]), Trace.from_labels(3, ["B_1"])))
    text = "% header\n" + write_factlog(log).replace("\n", " % note\r\n") + "\n"

    def refuse(self):
        raise AssertionError(f"the scanner read the fact at offset {self.pos}")

    monkeypatch.setattr(ingest._FactScanner, "fact", refuse)
    assert parse_factlog(text) == log


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


_LABEL_TOKENS = st.one_of(
    st.from_regex(r"[a-z][a-z0-9_]{0,2}", fullmatch=True),
    st.from_regex(r"[A-Z_][A-Za-z0-9_]{0,2}", fullmatch=True),  # quoted by write_factlog
    st.text(alphabet='ab"\\\n\r%., ()*', min_size=1, max_size=4).map(_quote),
    st.text(alphabet='ab"\\\n%', min_size=1, max_size=3).map(lambda t: f'"{t}"'),  # not escaped
)
_FAULTS = ("negative", "repeat", "missing", "star", "int", "call", "arity", "name", "truncate")


@st.composite
def _fact_documents(draw):
    """trace/3 documents in the canonical spelling and in spellings only the
    scanner reads, with at most one planted fault."""
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    gaps = st.sampled_from(["", " ", "\t", eol, f"% x{eol}", f"%{eol}{eol}"])
    traces = draw(st.lists(st.lists(_LABEL_TOKENS, min_size=1, max_size=4), min_size=1, max_size=3))
    n = len(traces)
    ids = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n, unique=True))
    facts = [
        ["trace", str(tid), str(pos), label]
        for tid, labels in zip(ids, traces)
        for pos, label in enumerate(labels)
    ]
    if draw(st.booleans()):
        facts = draw(st.permutations(facts))
    fault = draw(st.none() | st.sampled_from(_FAULTS))
    at = draw(st.integers(0, len(facts) - 1))
    fact = facts[at]
    if fault == "negative":
        fact[draw(st.sampled_from([1, 2]))] = "-1"
    elif fault == "repeat":
        facts.insert(draw(st.integers(0, len(facts))), [*fact[:3], draw(_LABEL_TOKENS)])
    elif fault == "missing":
        del facts[at]
    elif fault in ("star", "int", "call"):
        fact[3] = {"star": '"*"', "int": "7", "call": "a(b)"}[fault]
    elif fault == "arity":
        facts[at] = fact[:3] if draw(st.booleans()) else [*fact, "x"]
    elif fault == "name":
        fact[0] = draw(st.sampled_from(["event", "Trace", "trace_"]))
    pieces = []
    for name, *args in facts:
        if draw(st.booleans()):
            between = [t for arg in args for t in (",", arg)][1:]
            tokens = [name, "(", *between, ")", "."]
            pieces.append("".join(t + draw(gaps) for t in tokens))
        else:
            pieces.append(f"{name}({','.join(args)}).")
        pieces.append(draw(gaps))
    text = draw(gaps) + "".join(pieces)
    if fault == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _outcome(parse, text: str):
    try:
        return parse(text)
    except IngestError as exc:
        return str(exc), exc.line


@settings(max_examples=400, deadline=None)
@given(text=_fact_documents())
@example(text="trace(0,1,a).\ntrace(1,0,b).\n\n")  # the line of trace 0's last fact
@example(text='trace(-1,0,a).\r\ntrace(0,0,"\\").')  # the later syntax error wins
@example(text='trace(0,0,a).\rtrace(0,0,"b").\r')
def test_parse_factlog_matches_the_token_reader(text):
    assert _outcome(parse_factlog, text) == _outcome(reference_parse_factlog, text)


# --------------------------------------------------------------------------
# Models and queries
# --------------------------------------------------------------------------

def test_parse_model_example():
    text = """
    constraint(0,"Response").          bind(0,arg_0,a). bind(0,arg_1,b).
    constraint(1,"Alternate Precedence"). bind(1,arg_0,c). bind(1,arg_1,d).
    """
    model = parse_model(text)
    assert [c.kind for c in model] == [
        TemplateKind.RESPONSE,
        TemplateKind.ALTERNATE_PRECEDENCE,
    ]
    assert model.get(1).activation.label == "c"


def test_parse_model_accepts_camel_kind_names():
    model = parse_model('constraint(0,"ChainResponse"). bind(0,arg_0,a). bind(0,arg_1,b).')
    assert model.get(0).kind is TemplateKind.CHAIN_RESPONSE


def test_parse_model_unknown_kind():
    with pytest.raises(IngestError, match="unknown template"):
        parse_model('constraint(0,"Sometime"). bind(0,arg_0,a). bind(0,arg_1,b).')


def test_parse_model_missing_binding():
    with pytest.raises(IngestError, match="arg_1"):
        parse_model('constraint(0,"Response"). bind(0,arg_0,a).')


def test_parse_model_binding_without_declaration():
    with pytest.raises(IngestError, match="undeclared constraint 0") as err:
        parse_model('constraint(1,"Response"). bind(1,arg_0,a). bind(1,arg_1,b).\n'
                    "bind(0,arg_0,a). bind(0,arg_1,b).")
    assert err.value.line == 2


def test_model_round_trip():
    model = DeclareModel((
        Constraint(0, TemplateKind.RESPONSE, A, B),
        Constraint(3, TemplateKind.COEXISTENCE, Activity("check stock"), C),
    ))
    assert parse_model(write_model(model)) == model


def test_parse_query_with_variables_and_domains():
    text = """
    constraint(0,"Response").
    bind(0,arg_0,a).
    var_bind(0,arg_1,var(y)).
    domain(var(y),b). domain(var(y),c).
    """
    query = parse_query(text)
    term = query.terms[0]
    assert term.kind is TemplateKind.RESPONSE
    assert term.activation is A
    assert term.target == Variable("y")
    assert query.domains == {Variable("y"): (B, C)}


def test_parse_query_multiple_terms_share_variables():
    text = """
    constraint(0,"Response").   var_bind(0,arg_0,var(x)). var_bind(0,arg_1,var(y)).
    constraint(1,"Precedence"). var_bind(1,arg_0,var(x)). bind(1,arg_1,b).
    """
    query = parse_query(text)
    assert len(query.terms) == 2
    assert query.variables() == (Variable("x"), Variable("y"))


def test_parse_query_rejects_redeclared_constraint():
    text = """
    constraint(0,"Response").
    constraint(0,"Precedence"). bind(0,arg_0,a). var_bind(0,arg_1,var(y)).
    """
    with pytest.raises(IngestError, match="constraint 0 declared twice") as err:
        parse_query(text)
    assert err.value.line == 3


def test_parse_query_rejects_bind_for_undeclared_constraint():
    text = """
    constraint(0,"Response"). bind(0,arg_0,a). var_bind(0,arg_1,var(y)).
    bind(7,arg_0,z).
    """
    with pytest.raises(IngestError, match="undeclared constraint 7") as err:
        parse_query(text)
    assert err.value.line == 3


def test_parse_query_rejects_domain_of_unused_variable():
    """A misspelt variable in domain/2 would otherwise leave the real one
    ranging over the whole log alphabet."""
    text = """
    constraint(0,"Response"). bind(0,arg_0,a). var_bind(0,arg_1,var(y)).
    domain(var(y),b).
    domain(var(z),b). domain(var(w),c).
    domain(var(z),c).
    """
    with pytest.raises(IngestError, match=r"domain/2 restricts var\(z\), which no term uses") as err:
        parse_query(text)
    assert err.value.line == 4


# --------------------------------------------------------------------------
# XES
# --------------------------------------------------------------------------

def test_parse_xes_fixture():
    log = parse_xes(FIXTURES / "orders.xes")
    assert len(log) == 3
    assert [e.label for e in log.get(0)] == ["receive order", "check stock", "ship"]
    assert [e.label for e in log.get(1)] == ["receive order", "cancel"]
    assert len(log.get(2)) == 4


def test_parse_xes_from_text():
    text = (FIXTURES / "orders.xes").read_text()
    assert parse_xes(text) == parse_xes(FIXTURES / "orders.xes")


def test_xes_round_trip():
    log = _log("abc", "", "ba")
    assert parse_xes(write_xes(log)) == log


def test_xes_gzip_round_trip(tmp_path):
    log = parse_xes(FIXTURES / "orders.xes")
    packed = tmp_path / "orders.xes.gz"
    packed.write_bytes(gzip.compress(write_xes(log).encode()))
    assert parse_xes(packed) == log


def test_xes_gzip_output_is_reproducible(tmp_path):
    """The gzip header holds time 0, so two saves give equal bytes."""
    log = _log("abc", "ba")
    first, second = tmp_path / "one" / "t.xes.gz", tmp_path / "two" / "t.xes.gz"
    for path in (first, second):
        path.parent.mkdir()
        save_log(log, path)
    assert first.read_bytes()[4:8] == bytes(4)  # the time field
    assert first.read_bytes() == second.read_bytes()
    assert load_log(second) == log


def _xes_outcomes(data: bytes):
    """What parse_xes makes of a document, and what the ElementTree reader
    makes of it: a log, or the type and message of the error."""
    def outcome(read):
        try:
            return read(data)
        except Exception as exc:  # whatever either reader raises, both must raise alike
            return type(exc).__name__, str(exc)

    return outcome(parse_xes), outcome(ingest._parse_xes_tree)


# Characters write_xes escapes (& < > " and tab, newline, return), and
# those XML 1.0 cannot carry, which it writes as they are: a label holding
# any of them goes to ElementTree.
_NOT_PLAIN = {*'&<>"', *map(chr, range(0x20)), "\ufffe", "\uffff"}
_XES_LABELS = st.lists(
    st.one_of(
        st.sampled_from(['"', "&", "<", ">", "\n", "\t", "\r", "\x01", "é", "\u2028", ";",
                         "#", "&amp;", "&lt;", "&#10;", "\ufffe", "\uffff", " "]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    min_size=1,
    max_size=6,
).map("".join).filter(lambda label: label != "*")


@settings(max_examples=150, deadline=None)
@given(traces=st.lists(st.lists(_XES_LABELS, max_size=4), max_size=4))
def test_xes_reader_of_written_layout_agrees_with_the_xml_parser(traces):
    """write_xes's own documents load as through ElementTree, and in one
    pass whenever every label is written as it is and XML 1.0 carries it."""
    log = EventLog(tuple(Trace.from_labels(i, labels) for i, labels in enumerate(traces)))
    data = write_xes(log).encode("utf-8")
    fast, tree = _xes_outcomes(data)
    assert fast == tree
    plain = not any(_NOT_PLAIN & set(label) for labels in traces for label in labels)
    assert (ingest._parse_xes_written(data) is not None) == plain
    if plain:
        assert fast == log


def test_xes_reader_agrees_with_the_xml_parser_on_every_byte_edit():
    """Every single-byte deletion and substitution of a small document,
    and the layouts that only the XML parser reads, load alike or fail
    with the same message through parse_xes as through ElementTree."""
    doc = write_xes(EventLog((Trace.from_labels(0, ["a", "é"]), Trace(1, ())))).encode("utf-8")
    assert ingest._parse_xes_written(doc) is not None
    edits = [
        b"\xef\xbb\xbf" + doc,
        doc.replace(b"\n", b"\r\n"),
        doc.replace(b"UTF-8", b"ISO-8859-1").replace("é".encode(), b"\xe9"),
        doc.replace(b'value="a"', b'value="&#97;"'),
        doc.replace(b'value="a"', b'value="&lt;&amp;&quot;&#10;"'),
        doc.replace(b'"/>', b'" />'),
        doc + b"\n",
    ]
    edits += [doc[:i] + doc[i + 1:] for i in range(len(doc))]
    edits += [
        doc[:i] + bytes((b,)) + doc[i + 1:]
        for i in range(len(doc)) for b in range(256) if b != doc[i]
    ]
    for data in edits:
        fast, tree = _xes_outcomes(data)
        assert fast == tree, data


def test_xes_event_without_name_rejected():
    text = """<log xmlns="http://www.xes-standard.org/">
      <trace><event><string key="org:resource" value="r"/></event></trace>
    </log>"""
    with pytest.raises(IngestError, match="concept:name"):
        parse_xes(text)


def test_xes_wrong_root_rejected():
    with pytest.raises(IngestError, match="log"):
        parse_xes("<notes></notes>")


def test_parsers_read_paths_and_file_objects_and_take_str_as_text(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_xes(tmp_path / "missing.xes")
    with pytest.raises(FileNotFoundError):
        parse_csv(tmp_path / "missing.csv")
    log = _log("abc", "ba")
    path = tmp_path / "log.csv"
    save_log(log, path)
    assert parse_csv(path) == load_log(path) == log
    with path.open(encoding="utf-8", newline="") as fh:
        assert parse_csv(fh) == log
    # A str is the document itself, even when it names an existing file.
    with pytest.raises(IngestError, match="header"):
        parse_csv(str(path))
    with pytest.raises(IngestError, match="malformed XES"):
        parse_xes(str(path))


# --------------------------------------------------------------------------
# CSV
# --------------------------------------------------------------------------

def test_parse_csv_with_position_column():
    text = "case_id,activity,position\n7,b,1\n7,a,0\n9,x,0\n"
    log = parse_csv(text)
    assert [e.label for e in log.get(7)] == ["a", "b"]
    assert [e.label for e in log.get(9)] == ["x"]


def test_parse_csv_without_position_uses_row_order():
    text = "case_id,activity\n0,a\n0,b\n1,x\n0,c\n"
    log = parse_csv(text)
    assert [e.label for e in log.get(0)] == ["a", "b", "c"]


def test_parse_csv_header_required():
    with pytest.raises(IngestError, match="header"):
        parse_csv("0,a\n0,b\n")


def test_parse_csv_duplicate_position():
    with pytest.raises(IngestError):
        parse_csv("case_id,activity,position\n0,a,0\n0,b,0\n")


def test_csv_round_trip():
    log = _log("abc", "ba")
    assert parse_csv(write_csv(log)) == log


def test_csv_keeps_numeric_case_ids():
    log = EventLog((Trace.from_labels(4, "ab"), Trace.from_labels(9, "ba")))
    assert parse_csv(write_csv(log)) == log


def test_csv_nonnumeric_case_ids_enumerated():
    text = "case_id,activity\norder-17,a\norder-18,b\norder-17,c\n"
    log = parse_csv(text)
    assert [t.id for t in log] == [0, 1]
    assert [e.label for e in log.get(0)] == ["a", "c"]


def test_write_csv_refuses_empty_traces():
    with pytest.raises(IngestError, match="no events"):
        write_csv(_log("ab", ""))


def test_parse_csv_ignores_columns_after_the_ones_it_reads():
    text = "case_id,activity,timestamp\n3,a,2024-01-01\n3,b,2024-01-02\n1,c,2024-01-03"
    assert parse_csv(text) == EventLog((Trace.from_labels(1, "c"), Trace.from_labels(3, "ab")))
    text = "case_id,activity,position,resource\n3,b,1,ann\n3,a,0,bob\n"
    assert parse_csv(text) == EventLog((Trace.from_labels(3, "ab"),))


def test_parse_csv_rows_must_be_as_wide_as_the_header():
    header = "case_id,activity,position,extra\n"
    for text in (header + "0,a,0\n", header + '0,"a",0\n'):
        with pytest.raises(IngestError, match="expected 4 columns, found 3") as err:
            parse_csv(text)
        assert err.value.line == 2


def test_load_log_skips_a_byte_order_mark(tmp_path):
    log = _log("abc", "ba")
    for name, text in (("bom.csv", write_csv(log)), ("bom.lp", write_factlog(log))):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_log(path) == log, name
    model = DeclareModel([Constraint(0, TemplateKind.RESPONSE, A, B)])
    path = tmp_path / "model.lp"
    path.write_bytes(b"\xef\xbb\xbf" + write_model(model).encode("utf-8"))
    assert load_model(path) == model
    # Text and file objects carry the mark too, once decoded as plain UTF-8.
    assert parse_csv("\ufeff" + write_csv(log)) == log
    with open(tmp_path / "bom.csv", encoding="utf-8", newline="") as fh:
        assert parse_csv(fh) == log
    assert parse_factlog("\ufeff" + write_factlog(log)) == log
    assert parse_model("\ufeff" + write_model(model)) == model
    query = 'constraint(0,"Response"). bind(0,arg_0,a). var_bind(0,arg_1,var(y)).'
    assert parse_query("\ufeff" + query) == parse_query(query)
    # A mark anywhere else is no space: it stays an error with its line.
    with pytest.raises(IngestError) as err:
        parse_factlog("trace(0,0,a).\n\ufefftrace(0,1,b).")
    assert err.value.line == 2


_CSV_HEADERS = [
    "case_id,activity,position",
    "case_id,activity",
    "case_id,activity,timestamp",
    "case_id,activity,position,extra",
    "case_id,activity,extra,position",
    "case,activity,position",
]
_CSV_IDS = ["0", "1", "2", "3", "17", "+1", " 1", "01", "-2", "x", "case 9"]
_CSV_CELLS = ["a", "b", "c", "a b", " a", "é", " "]
# Cells that spoil a row, or that only the row reader reads.
_CSV_ODD_CELLS = ["*", "", '"q"', '"a,b"']
_CSV_POSITIONS = ["0", "1", "x", "", "-1", " 2", "+3", "01", "5000"]


@st.composite
def _csv_documents(draw):
    """A CSV log document, mostly well formed: cases interleave in runs,
    and a few draws shuffle or swap rows, repeat or spoil positions, spoil,
    quote or lengthen a cell, widen or narrow a row, add blank lines, end
    lines in CR LF or drop the final line end."""
    header = draw(st.sampled_from(_CSV_HEADERS))
    columns = header.split(",")
    ids = draw(st.lists(st.sampled_from(_CSV_IDS), min_size=1, max_size=4, unique=True))
    # Runs of rows of one case; a case's positions count up over its rows.
    runs = draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(1, 4)), max_size=5))
    cells = st.sampled_from(_CSV_CELLS)
    seen = dict.fromkeys(ids, 0)
    rows = []
    for case in (case for case, length in runs for _ in range(length)):
        row = [case, draw(cells), str(seen[case])] + [draw(cells) for _ in columns[3:]]
        seen[case] += 1
        rows.append(row[: max(len(columns), 2)])
    if rows and draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        if not rows:
            break
        at = draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        faults = ["swap", "position", "case", "cell", "long", "wider", "narrower"]
        fault = draw(st.sampled_from(faults))
        if fault == "swap":
            rows[at - 1], rows[at] = row, rows[at - 1]
        elif fault == "position" and len(row) > 2:
            row[2] = draw(st.sampled_from(_CSV_POSITIONS))
        elif fault == "case":
            row[0] = draw(st.sampled_from(_CSV_IDS + [""]))
        elif fault == "cell" and len(row) > 1:
            row[draw(st.integers(1, len(row) - 1))] = draw(st.sampled_from(_CSV_ODD_CELLS))
        elif fault == "long":
            row[-1] = "y" * 41
        elif fault == "wider":
            row.append("z")
        elif len(row) > 1:
            row.pop()
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


@settings(max_examples=400, deadline=None)
@given(
    text=_csv_documents(),
    chunk=st.sampled_from([1, 3, 16, 1 << 16]),
    limit=st.sampled_from([None, 40]),
)
@example(text="case_id,activity,position\n0,a,0\n0,b,0\n", chunk=1 << 16, limit=None)
@example(text="case_id,activity,position\n0,a,0\n1,b,0\n0,c,0\n", chunk=1 << 16, limit=None)
@example(text="case_id,activity,position\n0,a,0\n1,b,0\n0,c,0\n", chunk=1, limit=None)
@example(text="case_id,activity,position\n0,b,1\n0,a,0\n", chunk=1 << 16, limit=None)
@example(text="case_id,activity,position\n0,a,1\n1,b,0\n0,c,0\n", chunk=1, limit=None)
@example(text="case_id,activity,position\n0,a,0\n0,b,01\n0,c,+2\n0,d,7\n", chunk=1, limit=None)
@example(text="case_id,activity\n0,a\n0," + "x" * 131_073 + "\n", chunk=1 << 16, limit=None)
@example(text="case_id,activity," + "x" * 131_073 + "\n0,a,b\n", chunk=1 << 16, limit=None)
@example(text="case_id,activity\n0,a\n0," + "y" * 41 + "\n", chunk=1 << 16, limit=40)
@example(text="case_id,activity\n\n3,a\n\n\n1,b\n3,c", chunk=3, limit=None)
@example(text="case_id,activity,timestamp\n3,a,2024\n3,b,2025\n", chunk=1 << 16, limit=None)
@example(text="case_id,activity,position,extra\n3,a,0\n", chunk=1 << 16, limit=None)
@example(text="case_id,activity\n1,a\n+1,b\n", chunk=1 << 16, limit=None)
@example(text="case_id,activity\n1,a\nx,b\n", chunk=1 << 16, limit=None)
@example(text="case_id,activity\n1,a\n-1,b\n", chunk=1 << 16, limit=None)
@example(text="\ufeffcase_id,activity\n1,a\n", chunk=1 << 16, limit=None)
@example(text="case_id,activity\n1,a\r\n2,b\r\n", chunk=1 << 16, limit=None)
@example(text='case_id,activity\n1,"a\nb"\n', chunk=1 << 16, limit=None)
@example(text="case_id,activity\n1,*\n", chunk=1 << 16, limit=None)
@example(text="", chunk=1 << 16, limit=None)
def test_chunk_reader_reads_what_the_row_reader_reads(text, chunk, limit):
    """Every document gives the same log, or the same error on the same line,
    as the row reader gives, whatever the chunk size and field limit."""
    saved_chunk, saved_limit = ingest._CSV_CHUNK, csv.field_size_limit()
    ingest._CSV_CHUNK = chunk
    csv.field_size_limit(limit or saved_limit)
    try:
        expected = _outcome(ingest._parse_csv_rows, text)
        assert _outcome(ingest._parse_csv_text, text) == expected
    finally:
        ingest._CSV_CHUNK = saved_chunk
        csv.field_size_limit(saved_limit)


def test_chunk_reader_reads_canonical_documents_alone(monkeypatch):
    """A document as write_csv writes it, or as a spreadsheet exports it with
    rows in order, never reaches the row reader, whatever the chunk size."""
    def row_reader(text):
        raise AssertionError("the chunk reader handed a canonical document to the row reader")

    rng = random.Random(7)
    labels = ["a", "b", "c_1", "order paid", "é"]
    traces = [
        Trace.from_labels(tid, rng.choices(labels, k=rng.randint(1, 1100)))
        for tid in sorted(rng.sample(range(10_000), 40))
    ]
    log = EventLog(traces)
    text = write_csv(log)
    assert '"' not in text
    exported = "case_id,activity,timestamp\n" + "".join(
        f"{tr.id},{act.label},t{pos}\n" for tr in traces for pos, act in enumerate(tr.events)
    )
    monkeypatch.setattr(ingest, "_parse_csv_rows", row_reader)
    for chunk in (1, 100, 1 << 16):
        monkeypatch.setattr(ingest, "_CSV_CHUNK", chunk)
        assert parse_csv(text) == log
        assert parse_csv(exported) == log
        assert parse_csv("\ufeff" + exported) == log  # with a byte-order mark
        assert parse_csv(text.rstrip("\n")) == log


# Position spellings the row reader reads with int(), that write_csv never writes.
_ODD_SPELLINGS = {"+": "+{}", " ": " {}", "0": "0{}"}


@st.composite
def _coded_csv_documents(draw):
    """A CSV log document the chunk reader may code: cases in runs, whose
    positions count up as write_csv writes them, or with gaps, repeats,
    negative starts and spellings of their own; a few draws shuffle the
    rows, add blank lines, use ids that are not numbers, or add a case of
    260 labels, so that the codes no longer fit in a byte."""
    with_pos = draw(st.booleans())
    header = "case_id,activity" + (",position" if with_pos else "")
    ids = draw(st.lists(st.sampled_from(["0", "1", "7", "12", "x", "01"]),
                        min_size=1, max_size=4, unique=True))
    labels = st.sampled_from(["a", "b", "c", "é", "a b"])
    rows: list[list[str]] = []
    # The position before each case's first: most start at 0, a few below it.
    last = {case: draw(st.sampled_from([-1, -1, -1, -4, -1026])) for case in ids}
    for case, length in draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(1, 4)),
                                      max_size=6)):
        for _ in range(length):
            step = draw(st.sampled_from([1, 1, 1, 2, 0]))  # 0 repeats a position
            last[case] += step
            spelled = str(last[case])
            if draw(st.integers(0, 9)) == 0:
                spelled = _ODD_SPELLINGS[draw(st.sampled_from(sorted(_ODD_SPELLINGS)))].format(spelled)
            rows.append([case, draw(labels)] + [spelled] * with_pos)
    if draw(st.integers(0, 3)) == 0:
        wide = [f"w{i}" for i in range(260)]
        rows += [["99", label] + [str(p)] * with_pos for p, label in enumerate(wide)]
    if rows and draw(st.integers(0, 4)) == 0:
        rows = draw(st.permutations(rows))
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=_coded_csv_documents(), chunk=st.sampled_from([1, 16, 1 << 16]))
@example(text="case_id,activity,position\n0,a,0\n0,b,+1\n0,c, 2\n0,d,03\n", chunk=1 << 16)
@example(text="case_id,activity,position\n0,a,0\n0,b,5\n1,c,0\n0,d,9\n", chunk=1 << 16)
@example(text="case_id,activity,position\n0,a,5\n0,b,9\n0,c,7\n", chunk=1 << 16)
@example(text="case_id,activity,position\n0,a,-1\n0,b,0\n", chunk=1 << 16)
@example(text="case_id,activity,position\n0,a,1022\n0,b,1023\n0,c,1024\n", chunk=1)
@example(text="case_id,activity,position\n0,a,-3\n1,x,0\n0,b,1022\n1,y,1\n0,c,0\n", chunk=1 << 16)
@example(text="case_id,activity,position\n0,a,-1025\n1,x,0\n0,b,0\n0,c,1\n1,y,1\n0,d,0\n",
         chunk=1 << 16)
def test_coded_reader_gives_the_row_readers_log(text, chunk):
    """Every document loads to the log the row reader gives, or to its
    error; a coded log answers `traces`, `alphabet`, `get`, hashing,
    pickling and coding as the same log built from its traces does."""
    saved, ingest._CSV_CHUNK = ingest._CSV_CHUNK, chunk
    try:
        _check_coded_reader(text)
    finally:
        ingest._CSV_CHUNK = saved


def _check_coded_reader(text):
    expected = _outcome(ingest._parse_csv_rows, text)
    assert _outcome(parse_csv, text) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_text(text, encoding="utf-8")
        got = _outcome(load_log, path)
    if not isinstance(expected, EventLog):
        assert got == (f"{path}: {expected[0]}", expected[1])
        return
    plain = EventLog(expected.traces)
    # Fresh coded logs: each question is the first one it is asked.
    assert parse_csv(text).alphabet == plain.alphabet
    assert hash(parse_csv(text)) == hash(plain)
    assert pickle.loads(pickle.dumps(parse_csv(text))).traces == plain.traces
    log = parse_csv(text)
    assert len(log) == len(plain) and log.trace_ids == tuple(tr.id for tr in plain.traces)
    assert repr(log) == repr(plain)
    named = [Activity("a"), Activity("zz"), *plain.alphabet[-2:]]
    assert code_events(log, named) == code_events(plain.traces, named)
    for trace in plain.traces:
        assert log.get(trace.id) == trace
    assert log.traces == plain.traces and log == plain == got


# --------------------------------------------------------------------------
# Reports and file dispatch
# --------------------------------------------------------------------------

def _report():
    log = _log("ab", "aw")
    model = DeclareModel((Constraint(0, TemplateKind.RESPONSE, A, B),))
    return conformance_check(log, model)


def test_report_json_layout():
    data = write_report(_report(), "json", log_name="L.lp", model_name="M.lp")
    doc = json.loads(data)
    assert list(doc) == ["log", "model", "backend", "matrix", "compliant", "supports"]
    assert doc["matrix"] == {"0": {"0": True}, "1": {"0": False}}
    assert doc["compliant"] == [0]
    assert doc["supports"] == {"0": "1/2"}


def test_report_fractions_keep_denominator():
    """Whole-number supports still print as fractions, so 1 reads 1/1."""
    log = _log("ab")
    model = DeclareModel((Constraint(0, TemplateKind.RESPONSE, A, B),))
    doc = json.loads(write_report(conformance_check(log, model), "json"))
    assert doc["supports"] == {"0": "1/1"}


def test_report_bytes_deterministic():
    one = write_report(_report(), "json", log_name="L", model_name="M")
    two = write_report(_report(), "json", log_name="L", model_name="M")
    assert one == two


def test_report_csv_layout():
    text = write_report(_report(), "csv").decode()
    lines = text.strip().split("\n")
    assert lines[0] == "trace_id,0,compliant"
    assert lines[1] == "0,1,1"
    assert lines[2] == "1,0,0"


def _reference_report_json(report, log_name, model_name):
    """The report layout as json.dumps writes it: the oracle for write_report."""
    tids = sorted(report.trace_ids)
    cids = sorted(report.constraint_ids)
    doc = {
        "log": log_name,
        "model": model_name,
        "backend": report.backend.value,
        "matrix": {
            str(tid): {str(cid): report.matrix[(tid, cid)] for cid in cids} for tid in tids
        },
        "compliant": sorted(report.compliant),
        "supports": {
            str(cid): f"{report.supports[cid].numerator}/{report.supports[cid].denominator}"
            for cid in cids
        },
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _seeded_log_and_model(seed):
    """Trace ids neither contiguous nor in input order; constraint ids likewise.

    Every kind but the two choices holds on a trace without its activities,
    so the short traces make some rows compliant.
    """
    rng = random.Random(seed)
    tids = rng.sample(range(1000), 60)
    log = EventLog(
        tuple(Trace.from_labels(tid, rng.choices("abcw", k=rng.randint(0, 12))) for tid in tids)
    )
    choices = (TemplateKind.CHOICE, TemplateKind.EXCLUSIVE_CHOICE)
    kinds = [k for k in TemplateKind if k not in choices]
    cids = rng.sample(range(200), 2 * len(kinds))
    pairs = [(A, B), (C, A)] * len(kinds)
    model = DeclareModel(
        tuple(Constraint(cid, kinds[i // 2], *pairs[i]) for i, cid in enumerate(cids))
    )
    return log, model


_ODD_NAMES = ('quote" back\\ nl\n tab\t ctl\x01 del\x7f', "é 日 🙂 \u2028")


def test_report_json_bytes_match_json_dumps():
    log, model = _seeded_log_and_model(11)
    assert list(log.traces) != sorted(log.traces, key=lambda tr: tr.id)
    seen = set()
    for backend in Backend:
        report = conformance_check(log, model, backend)
        assert 0 < len(report.compliant) < len(log)
        for names in (("L.csv", "M.lp"), _ODD_NAMES, ("", "")):
            got = write_report(report, "json", log_name=names[0], model_name=names[1])
            assert got == _reference_report_json(report, *names), (backend, names)
            seen.add(got)
    assert len(seen) == 9  # the backend name differs, so each report is its own

    no_compliant = DeclareModel((Constraint(3, TemplateKind.RESPONSE, A, B),
                                 Constraint(1, TemplateKind.CHOICE, C, C)))
    shuffled = EventLog((Trace.from_labels(9, "a"), Trace.from_labels(2, "ba"),
                         Trace.from_labels(5, "aab")))
    cases = {
        "empty model": (log, DeclareModel(())),
        "empty log": (EventLog(()), model),
        "empty log and model": (EventLog(()), DeclareModel(())),
        "no compliant trace": (shuffled, no_compliant),
    }
    for what, (case_log, case_model) in cases.items():
        for backend in Backend:
            report = conformance_check(case_log, case_model, backend)
            got = write_report(report, "json", log_name=_ODD_NAMES[0], model_name=_ODD_NAMES[1])
            assert got == _reference_report_json(report, *_ODD_NAMES), (what, backend)
    report = conformance_check(*cases["no compliant trace"])
    assert b'"compliant": [],' in write_report(report, "json")
    assert write_report(report, "csv") == b"trace_id,1,3,compliant\n2,0,0,0\n5,0,1,0\n9,0,0,0\n"
    report = conformance_check(*cases["empty model"])
    assert b'"supports": {}\n}\n' in write_report(report, "json")


def _reference_report_csv(report):
    """The CSV report written cell by cell: the oracle for write_report."""
    tids = sorted(report.trace_ids)
    cids = sorted(report.constraint_ids)
    lines = [",".join(["trace_id", *map(str, cids), "compliant"])]
    for tid in tids:
        cells = [int(report.matrix[tid, cid]) for cid in cids]
        lines.append(",".join(map(str, [tid, *cells, int(tid in report.compliant)])))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_report_csv_bytes_match_cell_by_cell_writer():
    """Ids out of order in the log and the model; a report whose matrix is
    a plain dict writes the same bytes as the view over the columns."""
    log, model = _seeded_log_and_model(12)
    for backend in Backend:
        report = conformance_check(log, model, backend)
        plain = CheckReport(
            report.backend, report.trace_ids, report.constraint_ids, dict(report.matrix),
            report.compliant, report.supports,
        )
        for r in (report, plain):
            assert write_report(r, "csv") == _reference_report_csv(report), backend
        assert write_report(plain, "json") == write_report(report, "json"), backend


def test_load_save_dispatch_by_suffix(tmp_path):
    log = _log("abc", "ba")
    for name in ("t.lp", "t.csv", "t.xes", "t.xes.gz"):
        path = tmp_path / name
        save_log(log, path)
        assert load_log(path) == log, name


_HOSTILE = ['"', "\\", "%", ",", "<", ">", "&", "'", "\r", "\n", "\t", " ", "é", "日", "🙂"]
# XML 1.0 cannot carry other control characters, surrogates or U+FFFE/U+FFFF.
_LABELS = st.one_of(
    st.text(
        st.one_of(
            st.sampled_from(_HOSTILE),
            st.characters(blacklist_categories=("Cs", "Cc", "Cn")),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(-20, 20).map(str),
    st.sampled_from(["007", "a", "x_1", "\r\n"]),
).filter(lambda label: label != "*")


@settings(max_examples=80, deadline=None)
@given(traces=st.lists(st.lists(_LABELS, min_size=1, max_size=4), min_size=1, max_size=3))
def test_hostile_labels_survive_every_file_format(traces):
    log = EventLog(tuple(Trace.from_labels(i, labels) for i, labels in enumerate(traces)))
    assert parse_csv(write_csv(log)) == log
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("t.lp", "t.xes", "t.xes.gz", "t.csv"):
            path = Path(tmp) / name
            save_log(log, path)
            assert load_log(path) == log, name


def test_cr_and_crlf_files_keep_error_line_numbers(tmp_path):
    bad_lp = tmp_path / "bad.lp"
    for eol in (b"\r\n", b"\r"):
        bad_lp.write_bytes(eol.join([b"trace(0,0,a).", b"trace(0,1,b).", b"trace(0,2,).", b""]))
        with pytest.raises(IngestError) as err:
            load_log(bad_lp)
        assert err.value.line == 3, eol
        assert str(err.value).startswith(f"{bad_lp}: line 3: "), eol
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_bytes(b"case_id,activity\r\n0,a\r\n0,b,9\r\n")
    for read in (load_log, parse_csv):
        with pytest.raises(IngestError, match="columns") as err:
            read(bad_csv)
        assert err.value.line == 3
        assert str(err.value).startswith(f"{bad_csv}: line 3: ")
        assert str(err.value).count(str(bad_csv)) == 1

    # A "%" comment ends at a lone "\r" too, so the facts after it are kept.
    commented_lp = tmp_path / "commented.lp"
    commented_lp.write_bytes(b"trace(0,0,a).\r% a comment\rtrace(0,1,b).\rtrace(1,0,c).\r")
    log = load_log(commented_lp)
    assert [[a.label for a in t.events] for t in log.traces] == [["a", "b"], ["c"]]
    commented_model = tmp_path / "model.lp"
    commented_model.write_bytes(
        b'% two constraints\rconstraint(0,"Response").\r% binds\r'
        b'bind(0,arg_0,a).\rbind(0,arg_1,b).\rconstraint(1,"Precedence").\r'
        b"bind(1,arg_0,c).\rbind(1,arg_1,d).\r"
    )
    model = load_model(commented_model)
    assert model.get(0).kind is TemplateKind.RESPONSE
    assert (model.get(0).activation.label, model.get(0).target.label) == ("a", "b")
    assert model.get(1).kind is TemplateKind.PRECEDENCE
    assert (model.get(1).activation.label, model.get(1).target.label) == ("c", "d")

    # A CR-only CSV has no "\n"; loading it must not treat its text as a path.
    cr_csv = tmp_path / "cr.csv"
    rows = [b"case_id,activity"] + [b"%d,activity_%d" % (i // 4, i) for i in range(40)]
    cr_csv.write_bytes(b"\r".join(rows) + b"\r")
    assert cr_csv.stat().st_size > 300
    log = load_log(cr_csv)
    assert len(log.traces) == 10
    assert [a.label for a in log.traces[9].events] == [f"activity_{i}" for i in range(36, 40)]
    assert parse_csv(cr_csv.read_bytes().decode()) == log
    assert parse_xes(write_xes(log).replace("\n", "")) == log


def test_parse_csv_errors_name_the_physical_line():
    """A quoted label may span lines; errors name the line a row starts on.
    A repeated position names the repeating row, and colliding case ids the
    first row of the later case; the earliest fault wins, a row fault after
    it included."""
    quoted = 'case_id,activity\n0,"a\nb"\n'
    header = "case_id,activity,position\n"
    cases = [
        (quoted + "0,b,9\n", "expected 2 columns", 4),
        (quoted + ",b\n", "empty case id", 4),
        (quoted + "0,*\n", "reserved", 4),
        ('case_id,activity,position\n0,"a\nb"\n', "expected 3 columns", 2),
        ('case_id,activity,position\n0,"a\r\nb",0\r\n\r\n0,b,x\r\n', "bad position", 5),
        (header + "0,a,0\n0,b,0\n", "case '0' repeats a position", 3),
        ("case_id,activity\n1,a\n01,b\n", "case ids collide", 3),
        (header + "0,a,0\n1,b,0\n0,c,1\n1,d,0\n0,e,1\n", "case '1' repeats a position", 5),
        (header + "1,a,0\n1,b,0\n01,c,0\n", "case '1' repeats a position", 3),
        (header + "1,a,0\n01,c,0\n1,b,0\n", "case ids collide", 3),
        (header + "0,a,0\n0,b,0\n0,*,1\n", "repeats a position", 3),
        (header + "0,a,0\n0,*,1\n0,b,0\n", "reserved", 3),
        (header + "0,a,0\n0,b,0\n0,c,x\n", "repeats a position", 3),
        ("case_id,activity\n1,a\n01,b\n1,c,d\n", "case ids collide", 3),
    ]
    for text, message, line in cases:
        with pytest.raises(IngestError, match=message) as err:
            parse_csv(text)
        assert err.value.line == line, text
        assert str(err.value).startswith(f"line {line}: "), text


def test_parse_csv_reports_the_first_fault_in_document_order():
    with pytest.raises(IngestError, match="reserved") as err:
        parse_csv("case_id,activity\n0,a\n0,*\n0," + "x" * 200_000 + "\n")
    assert err.value.line == 3
    with pytest.raises(IngestError, match="malformed CSV") as err:
        parse_csv("case_id,activity\n0,a\n0," + "x" * 200_000 + "\n0,*\n")
    assert err.value.line == 3


def test_parse_csv_reader_errors_are_ingest_errors():
    with pytest.raises(IngestError, match="malformed CSV"):
        parse_csv("case_id,activity\n0," + "x" * 200_000 + "\n")


def test_load_log_unknown_suffix(tmp_path):
    path = tmp_path / "log.parquet"
    path.write_text("x")
    with pytest.raises(IngestError, match="xes"):
        load_log(path)


def test_load_model_from_file(tmp_path):
    path = tmp_path / "m.lp"
    path.write_text('constraint(2,"Choice"). bind(2,arg_0,a). bind(2,arg_1,b).')
    model = load_model(path)
    assert model.get(2).kind is TemplateKind.CHOICE
