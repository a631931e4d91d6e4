"""Tests for the log, model, query, and report readers and writers."""

import gzip
import json
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from declarekit import ingest
from declarekit import (
    Activity,
    Backend,
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


def _reference_parse_factlog(text: str) -> EventLog:
    """The token-by-token reader the regex fast path replaced, kept as the
    oracle: the scanner reads every fact, then each is checked in order."""
    by_trace: dict[int, dict[int, Activity]] = {}
    lines: dict[int, int] = {}
    for fact in ingest._FactScanner(text).facts():
        if fact.name != "trace" or len(fact.args) != 3:
            raise IngestError(
                f"expected trace/3 facts, found {fact.name}/{len(fact.args)}", fact.line
            )
        tid = ingest._as_int(fact.args[0], fact.line)
        pos = ingest._as_int(fact.args[1], fact.line)
        act = ingest._as_activity(fact.args[2], fact.line)
        if tid < 0 or pos < 0:
            raise IngestError("trace id and position must be non-negative", fact.line)
        slots = by_trace.setdefault(tid, {})
        if pos in slots:
            raise IngestError(f"trace {tid} repeats position {pos}", fact.line)
        slots[pos] = act
        lines[tid] = fact.line
    traces = []
    for tid in sorted(by_trace):
        slots = by_trace[tid]
        missing = [p for p in range(len(slots)) if p not in slots]
        if missing:
            raise IngestError(f"trace {tid} is missing position {missing[0]}", lines[tid])
        traces.append(Trace(tid, tuple(slots[p] for p in range(len(slots)))))
    return EventLog(traces)


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
    assert _outcome(parse_factlog, text) == _outcome(_reference_parse_factlog, text)


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
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_bytes(b"case_id,activity\r\n0,a\r\n0,b,9\r\n")
    with pytest.raises(IngestError, match="columns") as err:
        load_log(bad_csv)
    assert err.value.line == 3

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
    """A quoted label may span lines; errors name the line a row starts on."""
    quoted = 'case_id,activity\n0,"a\nb"\n'
    cases = [
        (quoted + "0,b,9\n", "expected 2 columns", 4),
        (quoted + ",b\n", "empty case id", 4),
        (quoted + "0,*\n", "reserved", 4),
        ('case_id,activity,position\n0,"a\nb"\n', "expected 3 columns", 2),
        ('case_id,activity,position\n0,"a\r\nb",0\r\n\r\n0,b,x\r\n', "bad position", 5),
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
