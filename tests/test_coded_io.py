"""Logs move between documents in their coded form only: every reader path
reads what a trace-building reader reads without building a Trace, and
every writer writes the bytes that the trace-walking writers wrote."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from declarekit import (
    EventLog,
    IngestError,
    Trace,
    ingest,
    parse_csv,
    parse_factlog,
    parse_xes,
    write_csv,
    write_factlog,
    write_xes,
)
from oracles import (
    reference_parse_csv,
    reference_parse_factlog,
    reference_parse_xes,
    reference_write_csv,
    reference_write_factlog,
    reference_write_xes,
)

_HOSTILE = ['"', "\\", "\r", "\n", "\t", "&", "<", ">", "%", ",", " ", "{", "}", "é", "日", "🙂"]
# Labels that every format carries: XML 1.0 carries no other control character.
_LABELS = st.one_of(
    st.text(
        st.one_of(
            st.sampled_from(_HOSTILE),
            st.characters(blacklist_categories=("Cs", "Cc", "Cn")),
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(["a", "b", "x_1", "B", "&amp;", "{0}", "\r\n"]),
).filter(lambda label: label != "*")
# Labels that every reader's fast path reads.
_PLAIN = st.sampled_from(["a", "b", "c_1", "Order paid", "é"])
# Enough labels that the codes no longer fit in a byte.
_WIDE = [f"w{i}" for i in range(260)]


@st.composite
def _logs(draw, labels=_LABELS, min_events=0):
    """A log of a few traces with distinct ids in any order; a few draws add
    a trace of 260 labels."""
    traces = draw(st.lists(st.lists(labels, min_size=min_events, max_size=4), max_size=4))
    if draw(st.integers(0, 3)) == 0:
        traces.append(draw(st.permutations(_WIDE)))
    n = len(traces)
    ids = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n, unique=True))
    return EventLog(Trace.from_labels(tid, events) for tid, events in zip(ids, traces))


def _scanned_factlog(log: EventLog) -> str:
    """The facts of a log, spelled so that only the scanner reads them."""
    return "".join(
        f"trace( {trace.id} , {pos} , {ingest._fact_name(act.label)} ) .\n"
        for trace in log.traces
        for pos, act in enumerate(trace.events)
    )


def _written(write, log: EventLog):
    try:
        return write(log)
    except IngestError as exc:
        return str(exc)


def _read_back(log: EventLog) -> list[EventLog]:
    """The log, and what every reader path reads from a document of it."""
    xes = reference_write_xes(log).encode("utf-8")
    logs = [log, ingest._parse_xes_tree(xes), ingest._parse_xes_written(xes)]
    if all(log.traces):  # the lp and CSV forms hold no empty trace
        lp, csv_text = reference_write_factlog(log), reference_write_csv(log)
        logs += [parse_factlog(lp), parse_factlog(_scanned_factlog(log))]
        logs += [ingest._parse_csv_rows(csv_text), ingest._parse_csv_chunks(csv_text)]
    return [read for read in logs if read is not None]  # the fast paths decline some


@settings(max_examples=150, deadline=None)
@given(log=_logs())
@example(log=EventLog([Trace.from_labels(3, _WIDE), Trace.from_labels(1, ['a"\\\r\n\t&<>é'])]))
@example(log=EventLog([Trace.from_labels(2, ["a"]), Trace(0, ()), Trace(1, ())]))
def test_writers_write_the_bytes_of_the_trace_walking_writers(log):
    """Every writer gives the bytes, or the refusal of an empty trace, that
    the trace-walking writer gives, on logs from EventLog(traces) and from
    every reader, with codes in bytes or, past 254 labels, in a list."""
    assert isinstance(log.coded.events, bytes) == (len(log.alphabet) < 255)
    for read in _read_back(log):
        for write, reference in (
            (write_factlog, reference_write_factlog),
            (write_xes, reference_write_xes),
            (write_csv, reference_write_csv),
        ):
            assert _written(write, read) == _written(reference, read), write.__name__


# Per reader path: the document of a log that the path reads, the reader,
# the oracle, and the other path of that reader, which must not be taken
# (the XES reader tries its written-layout pass first, which declines CR LF).
_PATHS = {
    "lp_regex": (write_factlog, parse_factlog, reference_parse_factlog,
                 (ingest._FactScanner, "fact")),
    "lp_scanner": (_scanned_factlog, parse_factlog, reference_parse_factlog, None),
    "xes_written": (lambda log: write_xes(log).encode("utf-8"), parse_xes, reference_parse_xes,
                    (ingest, "_parse_xes_tree")),
    "xes_tree": (lambda log: write_xes(log).replace("\n", "\r\n").encode("utf-8"), parse_xes,
                 reference_parse_xes, None),
    "csv_chunks": (write_csv, parse_csv, reference_parse_csv, (ingest, "_parse_csv_rows")),
    "csv_rows": (lambda log: write_csv(log).replace("\n", "\r\n"), parse_csv, reference_parse_csv,
                 (ingest, "_parse_csv_chunks")),
}


def _refuse(*args):
    raise AssertionError("the reader took the other path")


@pytest.mark.parametrize("path", sorted(_PATHS))
@settings(max_examples=40, deadline=None)
@given(log=_logs(labels=_PLAIN, min_events=1))
def test_no_reader_builds_a_trace(path, log):
    """Each reader path reads the log that a trace-building reader reads,
    and constructs no Trace on the way."""
    document, read, oracle, other = _PATHS[path]
    text = document(log)
    expected = oracle(text)
    if path == "xes_tree":
        assert ingest._parse_xes_written(text) is None
    calls = []
    init = Trace.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Trace, "__init__", counted)
        if other is not None:
            patch.setattr(*other, _refuse)
        got = read(text)
    assert calls == []
    assert got == expected
