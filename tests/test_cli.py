"""End-to-end tests of the command line interface via subprocess."""

import gzip
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import declarekit

FIXTURES = Path(__file__).parent / "fixtures"

# The directory holding the ``declarekit`` this process imported; the CLI
# subprocess must run the same code.
PACKAGE_ROOT = Path(declarekit.__file__).resolve().parents[1]

LOG = """\
trace(0,0,a). trace(0,1,b). trace(0,2,c).
trace(1,0,a). trace(1,1,c). trace(1,2,b).
trace(2,0,b). trace(2,1,c). trace(2,2,a).
"""

MODEL = """\
constraint(0,"Response"). bind(0,arg_0,a). bind(0,arg_1,b).
constraint(1,"Precedence"). bind(1,arg_0,a). bind(1,arg_1,c).
"""


def run_python(*args, cwd=None):
    # An inherited relative PYTHONPATH (such as ``src``) does not resolve
    # from ``cwd``, so the absolute package root goes first.
    paths = [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def run_cli(*args, cwd=None):
    return run_python("-m", "declarekit.cli", *args, cwd=cwd)


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "log.lp").write_text(LOG)
    (tmp_path / "model.lp").write_text(MODEL)
    return tmp_path


def test_check_summary_line(workdir):
    out = run_cli("check", "--log", "log.lp", "--model", "model.lp", cwd=workdir)
    assert out.returncode == 0
    assert re.fullmatch(
        r"2/3 constraints=2 backend=direct elapsed=\d+\.\d{3}s\n", out.stdout
    )


def test_check_writes_report(workdir):
    out = run_cli(
        "check", "--log", "log.lp", "--model", "model.lp", "--out", "rep.json",
        cwd=workdir,
    )
    assert out.returncode == 0
    doc = json.loads((workdir / "rep.json").read_text())
    assert doc["compliant"] == [0, 1]
    assert doc["supports"] == {"0": "2/3", "1": "2/3"}


def test_check_report_identical_across_runs_and_formats(workdir):
    out = run_cli("convert", "--in", "log.lp", "--out", "log.csv", cwd=workdir)
    assert out.returncode == 0, out.stderr
    for log, name in (("log.lp", "one.json"), ("log.lp", "two.json"), ("log.csv", "csv.json")):
        out = run_cli(
            "check", "--log", log, "--model", "model.lp", "--out", name,
            cwd=workdir,
        )
        assert out.returncode == 0, out.stderr
    assert (workdir / "one.json").read_bytes() == (workdir / "two.json").read_bytes()
    from_lp = json.loads((workdir / "one.json").read_text())
    from_csv = json.loads((workdir / "csv.json").read_text())
    assert from_lp.pop("log") == "log.lp" and from_csv.pop("log") == "log.csv"
    assert from_lp == from_csv


def test_check_format_goes_with_out(workdir):
    """--format picks the report's format, so without --out, where it
    would be ignored, it exits 3; --out alone writes JSON."""
    from declarekit import conformance_check, load_log, load_model, write_report

    check = ("check", "--log", "log.lp", "--model", "model.lp")
    out = run_cli(*check, "--format", "csv", cwd=workdir)
    assert out.returncode == 3
    assert out.stderr == "declarekit: --format goes with --out\n"
    assert out.stdout == ""
    report = conformance_check(load_log(workdir / "log.lp"), load_model(workdir / "model.lp"))
    for name, extra, fmt in (("r.json", (), "json"), ("r.csv", ("--format", "csv"), "csv")):
        out = run_cli(*check, "--out", name, *extra, cwd=workdir)
        assert out.returncode == 0, out.stderr
        want = write_report(report, fmt, log_name="log.lp", model_name="model.lp")
        assert (workdir / name).read_bytes() == want, fmt


def test_check_threads_flag_is_gone(workdir):
    out = run_cli(
        "check", "--log", "log.lp", "--model", "model.lp", "--threads", "2",
        cwd=workdir,
    )
    assert out.returncode == 3
    assert "--threads" in out.stderr


def test_check_missing_file_exits_two(workdir):
    out = run_cli("check", "--log", "nope.lp", "--model", "model.lp", cwd=workdir)
    assert out.returncode == 2
    assert "nope.lp" in out.stderr


def test_unreadable_input_or_output_exits_two(workdir):
    """A directory for a file, a .xes.gz that is not gzip, text that is
    not UTF-8, a .xes that is not XML and a model read as a log each end
    in one declarekit: line that names the file, and exit 2."""
    (workdir / "dir.lp").mkdir()
    (workdir / "bad.xes.gz").write_bytes(b"trace(0,0,a).\n")
    (workdir / "bad.xes").write_bytes(b"trace(0,0,a).\n")
    (workdir / "bad.csv").write_bytes(b"case_id,activity\n0,\xff\n")
    (workdir / "bad.lp").write_bytes(b'trace(0,0,"\xff").\n')
    for name, args in (
        ("dir.lp", ("check", "--log", "dir.lp", "--model", "model.lp")),
        ("dir.lp", ("check", "--log", "log.lp", "--model", "dir.lp")),
        ("dir.lp", ("check", "--log", "log.lp", "--model", "model.lp", "--out", "dir.lp")),
        ("bad.xes.gz", ("check", "--log", "bad.xes.gz", "--model", "model.lp")),
        ("bad.xes", ("check", "--log", "bad.xes", "--model", "model.lp")),
        ("model.lp", ("check", "--log", "model.lp", "--model", "log.lp")),
        ("bad.lp", ("check", "--log", "log.lp", "--model", "bad.lp")),
        ("bad.csv", ("convert", "--in", "bad.csv", "--out", "out.lp")),
        ("bad.lp", ("convert", "--in", "bad.lp", "--out", "out.csv")),
        ("bad.lp", ("query", "--log", "log.lp", "--query", "bad.lp", "--support", "1")),
    ):
        out = run_cli(*args, cwd=workdir)
        assert out.returncode == 2, args
        assert out.stderr.startswith("declarekit: ") and out.stderr.count("\n") == 1, args
        assert name in out.stderr, args


def test_check_malformed_log_exits_two(workdir):
    (workdir / "bad.lp").write_text("trace(0,1,a).")
    out = run_cli("check", "--log", "bad.lp", "--model", "model.lp", cwd=workdir)
    assert out.returncode == 2
    assert "missing position" in out.stderr


def test_huge_integer_in_lp_log_exits_two(workdir):
    from test_ingest import huge_integer

    (workdir / "huge.lp").write_text(f"trace(0,0,a).\ntrace({huge_integer()},0,a).\n")
    for args in (
        ("convert", "--in", "huge.lp", "--out", "huge.csv"),
        ("check", "--log", "huge.lp", "--model", "model.lp"),
    ):
        out = run_cli(*args, cwd=workdir)
        assert out.returncode == 2, args
        assert "line 2: integer of" in out.stderr, args


def test_huge_case_id_in_csv_log_exits_two(workdir):
    from test_ingest import huge_integer

    (workdir / "huge.csv").write_text(f"case_id,activity\n7,a\n{huge_integer()},b\n")
    for args in (
        ("convert", "--in", "huge.csv", "--out", "huge.lp"),
        ("check", "--log", "huge.csv", "--model", "model.lp"),
    ):
        out = run_cli(*args, cwd=workdir)
        assert out.returncode == 2, args
        assert "line 3: integer of" in out.stderr, args
    assert not (workdir / "huge.lp").exists()


def test_unknown_backend_exits_three(workdir):
    out = run_cli(
        "check", "--log", "log.lp", "--model", "model.lp", "--backend", "magic",
        cwd=workdir,
    )
    assert out.returncode == 3
    assert "direct, tree, dfa" in out.stderr


def test_unknown_template_exits_three_and_lists_names(workdir):
    out = run_cli(
        "query", "--log", "log.lp", "--template", "Never", "--support", "1/2",
        cwd=workdir,
    )
    assert out.returncode == 3
    for name in ("Choice", "ExclusiveChoice", "AlternateSuccession", "Coexistence"):
        assert name in out.stderr


def test_query_prints_sorted_answers(workdir):
    out = run_cli(
        "query", "--log", "log.lp", "--template", "RespondedExistence",
        "--bind", "arg_0=a", "--support", "2/3",
        cwd=workdir,
    )
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "?arg_1=a support=1/1"
    assert "?arg_1=b support=1/1" in lines
    assert all(re.fullmatch(r"\?arg_1=\w+ support=\d+/\d+", ln) for ln in lines)


def test_query_json_output(workdir):
    out = run_cli(
        "query", "--log", "log.lp", "--template", "Response",
        "--bind", "arg_0=a", "--domain", "arg_1=b,c",
        "--support", "1/3", "--out", "ans.json",
        cwd=workdir,
    )
    assert out.returncode == 0
    doc = json.loads((workdir / "ans.json").read_text())
    assert doc["threshold"] == "1/3"
    assert {"binding": {"arg_1": "b"}, "support": "2/3"} in doc["answers"]


def test_query_answers_a_repeated_domain_value_once(workdir):
    (workdir / "ab.lp").write_text("trace(0,0,a). trace(0,1,b).\n")
    (workdir / "q.lp").write_text(
        'constraint(0,"Response"). bind(0,arg_0,a). var_bind(0,arg_1,var(y)).\n'
        "domain(var(y),b). domain(var(y),b).\n"
    )
    for args, line in (
        (("--template", "Response", "--bind", "arg_0=a", "--domain", "arg_1=b,b"),
         "?arg_1=b support=1/1\n"),
        (("--query", "q.lp"), "?y=b support=1/1\n"),
    ):
        out = run_cli("query", "--log", "ab.lp", *args, "--support", "1", cwd=workdir)
        assert out.returncode == 0, args
        assert out.stdout == line, args


def test_query_document_restricting_no_variable_exits_two(workdir):
    (workdir / "q.lp").write_text(
        'constraint(0,"Response"). bind(0,arg_0,a). var_bind(0,arg_1,var(y)).\n'
        "domain(var(yy),b).\n"
    )
    out = run_cli("query", "--log", "log.lp", "--query", "q.lp", "--support", "1", cwd=workdir)
    assert out.returncode == 2
    assert out.stderr == (
        "declarekit: q.lp: line 2: domain/2 restricts var(yy), which no term uses\n"
    )
    assert out.stdout == ""


def test_slot_given_twice_exits_three(workdir):
    query = ("query", "--log", "log.lp", "--template", "Response", "--support", "1/3")
    generate = ("generate", "--template", "Response", "--n", "2", "--len", "3",
                "--out", "gen.lp")
    for args, message in (
        ((*query, "--bind", "arg_0=a", "--bind", "arg_0=c"),
         "--bind arg_0 given more than once"),
        ((*query, "--bind", "arg_0=a", "--domain", "arg_0=c"),
         "--domain arg_0 restricts a slot that --bind fixes"),
        ((*query, "--domain", "arg_1=b", "--domain", "arg_1=c"),
         "--domain arg_1 given more than once"),
        ((*generate, "--bind", "arg_1=a", "--bind", "arg_1=b"),
         "--bind arg_1 given more than once"),
    ):
        out = run_cli(*args, cwd=workdir)
        assert out.returncode == 3, args
        assert out.stderr == f"declarekit: {message}\n", args
    assert not (workdir / "gen.lp").exists()


def test_query_rejects_arguments_it_would_ignore(workdir):
    """A query document fixes its own slots, and a domain must restrict a
    variable of the template."""
    (workdir / "q.lp").write_text(
        'constraint(0,"Response"). bind(0,arg_0,a). var_bind(0,arg_1,var(y)).\n'
    )
    document = ("query", "--log", "log.lp", "--query", "q.lp", "--support", "1")
    template = ("query", "--log", "log.lp", "--template", "Response", "--support", "1/3")
    for args, message in (
        ((*document, "--bind", "arg_1=zz"), "--bind and --domain go with --template"),
        ((*document, "--domain", "y=zz"), "--bind and --domain go with --template"),
        ((*template, "--domain", "nosuch=zz"), "--domain nosuch names no variable"),
    ):
        out = run_cli(*args, cwd=workdir)
        assert out.returncode == 3, args
        assert out.stderr.startswith(f"declarekit: {message}") and out.stderr.count("\n") == 1
        assert out.stdout == "", args
    assert run_cli(*document, cwd=workdir).returncode == 0


def test_query_needs_exactly_one_source(workdir):
    out = run_cli("query", "--log", "log.lp", "--support", "1/2", cwd=workdir)
    assert out.returncode == 3


def test_compile_template_facts(workdir):
    out = run_cli("compile", "--template", "Response", "--facts-json", "-", cwd=workdir)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["kind"] == "Response"
    assert doc["initial"] == 0
    assert doc["accepting"] == [0]
    assert len(doc["transitions"]) == 6


def test_compile_formula_dot(workdir):
    out = run_cli("compile", "--formula", "G(a -> F b)", "--dot", "-", cwd=workdir)
    assert out.returncode == 0
    assert out.stdout.startswith("digraph")


def test_compile_bad_formula_exits_two(workdir):
    for formula, offset in (("G(a ->", 6), ('"*"', 0), ('F ""', 2)):
        out = run_cli("compile", "--formula", formula, "--facts-json", "-", cwd=workdir)
        assert out.returncode == 2, formula
        assert out.stderr.endswith(f"(at offset {offset})\n"), out.stderr
        assert out.stderr.count("\n") == 1 and out.stdout == "", formula


def test_compile_deep_formula_exits_two_past_the_nesting_bound(workdir):
    from test_ltlf import DEEP_SHAPES

    from declarekit.ltlf import _MAX_NESTING

    for name, (text, offset) in DEEP_SHAPES.items():
        out = run_cli("compile", "--formula", text(_MAX_NESTING), "--facts-json", "-", cwd=workdir)
        assert out.returncode == 0, (name, out.stderr)
        out = run_cli("compile", "--formula", text(_MAX_NESTING + 1), "--dot", "-", cwd=workdir)
        assert out.returncode == 2, name
        assert out.stderr == (
            f"declarekit: formula nests deeper than {_MAX_NESTING} levels"
            f" (at offset {offset(_MAX_NESTING + 1)})\n"
        ), name
        assert out.stdout == "", name


def test_compile_over_state_budget_exits_three(workdir):
    formula = "F(a & X X X X X X X X X X X X (Xw false))"
    out = run_cli("compile", "--formula", formula, "--dot", "-", cwd=workdir)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr.startswith("declarekit: more than 4096 states while compiling")
    assert out.stderr.count("\n") == 1


def test_generate_writes_log_and_manifest(workdir):
    out = run_cli(
        "generate", "--template", "Response", "--n", "8", "--len", "6",
        "--alphabet", "4", "--seed", "5", "--out", "gen.lp",
        cwd=workdir,
    )
    assert out.returncode == 0
    assert (workdir / "gen.lp").exists()
    manifest = (workdir / "gen.labels.csv").read_text().strip().split("\n")
    assert manifest[0] == "trace_id,label"
    assert len(manifest) == 9


def test_generate_impossible_config_exits_three(workdir):
    out = run_cli(
        "generate", "--template", "Response", "--n", "2", "--len", "1",
        "--alphabet", "4", "--seed", "0", "--out", "gen.lp",
        cwd=workdir,
    )
    assert out.returncode == 3
    assert "positive" in out.stderr


def test_generate_is_deterministic(workdir):
    for name in ("g1.lp", "g2.lp"):
        out = run_cli(
            "generate", "--template", "ChainResponse", "--n", "10", "--len", "7",
            "--alphabet", "5", "--seed", "21", "--out", name,
            cwd=workdir,
        )
        assert out.returncode == 0, out.stderr
    assert (workdir / "g1.lp").read_bytes() == (workdir / "g2.lp").read_bytes()


def test_generate_writes_the_format_its_suffix_names(workdir):
    """--out picks the log format by its suffix, as convert does: each log
    suffix loads back as the .lp log, and an unknown suffix exits 2 and
    writes neither the log nor its labels."""
    from declarekit import load_log

    generate = ("generate", "--template", "Response", "--n", "6", "--len", "5",
                "--alphabet", "4", "--seed", "3", "--out")
    for name in ("g.lp", "g.csv", "g.xes", "g.xes.gz"):
        out = run_cli(*generate, name, cwd=workdir)
        assert out.returncode == 0, (name, out.stderr)
    want = load_log(workdir / "g.lp")
    assert len(want) == 6
    for name in ("g.csv", "g.xes", "g.xes.gz"):
        assert load_log(workdir / name) == want, name
    assert (workdir / "g.csv").read_text().startswith("case_id,activity")
    assert gzip.decompress((workdir / "g.xes.gz").read_bytes()) == (workdir / "g.xes").read_bytes()
    out = run_cli(*generate, "bad.txt", cwd=workdir)
    assert out.returncode == 2
    assert out.stderr == (
        "declarekit: cannot infer log format from suffix of 'bad.txt'; "
        "expected .lp, .csv, .xes, or .xes.gz\n"
    )
    assert not (workdir / "bad.txt").exists()
    assert not (workdir / "bad.labels.csv").exists()


def test_generate_writes_labels_beside_the_log_without_its_suffix(workdir):
    """The label file of <stem>.lp, .csv, .xes or .xes.gz is <stem>.labels.csv."""
    generate = ("generate", "--template", "Response", "--n", "4", "--len", "5",
                "--alphabet", "4", "--seed", "3", "--out")
    manifests = set()
    for suffix in ("lp", "csv", "xes", "xes.gz"):
        stem = "g_" + suffix.replace(".", "_")
        out = run_cli(*generate, f"{stem}.{suffix}", cwd=workdir)
        assert out.returncode == 0, (suffix, out.stderr)
        assert out.stdout.endswith(f"(labels in {stem}.labels.csv)\n"), suffix
        manifests.add((workdir / f"{stem}.labels.csv").read_text(encoding="utf-8"))
    assert manifests == {"trace_id,label\n0,positive\n1,positive\n2,negative\n3,negative\n"}
    assert not list(workdir.glob("*.xes.labels.csv"))


def test_convert_round_trip(workdir):
    assert run_cli("convert", "--in", "log.lp", "--out", "log.xes", cwd=workdir).returncode == 0
    assert run_cli("convert", "--in", "log.xes", "--out", "back.lp", cwd=workdir).returncode == 0
    from declarekit import parse_factlog

    assert parse_factlog((workdir / "back.lp").read_text()) == parse_factlog(LOG)


def test_convert_from_fixture_xes(workdir):
    out = run_cli(
        "convert", "--in", str(FIXTURES / "orders.xes"), "--out", "orders.lp",
        cwd=workdir,
    )
    assert out.returncode == 0
    text = (workdir / "orders.lp").read_text()
    assert 'trace(0,0,"receive order").' in text


def _xes_error_cases():
    """(name, document bytes, message) per pinned XES fault. The messages
    are the ElementTree reader's; every reader of the format keeps them."""
    doc = declarekit.write_xes(declarekit.EventLog((
        declarekit.Trace.from_labels(0, "ab"), declarekit.Trace.from_labels(1, "c"),
    )))
    return [
        ("notxml.xes", b"trace(0,0,a).\n",
         "malformed XES document: not well-formed (invalid token): line 1, column 5"),
        ("cut.xes", doc[:-20].encode(),
         "malformed XES document: unclosed token: line 16, column 4"),
        ("root.xes", b"<notes></notes>", "expected a <log> root element, found <notes>"),
        ("noname.xes",
         doc.replace('"concept:name" value="b"', '"org:resource" value="b"').encode(),
         "trace 0 event 1 has no concept:name"),
        ("reserved.xes", doc.replace('value="b"', 'value="*"').encode(),
         'trace 0 event 1: the label "*" is reserved and cannot name an activity'),
        ("empty.xes", doc.replace('value="c"', 'value=""').encode(),
         "trace 1 event 0: activity label must be a non-empty string"),
        ("notgzip.xes.gz", b"trace(0,0,a).\n", "Not a gzipped file (b'tr')"),
        ("cutgzip.xes.gz", gzip.compress(doc.encode())[:-12],
         "Compressed file ended before the end-of-stream marker was reached"),
    ]


def test_xes_error_messages_are_pinned(workdir):
    """Each fault has one exact message: from parse_xes on the document (a
    .gz only as a file), with the path at its head from a file, and in the
    one stderr line of a convert that exits 2."""
    for name, data, message in _xes_error_cases():
        path = workdir / name
        path.write_bytes(data)
        if not name.endswith(".gz"):
            for source in (data, data.decode("utf-8", "replace")):
                with pytest.raises(declarekit.IngestError) as err:
                    declarekit.parse_xes(source)
                assert str(err.value) == message, name
        with pytest.raises(declarekit.IngestError) as err:
            declarekit.parse_xes(path)
        assert str(err.value) == f"{path}: {message}", name
        out = run_cli("convert", "--in", name, "--out", "out.csv", cwd=workdir)
        assert out.returncode == 2, name
        assert out.stderr == f"declarekit: {name}: {message}\n", name
        assert not (workdir / "out.csv").exists(), name


def test_validate_reports_zero_disagreements(workdir):
    out = run_cli("validate", "--max-len", "4", cwd=workdir)
    assert out.returncode == 0
    assert "0 disagreements" in out.stdout


@pytest.mark.parametrize("flag", ["--max-len", "--samples"])
def test_validate_rejects_negative_counts(workdir, flag):
    out = run_cli("validate", flag, "-1", cwd=workdir)
    assert out.returncode == 3
    assert flag in out.stderr and "0 or more" in out.stderr
    assert out.stdout == ""


def test_no_subcommand_exits_three():
    out = run_cli()
    assert out.returncode == 3
    # `bench` is gone; check's summary line carries the elapsed time.
    out = run_cli("bench", "--log", "log.lp", "--model", "model.lp")
    assert out.returncode == 3
    assert "invalid choice: 'bench'" in out.stderr


def test_cli_resolves_the_names_the_package_exports():
    from declarekit import cli, ingest

    assert cli.load_log is ingest.load_log
    assert not hasattr(cli, "__path__")
    with pytest.raises(AttributeError):
        cli.no_such_name
    with pytest.raises(AttributeError):
        cli.automata  # a submodule the package resolves, but no exported name


IMPORT_SCOPE = """
import sys

import declarekit

assert not [m for m in sys.modules if m.startswith("declarekit.")], sorted(sys.modules)
assert set(declarekit.__all__) <= set(dir(declarekit))
try:
    declarekit.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown name resolved")

namespace = {}
exec("from declarekit import *", namespace)
for name in declarekit.__all__:
    defined = [
        getattr(sys.modules[m], name) for m in sys.modules
        if m.startswith("declarekit.") and name in vars(sys.modules[m])
    ]
    assert defined and all(namespace[name] is d for d in defined), name
    assert getattr(declarekit, name) is namespace[name], name
print(len(declarekit.__all__))
"""

COMMAND_SCOPE = """
import sys

from declarekit import cli

rc = cli.main({argv!r})
assert rc == 0, rc
loaded = [m for m in {absent!r} if m in sys.modules]
assert not loaded, loaded
print("ok")
"""

# A direct check loads neither the tree nor the dfa backend.
CHECK_SCOPE = COMMAND_SCOPE.format(
    argv=["check", "--log", "log.lp", "--model", "model.lp", "--out", "r.json"],
    absent=(
        "declarekit.loggen", "declarekit.xcheck", "statistics", "gzip", "xml.etree.ElementTree",
        "declarekit.ltlf", "declarekit.automata",
    ),
)


HEAVY_SCOPE = """
import sys

{run}
print(*(m for m in ("dataclasses", "inspect", "fractions", "decimal", "json") if m in sys.modules),
      sep=",")
"""


def test_commands_load_neither_dataclasses_nor_unused_fractions(workdir):
    """No command imports dataclasses (or inspect, which it pulls in).
    None of these reads a support, so none loads fractions (or decimal,
    which it pulls in), and none loads json: check writes its report and
    compile its facts without it. A module the bare interpreter already
    holds does not count."""
    bare = run_python("-c", HEAVY_SCOPE.format(run=""), cwd=workdir)
    assert bare.returncode == 0, bare.stderr
    preloaded = set(bare.stdout.strip().split(","))
    run = "from declarekit import cli\nassert cli.main({argv!r}) == 0"
    for argv in (
        ["compile", "--template", "Response", "--facts-json", "dfa.json"],
        ["convert", "--in", "log.lp", "--out", "log.xes"],
        ["generate", "--template", "Response", "--n", "2", "--len", "3", "--out", "g.lp"],
        ["validate", "--max-len", "2"],
        *(
            ["check", "--log", "log.lp", "--model", "model.lp", "--backend", backend,
             "--out", f"{backend}.json"]
            for backend in ("direct", "tree", "dfa")
        ),
    ):
        out = run_python("-c", HEAVY_SCOPE.format(run=run.format(argv=argv)), cwd=workdir)
        assert out.returncode == 0, (argv, out.stderr)
        loaded = set(out.stdout.splitlines()[-1].split(",")) - preloaded - {""}
        assert not loaded, (argv, loaded)


def test_package_names_resolve_on_first_use(workdir):
    out = run_python("-c", IMPORT_SCOPE, cwd=workdir)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(len(declarekit.__all__))


def test_check_imports_only_what_it_runs(workdir):
    out = run_python("-c", CHECK_SCOPE, cwd=workdir)
    assert out.returncode == 0, out.stderr
    assert out.stdout.endswith("\nok\n")


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["convert", "--in", "log.lp", "--out", "log.xes"],
         ("declarekit.tasks", "declarekit.direct", "declarekit.automata", "declarekit.ltlf")),
        (["compile", "--template", "Response", "--facts-json", "dfa.json"],
         ("declarekit.ingest", "declarekit.tasks", "declarekit.direct")),
        (["convert", "--in", "log.xes", "--out", "log.csv"],
         ("xml.etree.ElementTree", "gzip", "declarekit.tasks")),
        (["validate", "--max-len", "3"], ("declarekit.ingest",)),
    ],
    ids=["convert", "compile", "convert_xes", "validate"],
)
def test_commands_import_only_what_they_run(workdir, argv, absent):
    """A command loads only the modules it runs; write_xes's own layout
    is read without the XML parser, and a plain .xes without gzip; a
    validate that finds no disagreement writes no fact log."""
    from declarekit import load_log, save_log

    save_log(load_log(workdir / "log.lp"), workdir / "log.xes")
    out = run_python("-c", COMMAND_SCOPE.format(argv=argv, absent=absent), cwd=workdir)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "ok"
