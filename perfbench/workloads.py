"""The benchmark workloads: seeded inputs, command sequences, output checks.

Each workload writes its inputs into a work directory from the seed alone,
names the `declarekit` commands one job runs (in order, one process each),
and checks every command's output after the job, outside the timed region.
The program sees only the generated files and its argv.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
from pathlib import Path
from xml.etree import ElementTree

TEMPLATES = (
    "Choice", "Exclusive Choice", "Responded Existence", "Co-Existence",
    "Response", "Precedence", "Alternate Response", "Alternate Precedence",
    "Chain Response", "Chain Precedence", "Succession", "Alternate Succession",
    "Chain Succession",
)

N_ACTIVITIES = 20
LENGTHS = (5, 60)
# (activation rank, target rank) by Zipf frequency: one dense pair, one
# mixed, one rare. Ranks are fixed so every seed has the same density mix;
# the seed decides which label holds which rank, and the traces.
PAIR_RANKS = ((0, 1), (9, 4), (19, 14))
VALIDATE_SYMBOLS = 3  # xcheck sweeps traces over {a, b, w}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _ranked_labels(seed: int) -> list[str]:
    labels = [f"act_{i:02d}" for i in range(N_ACTIVITIES)]
    random.Random(f"{seed}/labels").shuffle(labels)
    return labels


def synth_traces(seed: int, stream: str, n_traces: int) -> list[list[str]]:
    """Traces with lengths uniform on LENGTHS and Zipf-like activity draws."""
    ranked = _ranked_labels(seed)
    weights = [1.0 / (rank + 1) for rank in range(N_ACTIVITIES)]
    rng = random.Random(f"{seed}/{stream}")
    return [rng.choices(ranked, weights, k=rng.randint(*LENGTHS)) for _ in range(n_traces)]


def write_csv_log(path: Path, traces: list[list[str]]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["case_id", "activity", "position"])
        for tid, events in enumerate(traces):
            for pos, label in enumerate(events):
                writer.writerow([tid, label, pos])


def model_constraints(seed: int) -> list[tuple[int, str, str, str]]:
    """(id, template, activation, target): 13 templates x 3 rank pairs."""
    ranked = _ranked_labels(seed)
    out = []
    for kind in TEMPLATES:
        for a, b in PAIR_RANKS:
            out.append((len(out), kind, ranked[a], ranked[b]))
    return out


def write_model(path: Path, constraints) -> None:
    lines = []
    for cid, kind, act, tgt in constraints:
        lines.append(f'constraint({cid},"{kind}").')
        lines.append(f"bind({cid},arg_0,{act}).")
        lines.append(f"bind({cid},arg_1,{tgt}).")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# Independent readers used by the output checks


_FACT_RE = re.compile(r'trace\((\d+),(\d+),("(?:[^"\\]|\\.)*"|[a-z][A-Za-z0-9_]*)\)\.')


def read_lp_log(path: Path) -> list[tuple[str, ...]]:
    traces: dict[int, dict[int, str]] = {}
    for tid, pos, label in _FACT_RE.findall(path.read_text(encoding="utf-8")):
        if label.startswith('"'):
            label = label[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        traces.setdefault(int(tid), {})[int(pos)] = label
    return [tuple(slots[p] for p in sorted(slots)) for _, slots in sorted(traces.items())]


def read_xes_log(path: Path) -> list[tuple[str, ...]]:
    root = ElementTree.parse(path).getroot()
    out = []
    for trace in root:
        if not trace.tag.endswith("trace"):
            continue
        events = []
        for event in trace:
            if event.tag.endswith("event"):
                events.append(next(a.get("value") for a in event
                                   if a.get("key") == "concept:name"))
        out.append(tuple(events))
    return out


def read_csv_log(path: Path) -> list[tuple[str, ...]]:
    traces: dict[int, dict[int, str]] = {}
    with path.open(encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for case, label, pos in rows:
            traces.setdefault(int(case), {})[int(pos)] = label
    return [tuple(slots[p] for p in sorted(slots)) for _, slots in sorted(traces.items())]


def satisfies_response(events, act: str, tgt: str) -> bool:
    pending = False
    for ev in events:
        if ev == tgt:
            pending = False
        if ev == act:
            pending = True
    return not pending


# --------------------------------------------------------------------------
# Workloads


class Workload:
    """One workload: inputs, the job's commands, and their output checks.

    `commands()` returns (label, argv) pairs; the label names the
    per-command metric `cmd_s.<label>`. `check(results)` takes
    {label: (returncode, stdout)} for one job and returns the labels
    whose command failed. `params` records the workload's parameters and
    input digests; `events` counts input events read by one job.
    """

    name = ""
    inputs: tuple[str, ...] = ()

    def __init__(self, workdir: Path, seed: int, tiny: bool):
        self.workdir = workdir
        self.seed = seed
        self.tiny = tiny
        self.params: dict = {}
        self.events = 0
        self.reference: dict[str, str] = {}

    def path(self, name: str) -> Path:
        return self.workdir / name

    def build(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, results) -> set[str]:
        raise NotImplementedError

    def metric(self, label: str) -> str:
        """The per-command metric a command's time adds to."""
        return label

    def _same_as_reference(self, label: str, digest: str | None) -> bool:
        """Outputs must repeat exactly from job to job for fixed inputs."""
        if digest is None:
            return False
        return self.reference.setdefault(label, digest) == digest

    def record_inputs(self) -> None:
        self.params["sha256"] = {n: sha256(self.path(n)) for n in self.inputs}

    def clear_outputs(self) -> None:
        """Remove the previous job's outputs, so each job is checked on its own."""
        for path in self.workdir.iterdir():
            if path.name not in self.inputs:
                path.unlink()


class CheckWorkload(Workload):
    name = "check"
    backends = ("direct", "tree", "dfa")
    inputs = ("check.csv", "model.lp")

    def build(self) -> None:
        n = 60 if self.tiny else 2000
        self.traces = synth_traces(self.seed, "check", n)
        self.constraints = model_constraints(self.seed)
        write_csv_log(self.path("check.csv"), self.traces)
        write_model(self.path("model.lp"), self.constraints)
        events = sum(map(len, self.traces))
        self.events = len(self.backends) * events
        self.params = {
            "traces": n, "events": events, "length_range": list(LENGTHS),
            "alphabet": len({a for tr in self.traces for a in tr}),
            "constraints": len(self.constraints), "log_format": "csv",
        }
        self.record_inputs()

    def commands(self):
        return [
            (f"check.{b}", ["check", "--log", "check.csv", "--model", "model.lp",
                            "--backend", b, "--out", f"report_{b}.json"])
            for b in self.backends
        ]

    def _verdicts(self, backend: str) -> str | None:
        try:
            doc = json.loads(self.path(f"report_{backend}.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        matrix = doc.get("matrix", {})
        cells = sum(len(row) for row in matrix.values())
        if cells != len(self.traces) * len(self.constraints):
            return None
        body = json.dumps([matrix, doc.get("compliant"), doc.get("supports")], sort_keys=True)
        return hashlib.sha256(body.encode()).hexdigest()

    def check(self, results):
        digests = {}
        for backend in self.backends:
            label = f"check.{backend}"
            rc, out = results[label]
            line_ok = re.fullmatch(
                rf"\d+/{len(self.traces)} constraints={len(self.constraints)} "
                rf"backend={backend} elapsed=\d+\.\d+s\n", out)
            digests[label] = self._verdicts(backend) if rc == 0 and line_ok else None
        # The backends must agree on matrix, compliant and supports.
        counts = {}
        for d in digests.values():
            if d is not None:
                counts[d] = counts.get(d, 0) + 1
        agreed = [d for d, c in counts.items() if c * 2 > len(digests)]
        failed = set()
        for label, digest in digests.items():
            if not agreed or digest != agreed[0] or not self._same_as_reference(label, digest):
                failed.add(label)
        return failed


class IngestWorkload(Workload):
    name = "ingest"

    def build(self) -> None:
        self.n, self.length, self.alphabet = (20, 10, 15) if self.tiny else (400, 40, 15)
        self.events = 3 * self.n * self.length  # convert reads lp, xes and csv once each
        self.params = {
            "traces": self.n, "events": self.n * self.length,
            "length_range": [self.length, self.length], "alphabet": self.alphabet,
            "template": "Response", "generate_seed": self.seed, "conversions": "lp>xes>csv>lp",
        }

    def commands(self):
        return [
            ("generate", ["generate", "--template", "Response", "--n", str(self.n),
                          "--len", str(self.length), "--alphabet", str(self.alphabet),
                          "--seed", str(self.seed), "--out", "gen.lp"]),
            ("convert.from_lp", ["convert", "--in", "gen.lp", "--out", "gen.xes"]),
            ("convert.from_xes", ["convert", "--in", "gen.xes", "--out", "gen.csv"]),
            ("convert.from_csv", ["convert", "--in", "gen.csv", "--out", "final.lp"]),
        ]

    def _generated_ok(self, log) -> bool:
        manifest = self.path("gen.labels.csv").read_text(encoding="utf-8").splitlines()
        half = self.n // 2
        labels = ["positive"] * half + ["negative"] * half
        if manifest != ["trace_id,label"] + [f"{i},{l}" for i, l in enumerate(labels)]:
            return False
        if len(log) != self.n or any(len(tr) != self.length for tr in log):
            return False
        if len({a for tr in log for a in tr}) > self.alphabet:
            return False
        for tr, label in zip(log, labels):
            if "a_0" not in tr or "a_1" not in tr:
                return False
            if satisfies_response(tr, "a_0", "a_1") != (label == "positive"):
                return False
        return True

    def check(self, results):
        failed = {label for label, (rc, _) in results.items() if rc != 0}
        readers = {
            "generate": ("gen.lp", read_lp_log),
            "convert.from_lp": ("gen.xes", read_xes_log),
            "convert.from_xes": ("gen.csv", read_csv_log),
            "convert.from_csv": ("final.lp", read_lp_log),
        }
        logs = {}
        for label, (name, reader) in readers.items():
            try:
                logs[label] = reader(self.path(name))
            except (OSError, ValueError, KeyError, StopIteration, ElementTree.ParseError):
                failed.add(label)
        generated = logs.get("generate")
        try:
            generated_ok = generated is not None and self._generated_ok(generated)
        except OSError:
            generated_ok = False
        if not generated_ok:
            failed.add("generate")
        else:
            self.params.setdefault("sha256", {"gen.lp": sha256(self.path("gen.lp"))})
            if not self._same_as_reference("generate", sha256(self.path("gen.lp"))):
                failed.add("generate")
        # Each conversion must carry the generated log over unchanged.
        for label in ("convert.from_lp", "convert.from_xes", "convert.from_csv"):
            if "generate" in failed or logs.get(label) != generated:
                failed.add(label)
        return failed


class ValidateWorkload(Workload):
    name = "validate"

    def build(self) -> None:
        self.max_len = 3 if self.tiny else 8
        traces = sum(VALIDATE_SYMBOLS ** n for n in range(self.max_len + 1))
        self.events = sum(n * VALIDATE_SYMBOLS ** n for n in range(self.max_len + 1))
        self.params = {
            "traces": traces, "events": self.events, "length_range": [0, self.max_len],
            "alphabet": VALIDATE_SYMBOLS, "templates": len(TEMPLATES), "backends": 3,
        }

    def commands(self):
        cmds = [("validate", ["validate", "--max-len", str(self.max_len)])]
        for i, kind in enumerate(TEMPLATES):
            cmds.append((f"compile.{kind}", ["compile", "--template", kind,
                                             "--facts-json", f"facts_{i:02d}.json"]))
        return cmds

    def metric(self, label: str) -> str:
        return label.split(".")[0]

    def check(self, results):
        failed = set()
        rc, out = results["validate"]
        if rc != 0 or out != f"exhaustive to length {self.max_len}: 0 disagreements\n":
            failed.add("validate")
        for i, kind in enumerate(TEMPLATES):
            label = f"compile.{kind}"
            path = self.path(f"facts_{i:02d}.json")
            digest = None
            if results[label][0] == 0 and path.exists():
                text = path.read_text(encoding="utf-8")
                try:
                    json.loads(text)
                    digest = hashlib.sha256(text.encode()).hexdigest()
                except ValueError:
                    pass
            if not self._same_as_reference(label, digest):
                failed.add(label)
        return failed


WORKLOADS = {w.name: w for w in (CheckWorkload, IngestWorkload, ValidateWorkload)}

