"""declarekit benchmark: run one workload as a user would, from a checkout's root.

    python3 perfbench/run.py --workload check --seed 1 --seconds 20 --trace 0

Each command is a fresh `python -m declarekit.cli` process, started only
after the previous one exits (a closed loop with one client), timed from
outside and checked after its job. With --trace 0 the job repeats until
--seconds have passed and the end-to-end metrics are printed. With
--trace 1 the kernel work is replayed once, then untraced and traced jobs
alternate, and the per-layer metrics are printed. The last stdout line is
the result as JSON; the line before it records the machine, the workload
parameters, input digests and every metric's quartiles; a readable
summary goes to stderr. See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import job_layers, replay  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# setup_s samples: a few before the first job and a few after each job,
# so a burst of load on the machine does not hit them all at once.
SETUP_FIRST = 5
SETUP_PER_JOB = 2
COMMAND_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MiB",
}
COMMAND_METRICS = (
    "check.direct", "check.tree", "check.dfa",
    "generate", "convert.from_lp", "convert.from_xes", "convert.from_csv",
    "validate", "compile",
)
# Printed beside the end-to-end metrics but not in the result: events_per_s
# is a fixed event count over job_s, and each command runs in one workload.
END_TO_END_DETAIL = {
    "events_per_s": "events/s",
    **{f"cmd_s.{c}": "s" for c in COMMAND_METRICS},
}
PER_LAYER = {
    **{f"cmd_s.{c}": "s" for c in COMMAND_METRICS},
    **{f"ingest.load_log_s.{f}": "s" for f in ("lp", "xes", "csv")},
    "ingest.lp_events_per_s": "events/s",
    **{f"ingest.save_log_s.{f}": "s" for f in ("lp", "xes", "csv")},
    "ingest.write_report_s": "s",
    "ingest.load_model_s": "s",
    **{f"tasks.conformance_check_s.{b}": "s" for b in ("direct", "tree", "dfa")},
    **{f"tasks.self_s.{b}": "s" for b in ("direct", "tree", "dfa")},
    "direct.check_direct_s": "s",
    "direct.calls": "count",
    "direct.steps": "count",
    "ltlf.eval_tree_s": "s",
    "ltlf.calls": "count",
    "automata.accepts_s": "s",
    "automata.calls": "count",
    "automata.compile_s": "s",
    "automata.dfa_states": "count",
    "automata.template_dfa.misses": "count",
    "automata.template_dfa.hit_ratio": "ratio",
    "loggen.generate_log_s": "s",
    "xcheck.exhaustive_check_s": "s",
    "xcheck.traces": "count",
    **{f"cli.self_s.{c}": "s" for c in ("check", "generate", "convert", "validate", "compile")},
    "trace.overhead_s": "s",
}


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def summary(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        # The CLI's default --threads is os.cpu_count(): a different count
        # runs a different code path in `check`.
        "os_cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "platform": platform.platform(),
    }


class Runner:
    """Runs the workload's jobs as child processes and collects samples."""

    IMPORT = [sys.executable, "-c", "import declarekit; print(declarekit.__file__)"]

    def __init__(self, workload, src: Path):
        self.workload = workload
        # Children cache bytecode under src/, as an installed package would.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(src)
        self.attempted = 0
        self.failed = 0

    def _run(self, argv: list[str]) -> tuple[tuple[int, str], float]:
        started = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=self.workload.workdir, env=self.env,
                                  capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return (-1, ""), time.perf_counter() - started
        return (proc.returncode, proc.stdout), time.perf_counter() - started

    def check_import(self, src: Path) -> None:
        """Make sure children import declarekit from this checkout's sources."""
        (rc, out), _ = self._run(self.IMPORT)
        if rc != 0 or not Path(out.strip()).resolve().is_relative_to(src.resolve()):
            raise HarnessError(f"cannot import declarekit from {src}")

    def setup_time(self) -> float:
        """One fresh interpreter plus `import declarekit`, timed from outside."""
        return self._run(self.IMPORT)[1]

    def job(self, traced: bool = False):
        """Run the job once; return ({label: seconds}, failed labels, child records)."""
        results, times, children = {}, {}, []
        self.workload.clear_outputs()
        for label, args in self.workload.commands():
            if traced:
                spans = self.workload.path(f"spans_{label}.json")
                argv = [sys.executable, str(HERE / "traced.py"), str(spans), *args]
            else:
                argv = [sys.executable, "-m", "declarekit.cli", *args]
            results[label], times[label] = self._run(argv)
        failed = self.workload.check(results)
        if traced:
            for label, _ in self.workload.commands():
                try:
                    children.append(json.loads(
                        self.workload.path(f"spans_{label}.json").read_text(encoding="utf-8")))
                except (OSError, ValueError):
                    failed.add(label)
        self.attempted += len(times)
        self.failed += len(failed)
        return times, failed, children


def command_samples(workload, times: dict, failed: set, samples: dict) -> None:
    """Add one job's per-command times; a failed command reports no time."""
    grouped: dict[str, float | None] = {}
    for label, seconds in times.items():
        metric = workload.metric(label)
        if label in failed or grouped.get(metric, 0.0) is None:
            grouped[metric] = None
        else:
            grouped[metric] = grouped.get(metric, 0.0) + seconds
    for metric, seconds in grouped.items():
        if seconds is not None:
            samples.setdefault(f"cmd_s.{metric}", []).append(seconds)


def measure(runner: Runner, seconds: float) -> dict[str, list[float]]:
    workload = runner.workload
    samples: dict[str, list[float]] = {"setup_s": [], "job_s": []}
    samples["setup_s"] += [runner.setup_time() for _ in range(SETUP_FIRST)]
    deadline = time.perf_counter() + seconds
    while True:
        times, failed, _ = runner.job()
        command_samples(workload, times, failed, samples)
        if not failed:
            samples["job_s"].append(sum(times.values()))
        samples["setup_s"] += [runner.setup_time() for _ in range(SETUP_PER_JOB)]
        if time.perf_counter() >= deadline:
            break
    samples["events_per_s"] = [workload.events / t for t in samples["job_s"]]
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024]
    return samples


def measure_traced(runner: Runner, seconds: float) -> dict[str, list[float]]:
    workload = runner.workload
    deadline = time.perf_counter() + seconds
    kernels = replay(workload)
    samples: dict[str, list[float]] = {}
    plain, traced = [], []
    while True:
        times, failed, _ = runner.job()
        command_samples(workload, times, failed, samples)
        if not failed:
            plain.append(sum(times.values()))
        times, failed, children = runner.job(traced=True)
        if not failed:
            traced.append(sum(times.values()))
            for name, value in job_layers(children).items():
                samples.setdefault(name, []).append(value)
        if time.perf_counter() >= deadline:
            break
    for name, value in kernels.metrics.items():
        if name == "automata.compile_s":
            samples[name] = [v + value for v in samples.get(name, [0.0])]
        else:
            samples[name] = [value]
    for backend, kernel_s in kernels.kernel_s.items():
        spans = samples.get(f"tasks.conformance_check_s.{backend}", [])
        samples[f"tasks.self_s.{backend}"] = [s - kernel_s if s else 0.0 for s in spans]
    if plain and traced:
        samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(plain)]
    for name in PER_LAYER:
        samples.setdefault(name, [0.0])
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test only")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "declarekit" / "cli.py").is_file():
        print(f"run.py: no declarekit sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed, args.tiny)
        runner = Runner(workload, src)
        workload.build()
        runner.check_import(src)
        if args.trace:
            samples = measure_traced(runner, args.seconds)
            units, detail = PER_LAYER, {}
        else:
            samples = measure(runner, args.seconds)
            units, detail = END_TO_END, END_TO_END_DETAIL
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    stats = {name: summary(samples.get(name, [])) for name in {**units, **detail}}
    fail_rate = runner.failed / runner.attempted
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": workload.params,
        "machine": machine(), "load": "closed loop, one client, one child process at a time",
        "fail_rate": fail_rate,
        "metrics": {name: s for name, s in stats.items() if s["n"]},
    }
    for name, unit in {**units, **detail}.items():
        s = stats[name]
        if s["n"]:
            print(f"{name:36s} {s['median']:>14.6g} {unit:9s} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}", file=sys.stderr)
    print(f"{'fail_rate':36s} {fail_rate:>14.6g} {'ratio':9s} "
          f"{runner.failed}/{runner.attempted} commands failed", file=sys.stderr)
    print(json.dumps(info))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in units.items() if stats[name]["n"]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
