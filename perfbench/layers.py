"""Per-layer metrics: span aggregation for traced jobs and kernel replay.

The span recorder (`traced.py`) records spans around the calls
`declarekit.cli` makes into the other modules. The evaluation kernels
are too hot to wrap per call, so they are timed here instead: the
job's (trace, constraint) pairs are replayed in the same order through
`check_direct`, `eval_tree` and `Dfa.accepts`, in this process.
"""

from __future__ import annotations

import itertools
import time

# Span name (as recorded by traced.py) -> per-layer metric it adds to.
SPAN_METRICS = {
    "ingest.load_log.lp": "ingest.load_log_s.lp",
    "ingest.load_log.xes": "ingest.load_log_s.xes",
    "ingest.load_log.csv": "ingest.load_log_s.csv",
    "ingest.save_log.lp": "ingest.save_log_s.lp",
    "ingest.save_log.xes": "ingest.save_log_s.xes",
    "ingest.save_log.csv": "ingest.save_log_s.csv",
    "ingest.write_report": "ingest.write_report_s",
    "ingest.load_model": "ingest.load_model_s",
    "tasks.conformance_check.direct": "tasks.conformance_check_s.direct",
    "tasks.conformance_check.tree": "tasks.conformance_check_s.tree",
    "tasks.conformance_check.dfa": "tasks.conformance_check_s.dfa",
    "loggen.generate_log": "loggen.generate_log_s",
    "xcheck.exhaustive_check": "xcheck.exhaustive_check_s",
    "automata.compile_formula": "automata.compile_s",
    "automata.minimize": "automata.compile_s",
}
CLI_COMMANDS = ("check", "generate", "convert", "validate", "compile")


def job_layers(children: list[dict]) -> dict[str, float]:
    """Sum one traced job's spans and counters into per-layer values.

    `children` holds one record per command process, as traced.py
    dumps it: {"spans": [...], "template_dfa": {...}}.
    """
    out: dict[str, float] = {name: 0.0 for name in set(SPAN_METRICS.values())}
    out.update({f"cli.self_s.{c}": 0.0 for c in CLI_COMMANDS})
    counts = {"lp_events": 0, "hits": 0, "misses": 0, "traces": 0}
    for child in children:
        spans = child["spans"]
        root = spans[0]
        covered = 0.0
        for span in spans[1:]:
            duration = span["end"] - span["start"]
            metric = SPAN_METRICS.get(span["name"])
            if metric is not None:
                out[metric] += duration
            if span["parent"] == 0:
                covered += duration
            for key, value in span.get("counts", {}).items():
                counts[key] += value
        command = root["name"].split(".", 1)[1]
        out[f"cli.self_s.{command}"] += root["end"] - root["start"] - covered
        counts["hits"] += child["template_dfa"]["hits"]
        counts["misses"] += child["template_dfa"]["misses"]
    lp_s = out["ingest.load_log_s.lp"]
    out["ingest.lp_events_per_s"] = counts["lp_events"] / lp_s if lp_s else 0.0
    lookups = counts["hits"] + counts["misses"]
    out["automata.template_dfa.misses"] = counts["misses"]
    out["automata.template_dfa.hit_ratio"] = counts["hits"] / lookups if lookups else 0.0
    out["xcheck.traces"] = counts["traces"]
    return out


class Replay:
    """Kernel time and counts for the job's (trace, constraint) pairs."""

    def __init__(self):
        self.metrics = {
            "direct.check_direct_s": 0.0, "direct.calls": 0, "direct.steps": 0,
            "ltlf.eval_tree_s": 0.0, "ltlf.calls": 0,
            "automata.accepts_s": 0.0, "automata.calls": 0,
            "automata.compile_s": 0.0, "automata.dfa_states": 0,
        }
        # Kernel seconds per backend, subtracted from conformance_check spans.
        self.kernel_s = {"direct": 0.0, "tree": 0.0, "dfa": 0.0}

    def compile(self, constraints) -> dict:
        """Compile each template DFA instance the job builds, bypassing the cache."""
        from declarekit import template_dfa

        dfas = {}
        started = time.perf_counter()
        for c in constraints:
            key = (c.kind, c.activation, c.target)
            if key not in dfas:
                dfas[key] = template_dfa.__wrapped__(*key)
        self.metrics["automata.compile_s"] += time.perf_counter() - started
        self.metrics["automata.dfa_states"] += sum(d.n_states for d in dfas.values())
        return dfas

    def _kernels(self, constraints, backends):
        """One verdict function per (backend, constraint), built outside the timing."""
        from declarekit import check_direct, eval_tree, template_formula

        kernels = {}
        if "direct" in backends:
            def direct(c):
                def verdict(trace):
                    v = check_direct(c, trace)
                    self.metrics["direct.steps"] += v.steps
                    return v.sat
                return verdict
            kernels["direct"] = [direct(c) for c in constraints]
        if "tree" in backends:
            def tree(c):
                formula = template_formula(c.kind, c.activation, c.target)
                return lambda trace: eval_tree(formula, trace)
            kernels["tree"] = [tree(c) for c in constraints]
        if "dfa" in backends:
            # make_checker compiles inside conformance_check, so the dfa
            # backend's kernel time includes the compilation.
            started = time.perf_counter()
            dfas = self.compile(constraints)
            self.kernel_s["dfa"] += time.perf_counter() - started
            kernels["dfa"] = [
                (lambda d: lambda trace: d.accepts(trace.events))(
                    dfas[(c.kind, c.activation, c.target)])
                for c in constraints
            ]
        return kernels

    _METRICS = {"direct": "direct.check_direct", "tree": "ltlf.eval_tree",
                "dfa": "automata.accepts"}

    def _add(self, backend: str, seconds: float, calls: int) -> None:
        layer = self._METRICS[backend]
        self.metrics[f"{layer}_s"] += seconds
        self.metrics[f"{layer.split('.')[0]}.calls"] += calls
        self.kernel_s[backend] += seconds

    def matrix(self, traces, constraints, backends) -> None:
        """Every trace against every constraint, trace-major, as `check` and `validate` do."""
        for backend, fns in self._kernels(constraints, backends).items():
            started = time.perf_counter()
            for trace in traces:
                for fn in fns:
                    fn(trace)
            self._add(backend, time.perf_counter() - started, len(traces) * len(fns))


def replay(workload) -> Replay:
    """Replay the kernel work of one job of `workload`."""
    from declarekit import Activity, Constraint, TemplateKind, Trace

    r = Replay()
    name = workload.name
    if name == "check":
        traces = [Trace.from_labels(i, tr) for i, tr in enumerate(workload.traces)]
        constraints = [Constraint(cid, TemplateKind.from_name(kind), Activity(a), Activity(b))
                       for cid, kind, a, b in workload.constraints]
        r.matrix(traces, constraints, workload.backends)
    elif name == "ingest":
        # generate builds one template DFA, Response(a_0, a_1); no kernel runs.
        r.compile([Constraint(0, TemplateKind.RESPONSE, Activity("a_0"), Activity("a_1"))])
    elif name == "validate":
        symbols = [Activity(s) for s in ("a", "b", "w")]
        traces = [Trace(0, events) for n in range(workload.max_len + 1)
                  for events in itertools.product(symbols, repeat=n)]
        constraints = [Constraint(0, kind, symbols[0], symbols[1]) for kind in TemplateKind]
        r.matrix(traces, constraints, ("direct", "tree", "dfa"))
    return r
