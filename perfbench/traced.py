"""Run one declarekit command with span recorders around its layer calls.

Usage: python traced.py SPANS_JSON <declarekit arguments...>

The names `declarekit.cli` imports from the other modules are replaced by
wrappers that record a span (name, start, end, parent index) per call.
Spans stay in memory and are written to SPANS_JSON when the command
ends, together with `template_dfa.cache_info()`. The exit code is the
command's own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

from declarekit import cli
from declarekit.automata import template_dfa

SPANS: list[dict] = []
_STACK: list[int] = []


def _begin(name: str) -> dict:
    span = {"name": name, "start": time.perf_counter(), "end": None,
            "parent": _STACK[-1] if _STACK else None}
    _STACK.append(len(SPANS))
    SPANS.append(span)
    return span


def _end(span: dict) -> None:
    span["end"] = time.perf_counter()
    _STACK.pop()


def _log_format(path) -> str:
    name = Path(path).name
    return "xes" if name.endswith((".xes", ".xes.gz")) else name.rsplit(".", 1)[-1]


def _backend(args, kwargs) -> str:
    """conformance_check(log, model, backend=Backend.DIRECT, ...)"""
    backend = args[2] if len(args) > 2 else kwargs.get("backend")
    return backend.value if backend is not None else "direct"


# name in declarekit.cli -> (span name from the call's arguments,
#                            counters from the arguments and result)
NAMERS = {
    "load_log": (lambda a, k: f"ingest.load_log.{_log_format(a[0])}",
                 lambda a, k, r: {"lp_events": sum(map(len, r.traces))}
                 if _log_format(a[0]) == "lp" else {}),
    "load_model": (lambda a, k: "ingest.load_model", None),
    "save_log": (lambda a, k: f"ingest.save_log.{_log_format(a[1])}", None),
    "write_factlog": (lambda a, k: "ingest.save_log.lp", None),
    "write_report": (lambda a, k: "ingest.write_report", None),
    "conformance_check": (lambda a, k: f"tasks.conformance_check.{_backend(a, k)}", None),
    "generate_log": (lambda a, k: "loggen.generate_log", None),
    "exhaustive_check": (lambda a, k: "xcheck.exhaustive_check",
                         lambda a, k, r: {"traces": sum(3 ** n for n in range(k["max_len"] + 1))}),
    "compile_formula": (lambda a, k: "automata.compile_formula", None),
    "minimize": (lambda a, k: "automata.minimize", None),
}


def _wrap(fn, namer, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = _begin(namer(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            _end(span)
        if counter is not None:
            span["counts"] = counter(args, kwargs, result)
        return result
    return wrapper


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    for name, (namer, counter) in NAMERS.items():
        setattr(cli, name, _wrap(getattr(cli, name), namer, counter))
    root = _begin(f"cli.{cli_args[0]}")
    try:
        rc = cli.main(cli_args)
    finally:
        _end(root)
        doc = {"spans": SPANS, "template_dfa": template_dfa.cache_info()._asdict()}
        Path(out).write_text(json.dumps(doc), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
