"""Command line interface.

Subcommands: check, query, compile, validate, generate, bench, convert.
Exit codes: 0 on success (constraint violations are data, not errors),
1 when validate finds backend disagreements, 2 on malformed input
documents, 3 on invalid arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from .core import Activity, Constraint, TemplateKind

if TYPE_CHECKING:
    from .tasks import Backend, Query

# The other modules load on first use (PEP 562), so each command pays only
# for the modules it runs: convert never loads a backend, and compile loads
# no reader. Commands reach these names through the module, where they can
# be replaced; the benchmark's span recorder (perfbench/traced.py) wraps
# them there.
_DEFERRED = {
    name: module
    for module, names in {
        "automata": ("compile_formula", "minimize", "to_dot", "to_facts_json"),
        "ingest": (
            "IngestError", "load_log", "load_model", "load_query", "save_log",
            "write_factlog", "write_report",
        ),
        "loggen": ("generate_log", "write_label_manifest"),
        "ltlf": ("FormulaSyntaxError", "parse_formula", "pretty", "template_formula"),
        "tasks": ("Backend", "Query", "QueryTerm", "Variable", "conformance_check", "query_check"),
        "xcheck": ("exhaustive_check", "random_check"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"declarekit.{module}"), name)
    globals()[name] = value
    return value


_module = sys.modules[__name__]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for parse errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _template_kind(name: str) -> TemplateKind:
    try:
        return TemplateKind.from_name(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _backend(name: str) -> Backend:
    try:
        return _module.Backend.from_name(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def _bind(text: str) -> tuple[str, str]:
    slot, sep, value = text.partition("=")
    if not sep or slot not in ("arg_0", "arg_1") or not value:
        raise argparse.ArgumentTypeError(
            f"bindings look like arg_0=activity or arg_1=activity, got {text!r}"
        )
    return slot, value


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="declarekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("check", help="conformance-check a log against a model")
    p.add_argument("--log", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--backend", type=_backend, default="direct")
    p.add_argument("--out", help="write a report file")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("query", help="enumerate bindings meeting a support threshold")
    p.add_argument("--log", required=True)
    p.add_argument("--query", help="query document; alternative to --template")
    p.add_argument("--template", type=_template_kind)
    p.add_argument("--bind", type=_bind, action="append", default=[],
                   help="fix a slot, e.g. --bind arg_0=a; unbound slots become variables")
    p.add_argument("--domain", action="append", default=[],
                   help="restrict a variable, e.g. --domain arg_1=b,c")
    p.add_argument("--support", type=_fraction, required=True)
    p.add_argument("--backend", type=_backend, default="direct")
    p.add_argument("--out", help="write answers as JSON")

    p = sub.add_parser("compile", help="compile a template or formula to a DFA")
    p.add_argument("--template", type=_template_kind)
    p.add_argument("--formula")
    p.add_argument("--dot", help="write Graphviz output; - for stdout")
    p.add_argument("--facts-json", help="write fact-style JSON; - for stdout")

    p = sub.add_parser("validate", help="cross-check the three backends")
    p.add_argument("--max-len", type=_count, default=10)
    p.add_argument("--samples", type=_count, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write disagreements as JSON")

    p = sub.add_parser("generate", help="generate a labeled synthetic log")
    p.add_argument("--template", type=_template_kind, required=True)
    p.add_argument("--bind", type=_bind, action="append", default=[])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--len", type=int, required=True, dest="length")
    p.add_argument("--alphabet", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="factlog path; labels go to <out>.labels.csv")

    p = sub.add_parser("bench", help="time conformance checking per backend")
    p.add_argument("--log", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--backends", default="direct,tree,dfa")
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--out", help="write task,backend,run,elapsed_ms rows")

    p = sub.add_parser("convert", help="transcode a log between formats")
    p.add_argument("--in", dest="src", required=True)
    p.add_argument("--out", dest="dst", required=True)

    return parser


def _emit(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_check(args) -> int:
    log = _module.load_log(args.log)
    model = _module.load_model(args.model)
    started = time.perf_counter()
    report = _module.conformance_check(log, model, args.backend)
    elapsed = time.perf_counter() - started
    if args.out:
        data = _module.write_report(report, args.format, log_name=args.log, model_name=args.model)
        Path(args.out).write_bytes(data)
    print(
        f"{len(report.compliant)}/{len(log)} constraints={len(model)} "
        f"backend={args.backend.value} elapsed={elapsed:.3f}s"
    )
    return 0


def _cli_query(args) -> Query:
    if bool(args.query) == bool(args.template):
        raise ValueError("query needs exactly one of --query or --template")
    if args.query:
        return _module.load_query(args.query)
    slots = dict(args.bind)
    domains = {}
    for spec in args.domain:
        name, sep, values = spec.partition("=")
        if not sep or not values:
            raise ValueError(f"domains look like name=act1,act2, got {spec!r}")
        domains[_module.Variable(name)] = tuple(Activity(v) for v in values.split(","))
    term = _module.QueryTerm(
        args.template,
        Activity(slots["arg_0"]) if "arg_0" in slots else _module.Variable("arg_0"),
        Activity(slots["arg_1"]) if "arg_1" in slots else _module.Variable("arg_1"),
    )
    return _module.Query(terms=(term,), domains=domains)


def _cmd_query(args) -> int:
    log = _module.load_log(args.log)
    query = _cli_query(args)
    answers = _module.query_check(query, log, args.support, args.backend)
    variables = query.variables()
    for ans in answers:
        parts = [f"?{v.name}={ans.binding[v].label}" for v in variables]
        parts.append(f"support={ans.support.numerator}/{ans.support.denominator}")
        print(" ".join(parts))
    if not answers:
        print("no bindings reach the threshold")
    if args.out:
        doc = {
            "threshold": f"{args.support.numerator}/{args.support.denominator}",
            "answers": [
                {
                    "binding": {v.name: ans.binding[v].label for v in variables},
                    "support": f"{ans.support.numerator}/{ans.support.denominator}",
                }
                for ans in answers
            ],
        }
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


def _cmd_compile(args) -> int:
    if bool(args.template) == bool(args.formula):
        raise ValueError("compile needs exactly one of --template or --formula")
    if not args.dot and not args.facts_json:
        raise ValueError("compile needs --dot and/or --facts-json")
    if args.template:
        activation, target = Activity("arg_0"), Activity("arg_1")
        formula = _module.template_formula(args.template, activation, target)
        dfa = _module.minimize(_module.compile_formula(formula))
        kind = args.template.camel
    else:
        formula = _module.parse_formula(args.formula)
        dfa = _module.minimize(_module.compile_formula(formula))
        activation = target = None
        kind = _module.pretty(formula)
    if args.dot:
        _emit(args.dot, _module.to_dot(dfa, activation=activation, target=target))
    if args.facts_json:
        facts = _module.to_facts_json(dfa, kind, activation=activation, target=target)
        _emit(args.facts_json, facts)
    return 0


def _cmd_validate(args) -> int:
    disagreements = _module.exhaustive_check(max_len=args.max_len)
    if args.samples:
        disagreements.extend(_module.random_check(
            n_samples=args.samples, max_len=max(args.max_len, 20), seed=args.seed
        ))
    scope = f"exhaustive to length {args.max_len}"
    if args.samples:
        scope += f" plus {args.samples} random samples"
    print(f"{scope}: {len(disagreements)} disagreements")
    if args.out:
        doc = {
            "max_len": args.max_len,
            "samples": args.samples,
            "seed": args.seed,
            "disagreements": [d.to_json_dict() for d in disagreements],
        }
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 1 if disagreements else 0


def _cmd_generate(args) -> int:
    slots = dict(args.bind)
    activation = Activity(slots.get("arg_0", "a_0"))
    target = Activity(slots.get("arg_1", "a_1"))
    constraint = Constraint(0, args.template, activation, target)
    generated = _module.generate_log(constraint, args.n, args.length, args.alphabet, args.seed)
    Path(args.out).write_text(_module.write_factlog(generated.log), encoding="utf-8")
    manifest = Path(args.out).with_suffix("").as_posix() + ".labels.csv"
    Path(manifest).write_text(_module.write_label_manifest(generated), encoding="utf-8")
    print(
        f"wrote {args.n} traces of length {args.length} to {args.out} "
        f"(labels in {manifest})"
    )
    return 0


def _cmd_bench(args) -> int:
    import statistics

    log = _module.load_log(args.log)
    model = _module.load_model(args.model)
    backends = [_module.Backend.from_name(b.strip()) for b in args.backends.split(",") if b.strip()]
    if not backends:
        raise ValueError("no backends requested")
    if args.repeat < 1:
        raise ValueError("--repeat must be at least 1")
    task = Path(args.model).stem
    rows = ["task,backend,run,elapsed_ms"]
    for backend in backends:
        timings = []
        for run in range(args.repeat):
            started = time.perf_counter()
            _module.conformance_check(log, model, backend)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            timings.append(elapsed_ms)
            rows.append(f"{task},{backend.value},{run},{elapsed_ms:.3f}")
        print(f"{backend.value}: median {statistics.median(timings):.3f} ms over {args.repeat} runs")
    if args.out:
        Path(args.out).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return 0


def _cmd_convert(args) -> int:
    log = _module.load_log(args.src)
    _module.save_log(log, args.dst)
    print(f"wrote {len(log)} traces to {args.dst}")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "query": _cmd_query,
    "compile": _cmd_compile,
    "validate": _cmd_validate,
    "generate": _cmd_generate,
    "bench": _cmd_bench,
    "convert": _cmd_convert,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"declarekit: {exc}", file=sys.stderr)
        return 2
    except (_module.IngestError, _module.FormulaSyntaxError) as exc:
        print(f"declarekit: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # GeneratorError included
        print(f"declarekit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
