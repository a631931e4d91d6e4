"""Command line interface.

Subcommands: check, query, compile, validate, generate, convert.
Exit codes: 0 on success (constraint violations are data, not errors),
1 when validate finds backend disagreements, 2 on an input that cannot
be read or parsed or an output that cannot be written, 3 on invalid
arguments, a slot given twice or a formula over the DFA state budget.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .core import Activity, Constraint, TemplateKind

if TYPE_CHECKING:
    from fractions import Fraction

    from .tasks import Backend, Query

# The other modules load on first use (PEP 562), so each command pays only
# for the modules it runs: convert never loads a backend, and compile loads
# no reader. A name the package exports resolves as the package resolves
# it. Commands reach these names through the module, where they can be
# replaced; the benchmark's span recorder (perfbench/traced.py) wraps them
# there.
def __getattr__(name: str):
    package = sys.modules[__package__]
    if name not in package._ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
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
    from fractions import Fraction  # loaded here: compile, convert and generate need none

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


def _slots(args) -> dict[str, str]:
    """The --bind values by slot; a slot bound twice is an error."""
    slots: dict[str, str] = {}
    for slot, value in args.bind:
        if slot in slots:
            raise ValueError(f"--bind {slot} given more than once")
        slots[slot] = value
    return slots


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="declarekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("check", help="conformance-check a log against a model")
    p.add_argument("--log", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--backend", type=_backend, default="direct")
    p.add_argument("--out", help="write a report file")
    p.add_argument("--format", choices=("json", "csv"), help="report format (default json)")

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
    p.add_argument("--out", required=True,
                   help="log path, format by suffix; labels go to <path less suffix>.labels.csv")

    p = sub.add_parser("convert", help="transcode a log between formats")
    p.add_argument("--in", dest="src", required=True)
    p.add_argument("--out", dest="dst", required=True)

    return parser


def _emit(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_json(path: str, doc) -> None:
    import json  # loaded here: only the commands that write JSON need it

    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _cmd_check(args) -> int:
    if args.format and not args.out:
        raise ValueError("--format goes with --out")
    log = _module.load_log(args.log)
    model = _module.load_model(args.model)
    started = time.perf_counter()
    report = _module.conformance_check(log, model, args.backend)
    elapsed = time.perf_counter() - started
    if args.out:
        data = _module.write_report(
            report, args.format or "json", log_name=args.log, model_name=args.model
        )
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
        if args.bind or args.domain:
            raise ValueError("--bind and --domain go with --template, not with --query")
        return _module.load_query(args.query)
    slots = _slots(args)
    domains = {}
    for spec in args.domain:
        name, sep, values = spec.partition("=")
        if not sep or not values:
            raise ValueError(f"domains look like name=act1,act2, got {spec!r}")
        if name in slots:
            raise ValueError(f"--domain {name} restricts a slot that --bind fixes")
        if name not in ("arg_0", "arg_1"):
            raise ValueError(f"--domain {name} names no variable of the template (arg_0, arg_1)")
        variable = _module.Variable(name)
        if variable in domains:
            raise ValueError(f"--domain {name} given more than once")
        domains[variable] = tuple(Activity(v) for v in values.split(","))
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
        _write_json(args.out, doc)
    return 0


def _cmd_compile(args) -> int:
    if bool(args.template) == bool(args.formula):
        raise ValueError("compile needs exactly one of --template or --formula")
    if not args.dot and not args.facts_json:
        raise ValueError("compile needs --dot and/or --facts-json")
    if args.template:
        formula = _module.template_formula(args.template, Activity("arg_0"), Activity("arg_1"))
        kind = args.template.camel
    else:
        formula = _module.parse_formula(args.formula)
        kind = _module.pretty(formula)
    dfa = _module.minimize(_module.compile_formula(formula))
    if args.dot:
        _emit(args.dot, _module.to_dot(dfa))
    if args.facts_json:
        _emit(args.facts_json, _module.to_facts_json(dfa, kind))
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
        _write_json(args.out, doc)
    return 1 if disagreements else 0


def _cmd_generate(args) -> int:
    slots = _slots(args)
    activation = Activity(slots.get("arg_0", "a_0"))
    target = Activity(slots.get("arg_1", "a_1"))
    constraint = Constraint(0, args.template, activation, target)
    generated = _module.generate_log(constraint, args.n, args.length, args.alphabet, args.seed)
    _module.save_log(generated.log, args.out)
    from .ingest import _log_format  # loaded already, by save_log

    manifest = Path(args.out).as_posix().removesuffix(_log_format(args.out)[0]) + ".labels.csv"
    Path(manifest).write_text(_module.write_label_manifest(generated), encoding="utf-8")
    print(
        f"wrote {args.n} traces of length {args.length} to {args.out} "
        f"(labels in {manifest})"
    )
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
    "convert": _cmd_convert,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, _module.IngestError, _module.FormulaSyntaxError) as exc:
        print(f"declarekit: {exc}", file=sys.stderr)
        return 2
    except (ValueError, _module.StateBudgetExceeded) as exc:  # GeneratorError included
        print(f"declarekit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
