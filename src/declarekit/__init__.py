"""Declare constraint checking over finite event logs.

The package evaluates Declare templates three independent ways: direct
scans over event positions, evaluation of the template's temporal
formula on the trace, and replay through a compiled automaton. The
backends are interchangeable and cross-checked against each other.

Names are resolved on first use (PEP 562): `import declarekit` loads no
submodule, and each name imports only the module that defines it, so a
command pays only for what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "automata": (
        "Dfa", "OTHER", "StateBudgetExceeded", "compile_formula", "complement",
        "minimize", "product", "template_dfa", "to_dot", "to_facts_dict", "to_facts_json",
    ),
    "core": ("Activity", "Constraint", "DeclareModel", "EventLog", "TemplateKind", "Trace"),
    "direct": ("DirectVerdict", "check_direct"),
    "ingest": (
        "IngestError", "load_log", "load_model", "load_query", "parse_csv",
        "parse_factlog", "parse_model", "parse_query", "parse_xes", "save_log",
        "write_csv", "write_factlog", "write_model", "write_report", "write_xes",
    ),
    "loggen": (
        "GeneratedLog", "GeneratorError", "PathCountTable", "build_generator",
        "generate_log", "generator_alphabet", "sample_trace", "write_label_manifest",
    ),
    "ltlf": (
        "Formula", "FormulaSyntaxError", "eval_tree", "ev_empty", "nnf", "parse_formula",
        "pretty", "template_formula",
    ),
    "tasks": (
        "Backend", "CheckReport", "EmptyLogError", "Query", "QueryAnswer", "QueryTerm",
        "Variable", "check_log", "conformance_check", "query_check", "support",
    ),
    "xcheck": ("Disagreement", "exhaustive_check", "random_check"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
    elif name in _EXPORTS:  # a submodule, as `import declarekit` used to load them all
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
