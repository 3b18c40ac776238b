"""Batch command-line front end.

Subcommands: check, eval, query, migrate, homs.  Output is a human table or
JSON (with the run configuration echoed for reproducibility); identical
inputs and configuration produce byte-identical output.  Exit codes: 0 all
checks pass, 1 semantic failures (violations, unproved preservation, fuel
exhaustion, constants forced equal, oversized searches) or a closed stdout,
2 malformed input or usage, or an `--out` that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .equality import Proved
from .kernel import EngineError
from .mapping import check_preservation
from .migration import MIGRATION_FAILURES, TooLarge, ends, enumerate_homs, migrate
from .query import eval_query
from .schema import Instance, check_instance, default_builtins, eval_term, format_cell
from .surface import (
    Diagnostic,
    Elaborated,
    ParseError,
    Unresolved,
    elaborate,
    instance_to_decl,
    parse,
    print_declaration,
)

OK, FAILURES, ERRORS = 0, 1, 2


@dataclass(frozen=True)
class RunConfig:
    fuel: int = 32
    sample_size: int = 256
    seed: int = 0
    format: str = "table"
    allow_unverified: bool = False

    def as_json(self) -> dict:
        return {
            "fuel": self.fuel,
            "sample_size": self.sample_size,
            "seed": self.seed,
            "format": self.format,
            "allow_unverified": self.allow_unverified,
        }


def default_fuel() -> int:
    """QINL_FUEL, or 32 when it is unset."""
    try:
        fuel = int(os.environ.get("QINL_FUEL", "32"))
    except ValueError:
        fuel = 0
    if fuel < 1:
        raise EngineError("QINL_FUEL must be a positive integer")
    return fuel


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _envelope(command: str, path: str, config: RunConfig, status: str) -> dict:
    return {
        "command": command,
        "file": path,
        "config": config.as_json(),
        "status": status,
    }


def _text_position(before: str) -> tuple[int, int]:
    """The 1-based line and column just past `before`, with newlines
    counted as text-mode reading translates them."""
    lines = before.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return len(lines), len(lines[-1]) + 1


def _load(args: argparse.Namespace, clean: bool = True,
          ) -> tuple[RunConfig, Elaborated | None, int]:
    """The run configuration and the elaborated file, or None and the exit
    code once an error is printed (with `clean`, any elaboration error)."""
    config = RunConfig(
        fuel=args.fuel if args.fuel is not None else default_fuel(),
        sample_size=args.sample, seed=args.seed, format=args.format,
        allow_unverified=args.allow_unverified)
    path = args.file
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"{path}: error: {exc}", file=sys.stderr)
        return config, None, ERRORS
    except UnicodeDecodeError as exc:
        # Text-mode reading decodes the whole file at once, so `exc.object`
        # is the file's bytes and `exc.start` the first invalid one.
        line, col = _text_position(exc.object[:exc.start].decode("utf-8"))
        print(f"{path}:{line}:{col}: error: invalid UTF-8 byte "
              f"0x{exc.object[exc.start]:02x}", file=sys.stderr)
        return config, None, ERRORS
    try:
        unit = parse(text)
    except ParseError as exc:
        print(f"{path}:{exc.line}:{exc.col}: error: {exc}", file=sys.stderr)
        return config, None, ERRORS
    elab = elaborate(unit, fuel=config.fuel,
                     allow_unverified=config.allow_unverified)
    if clean and elab.errors():
        _print_diagnostics(path, elab.errors())
        return config, None, ERRORS
    return config, elab, OK


def _print_diagnostics(path: str, diagnostics: list[Diagnostic]) -> None:
    for d in diagnostics:
        print(d.render(path), file=sys.stderr)


def _diagnostic_json(d: Diagnostic) -> dict:
    return {"line": d.line, "col": d.col, "severity": d.severity,
            "message": d.message}


# --------------------------------------------------------------------------
# check

def cmd_check(args: argparse.Namespace) -> int:
    config, elab, code = _load(args, clean=False)
    if elab is None:
        return code
    diagnostics = list(elab.diagnostics)
    report: dict = {"declarations": []}

    for name in elab.schemas:
        s = elab.schemas[name]
        report["declarations"].append({
            "kind": "schema", "name": name,
            "entities": sorted(s.entity_types),
            "attributes": sorted(s.attribute_types),
            "operations": len(s.sig.operations),
            "equation_count": len(s.theory.equations),
        })

    instance_reports = {}
    for name in elab.instances:
        schema = elab.schemas[elab.instance_schema[name]]
        result = check_instance(schema, elab.instances[name],
                                sample_size=config.sample_size,
                                seed=config.seed)
        checks = []
        for check in result.checks:
            entry = {"equation": check.equation, "status": check.status}
            if check.witness is not None:
                entry["witness"] = dict(check.witness)
            if check.sample_size is not None:
                entry["sample_size"] = check.sample_size
            checks.append(entry)
            if check.status == "violated":
                witness = ", ".join(f"{v}={r}" for v, r in check.witness)
                line, col = elab.locs.get(f"instance:{name}", (0, 0))
                diagnostics.append(Diagnostic(
                    line, col, "failure",
                    f"instance '{name}' violates {check.equation} "
                    f"at {witness}"))
        instance_reports[name] = checks
        report["declarations"].append({
            "kind": "instance", "name": name,
            "schema": elab.instance_schema[name],
            "rows": elab.instances[name].total_rows(),
            "equations": checks,
        })

    for name in elab.mappings:
        verdicts = check_preservation(elab.mappings[name], config.fuel)
        rendered = []
        for eq, verdict in verdicts:
            ok = isinstance(verdict, Proved)
            entry = {"equation": eq.render(),
                     "verdict": "proved" if ok else "unknown"}
            if ok:
                entry["trace"] = list(verdict.trace[:5])
            else:
                entry["fuel_spent"] = verdict.fuel_spent
                entry["node_cap"] = verdict.node_cap
                entry["stopped"] = verdict.stopped
            rendered.append(entry)
            if not ok:
                line, col = elab.locs.get(f"mapping:{name}", (0, 0))
                rounds = verdict.fuel_spent
                why = {"saturated": f"saturated after {rounds} round{'s' * (rounds != 1)}",
                       "nodes": f"node cap {verdict.node_cap}",
                       "fuel": f"fuel {config.fuel}"}[verdict.stopped]
                diagnostics.append(Diagnostic(
                    line, col, "failure",
                    f"mapping '{name}' preservation unknown for {eq.render()} "
                    f"({why})"))
        report["declarations"].append({
            "kind": "mapping", "name": name,
            "source": elab.mapping_schemas[name][0],
            "target": elab.mapping_schemas[name][1],
            "preservation": rendered,
        })

    errors = [d for d in diagnostics if d.severity == "error"]
    failures = [d for d in diagnostics if d.severity == "failure"]
    status = "errors" if errors else ("failures" if failures else "ok")
    code = ERRORS if errors else (FAILURES if failures else OK)

    if config.format == "json":
        payload = _envelope("check", args.file, config, status)
        payload["diagnostics"] = [_diagnostic_json(d) for d in diagnostics]
        payload["report"] = report
        _emit_json(payload)
        return code

    _print_diagnostics(args.file, diagnostics)
    for entry in report["declarations"]:
        if entry["kind"] == "schema":
            print(f"schema {entry['name']}: ok "
                  f"({len(entry['entities'])} entities, "
                  f"{len(entry['attributes'])} attributes, "
                  f"{entry['operations']} operations, "
                  f"{entry['equation_count']} equations)")
        elif entry["kind"] == "instance":
            statuses = [c["status"] for c in entry["equations"]]
            summary = ", ".join(
                f"{statuses.count(kind)} {kind}"
                for kind in ("satisfied", "sampled-only", "violated")
                if statuses.count(kind))
            print(f"instance {entry['name']} : {entry['schema']}: "
                  f"{entry['rows']} rows; {summary or 'no equations'}")
        elif entry["kind"] == "mapping":
            proved = sum(1 for v in entry["preservation"]
                         if v["verdict"] == "proved")
            print(f"mapping {entry['name']} : {entry['source']} -> "
                  f"{entry['target']}: preservation {proved}/"
                  f"{len(entry['preservation'])} proved")
    print(f"result: {status}")
    return code


# --------------------------------------------------------------------------
# eval

def cmd_eval(args: argparse.Namespace) -> int:
    config, elab, code = _load(args)
    if elab is None:
        return code
    exprs = elab.exprs if args.name is None else {
        args.name: elab.resolve("expression", args.name)}
    schema, empty = default_builtins().schema(), Instance({}, {})
    results = {name: format_cell(eval_term(schema, empty, {}, e))
               for name, e in exprs.items()}
    if config.format == "json":
        payload = _envelope("eval", args.file, config, "ok")
        payload["results"] = results
        _emit_json(payload)
        return OK
    for name, value in results.items():
        print(f"{name} = {value}")
    return OK


# --------------------------------------------------------------------------
# query

def cmd_query(args: argparse.Namespace) -> int:
    config, elab, code = _load(args)
    if elab is None:
        return code
    query = elab.resolve("query", args.query)
    instance = elab.resolve("instance", args.instance)
    schema_name = elab.query_schema[args.query]
    if elab.instance_schema[args.instance] != schema_name:
        print(f"{args.file}: error: query '{args.query}' is over "
              f"'{schema_name}' but instance '{args.instance}' is on "
              f"'{elab.instance_schema[args.instance]}'", file=sys.stderr)
        return ERRORS
    schema = elab.schemas[schema_name]
    try:
        result = eval_query(schema, instance, query)
    except TooLarge as exc:
        print(f"{args.file}: failure: {exc}", file=sys.stderr)
        return FAILURES
    if config.format == "json":
        payload = _envelope("query", args.file, config, "ok")
        payload["query"] = args.query
        payload["instance"] = args.instance
        payload["values"] = result.rendered_values()
        payload["witnesses"] = [
            {"bindings": dict(bindings), "value": value}
            for bindings, value in result.witnesses]
        payload["warnings"] = list(result.warnings)
        _emit_json(payload)
        return OK
    for value in result.rendered_values():
        print(value)
    return OK


# --------------------------------------------------------------------------
# migrate

def cmd_migrate(args: argparse.Namespace) -> int:
    config, elab, code = _load(args)
    if elab is None:
        return code
    mapping = elab.resolve("mapping", args.mapping)
    instance = elab.resolve("instance", args.instance)
    read, result_schema = ends(args.direction, *elab.mapping_schemas[args.mapping])
    on = elab.instance_schema[args.instance]
    if on != read:
        print(f"{args.file}: error: {args.direction} along '{args.mapping}' "
              f"needs an instance on '{read}', got one on '{on}'",
              file=sys.stderr)
        return ERRORS
    try:
        result = migrate(args.direction, mapping, instance, fuel=config.fuel,
                         allow_unverified=config.allow_unverified)
    except MIGRATION_FAILURES as exc:
        print(f"{args.file}: failure: {exc}", file=sys.stderr)
        return FAILURES
    result_name = f"{args.instance}_{args.direction}"
    decl = instance_to_decl(result_name, result_schema,
                            elab.schemas[result_schema], result)
    text = print_declaration(decl) + "\n"
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"{args.out}: error: {exc}", file=sys.stderr)
        return ERRORS
    if config.format == "json":
        payload = _envelope("migrate", args.file, config, "ok")
        payload["direction"] = args.direction
        payload["mapping"] = args.mapping
        payload["instance"] = args.instance
        payload["out"] = args.out
        payload["result"] = {
            "name": result_name,
            "schema": result_schema,
            "carriers": {t: len(result.rows(t))
                         for t in sorted(result.carriers)},
        }
        _emit_json(payload)
        return OK
    print(f"wrote {result_name} : {result_schema} to {args.out} "
          f"({result.total_rows()} rows)")
    return OK


# --------------------------------------------------------------------------
# homs

def cmd_homs(args: argparse.Namespace) -> int:
    config, elab, code = _load(args)
    if elab is None:
        return code
    source = elab.resolve("instance", args.instance_a)
    target = elab.resolve("instance", args.instance_b)
    schema_a = elab.instance_schema[args.instance_a]
    schema_b = elab.instance_schema[args.instance_b]
    if schema_a != schema_b:
        print(f"{args.file}: error: instances live on different schemas "
              f"('{schema_a}' vs '{schema_b}')", file=sys.stderr)
        return ERRORS
    schema = elab.schemas[schema_a]
    try:
        homs = enumerate_homs(schema, source, target)
        listed = [_render_hom(h) for h in homs] if args.list else []
    except TooLarge as exc:
        print(f"{args.file}: failure: {exc}", file=sys.stderr)
        return FAILURES
    if config.format == "json":
        payload = _envelope("homs", args.file, config, "ok")
        payload["from"] = args.instance_a
        payload["to"] = args.instance_b
        payload["count"] = homs.size
        if args.list:
            payload["homomorphisms"] = listed
        _emit_json(payload)
        return OK
    print(f"{homs.size} homomorphism(s) from {args.instance_a} "
          f"to {args.instance_b}")
    for line in listed:
        print(f"  {line}")
    return OK


def _render_hom(h) -> str:
    parts = []
    for entity, pairs in h.maps:
        if pairs:
            inner = ", ".join(f"{a}->{b}" for a, b in pairs)
            parts.append(f"{entity}: {inner}")
    for label, value in h.null_map:
        parts.append(f"?{label} -> {value}")
    return "; ".join(parts) if parts else "(empty)"


# --------------------------------------------------------------------------
# argument parsing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: building its seven parsers took about 1 ms of
    # every `main` call.  The parser must hold no per-call state, so
    # `QINL_FUEL` is read in `_load`, never made a default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--fuel", type=int, default=None,
                        help="saturation bound (default: QINL_FUEL or 32)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for attribute sampling (default 0)")
    common.add_argument("--sample", type=int, default=256,
                        help="sample size for attribute-quantified equations")
    common.add_argument("--format", choices=("table", "json"),
                        default="table", help="output format")
    common.add_argument("--allow-unverified", action="store_true",
                        help="migrate along mappings whose preservation "
                             "is not proved")

    parser = argparse.ArgumentParser(
        prog="qinl",
        description="Typecheck, query, and migrate equational schemas "
                    "and instances from .qinl files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="typecheck all declarations, check instances "
                            "and mapping preservation")
    p.add_argument("file")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate named set-calculus expressions")
    p.add_argument("file")
    p.add_argument("--name", default=None, help="expression to evaluate "
                   "(default: all)")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("query", parents=[common],
                       help="run a comprehension query against an instance")
    p.add_argument("file")
    p.add_argument("query")
    p.add_argument("instance")
    p.set_defaults(handler=cmd_query)

    p = sub.add_parser("migrate", parents=[common],
                       help="migrate an instance along a mapping")
    p.add_argument("file")
    p.add_argument("direction", choices=("delta", "sigma", "pi"))
    p.add_argument("mapping")
    p.add_argument("instance")
    p.add_argument("--out", required=True, help="path for the result file")
    p.set_defaults(handler=cmd_migrate)

    p = sub.add_parser("homs", parents=[common],
                       help="count (and list) instance homomorphisms")
    p.add_argument("file")
    p.add_argument("instance_a")
    p.add_argument("instance_b")
    p.add_argument("--list", action="store_true",
                   help="print each homomorphism")
    p.set_defaults(handler=cmd_homs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for count_flag in ("fuel", "sample"):
        value = getattr(args, count_flag, None)
        if value is not None and value < 1:
            print(f"error: --{count_flag} must be positive", file=sys.stderr)
            return ERRORS
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except Unresolved as exc:
        print(f"{args.file}: {exc.severity}: {exc}", file=sys.stderr)
        return FAILURES if exc.severity == "failure" else ERRORS
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERRORS
    except BrokenPipeError:
        # The reader went away.  Point stdout at the null device so that the
        # flush at exit cannot fail again (the recipe of the `signal` docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return FAILURES


if __name__ == "__main__":
    sys.exit(main())
