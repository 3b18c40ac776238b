"""Per-layer tracing from outside the engine.

`Tracer.install()` replaces the public functions of each layer with wrappers
that record spans (name, start, end, parent, command id) and counts, and
`Tracer.uninstall()` puts the originals back.  Modules import functions by
name, so a function is replaced in the namespace of every `qinl` module that
holds it; EGraph and Context methods are replaced on the class.

Every `_ms` metric is self time: a span's duration minus the time covered by
its child spans, so the `_ms` metrics of a command add up to its traced
duration.  Times are means per command; counts are totals over the traced
commands, which repeat exactly for a deterministic engine.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import defaultdict
from pathlib import Path

# Span names, in the order the metrics are listed.
SPAN_METRICS = {
    "cli.main": "cli.self_ms",
    "surface.parse": "surface.parse_ms",
    "surface.elaborate": "surface.elaborate_ms",
    "surface.print": "surface.print_ms",
    "mapping.check_preservation": "mapping.check_preservation_ms",
    "equality.decide_equal": "equality.decide_equal_ms",
    "equality.match": "equality.match_ms",
    "equality.enumerate": "equality.enumerate_ms",
    "equality.rebuild": "equality.rebuild_ms",
    "equality.axioms": "equality.axioms_ms",
    "equality.extract": "equality.extract_ms",
    "chase.initial_model": "chase.initial_model_ms",
    "migration.sigma": "migration.sigma_ms",
    "migration.delta": "migration.delta_ms",
    "migration.pi": "migration.pi_ms",
    "migration.homs": "migration.homs_ms",
    "query.eval_query": "query.eval_query_ms",
    "schema.check_instance": "schema.check_instance_ms",
    "schema.validate_instance": "schema.validate_instance_ms",
}

COUNTS = (
    "surface.parse_calls", "surface.bytes_parsed", "mapping.obligations",
    "equality.decide_equal_calls", "equality.proved", "equality.unknown",
    "equality.rounds", "equality.rebuild_calls", "equality.egraph_nodes",
    "chase.calls", "chase.rows_out", "chase.nulls_out", "chase.fuel_exhausted",
    "migration.pi_decide_calls", "migration.homs_space", "migration.homs_found",
    "query.eval_term_calls", "query.witnesses", "schema.eval_term_calls",
    "kernel.context_lookup_calls", "kernel.infer_type_calls",
)

RATIOS = {
    "equality.proved_ratio": ("equality.proved", "equality.decide_equal_calls"),
    "migration.homs_found_ratio": ("migration.homs_found", "migration.homs_space"),
    "query.evals_per_witness": ("query.eval_term_calls", "query.witnesses"),
}

UNITS = {"surface.bytes_parsed": "bytes", "equality.proved_ratio": "ratio",
         "migration.homs_found_ratio": "ratio", "query.evals_per_witness": "ratio"}

_ROUNDS = re.compile(r" in (\d+) round")


class Tracer:
    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [name, start, child time, span id]
        self.commands = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float, int, int]] = []

    # -- commands ------------------------------------------------------------

    def run_command(self, fn, *args):
        """Run one command as the root span 'cli.main'."""
        self.commands += 1
        return self._span("cli.main", fn, args, {})

    # -- recording -----------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        frame = [name, time.perf_counter(), 0.0, len(self.spans)]
        parent = self._stack[-1][3] if self._stack else -1
        command = self.commands - 1
        self.spans.append((name, frame[1], 0.0, parent, command))
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.self_s[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            self.spans[frame[3]] = (name, frame[1], end, parent, command)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            if after is None:
                return self._span(name, fn, args, kwargs)
            try:
                result = self._span(name, fn, args, kwargs)
            except Exception as exc:
                after(args, None, exc)
                raise
            after(args, result, None)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, key):
        def wrapper(*args, **kwargs):
            self.count(key() if callable(key) else key)
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, fn, wrapper) -> None:
        """Replace `fn` in the namespace of every qinl module holding it."""
        for name, module in sorted(sys.modules.items()):
            if name == "qinl" or name.startswith("qinl."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, attr, wrapper)

    # -- per-layer observers -------------------------------------------------

    def _after_parse(self, args, result, exc) -> None:
        self.count("surface.parse_calls")
        self.count("surface.bytes_parsed", len(args[0].encode("utf-8")))

    def _after_preservation(self, args, result, exc) -> None:
        if result is not None:
            self.count("mapping.obligations", len(result))

    def _after_decide(self, args, verdict, exc) -> None:
        from qinl.equality import Proved

        self.count("equality.decide_equal_calls")
        # pi's own proofs, not those of the preservation check it starts with.
        if (self.inside("migration.pi")
                and not self.inside("mapping.check_preservation")):
            self.count("migration.pi_decide_calls")
        if verdict is None:
            return
        if isinstance(verdict, Proved):
            self.count("equality.proved")
            self.count("equality.rounds", int(_ROUNDS.search(verdict.trace[0])[1]))
        else:
            self.count("equality.unknown")
            self.count("equality.rounds", verdict.fuel_spent)

    def _after_rebuild(self, args, result, exc) -> None:
        graph = args[0]
        self.count("equality.rebuild_calls")
        nodes = graph.node_count()
        # The graph's last rebuild wins: count only the growth since the
        # previous rebuild of the same graph.
        self.count("equality.egraph_nodes",
                   nodes - graph.__dict__.get("_traced_nodes", 0))
        graph.__dict__["_traced_nodes"] = nodes

    def _after_chase(self, args, result, exc) -> None:
        from qinl.chase import FuelExhausted

        self.count("chase.calls")
        if isinstance(exc, FuelExhausted):
            self.count("chase.fuel_exhausted")
        if result is not None:
            self.count("chase.rows_out", result.total_rows())
            self.count("chase.nulls_out", len(result.nulls()))

    def _after_homs(self, args, result, exc) -> None:
        schema, i, j = args[:3]
        space = 1
        for t in sorted(schema.entity_types):
            if i.rows(t):
                space *= len(j.rows(t)) ** len(i.rows(t))
        self.count("migration.homs_space", space)
        if result is not None:
            self.count("migration.homs_found", len(result))

    def _after_query(self, args, result, exc) -> None:
        if result is not None:
            self.count("query.witnesses", len(result.witnesses))

    def _eval_term_key(self) -> str:
        return ("query.eval_term_calls" if self.inside("query.eval_query")
                else "schema.eval_term_calls")

    def install(self) -> None:
        from qinl import chase, equality, kernel, mapping, migration, query, schema, surface

        spans = [
            (surface.parse, "surface.parse", self._after_parse),
            (surface.elaborate, "surface.elaborate", None),
            (surface.instance_to_decl, "surface.print", None),
            (surface.print_declaration, "surface.print", None),
            (mapping.check_preservation, "mapping.check_preservation",
             self._after_preservation),
            (equality.decide_equal, "equality.decide_equal", self._after_decide),
            (chase.initial_model, "chase.initial_model", self._after_chase),
            (migration.sigma, "migration.sigma", None),
            (migration.delta, "migration.delta", None),
            (migration.pi, "migration.pi", None),
            (migration.enumerate_homs, "migration.homs", self._after_homs),
            (query.eval_query, "query.eval_query", self._after_query),
            (schema.check_instance, "schema.check_instance", None),
            (schema.validate_instance, "schema.validate_instance", None),
        ]
        for fn, name, after in spans:
            self._replace_everywhere(fn, self._spanned(name, fn, after))
        graph = equality.EGraph
        for method, name, after in (
                ("apply_equations_matched", "equality.match", None),
                ("apply_equations_enumerated", "equality.enumerate", None),
                ("rebuild", "equality.rebuild", self._after_rebuild),
                ("apply_product_axioms", "equality.axioms", None),
                ("fold_builtins", "equality.axioms", None),
                ("extract", "equality.extract", None)):
            self._replace(graph, method,
                          self._spanned(name, getattr(graph, method), after))
        self._replace_everywhere(
            schema.eval_term, self._counted(schema.eval_term, self._eval_term_key))
        self._replace_everywhere(
            kernel.infer_type,
            self._counted(kernel.infer_type, "kernel.infer_type_calls"))
        self._replace(kernel.Context, "lookup", self._counted(
            kernel.Context.lookup, "kernel.context_lookup_calls"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        per_command = max(1, self.commands)
        out: dict[str, dict] = {}
        for name, metric in SPAN_METRICS.items():
            out[metric] = {"value": self.self_s.get(name, 0.0) * 1000 / per_command,
                           "unit": "ms"}
        for key in COUNTS:
            out[key] = {"value": self.counts.get(key, 0),
                        "unit": UNITS.get(key, "count")}
        for key, (num, den) in RATIOS.items():
            den_value = self.counts.get(den, 0)
            out[key] = {"value": self.counts.get(num, 0) / den_value if den_value else 0.0,
                        "unit": UNITS[key]}
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for index, (name, start, end, parent, command) in enumerate(self.spans):
                f.write(json.dumps({"id": index, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "command": command}) + "\n")

