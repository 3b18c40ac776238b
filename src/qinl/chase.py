"""Chase construction of initial models: the free instance on a set of typed
generators, modulo a schema's theory.

The term universe is grown by closing generators under operations with
entity domains; the congruence is the closure of every ground instantiation
of the theory's equations (attribute-quantified equations instantiate at
attribute-typed terms already present).  Attribute classes holding no
constant become labelled nulls.  The free model may be infinite, so the
construction is fuel-bounded.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .equality import EGraph, IllTyped, node_cap
from .kernel import (
    App,
    Base,
    Context,
    EngineError,
    Term,
    TypeExpr,
    Var,
    format_literal,
    format_term,
    infer_type,
)
from .schema import FqlSchema, Instance, LabelledNull


class FuelExhausted(EngineError):
    def __init__(self, message: str, partial_size: int):
        super().__init__(f"{message} (partial model size {partial_size})")
        self.partial_size = partial_size


class InconsistentConstants(EngineError):
    def __init__(self, values: list[object]):
        rendered = ", ".join(format_literal(v) for v in values)
        super().__init__(f"theory forces distinct constants equal: {rendered}")
        self.values = values


def initial_model(s: FqlSchema, generators: Mapping[str, str],
                  equations: Sequence[tuple[Term, Term]] = (),
                  fuel: int = 32) -> Instance:
    """Build the free instance on `generators` (name -> base type) subject to
    ground `equations` over the generator constants, then to every ground
    instance of the schema's theory.

    Raises FuelExhausted when saturation is not reached within `fuel`
    rounds, for example when an unconstrained entity-to-entity operation
    keeps generating fresh elements.
    """
    return materialize(saturate(s, generators, equations, fuel), s)[0]


def saturate(s: FqlSchema, generators: Mapping[str, str],
             equations: Sequence[tuple[Term, Term]] = (),
             fuel: int = 32) -> EGraph:
    """The chase itself: the saturated e-graph whose classes are the
    elements of the initial model (see `initial_model`)."""
    if fuel < 1:
        raise ValueError("fuel must be positive")
    var_types: dict[str, TypeExpr] = {}
    for name in sorted(generators):
        base = generators[name]
        if base not in s.sig.base_types:
            raise IllTyped(f"generator '{name}' has undeclared type '{base}'")
        var_types[name] = Base(base)
    ctx = Context(tuple(sorted(var_types.items())))
    for lhs, rhs in equations:
        tl = infer_type(s.sig, ctx, lhs)
        tr = infer_type(s.sig, ctx, rhs)
        if tl != tr:
            raise IllTyped(
                f"ground equation {format_term(lhs)} = {format_term(rhs)} "
                f"relates different types")

    graph = EGraph(s.sig, s.builtin_ops())
    nodes = {name: graph.add_node(("var", name), var_types[name])
             for name in sorted(generators)}
    for lhs, rhs in equations:
        graph.union(graph.add_instance(lhs, nodes),
                    graph.add_instance(rhs, nodes), "seed equation")

    cap = node_cap(fuel)
    saturated = False
    totality_from = 0
    for _ in range(fuel):
        before = graph.version
        start = graph.node_count()
        _apply_totality(graph, s, totality_from)
        totality_from = start
        graph.apply_product_axioms()
        graph.apply_equations_enumerated(s.theory.equations)
        graph.fold_builtins()
        graph.rebuild()
        if graph.node_count() > cap:
            break
        if graph.version == before:
            saturated = True
            break
    if not saturated:
        size = len(_entity_roots(graph, s))
        raise FuelExhausted("chase did not saturate within fuel", size)
    return graph


def _apply_totality(graph: EGraph, s: FqlSchema, since: int) -> None:
    """Every operation with an entity domain must be defined on every entity
    class, so create the application nodes that are still missing.  A root
    older than node `since` (where the previous pass began) already got its
    application nodes from that pass, and their keys are still canonical,
    so only younger roots are visited."""
    for root in range(since, graph.node_count()):
        if graph.find(root) != root:
            continue
        t = graph.class_type(root)
        if isinstance(t, Base) and t.name in s.entity_types:
            for op in s.ops_from(t.name):
                graph.add_node(("app", op, graph.find(root)))


def _entity_roots(graph: EGraph, s: FqlSchema) -> list[int]:
    return [root for root in graph.class_roots()
            if isinstance(graph.class_type(root), Base)
            and graph.class_type(root).name in s.entity_types]


def _row_name(term: Term) -> str:
    """Deterministic row identifiers derived from generator provenance,
    e.g. the manager of generator e is row 'e.manager'."""
    if isinstance(term, Var):
        return term.name
    if isinstance(term, App):
        return f"{_row_name(term.arg)}.{term.op}"
    return format_term(term)


def materialize(graph: EGraph, s: FqlSchema) -> tuple[Instance, dict[str, int]]:
    """Read the instance off a saturated e-graph, together with the class
    of each of its rows."""
    reps = graph.extract()
    carriers: dict[str, list[str]] = {t: [] for t in sorted(s.entity_types)}
    row_of: dict[int, str] = {}
    for root in _entity_roots(graph, s):
        term = reps.get(root)
        if term is None:
            raise EngineError("entity class with no extractable representative")
        row = _row_name(term)
        row_of[root] = row
        carriers[graph.class_type(root).name].append(row)

    members = graph.members()

    def constants_of(root: int) -> list[object]:
        seen = {}
        for node in members.get(graph.find(root), ()):
            key = graph._nodes[node]
            if key[0] == "lit":
                seen.setdefault((key[1], repr(key[2])), key[2])
        return [seen[k] for k in sorted(seen)]

    null_of: dict[int, LabelledNull] = {}
    next_null = 0
    functions: dict[str, dict[str, object]] = {}
    for op in s.entity_dom_ops():
        dom, cod = s.sig.op_type(op)
        table: dict[str, object] = {}
        assert isinstance(dom, Base)
        dom_roots = sorted(
            (r for r in _entity_roots(graph, s)
             if graph.class_type(r) == dom),
            key=lambda r: row_of[r])
        for root in dom_roots:
            result = graph.find(graph.add_node(("app", op, graph.find(root))))
            if isinstance(cod, Base) and cod.name in s.entity_types:
                table[row_of[root]] = row_of[result]
            else:
                constants = constants_of(result)
                if len(constants) > 1:
                    raise InconsistentConstants(constants)
                if constants:
                    table[row_of[root]] = constants[0]
                else:
                    if result not in null_of:
                        null_of[result] = LabelledNull(str(next_null))
                        next_null += 1
                    table[row_of[root]] = null_of[result]
        functions[op] = table
    return (Instance.make(carriers, functions),
            {row: root for root, row in row_of.items()})
