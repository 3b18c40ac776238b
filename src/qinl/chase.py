"""Chase construction of initial models: the free instance on a set of typed
generators, modulo a schema's theory.

The term universe is grown by closing generators under operations with
entity domains (totality); the congruence is the closure of every ground
instantiation of the theory's equations (attribute-quantified equations
instantiate at attribute-typed terms already present, and at constants the
builtins compute them).  Both run in the prover's round loop and
instantiation pass (see `equality`).  A seed's new node joins its value's
class.  An attribute cell holds its class's constant, a builtin of another
cell's labelled null (`length(?0)`), or a fresh labelled null.  The free
model may be infinite, so the construction is fuel-bounded.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Mapping, Sequence
from itertools import count

from .equality import (
    EGraph,
    IllTyped,
    Images,
    InconsistentConstants,
    Proved,
    decide_equal,
)
from .kernel import (
    App,
    Base,
    Context,
    EngineError,
    Lit,
    Term,
    Var,
    format_term,
    infer_type,
)
from .schema import (
    Cell, FqlSchema, Instance, LabelledNull, OpApplied, format_cell, null_under)


class FuelExhausted(EngineError):
    def __init__(self, message: str, partial_size: int):
        super().__init__(f"{message} (partial model size {partial_size})")
        self.partial_size = partial_size


class UnstatedNull(EngineError):
    """The free model ties a labelled null to a value that no cell can
    state, such as `length(?0) = 2`."""

    def __init__(self, value: Cell, other: Cell):
        super().__init__(f"the free model ties a labelled null to a value no cell "
                         f"can state: {format_cell(value)} = {format_cell(other)}")


# Ground equations `lhs = rhs` over the generators, or, with images, the
# seeds of each operation: `(row, rhs)` stands for `op(row) = rhs` with
# `op(row)` translated along the images (see `saturate`).
Seeds = Sequence[tuple[Term, Term]] | Mapping[str, Sequence[tuple[str, Term]]]


def initial_model(s: FqlSchema, generators: Mapping[str, str],
                  equations: Seeds = (),
                  fuel: int = 32, images: Images | None = None) -> Instance:
    """Build the free instance on `generators` (name -> base type) subject to
    ground `equations` over the generator constants, then to every ground
    instance of the schema's theory (see `saturate` for `images`).

    Raises FuelExhausted when saturation is not reached within `fuel`
    rounds, for example when an unconstrained entity-to-entity operation
    keeps generating fresh elements, InconsistentConstants when the
    equations make two distinct constants equal, and UnstatedNull when the
    model ties a null to a value no cell can state (see `conflict` and
    `identities`).
    """
    graph = saturate(s, generators, equations, fuel, images)
    model, _, known = materialize(graph, s)
    clash = conflict(s, graph.builtin_applications(), known, identities(s, fuel))
    if clash is not None:
        raise UnstatedNull(*clash)
    return model


def saturate(s: FqlSchema, generators: Mapping[str, str],
             equations: Seeds = (),
             fuel: int = 32, images: Images | None = None) -> EGraph:
    """The chase itself: the saturated e-graph whose classes are the
    elements of the initial model (see `initial_model`).  With `images`,
    `equations` maps each operation to its seeds `(row, rhs)`, none typed:
    the image of the operation is added at the class of generator `row`,
    through one builder per operation (see `EGraph.builder`), and equated
    with `rhs`, each new node joining the class of the other."""
    if fuel < 1:
        raise ValueError("fuel must be positive")
    names = sorted(generators)
    bases: dict[str, Base] = {}
    for name in names:
        base = generators[name]
        if base not in bases:
            if base not in s.sig.base_types:
                raise IllTyped(f"generator '{name}' has undeclared type '{base}'")
            bases[base] = Base(base)
    var_types = [bases[generators[name]] for name in names]
    if images is None and equations:
        ctx = Context(tuple(zip(names, var_types)))
        for lhs, rhs in equations:
            tl = infer_type(s.sig, ctx, lhs)
            tr = infer_type(s.sig, ctx, rhs)
            if tl != tr:
                raise IllTyped(
                    f"ground equation {format_term(lhs)} = {format_term(rhs)} "
                    f"relates different types")

    graph = EGraph(s.sig, s.builtin_ops())
    env = [graph.add_node(("var", name), t) for name, t in zip(names, var_types)]
    slots = {name: k for k, name in enumerate(names)}

    target = [-1]
    if images is None:
        seeds = [(graph.builder(lhs, slots, None, target), env, rhs) for lhs, rhs in equations]
    else:
        image = {op: graph.builder(App(op, Var(op)), {op: 0}, images, target) for op in equations}
        seeds = [(image[op], (env[slots[row]],), rhs)
                 for op, pairs in equations.items() for row, rhs in pairs]
    for build, at, rhs in seeds:
        value = (env[slots[rhs.name]] if isinstance(rhs, Var) else
                 graph.node_of(("lit", rhs.base, rhs.value)) if isinstance(rhs, Lit) else None)
        target[0] = -1 if value is None else graph.find(value)
        node = build(at)
        if value is None:
            target[0] = graph.find(node)
            value = graph.builder(rhs, slots, None, target)(env)
        graph.equal(node, value) or graph.union(node, value, "seed equation")

    def step(since: int) -> None:
        _apply_totality(graph, s, since)
        graph.apply_product_axioms()
        graph.apply_equations_enumerated(s.theory.equations, since)

    _, cap, stop = graph.run_rounds(step, fuel)
    if stop != "saturated":
        within = "fuel" if stop == "fuel" else f"the node cap of {cap} nodes"
        raise FuelExhausted(f"chase did not saturate within {within}",
                            len(_entity_roots(graph, s)))
    return graph


def _apply_totality(graph: EGraph, s: FqlSchema, since: int) -> None:
    """Every operation with an entity domain must be defined on every entity
    class, so create the application nodes that are still missing.  A root
    older than node `since` (where the previous pass began) already got its
    application nodes from that pass, and their keys are still canonical,
    so only younger roots are visited, in ascending order."""
    younger: list[tuple[int, str]] = []
    for op, (dom, _) in s.tables.items():
        roots = graph.classes_of_type(Base(dom))
        younger += ((root, op) for root in roots[bisect_left(roots, since):])
    for root, op in sorted(younger):
        if graph.node_of(("app", op, root)) is None:
            graph.add_node(("app", op, root))


def _entity_roots(graph: EGraph, s: FqlSchema) -> list[int]:
    return sorted(root for t in s.entity_types
                  for root in graph.classes_of_type(Base(t)))


def _row_name(term: Term) -> str:
    """Deterministic row identifiers derived from generator provenance,
    e.g. the manager of generator e is row 'e.manager'."""
    if isinstance(term, App):
        return f"{_row_name(term.arg)}.{term.op}"
    return term.name


def materialize(graph: EGraph, s: FqlSchema
                ) -> tuple[Instance, list[tuple[str, str, int]], dict[int, Cell]]:
    """Read the instance off a saturated e-graph, together with its
    attribute cells as (op, row, class) in table order and the value of
    each attribute class.

    Each entity class's row is named by its least path from a generator
    (see `EGraph.extract`), `e.manager` for `manager(e)`: a saturated
    chase reaches every entity class by a path, and no pair or projection
    is ever an entity class's least term.  A cell holds its class's
    literal, a value carried from another cell's null along the graph's
    builtin applications (`length(?0)`), or a fresh null, numbered in
    table order (see `fill`)."""
    entities = _entity_roots(graph, s)
    reps = graph.extract(entities)
    carriers: dict[str, list[str]] = {t: [] for t in sorted(s.entity_types)}
    row_of: dict[int, str] = {}
    for root in entities:
        term = reps.get(root)
        if term is None:
            raise EngineError("entity class with no extractable representative")
        row = _row_name(term)
        row_of[root] = row
        carriers[graph.class_type(root).name].append(row)

    roots = {row: root for root, row in row_of.items()}
    functions: dict[str, dict[str, Cell]] = {}
    cells: list[tuple[str, str, int]] = []
    for op, (dom, cod) in s.tables.items():
        table: dict[str, Cell] = {}
        for row in sorted(carriers[dom]):
            result = graph.find(graph.node_of(("app", op, roots[row])))
            if cod in s.entity_types:
                table[row] = row_of[result]
                continue
            cells.append((op, row, result))
        functions[op] = table
    known: dict[int, Cell] = graph.literals()
    nulls = count()
    fill(s, graph.builtin_applications(), known, [root for _, _, root in cells],
         lambda _: LabelledNull(str(next(nulls))))
    for op, row, root in cells:
        functions[op][row] = known[root]
    return Instance.make(carriers, functions), cells, known


def fill(s: FqlSchema, applications: list[tuple[int, str, int]],
         known: dict[int, Cell], cells: list[int],
         fresh: Callable[[int], Cell]) -> None:
    """Give values to classes in `known`, in place.  The values already
    there are carried along `applications` (class, op, argument class);
    then each class of `cells` still without a value gets `fresh(class)`,
    first those that are no builtin application, then the rest, each in
    order and carried at once.  A class keeps its first value."""
    uses: dict[int, list[tuple[int, str]]] = {}
    for root, op, arg in applications:
        uses.setdefault(arg, []).append((root, op))
    applied = {root for root, _, _ in applications}

    def carry(todo: list[int]) -> None:
        while todo:
            arg = todo.pop()
            for root, op in uses.get(arg, ()):
                if root not in known:
                    known[root] = s.builtins.apply(op, known[arg])
                    todo.append(root)

    carry([arg for arg in uses if arg in known])
    for leaves_only in (True, False):
        for root in cells:
            if root not in known and not (leaves_only and root in applied):
                known[root] = fresh(root)
                carry([root])


def conflict(s: FqlSchema, applications: list[tuple[int, str, int]],
             known: dict[int, Cell], same: Callable[[Cell, Cell], bool]
             ) -> tuple[Cell, Cell] | None:
    """The first of `applications` whose op computes another value at its
    argument's value than its class holds, as (computed, held), unless
    `same` proves the two equal; None when there is none."""
    for root, op, arg in applications:
        if arg in known:
            value = s.builtins.apply(op, known[arg])
            if value != known[root] and not same(known[root], value):
                return value, known[root]
    return None


def identities(s: FqlSchema, fuel: int) -> Callable[[Cell, Cell], bool]:
    """Whether two values are forms of one null, e1(?u) and e2(?u), equal at
    every value of its type T: decide_equal proves `forall v: T . e1(v) =
    e2(v)` in the theory of `s`.  Each pair of forms is decided once."""
    builtin_ops = s.builtin_ops()
    proved: dict[tuple[Term, Term], bool] = {}

    def same(a: Cell, b: Cell) -> bool:
        null = null_under(a)
        if null is None or null != null_under(b):
            return False
        (ea, ta), (eb, tb) = _form(s, a), _form(s, b)
        if (ea, eb) not in proved:
            verdict = decide_equal(s.theory, Context.of(("v", ta or tb)), ea, eb,
                                   fuel, builtin_ops=builtin_ops)
            proved[ea, eb] = isinstance(verdict, Proved)
        return proved[ea, eb]
    return same


def _form(s: FqlSchema, v: Cell) -> tuple[Term, Base | None]:
    """A value of a null as a term in the variable v, with the type of the
    null (None for the bare null)."""
    if not isinstance(v, OpApplied):
        return Var("v"), None
    arg, t = _form(s, v.arg)
    return App(v.op, arg), t or s.sig.op_type(v.op)[0]
