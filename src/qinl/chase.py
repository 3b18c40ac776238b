"""Chase construction of initial models: the free instance on typed
generators modulo a schema's theory, on the prover's congruence closure
(`equality.EGraph`), as Meyers, Spivak and Wisnesky, "Fast Left Kan
Extensions Using the Chase", run it: integer ids under a union-find, one
table per operation from argument root to value id, one id per literal.
Totality adds the missing entries of operations on entities; each equation
is instantiated at every tuple of roots, or computed at constants.  The
theory, the image bodies and the ground seeds are in base normal form
(`kernel.normalise`), so no pair, projection or unit reaches the tables.
The ids are the e-graph chase's (`tests/oracles.py`).  A cell holds its
class's constant, a builtin of another cell's null (`length(?0)`), or a
fresh labelled null.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from itertools import count, repeat, takewhile
from operator import itemgetter

from .equality import (
    CHASE_TUPLES, EGraph, Equation, IllTyped, Images, InconsistentConstants, Proved, _path,
    decide_equal, normal_images)
from .kernel import App, Base, Context, EngineError, Term, Var, format_term, infer_type
from .schema import Cell, FqlSchema, Instance, LabelledNull, OpApplied, format_cell, null_under


class FuelExhausted(EngineError):
    def __init__(self, message: str, partial_size: int, grew: tuple[str, int] | None = None):
        detail = f"; {grew[0]} grew by {grew[1]} in the last round" if grew else ""
        super().__init__(f"{message} (partial model size {partial_size}{detail})")
        self.partial_size = partial_size


class UnstatedNull(EngineError):
    """The free model ties a labelled null to a value that no cell can
    state, such as `length(?0) = 2`."""

    def __init__(self, value: Cell, other: Cell):
        super().__init__(f"the free model ties a labelled null to a value no cell "
                         f"can state: {format_cell(value)} = {format_cell(other)}")


# Ground equations `lhs = rhs` over the generators, or, with images, each
# operation's seeds `op(row) = value` as columns of generator ids and values:
# a generator id, a constant, or a term for a null or a builtin of one.
Seeds = Sequence[tuple[Term, Term]] | Mapping[str, tuple[Sequence[int], Sequence[object]]]


def initial_model(s: FqlSchema, generators: Mapping[str, str],
                  equations: Seeds = (),
                  fuel: int = 32, images: Images | None = None) -> Instance:
    """Build the free instance on `generators` (name -> base type) subject to
    ground `equations` over the generator constants, then to every ground
    instance of the schema's theory (see `saturate` for `images`).  Raises
    FuelExhausted when saturation is not reached within `fuel` rounds,
    InconsistentConstants when two distinct constants are made equal, and
    UnstatedNull when the model ties a null to a value no cell can state
    (see `conflict` and `identities`)."""
    chase = saturate(s, generators, equations, fuel, images)
    model, _, known = materialize(s, chase)
    clash = conflict(s, chase.applications(), known, identities(s, fuel))
    if clash is not None:
        raise UnstatedNull(*clash)
    return model


def saturate(s: FqlSchema, generators: Mapping[str, str],
             equations: Seeds = (),
             fuel: int = 32, images: Images | None = None) -> EGraph:
    """The chase itself: the saturated graph whose classes are the initial
    model's elements, the generators first, in name order (their ids).  With
    `images`, `equations` maps each operation to its seed columns, none
    typed.  Each round adds the entries missing at entity roots no older
    than `since` (older ones got theirs then), then instantiates the
    equations.  Stops within `fuel` rounds, `node_cap(fuel)` ids and
    CHASE_TUPLES tuples, or raises FuelExhausted, which names the base type
    that gained the most classes in the last round.  Raises IllTyped unless
    every operation of `s` runs between base types."""
    if fuel < 1:
        raise ValueError("fuel must be positive")
    names = sorted(generators)
    for name in names:
        if generators[name] not in s.sig.base_types:
            raise IllTyped(f"generator '{name}' has undeclared type '{generators[name]}'")
    chase = EGraph(s.theory, s.builtin_ops(), [generators[name] for name in names], names)
    chase.th.sides  # types the theory, or raises IllTyped, before any work
    index = {name: k for k, name in enumerate(names)}
    if images is None:
        ctx = Context(tuple((name, Base(generators[name])) for name in names))
        for lhs, rhs in equations:
            if infer_type(s.sig, ctx, lhs) != infer_type(s.sig, ctx, rhs):
                raise IllTyped(f"ground equation {format_term(lhs)} = {format_term(rhs)} "
                               f"relates different types")
            for eq in Equation(ctx, lhs, rhs).normal():
                image = _path(eq.lhs)
                rows = [index[image[0].name]] if isinstance(image[0], Var) else [-1]
                chase.seed(image, rows, [eq.rhs], index, s.entity_types)
    else:
        for op, (_, body) in normal_images({op: images[op] for op in equations}).items():
            chase.seed(_path(body), *equations[op], index, s.entity_types)
    sizes: dict[str, int] = {}
    ops_of, tables, types = s.theory.ops_of, chase.tables, chase.types

    def step(since: int) -> None:
        sizes.update((t, len(roots)) for t, roots in chase.roots.items())
        younger: list[int] = []
        for t in s.entity_types:
            younger += takewhile(lambda root: root >= since, reversed(chase.roots[t]))
        for root in sorted(younger):
            for op in ops_of[types[root]]:
                if root not in tables[op]:
                    chase.entry(op, root)
        chase.apply_equations_enumerated(since)

    _, cap, stop = chase.run(fuel, step)
    if stop != "saturated":
        within = (f"the tuple cap of {CHASE_TUPLES} tuples" if chase.tuples_left < 0
                  else f"the node cap of {cap} nodes" if stop == "nodes" else stop)
        grew = max(sorted((t, len(chase.roots[t]) - n) for t, n in sizes.items()),
                   key=itemgetter(1))
        raise FuelExhausted(f"chase did not saturate within {within}",
                            sum(len(chase.roots[t]) for t in s.entity_types),
                            grew if grew[1] > 0 else None)
    return chase


def materialize(s: FqlSchema, chase: EGraph
                ) -> tuple[Instance, list[tuple[str, str, int]], dict[int, Cell]]:
    """The instance of a saturated chase, its attribute cells as (op, row,
    class) in table order and each attribute class's value.  A row is its
    root's least path (`e.manager`, see `EGraph.extract`).  A cell holds
    its literal, a value carried from another cell's null along the
    builtins, or a fresh null, numbered in table order (see `fill`)."""
    find, parent, entity = chase.find, chase.parent, s.entity_types
    rows = chase.extract(entity)
    if len(rows) < sum(len(chase.roots[t]) for t in entity):
        raise EngineError("entity class with no extractable representative")
    carriers, keys = {}, {}  # each type's rows in order, and their roots
    for t in sorted(entity):
        named = sorted((rows[root], root) for root in chase.roots[t])
        carriers[t], keys[t] = tuple(row for row, _ in named), [root for _, root in named]
    functions: dict[str, dict[str, Cell]] = {}
    cells: list[tuple[str, str, int]] = []
    for op, (dom, cod) in s.tables.items():
        results = [value if parent[value] == value else find(value)
                   for value in map(chase.tables[op].__getitem__, keys[dom])]
        functions[op] = (dict(zip(carriers[dom], map(rows.__getitem__, results)))
                         if cod in entity else {})
        cells += [] if cod in entity else zip(repeat(op), carriers[dom], results)
    known: dict[int, Cell] = chase.literals()
    nulls = count()
    fill(s, chase.applications(), known, [root for _, _, root in cells],
         lambda _: LabelledNull(str(next(nulls))))
    for op, row, root in cells:
        functions[op][row] = known[root]
    return Instance(carriers, functions), cells, known


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
