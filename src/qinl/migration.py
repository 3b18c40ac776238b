"""The three data migration operations along a schema mapping, plus the
homomorphism enumerator whose counts witness the adjunctions.

delta pulls a target instance back by composition.  sigma pushes a source
instance forward freely via the chase.  pi pushes forward as the right
adjoint of delta: its rows at a target entity type are the homomorphisms
into the source instance from delta of that type's representable, which the
chase builds.  Both adjoints are fuel-bounded and raise FuelExhausted rather
than truncating silently.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .chase import FuelExhausted, materialize, saturate
from .equality import EGraph, Proved, decide_equal
from .kernel import (
    App,
    Base,
    Context,
    EngineError,
    Lit,
    Term,
    Var,
    format_literal,
    substitute,
)
from .mapping import SchemaMapping, check_preservation
from .schema import (
    Cell,
    FqlSchema,
    Instance,
    LabelledNull,
    OpApplied,
    TooLarge,
    eval_term,
    render_cell,
    search_homs,
    slot_order,
)


class UnverifiedMapping(EngineError):
    def __init__(self, unproved: list[str]):
        super().__init__(
            "mapping preservation not proved for: " + "; ".join(unproved))
        self.unproved = unproved


class UnstatedNull(EngineError):
    """sigma's free model ties a labelled null to a value that no cell can
    state, such as `length(?0) = 2`."""

    def __init__(self, value: Cell, other: Cell):
        text = [render_cell(v) if isinstance(v, (LabelledNull, OpApplied))
                else format_literal(v) for v in (value, other)]
        super().__init__(f"the free model ties a labelled null to a value no "
                         f"cell can state: {text[0]} = {text[1]}")


def require_verified(mapping: SchemaMapping, fuel: int,
                     allow_unverified: bool) -> None:
    if allow_unverified:
        return
    unproved = [eq.render() for eq, v in check_preservation(mapping, fuel)
                if not isinstance(v, Proved)]
    if unproved:
        raise UnverifiedMapping(unproved)


# --------------------------------------------------------------------------
# delta: migration by composition

def delta(mapping: SchemaMapping, j: Instance, *, fuel: int = 32,
          allow_unverified: bool = False) -> Instance:
    """Pull a target instance back to the source: the carrier at each source
    entity type is the carrier at its image, and each source operation is
    interpreted by evaluating its image expression in the target instance."""
    require_verified(mapping, fuel, allow_unverified)
    src = mapping.source
    carriers = {t: j.rows(mapping.type_map[t]) for t in sorted(src.entity_types)}
    functions: dict[str, dict[str, Cell]] = {}
    for op in src.entity_dom_ops():
        dom = src.sig.op_type(op)[0]
        assert isinstance(dom, Base)
        var, body = mapping.op_map[op]
        functions[op] = {
            row: eval_term(mapping.target, j, {var: row}, body)
            for row in carriers[dom.name]}
    return Instance.make(carriers, functions)


# --------------------------------------------------------------------------
# sigma: the free (chase-constructed) push-forward

def sigma(mapping: SchemaMapping, i: Instance, *, fuel: int = 32,
          allow_unverified: bool = False) -> Instance:
    """Push a source instance forward freely: every source row seeds a
    generator of its image type, and for each source operation the image
    expression applied to the seed is equated with the seed of (or constant
    in) the operation's value.  The chase then builds the initial model.

    Labelled nulls of the input become attribute-typed generators, so they
    stay unknown-but-fixed across their occurrences.  An attribute cell
    holds its class's literal, a builtin application of another cell's
    null (`length(?0)`), or a fresh null; UnstatedNull is raised when the
    model ties a null to more than that.
    """
    require_verified(mapping, fuel, allow_unverified)
    src = mapping.source
    generators: dict[str, str] = {}
    seed_name: dict[tuple[str, str], str] = {}
    multiply_used = {
        row for row, count in _row_counts(src, i).items() if count > 1}
    for t in sorted(src.entity_types):
        for row in i.rows(t):
            name = f"{row}@{t}" if row in multiply_used else row
            seed_name[(t, row)] = name
            generators[name] = mapping.type_map[t]

    null_vars: dict[str, str] = {}

    def cell_term(value: Cell, attr_type: str) -> Term:
        if isinstance(value, LabelledNull):
            var = null_vars.get(value.label)
            if var is None:
                var = f"?{value.label}"
                null_vars[value.label] = var
                generators[var] = attr_type
            return Var(var)
        if isinstance(value, OpApplied):
            arg_type = mapping.target.sig.op_type(value.op)[0]
            assert isinstance(arg_type, Base)
            return App(value.op, cell_term(value.arg, arg_type.name))
        return Lit(attr_type, value)

    equations: list[tuple[Term, Term]] = []
    for op in src.entity_dom_ops():
        dom, cod = src.sig.op_type(op)
        assert isinstance(dom, Base) and isinstance(cod, Base)
        var, body = mapping.op_map[op]
        for row in i.rows(dom.name):
            lhs = substitute(body, var, Var(seed_name[(dom.name, row)]))
            value = i.functions[op][row]
            if cod.name in src.entity_types:
                rhs: Term = Var(seed_name[(cod.name, value)])
            else:
                rhs = cell_term(value, cod.name)
            equations.append((lhs, rhs))
    graph = saturate(mapping.target, generators, equations, fuel)
    free, row_roots = materialize(graph, mapping.target)
    return _state_nulls(graph, mapping.target, free, row_roots,
                        _identities(mapping.target, fuel))


def _state_nulls(graph: EGraph, s: FqlSchema, free: Instance,
                 row_roots: dict[str, int],
                 same: Callable[[Cell, Cell], bool]) -> Instance:
    """Restate the attribute cells of a materialized free model.  Fresh
    nulls go to cells whose class is no builtin application first, then to
    the rest, each in table order, and every value is carried along the
    graph's builtin applications at once.  UnstatedNull when an application
    then computes another value than its class holds, unless `same` proves
    the two equal."""
    applications = graph.builtin_applications()
    uses: dict[int, list[tuple[int, str]]] = {}
    for root, op, arg in applications:
        uses.setdefault(arg, []).append((root, op))
    applied = {root for root, _, _ in applications}
    known: dict[int, Cell] = graph.literals()
    cells = [(op, row, graph.find(graph.add_node(
        ("app", op, graph.find(row_roots[row])))))
        for op in s.entity_dom_ops() if s.classify_op(op) == "attribute"
        for row in free.functions[op]]

    def carry(start: int, value: Cell) -> None:
        known[start] = value
        todo = [start]
        while todo:
            arg = todo.pop()
            for root, op in uses.get(arg, ()):
                if root not in known:
                    known[root] = s.builtins.apply(op, known[arg])
                    todo.append(root)

    nulls = 0
    for leaves_only in (True, False):
        for _, _, root in cells:
            if root not in known and not (leaves_only and root in applied):
                carry(root, LabelledNull(str(nulls)))
                nulls += 1
    for root, op, arg in applications:
        if arg in known:
            value = s.builtins.apply(op, known[arg])
            if value != known[root] and not same(known[root], value):
                raise UnstatedNull(value, known[root])
    functions = {op: dict(table) for op, table in free.functions.items()}
    for op, row, root in cells:
        functions[op][row] = known[root]
    return Instance.make(free.carriers, functions)


def _row_counts(s: FqlSchema, i: Instance) -> dict[str, int]:
    counts: dict[str, int] = {}
    for t in s.entity_types:
        for row in i.rows(t):
            counts[row] = counts.get(row, 0) + 1
    return counts


# --------------------------------------------------------------------------
# pi: homomorphisms out of pulled-back representables

def pi(mapping: SchemaMapping, i: Instance, *, fuel: int = 32,
       allow_unverified: bool = False) -> Instance:
    """Push a source instance forward as the right adjoint of delta.

    The rows at a target entity type t are the homomorphisms into `i` from
    delta of the representable of t, the free target instance on one
    generator x : t (Spivak and Wisnesky, "Relational Foundations for
    Functorial Data Migration").  A row is named by the image of each row of
    the pulled-back representable, e.g. `(x:Emp=e1, x.manager:Emp=e4)`.

    Target operations act by precomposition: a row's image under f : t -> u
    reads each row of u's representable at its image under the homomorphism
    of representables that sends x to f(x).  Attribute values come from the
    representable's saturated e-graph: each class takes its literal, or the
    source value the homomorphism binds its cell's null to, and values are
    carried along the builtin applications the target's equations put
    there.  A homomorphism is dropped when that gives a class two values the
    output could not state as one (two forms of one null count as one only
    if the target theory proves them equal), so a row is kept only if its
    images under target operations are kept too.  A target attribute of x
    takes the value of its class, or a fresh null when no source value
    determines it.
    """
    require_verified(mapping, fuel, allow_unverified)
    tgt = mapping.target
    same = _identities(tgt, fuel)
    limits = {t: _Limit.of(mapping, i, t, fuel, same)
              for t in sorted(tgt.entity_types)}
    carriers = {t: sorted(limit.names.values()) for t, limit in limits.items()}

    functions: dict[str, dict[str, Cell]] = {}
    null_count = 0
    for op in tgt.entity_dom_ops():
        dom, cod = tgt.sig.op_type(op)
        assert isinstance(dom, Base) and isinstance(cod, Base)
        limit = limits[dom.name]
        table: dict[str, Cell] = {}
        if cod.name in tgt.entity_types:
            image = limits[cod.name]
            start = limit.rep.functions[op]["x"]
            along = next(maps for maps, _ in search_homs(tgt, image.rep, limit.rep)
                         if maps[cod.name]["x"] == start)
            positions = [limit.slots.index((s, along[mapping.type_map[s]][row]))
                         for s, row in image.slots]
            for key, name in limit.names.items():
                moved = tuple(key[p] for p in positions)
                if moved not in image.names:
                    raise FuelExhausted(
                        f"image row under '{op}' escaped the computed limit",
                        len(limit.names))
                table[name] = image.names[moved]
        else:
            for name in sorted(limit.names.values()):
                value = limit.values[name][op]
                if value is None:
                    value = LabelledNull(str(null_count))
                    null_count += 1
                table[name] = value
        functions[op] = table
    return Instance.make(carriers, functions)


@dataclass(frozen=True)
class _Limit:
    """pi at one target entity type t.  `rep` is t's representable, and
    `slots` are the rows (source entity, row of rep) of its pullback.
    `names` maps each kept homomorphism, as the tuple of its images of the
    slots, to its row name; `values` holds each row's attribute cells at x
    (None where undetermined)."""

    rep: Instance
    slots: list[tuple[str, str]]
    names: dict[tuple[str, ...], str]
    values: dict[str, dict[str, Cell | None]]

    @classmethod
    def of(cls, mapping: SchemaMapping, i: Instance, t: str, fuel: int,
           same: Callable[[Cell, Cell], bool]) -> _Limit:
        src, tgt = mapping.source, mapping.target
        graph = saturate(tgt, {"x": t}, (), fuel)
        rep, roots = materialize(graph, tgt)
        pulled = delta(mapping, rep, allow_unverified=True)
        slots = [(s, row) for s in sorted(src.entity_types)
                 for row in pulled.rows(s)]
        # Each attribute cell of rep is a class of the graph, which holds a
        # literal or stands for the cell's null.  A null that pulled does not
        # hold is open: no source value fills its cell.
        null_class: dict[str, int] = {}
        at_x: dict[str, int] = {}
        for u in sorted(tgt.entity_types):
            for op in tgt.ops_from(u):
                if tgt.classify_op(op) != "attribute":
                    continue
                for row in rep.rows(u):
                    root = graph.find(graph.add_node(
                        ("app", op, graph.find(roots[row]))))
                    cell = rep.functions[op][row]
                    if isinstance(cell, LabelledNull):
                        null_class[cell.label] = root
                    if row == "x":
                        at_x[op] = root
        bound = {null.label for null in pulled.nulls()}
        open_cells = {root for label, root in null_class.items()
                      if label not in bound}
        literals = graph.literals()
        applications = graph.builtin_applications()

        names: dict[tuple[str, ...], str] = {}
        values: dict[str, dict[str, Cell | None]] = {}
        for maps, binding in search_homs(src, pulled, i):
            known = dict(literals)
            known.update((null_class[label], v) for label, v in binding.items())
            if not _carry_builtins(tgt, applications, known, open_cells, same):
                continue
            key = tuple(maps[s][row] for s, row in slots)
            name = "(" + ", ".join(
                f"{row}:{s}={image}" for (s, row), image in zip(slots, key)) + ")"
            names[key] = name
            values[name] = {op: None if isinstance(known.get(root), _Fresh)
                            else known.get(root) for op, root in at_x.items()}
        return cls(rep, slots, names, values)


def _carry_builtins(s: FqlSchema, applications: list[tuple[int, str, int]],
                    known: dict[int, Cell], open_cells: set[int],
                    same: Callable[[Cell, Cell], bool]) -> bool:
    """Give each class (class, op, argument class) of `applications` the
    value of op at its argument's value until nothing changes, a class
    keeping its first value; then give each open cell still without one the
    fresh null pi writes there, and carry again.  False when a class would
    get another value, unless `same` proves the two equal (`reverse(reverse(
    ?u))` and `?u` under `reverse(reverse(s)) = s`), or an open cell a
    value of a source null."""
    if not applications:
        return True
    for fill in (False, True):
        if fill:
            for root in open_cells:
                known.setdefault(root, _Fresh(str(root)))
        changed = True
        while changed:
            changed = False
            for root, op, arg in applications:
                if arg not in known:
                    continue
                value = s.builtins.apply(op, known[arg])
                null = _null_under(value)
                if root not in known:
                    if null is not None and root in open_cells:
                        return False
                    known[root] = value
                    changed = True
                elif known[root] != value and not same(known[root], value):
                    return False
    return True


def _identities(s: FqlSchema, fuel: int) -> Callable[[Cell, Cell], bool]:
    """Whether two values are forms of one null, e1(?u) and e2(?u), equal at
    every value of its type T: decide_equal proves `forall v: T . e1(v) =
    e2(v)` in the theory of `s`.  Each pair of forms is decided once."""
    builtin_ops = s.builtin_ops()
    proved: dict[tuple[Term, Term], bool] = {}

    def same(a: Cell, b: Cell) -> bool:
        null = _null_under(a)
        if null is None or null != _null_under(b):
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


@dataclass(frozen=True)
class _Fresh(LabelledNull):
    """The fresh null pi writes in an open cell; never a source null."""


def _null_under(v: Cell) -> LabelledNull | None:
    """The null a value is computed from, or None for a constant."""
    while isinstance(v, OpApplied):
        v = v.arg
    return v if isinstance(v, LabelledNull) else None


# --------------------------------------------------------------------------
# Homomorphism enumeration: the adjunction oracle

HOM_SEARCH_NODES = 100_000


@dataclass(frozen=True)
class Homomorphism:
    """Per-entity-type carrier maps commuting with every operation table.
    Builtin constants are fixed; a labelled null of the source may map to any
    value, consistently across its occurrences."""

    maps: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    null_map: tuple[tuple[str, Cell], ...]

    def apply(self, entity: str, row: str) -> str:
        return dict(dict(self.maps)[entity])[row]


def enumerate_homs(s: FqlSchema, i: Instance, j: Instance) -> list[Homomorphism]:
    """Enumerate the instance homomorphisms from i to j, complete and
    duplicate-free, in lexicographic order of the images of i's rows (types
    sorted, then rows; candidates in j's order).

    A backtracking search (`schema.search_homs`) finds them in the order of
    its slots, and they are sorted back when its `slot_order` is not the
    order of the type names.  The search is guarded by the number of search
    nodes it visits, HOM_SEARCH_NODES, which also bounds the length of the
    answer; past it, TooLarge is raised.
    """
    types = sorted(s.entity_types)
    homs = [Homomorphism(
        tuple((t, tuple((row, maps[t][row]) for row in i.rows(t)))
              for t in types),
        tuple(sorted(binding.items())))
        for maps, binding in search_homs(s, i, j, max_nodes=HOM_SEARCH_NODES)]
    if slot_order(s) != types:
        position = {t: {row: k for k, row in enumerate(j.rows(t))} for t in types}
        homs.sort(key=lambda h: tuple(position[t][image] for t, pairs in h.maps
                                      for _, image in pairs))
    return homs
