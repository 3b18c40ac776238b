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

from dataclasses import dataclass

from .chase import FuelExhausted, initial_model, materialize, saturate
from .equality import EGraph, Proved
from .kernel import (
    App,
    Base,
    Context,
    EngineError,
    Lit,
    Term,
    Var,
    substitute,
)
from .mapping import SchemaMapping, apply_to_term, check_preservation
from .schema import (
    Cell,
    FqlSchema,
    Instance,
    LabelledNull,
    OpApplied,
    eval_term,
    search_homs,
)


class UnverifiedMapping(EngineError):
    def __init__(self, unproved: list[str]):
        super().__init__(
            "mapping preservation not proved for: " + "; ".join(unproved))
        self.unproved = unproved


class TooLarge(EngineError):
    pass


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
    stay unknown-but-fixed across their occurrences.
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
    return initial_model(mapping.target, generators, equations, fuel)


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
    of representables that sends x to f(x).  Every attribute cell of t's
    representable, at x or at any row reached from it, is checked: if its
    class holds a constant, source attribute terms whose images land in that
    class must agree with it, and they must agree with each other, or the
    homomorphism is dropped.  So a row is kept only if its images under
    target operations are kept too.  A target attribute of x whose class
    holds a constant takes that constant; one that no source value
    determines becomes a fresh null.
    """
    require_verified(mapping, fuel, allow_unverified)
    tgt = mapping.target
    limits = {t: _Limit.of(mapping, i, t, fuel) for t in sorted(tgt.entity_types)}
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
    slots, to its row name; `values` holds each row's attribute cells (None
    where undetermined)."""

    rep: Instance
    slots: list[tuple[str, str]]
    names: dict[tuple[str, ...], str]
    values: dict[str, dict[str, Cell | None]]

    @classmethod
    def of(cls, mapping: SchemaMapping, i: Instance, t: str, fuel: int) -> _Limit:
        src, tgt = mapping.source, mapping.target
        graph = saturate(tgt, {"x": t}, (), fuel)
        rep, roots = materialize(graph, tgt)
        pulled = delta(mapping, rep, allow_unverified=True)
        slots = [(s, row) for s in sorted(src.entity_types)
                 for row in pulled.rows(s)]
        cells_of_rep = [(row, op) for u in sorted(tgt.entity_types)
                        for op in tgt.ops_from(u)
                        if tgt.classify_op(op) == "attribute"
                        for row in rep.rows(u)]
        decomps = _attribute_decompositions(mapping, graph, roots, slots,
                                            cells_of_rep)
        constants = {(row, op): [rep.functions[op][row]]
                     for row, op in cells_of_rep
                     if not isinstance(rep.functions[op][row], LabelledNull)}
        # A cell away from x with one determining value cannot disagree.
        checked = [(row, op) for row, op in cells_of_rep
                   if row == "x" or len(constants.get((row, op), []))
                   + len(decomps[row, op]) > 1]

        names: dict[tuple[str, ...], str] = {}
        values: dict[str, dict[str, Cell | None]] = {}
        for maps, _ in search_homs(src, pulled, i):
            key = tuple(maps[s][row] for s, row in slots)
            cells: dict[str, Cell | None] = {}
            for row, op in checked:
                determined = constants.get((row, op), []) + [
                    eval_term(src, i, {"y": key[pos]}, term)
                    for pos, term in decomps[row, op]]
                if any(v != determined[0] for v in determined):
                    break
                if row == "x":
                    cells[op] = determined[0] if determined else None
            else:
                name = "(" + ", ".join(
                    f"{row}:{s}={image}"
                    for (s, row), image in zip(slots, key)) + ")"
                names[key] = name
                values[name] = cells
        return cls(rep, slots, names, values)


def _attribute_decompositions(mapping: SchemaMapping, graph: EGraph,
                              roots: dict[str, int],
                              slots: list[tuple[str, str]],
                              cells: list[tuple[str, str]], max_depth: int = 4,
                              ) -> dict[tuple[str, str], list[tuple[int, Term]]]:
    """Ways to express each attribute cell op(row) of the representable as
    the image of a source attribute term at a slot: the terms whose image,
    at the slot's row, lies in the class of op(row) in the representable's
    saturated e-graph.  Every decomposition found is kept: distinct source
    terms with one target image must agree on a homomorphism, or the
    homomorphism is excluded."""
    src, tgt = mapping.source, mapping.target
    types = sorted({tgt.sig.op_type(op)[1].name for _, op in cells})
    images = {
        s: [(term, apply_to_term(mapping, Context.of(("y", Base(s))), term))
            for goal in types for term in _terms_to_type(src, s, goal, max_depth)]
        for s in sorted(src.entity_types)}
    by_class: dict[int, list[tuple[int, Term]]] = {}
    for pos, (s, row) in enumerate(slots):
        for term, image in images[s]:
            root = graph.find(graph.add_instance(image, {"y": roots[row]}))
            by_class.setdefault(root, []).append((pos, term))
    return {(row, op): by_class.get(graph.find(graph.add_instance(
                App(op, Var("y")), {"y": roots[row]})), [])
            for row, op in cells}


def _terms_to_type(s: FqlSchema, start: str, goal: str,
                   max_depth: int) -> list[Term]:
    """Operation chains from a source entity type to a given base type, in
    the variable 'y', up to a small depth bound: an attribute, then builtin
    operations.  Chains through foreign keys are left out, as homomorphisms
    commute with foreign keys: such a chain's value at a slot is that of its
    attribute suffix at the slot the keys lead to, a decomposition of the
    same class."""
    level: list[tuple[Term, str]] = [(Var("y"), start)]
    found = []
    for _ in range(max_depth):
        nxt = []
        for term, t in level:
            for op in sorted(s.sig.operations):
                dom, cod = s.sig.op_type(op)
                assert isinstance(cod, Base)
                if dom != Base(t) or cod.name in s.entity_types:
                    continue
                chained = App(op, term)
                if cod.name == goal:
                    found.append(chained)
                nxt.append((chained, cod.name))
        level = nxt
    return found


# --------------------------------------------------------------------------
# Homomorphism enumeration: the adjunction oracle

HOM_SEARCH_LIMIT = 10_000_000


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
    duplicate-free, in lexicographic order of the images of i's rows.

    A backtracking search (`schema.search_homs`) finds them.  It is guarded
    by the product of the per-type function-space sizes, which bounds the
    length of the answer.
    """
    types = sorted(s.entity_types)
    space = 1
    for t in types:
        if len(i.rows(t)) > 0:
            space *= len(j.rows(t)) ** len(i.rows(t))
        if space > HOM_SEARCH_LIMIT:
            raise TooLarge(
                f"homomorphism search space exceeds {HOM_SEARCH_LIMIT}")
    return [Homomorphism(
        tuple((t, tuple((row, maps[t][row]) for row in i.rows(t)))
              for t in types),
        tuple(sorted(binding.items())))
        for maps, binding in search_homs(s, i, j)]
