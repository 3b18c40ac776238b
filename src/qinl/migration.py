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

import math
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import chain, product, starmap

from .chase import (
    FuelExhausted,
    UnstatedNull,
    conflict,
    fill,
    identities,
    initial_model,
    materialize,
    saturate,
)
from .equality import IllTyped, InconsistentConstants, Proved
from .kernel import App, EngineError, Term, Var
from .mapping import SchemaMapping, check_preservation
from .schema import (
    Cell,
    FqlSchema,
    Instance,
    InvalidInstance,
    LabelledNull,
    NodeBudget,
    OpApplied,
    TooLarge,
    _hom_components,
    _hom_query,
    _join_homs,
    eval_column,
    null_under,
    unstated_builtin,
)


class UnverifiedMapping(EngineError):
    def __init__(self, unproved: list[str]):
        super().__init__(
            "mapping preservation not proved for: " + "; ".join(unproved))
        self.unproved = unproved


def require_verified(mapping: SchemaMapping, fuel: int,
                     allow_unverified: bool) -> None:
    if allow_unverified:
        problems = mapping.validate()
        if problems:
            raise IllTyped(f"mapping is not well formed: {problems[0]}")
        return
    unproved = [eq.render() for eq, v in check_preservation(mapping, fuel)
                if not isinstance(v, Proved)]
    if unproved:
        raise UnverifiedMapping(unproved)


# --------------------------------------------------------------------------
# The three directions behind one entry point

# The ways a migration of well-formed input fails (exit 1 in the CLI).
MIGRATION_FAILURES = (FuelExhausted, InconsistentConstants, UnverifiedMapping,
                      UnstatedNull, InvalidInstance)


def ends(direction: str, source: str, target: str) -> tuple[str, str]:
    """The schema a migration in `direction` along a mapping from `source`
    to `target` reads its instance on, and the one it writes its result on."""
    return (target, source) if direction == "delta" else (source, target)


def migrate(direction: str, mapping: SchemaMapping, instance: Instance, *,
            fuel: int, allow_unverified: bool) -> Instance:
    """`delta`, `sigma` or `pi`, named by `direction`, of `instance` along
    `mapping`; each is looked up when called, so wrapping one by name holds."""
    operation = {"delta": delta, "sigma": sigma, "pi": pi}[direction]
    return operation(mapping, instance, fuel=fuel,
                     allow_unverified=allow_unverified)


# --------------------------------------------------------------------------
# delta: migration by composition

def delta(mapping: SchemaMapping, j: Instance, *, fuel: int = 32,
          allow_unverified: bool = False) -> Instance:
    """Pull a target instance back to the source: the carrier at each source
    entity type is the carrier at its image, and each source operation is
    interpreted by evaluating its image expression in the target instance.
    InvalidInstance when that applies to a null a builtin the source schema
    does not declare at that type, which no source instance can state."""
    require_verified(mapping, fuel, allow_unverified)
    pulled = _pull(mapping, j)
    for op, table in pulled.functions.items():
        for row, value in table.items():
            problem = (isinstance(value, OpApplied)
                       and unstated_builtin(mapping.source, op, row, value))
            if problem:
                raise InvalidInstance([f"the source schema cannot state {problem}"])
    return pulled


def _pull(mapping: SchemaMapping, j: Instance) -> Instance:
    """delta without its checks, for pi's representables, whose symbolic
    cells the source schema need not state."""
    src = mapping.source
    carriers = {t: j.rows(mapping.type_map[t]) for t in sorted(src.entity_types)}
    functions: dict[str, dict[str, Cell]] = {}
    for op, (dom, _) in src.tables.items():
        var, body = mapping.op_map[op]
        rows = list(carriers[dom])
        functions[op] = dict(zip(rows, eval_column(
            mapping.target, j, {var: rows}, len(rows), body)))
    return Instance.make(carriers, functions)


# --------------------------------------------------------------------------
# sigma: the free (chase-constructed) push-forward

def sigma(mapping: SchemaMapping, i: Instance, *, fuel: int = 32,
          allow_unverified: bool = False) -> Instance:
    """Push a source instance forward freely: every source row seeds a
    generator of its image type, and each source operation's image at a
    row's generator is equated with the generator of (or constant in) the
    row's value.  The chase gets the rows' ids and values a column per
    operation (`chase.Seeds`) and builds the initial model, adding each
    image at its seeds' classes, with one literal per distinct constant.

    Labelled nulls of the input become attribute-typed generators, so they
    stay unknown-but-fixed across their occurrences.  An attribute cell
    holds its class's literal, a builtin application of another cell's
    null (`length(?0)`), or a fresh null; UnstatedNull is raised when the
    model ties a null to more than that.
    """
    require_verified(mapping, fuel, allow_unverified)
    src, entity = mapping.source, mapping.source.entity_types
    counts = Counter(row for t in entity for row in i.rows(t))
    names = {t: [f"{row}@{t}" if counts[row] > 1 else row for row in i.rows(t)]
             for t in sorted(entity)}
    generators = {name: mapping.type_map[t] for t in names for name in names[t]}
    null_vars: dict[str, Var] = {}

    def cell_term(value: Cell, attr_type: str) -> Term:
        if isinstance(value, LabelledNull):
            var = null_vars.get(value.label)
            if var is None:
                var = null_vars[value.label] = Var(f"?{value.label}")
                generators[var.name] = attr_type
            return var
        dom = mapping.target.builtins.ops[value.op].dom
        return App(value.op, cell_term(value.arg, dom))

    cells = {op: [cell if type(cell) not in (LabelledNull, OpApplied) else cell_term(cell, cod)
                  for cell in map(i.functions[op].__getitem__, i.rows(dom))]
             for op, (dom, cod) in src.tables.items() if cod not in entity}
    index = {name: k for k, name in enumerate(sorted(generators))}
    ids = {t: [index[name] for name in names[t]] for t in names}
    id_of = {t: dict(zip(i.rows(t), ids[t])) for t in names}
    for op, (dom, cod) in src.tables.items():
        if cod in entity:
            cells[op] = [id_of[cod][i.functions[op][row]] for row in i.rows(dom)]
    seeds = {op: (ids[dom], cells[op]) for op, (dom, _) in src.tables.items()}
    return initial_model(mapping.target, generators, seeds, fuel, mapping.op_map)


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
    representable's saturated chase, searched with one null per
    undetermined class, a join run of homomorphisms at a time (`_Limit`):
    each class takes a column of its literal or of the source values the
    homomorphisms bind its null to, and `chase.fill` carries these along
    the builtin applications the target's equations put there and gives
    each open class a fresh null.  A homomorphism is dropped when an
    application then computes another value than its class holds (two
    forms of one null count as one only if the target theory proves them
    equal), so a row is kept only if its images under target operations
    are kept too.  The output has one null per row and open class,
    numbered past every numeric label of `i`'s nulls, and a builtin of it
    is written as such (`length(?0)`).
    """
    require_verified(mapping, fuel, allow_unverified)
    tgt = mapping.target
    same = identities(tgt, fuel)
    limits = {t: _Limit.of(mapping, i, t, fuel, same)
              for t in sorted(tgt.entity_types)}

    functions: dict[str, dict[str, Cell]] = {}
    nulls: dict[tuple[str, str, str], LabelledNull] = {}
    first = max((int(null.label) + 1 for null in i.nulls()
                 if null.label.isdecimal()), default=0)
    for op, (dom, cod) in tgt.tables.items():
        limit = limits[dom]
        if cod in tgt.entity_types:
            # The homomorphism of representables that sends x to f(x) is
            # fixed by it (Yoneda): a row `x.op1.op2`, a least path, goes to
            # op2(op1(f(x))).
            image, rep = limits[cod], limit.rep.functions
            positions = [limit.slots.index((s, reduce(
                lambda row, step: rep[step][row], path.split(".")[1:],
                rep[op]["x"]))) for s, path in image.slots]
            moved = list(zip(*[limit.images[p] for p in positions])) or [()] * len(limit.rows)
            table = dict(zip(limit.rows, map(image.names.get, moved)))
            if None in table.values():
                raise FuelExhausted(f"image row under '{op}' escaped the computed limit",
                                    len(limit.rows))
        else:
            column = limit.values[op]
            table = dict(zip(limit.rows, column))
            # A class takes its value the same way at every row, so a
            # column holds a `_Fresh` null at each row or at none.
            if column and isinstance(null_under(column[0]), _Fresh):
                for name in sorted(table):
                    table[name] = _restate(table[name], (dom, name), nulls, first)
        functions[op] = table
    return Instance.make({t: limit.rows for t, limit in limits.items()}, functions)


@dataclass(frozen=True)
class _Limit:
    """pi at one target entity type t.  `rep` is t's representable with one
    null per undetermined class, labelled by the class, and `slots` are the
    rows (source entity, row of rep) of its pullback.  Each kept
    homomorphism is a row: its name in `rows`, its images of the slots in
    `images` and its attribute cells at x in `values`, a column each (a
    `_Fresh` null stands for an open class); `names` maps images to names."""

    rep: Instance
    slots: list[tuple[str, str]]
    rows: list[str]
    images: list[list[str]]
    values: dict[str, list[Cell]]
    names: dict[tuple[str, ...], str]

    @classmethod
    def of(cls, mapping: SchemaMapping, i: Instance, t: str, fuel: int,
           same: Callable[[Cell, Cell], bool]) -> _Limit:
        src, tgt = mapping.source, mapping.target
        chase = saturate(tgt, {"x": t}, (), fuel)
        stated, cells, _ = materialize(tgt, chase)
        literals = chase.literals()
        functions = {op: dict(table) for op, table in stated.functions.items()}
        for op, row, root in cells:
            functions[op][row] = literals.get(root, LabelledNull(str(root)))
        rep = Instance.make(stated.carriers, functions)
        pulled = _pull(mapping, rep)
        slots = [(s, row) for s in sorted(src.entity_types)
                 for row in pulled.rows(s)]
        applications = chase.applications()
        classes = [root for _, _, root in cells]
        at_x = {op: root for op, row, root in cells if row == "x"}
        variables, atoms, slot_vars, value = _hom_query(src, pulled, i)
        template = "(" + ", ".join(f"{row}:{s}=".replace("{", "{{").replace("}", "}}")
                                   + "{}" for s, row in slots) + ")"

        # The homomorphisms of one join run bind the same nulls, so one fill
        # and one check serve the run, a column per class.
        kept: list[list] = [[] for _ in range(len(slots) + len(at_x))]  # images, then values
        count = 0
        for columns, n in _join_homs(src, i, variables, atoms, NodeBudget(None)):
            known = {root: [v] * n for root, v in literals.items()}
            known.update((int(label), eval_column(src, i, columns, n, term))
                         for label, term in value.items())
            fill(tgt, applications, known, classes, lambda root: [_Fresh(str(root))] * n)
            clashes = conflict(tgt, applications, known, same)
            run = ([columns[slot_vars[slot].name] for slot in slots]
                   + [known[root] for root in at_x.values()])
            if clashes:
                picks = [p for p in range(n) if p not in clashes]
                run = [list(map(column.__getitem__, picks)) for column in run]
            for whole, column in zip(kept, run):
                whole += column
            count += n - len(clashes)
        images, values = kept[:len(slots)], dict(zip(at_x, kept[len(slots):]))
        keys = list(zip(*images)) or [()] * count  # with no slots, one key ()
        rows = list(starmap(template.format, keys))
        return cls(rep, slots, rows, images, values, dict(zip(keys, rows)))


@dataclass(frozen=True)
class _Fresh(LabelledNull):
    """The null of an open class of a representable, labelled by the class;
    never a source null."""


def _restate(value: Cell, where: tuple[str, str],
             nulls: dict[tuple[str, str, str], LabelledNull], first: int) -> Cell:
    """`value` with its `_Fresh` null, if any, replaced by the output null
    of `where` (target entity, row) and that null's class, numbered in
    `nulls` by first use from `first`."""
    if isinstance(value, OpApplied):
        return OpApplied(value.op, _restate(value.arg, where, nulls, first))
    if not isinstance(value, _Fresh):
        return value
    return nulls.setdefault((*where, value.label),
                            LabelledNull(str(first + len(nulls))))


# --------------------------------------------------------------------------
# Homomorphism enumeration: the adjunction oracle

# The tuples that all the searches of one hom-set may build together (see
# `schema.join`), and the most homomorphisms that a hom-set lists; past
# either, TooLarge.
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


def enumerate_homs(s: FqlSchema, i: Instance, j: Instance) -> HomSet:
    """The instance homomorphisms from i to j: each connected component of
    i (`schema._hom_components`) joined once, in the order of their first
    rows, until one has none, all within one budget of HOM_SEARCH_NODES
    tuples, past which TooLarge is raised.  The hom-set keeps the runs."""
    budget = NodeBudget(HOM_SEARCH_NODES)
    parts, slots = _hom_components(s, i, j)
    joined = []
    for variables, atoms, value in parts:
        joined.append((value, list(_join_homs(s, j, variables, atoms, budget))))
        if not joined[-1][1]:
            break
    return HomSet(s, i, j, slots, joined)


class HomSet:
    """The homomorphisms from i to j, from the join runs of each component
    of i and its nulls' terms: `size` is the product of the components'
    tuples (and `len()`, below 2**63), and iterating or indexing lists
    them, complete and duplicate-free, in lexicographic order of the images
    of i's rows (types sorted, then rows; candidates in j's order).  The
    first listing takes the product of the runs, evaluates the nulls' terms
    and sorts once; TooLarge when there are more than HOM_SEARCH_NODES."""

    def __init__(self, s: FqlSchema, i: Instance, j: Instance, slots: dict[tuple[str, str], Var],
                 joined: list[tuple[dict[str, Term], list[tuple[dict[str, list[Cell]], int]]]]):
        self.s, self.i, self.j, self._slots, self._joined = s, i, j, slots, joined
        self.size = math.prod(sum(n for _, n in runs) for _, runs in joined)
        self._homs: list[Homomorphism] | None = None

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def __iter__(self) -> Iterator[Homomorphism]:
        return iter(self._list())

    def __getitem__(self, k):
        return self._list()[k]

    def _list(self) -> list[Homomorphism]:
        if self._homs is None:
            if self.size > HOM_SEARCH_NODES:
                raise TooLarge(f"{self.size} homomorphisms are more than the "
                               f"{HOM_SEARCH_NODES} that are listed")
            self._homs = self._read() if self.size else []
        return self._homs

    def _read(self) -> list[Homomorphism]:
        s, i, j = self.s, self.i, self.j
        # Each component's tuples, a field per variable and then per null
        # (`?label`, the name of a null's own variable if it has one); the
        # runs of one join hold their variables in the same order.
        fields: list[str] = []
        choices: list[list[tuple]] = []
        for value, runs in self._joined:
            columns = [{**run, **{f"?{label}": eval_column(s, j, run, n, term)
                                  for label, term in value.items()}}
                       for run, n in runs]
            fields += columns[0]
            choices.append([found for run in columns for found in zip(*run.values())])
        at = {name: k for k, name in enumerate(fields)}
        types = sorted(s.entity_types)
        images = [(t, i.rows(t), [at[self._slots[t, r].name] for r in i.rows(t)]) for t in types]
        nulls = sorted((label, at[f"?{label}"]) for value, _ in self._joined for label in value)
        position = {t: {row: k for k, row in enumerate(j.rows(t))} for t in types}
        order = [(position[t], p) for t, _, ps in images for p in ps]
        homs = [tuple(chain.from_iterable(found)) for found in product(*choices)]
        homs.sort(key=lambda h: [where[h[p]] for where, p in order])
        return [Homomorphism(tuple((t, tuple(zip(rows, map(h.__getitem__, ps))))
                                   for t, rows, ps in images),
                             tuple((label, h[p]) for label, p in nulls))
                for h in homs]
