"""Chase construction of initial models: the free instance on typed
generators modulo a schema's theory, on tables (Meyers, Spivak and Wisnesky,
"Fast Left Kan Extensions Using the Chase"): integer ids under a union-find,
one table per operation from argument root to value id, one id per literal.
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
from contextlib import suppress
from itertools import count, repeat, takewhile
from math import inf
from operator import itemgetter

from .equality import (
    Equation, IllTyped, Images, InconsistentConstants, Proved, _OverCap, _path,
    _tuples_since, computation, decide_equal, node_cap, normal_images)
from .kernel import App, Base, Context, EngineError, Lit, Term, Var, format_term, infer_type
from .schema import (
    Cell, FqlSchema, Instance, LabelledNull, NodeBudget, OpApplied, format_cell, null_under)

# Equation instances one chase may visit (sigma of 6,400 employees visits 6,460).
CHASE_TUPLES = 100_000


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
    model, _, known = chase.materialize()
    clash = conflict(s, chase.applications, known, identities(s, fuel))
    if clash is not None:
        raise UnstatedNull(*clash)
    return model


def saturate(s: FqlSchema, generators: Mapping[str, str],
             equations: Seeds = (),
             fuel: int = 32, images: Images | None = None) -> Tables:
    """The chase itself: the saturated tables whose classes are the initial
    model's elements, the generators first, in name order (their ids).  With
    `images`, `equations` maps each operation to its seed columns, none
    typed.  Raises IllTyped unless every operation of `s` runs between base
    types."""
    if fuel < 1:
        raise ValueError("fuel must be positive")
    names = sorted(generators)
    for name in names:
        if generators[name] not in s.sig.base_types:
            raise IllTyped(f"generator '{name}' has undeclared type '{generators[name]}'")
    chase = Tables(s, [generators[name] for name in names], names)
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
                chase.seed(image, rows, [eq.rhs], index)
    else:
        for op, (_, body) in normal_images({op: images[op] for op in equations}).items():
            chase.seed(_path(body), *equations[op], index)
    chase.run(fuel)
    return chase


class Tables:
    """One chase: `parent`, `types` and `roots` (ascending, per base type)
    of the ids; `tables` per operation, keyed by roots after a round; the
    `applied` builtin entries (value, op, argument) in creation order, and
    the literal each was last `folded` at; each root's sorted `lits`, and the
    (round, root) of each union that `moved` literals; the `used` roots that
    key an entry, `stale` ones; the theory in base normal form, `compiled`.
    Raises IllTyped unless every operation runs between base types."""

    def __init__(self, s: FqlSchema, types: list[str], names: list[str]):
        self.s, self.names, self.builtins = s, names, s.builtin_ops()
        self.cods = {op: cod.name for op, (_, cod) in s.sig.operations.items()}
        self.ops_of = {t: [op for op, (dom, _) in sorted(s.sig.operations.items())
                           if getattr(dom, "name", None) == t] for t in s.sig.base_types}
        self.tables: dict[str, dict[int, int]] = {op: {} for op in self.cods}
        self.roots: dict[str, dict[int, None]] = {t: {} for t in s.sig.base_types}
        self.parent, self.types, self.applied, self.stale = list(range(len(types))), types, [], []
        self.lits, self.values, self.literal_ids, self.folded, self.moved = {}, {}, {}, [], []
        self.used, self.version, self.round, self.cap = set(), 0, 0, inf
        for node, t in enumerate(types):
            self.roots[t][node] = None
        self.compiled = [self._compile(eq) for _, eq in s.theory.normal]

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def _new(self, t: str) -> int:
        """A new root."""
        node = len(self.parent)
        self.parent.append(node)
        self.types.append(t)
        self.roots[t][node] = None
        self.version += 1
        if node >= self.cap:
            raise _OverCap
        return node

    def _entry(self, op: str, key: int) -> int:
        node = self.tables[op][key] = self._new(self.cods[op])
        self.used.add(key)
        if op in self.builtins:
            self.applied.append((node, op, key))
        return node

    def literal(self, base: str, value: object) -> int:
        node = self.literal_ids.get((base, value))
        if node is None:
            node = self.literal_ids[base, value] = self._new(base)
            self.values[node], self.lits[node] = value, [node]
        return node

    def union(self, x: int, y: int) -> None:
        """Merge the classes of two ids."""
        parent, types = self.parent, self.types
        rx = x if parent[x] == x else self.find(x)
        ry = y if parent[y] == y else self.find(y)
        if rx == ry:
            return
        if types[rx] != types[ry]:
            raise IllTyped(f"congruence would merge classes of different types "
                           f"{types[rx]} and {types[ry]}")
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx
        del self.roots[types[ry]][ry]
        if ry in self.lits:
            self.moved.append((self.round, rx))
            self.lits[rx] = sorted(self.lits.get(rx, []) + self.lits.pop(ry))
        if ry in self.used:
            self.used.add(rx)
            self.stale.append(ry)
        self.version += 1

    def seed(self, image: tuple[Term, list[str]], rows: Sequence[int],
             values: Sequence[object], index: Mapping[str, int]) -> None:
        """Unite `image` (see `_path`) at each generator id of `rows`, or at its
        literal leaf, with the row's value (see `Seeds`), adding what is missing;
        a missing top entry whose value has an id takes a new id in its class."""
        leaf, path = image
        *inner, top = path or [None]
        lit = (leaf.base, leaf.value) if isinstance(leaf, Lit) else None
        table, base = self.tables.get(top), self.cods.get(top) or (lit and lit[0])
        constants = base is not None and base not in self.s.entity_types
        find, parent, literal_ids = self.find, self.parent, self.literal_ids
        for row, value in zip(rows, values):
            if isinstance(value, Term):
                known = (None if isinstance(value, App) else index[value.name]
                         if isinstance(value, Var) else literal_ids.get((value.base, value.value)))
            else:
                known = literal_ids.get((base, value)) if constants else value
            arg = row if lit is None else self.literal(*lit)
            if inner:
                arg = self._at(arg, inner)
            if table is not None:
                key = arg if parent[arg] == arg else find(arg)
                arg = table.get(key, -1)
                if arg < 0 and known is not None:
                    root = table[key] = known if parent[known] == known else find(known)
                    parent.append(root)
                    self.types.append(base)
                    self.used.add(key)
                    if top in self.builtins:
                        self.applied.append((root, top, key))
                    self.version += 1
                    continue
                arg = self._entry(top, key) if arg < 0 else arg
            if known is None:  # `index` as slots of the environment of all ids
                known = (self.term(value, index)(range(len(index))) if isinstance(value, Term)
                         else self.literal(base, value))
            self.union(arg, known)

    def _at(self, node: int, ops: Sequence[str]) -> int:
        """The entry of `ops`, innermost first, at id `node`, each added if missing."""
        for op in ops:
            key = node if self.parent[node] == node else self.find(node)
            node = self.tables[op].get(key, -1)
            if node < 0:
                node = self._entry(op, key)
        return node

    def term(self, e: Term, slots: Mapping[str, int]) -> Callable[[Sequence[int]], int]:
        """`e`, in base normal form, compiled to its id at an environment
        (variable `v` at `slots[v]`): its path's entry at its leaf (see `_at`)."""
        leaf, ops = _path(e)
        if isinstance(leaf, Lit):
            return lambda env: self._at(self.literal(leaf.base, leaf.value), ops)
        slot = slots[leaf.name]
        return lambda env: self._at(env[slot], ops)

    def _compile(self, eq: Equation) -> tuple:
        """`eq`'s binders' types, its sides and its `computation`."""
        slots = {var: k for k, (var, _) in enumerate(eq.ctx)}
        lits, values, find = self.lits, self.values, self.find
        compute = computation(self.s.sig, self.builtins, eq,
                              lambda c: [values[n] for n in lits.get(find(c), ())],
                              self.literal)
        return ([t.name for _, t in eq.ctx], self.term(eq.lhs, slots),
                self.term(eq.rhs, slots), compute)

    def _instantiate(self, since: int) -> None:
        """Each equation at each tuple of roots of its binders' types, but
        those older than `since` while no key is stale and, if it
        computes, no class older than `since` gained literals in this round
        or the last (`_tuples_since`).  Only a union moves a literal into an
        older class, so the unions that `moved` literals tell."""
        for binders, left, right, compute in self.compiled:
            changed = compute is not None and any(
                at >= self.round - 1 and self.find(root) < since for at, root in self.moved)
            for env in _tuples_since([list(self.roots[t]) for t in binders], since,
                                     lambda: changed or bool(self.stale)):
                self.budget.left -= 1
                if self.budget.left < 0:
                    raise _OverCap
                if compute is None or not compute(env):
                    self.union(left(env), right(env))

    def _step(self, since: int) -> None:
        """One round: the entries missing at entity roots no older than
        `since` (older ones got theirs then); the equations; each builtin
        entry at a literal's class, united with the literal it computes;
        re-keying each entry at a merged-away root, uniting clashing values."""
        younger: list[int] = []
        for t in self.s.entity_types:
            younger += takewhile(lambda root: root >= since, reversed(self.roots[t]))
        for root in sorted(younger):
            for op in self.ops_of[self.types[root]]:
                if root not in self.tables[op]:
                    self._entry(op, root)
        self._instantiate(since)
        held, folded = dict(self.lits), self.folded
        folded += [-1] * (len(self.applied) - len(folded))
        for k, (node, op, arg) in enumerate(self.applied):
            lits = held.get(self.find(arg))
            if lits and lits[0] != folded[k]:
                folded[k] = lits[0]
                self.union(node, self.literal(self.cods[op],
                                              self.builtins[op](self.values[lits[0]])))
        while self.stale:
            todo, self.stale = self.stale, []
            for old in todo:
                for op in self.ops_of[self.types[old]]:
                    node = self.tables[op].pop(old, None)
                    if node is not None:
                        self.union(self.tables[op].setdefault(self.find(old), node), node)

    def run(self, fuel: int) -> None:
        """Saturate in at most `fuel` rounds, `node_cap(fuel)` ids and CHASE_TUPLES
        tuples, stopping at the id or tuple past a cap, then set `applications`,
        the builtin ones as sorted (class, op, argument class).  FuelExhausted
        names the base type that gained the most classes in the last round."""
        cap, since, stop = node_cap(fuel), 0, "fuel"
        self.cap = cap
        self.budget = NodeBudget(CHASE_TUPLES)
        for rounds in range(fuel):
            before, start = self.version, len(self.parent)
            sizes = {t: len(roots) for t, roots in self.roots.items()}
            self.round = rounds + 1
            with suppress(_OverCap):
                self._step(since)
            if self.budget.left < 0 or len(self.parent) > cap:
                stop = (f"the tuple cap of {CHASE_TUPLES} tuples" if self.budget.left < 0
                        else f"the node cap of {cap} nodes")
                break
            if self.version == before:
                self.applications = sorted({(self.find(node), op, self.find(arg))
                                            for node, op, arg in self.applied})
                return
            since = start
        grew = max(sorted((t, len(self.roots[t]) - n) for t, n in sizes.items()),
                   key=itemgetter(1))
        raise FuelExhausted(f"chase did not saturate within {stop}",
                            sum(len(self.roots[t]) for t in self.s.entity_types),
                            grew if grew[1] > 0 else None)

    def literals(self) -> dict[int, object]:
        """The literal each class holds; InconsistentConstants if one holds two."""
        clashes = [lits for lits in self.lits.values() if len(lits) > 1]
        if clashes:  # the literals of one class share a type
            raise InconsistentConstants(sorted(map(self.values.get, min(clashes)), key=repr))
        return {root: self.values[lits[0]] for root, lits in self.lits.items()}

    def materialize(self) -> tuple[Instance, list[tuple[str, str, int]], dict[int, Cell]]:
        """The instance, its attribute cells as (op, row, class) in table
        order and each attribute class's value.  A row is its root's least
        path (`e.manager`), as `EGraph.extract` finds it: level by level from
        the generators, least text `op(t)` first.  A cell holds its literal,
        a value carried from another cell's null along the builtins, or a
        fresh null, numbered in table order (see `fill`)."""
        s, find, types, entity = self.s, self.find, self.types, self.s.entity_types
        parent, entities = self.parent, sorted(root for t in entity for root in self.roots[t])
        best: dict[int, tuple[str, str]] = {}
        for node, name in enumerate(self.names):
            root = find(node)
            if types[node] in entity and (root not in best or name < best[root][0]):
                best[root] = (name, name)
        level = dict(best)
        while level and len(best) < len(entities):
            reached: dict[int, tuple[str, str]] = {}
            for child, (text, row) in level.items():
                for op in self.ops_of[types[child]]:
                    root = find(self.tables[op][child])
                    if self.cods[op] in entity and root not in best and (
                            root not in reached or f"{op}({text})" < reached[root][0]):
                        reached[root] = (f"{op}({text})", f"{row}.{op}")
            best.update(reached)
            level = reached
        if len(best) < len(entities):
            raise EngineError("entity class with no extractable representative")
        carriers, keys = {}, {}  # each type's rows in order, and their roots
        for t in sorted(entity):
            rows = sorted((best[root][1], root) for root in entities if types[root] == t)
            carriers[t], keys[t] = tuple(row for row, _ in rows), [root for _, root in rows]
        functions: dict[str, dict[str, Cell]] = {}
        cells: list[tuple[str, str, int]] = []
        for op, (dom, cod) in s.tables.items():
            results = [value if parent[value] == value else find(value)
                       for value in map(self.tables[op].__getitem__, keys[dom])]
            functions[op] = (dict(zip(carriers[dom], [best[root][1] for root in results]))
                             if cod in entity else {})
            cells += [] if cod in entity else zip(repeat(op), carriers[dom], results)
        known: dict[int, Cell] = self.literals()
        nulls = count()
        fill(s, self.applications, known, [root for _, _, root in cells],
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
