"""Chase construction of initial models: the free instance on typed
generators modulo a schema's theory, on tables (Meyers, Spivak and Wisnesky,
"Fast Left Kan Extensions Using the Chase"): integer ids under a union-find,
one table per operation from argument root to value id, one id per literal.
Totality adds the missing entries of operations on entities; each equation
is instantiated at every tuple of roots, or computed at constants; a pair
evaluates to a tuple.  The ids are the e-graph chase's (`tests/oracles.py`)
less its pair, projection and unit nodes.  A cell holds its class's constant,
a builtin of another cell's null (`length(?0)`), or a fresh labelled null.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from contextlib import suppress
from itertools import count, takewhile
from math import inf
from operator import itemgetter

from .equality import (
    Equation, IllTyped, Images, InconsistentConstants, Proved, _OverCap, _tuples_since,
    computation, decide_equal, node_cap)
from .kernel import (
    App, Base, Context, EngineError, Lit, Pair, Prod, Proj1, Proj2, Term, TypeExpr,
    UnitTerm, Var, format_term, infer_type)
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
# operation's seeds `(row, rhs)`, for `op(row) = rhs` along the images.
Seeds = Sequence[tuple[Term, Term]] | Mapping[str, Sequence[tuple[str, Term]]]


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
    model's elements, the generators first, in name order.  With `images`,
    `equations` maps each operation to its seeds `(row, rhs)`, none typed:
    the operation's image at generator `row` is united with `rhs`."""
    if fuel < 1:
        raise ValueError("fuel must be positive")
    names = sorted(generators)
    for name in names:
        if generators[name] not in s.sig.base_types:
            raise IllTyped(f"generator '{name}' has undeclared type '{generators[name]}'")
    if images is None and equations:
        ctx = Context(tuple((name, Base(generators[name])) for name in names))
        for lhs, rhs in equations:
            if infer_type(s.sig, ctx, lhs) != infer_type(s.sig, ctx, rhs):
                raise IllTyped(f"ground equation {format_term(lhs)} = {format_term(rhs)} "
                               f"relates different types")
    chase = Tables(s, [generators[name] for name in names], names)
    index, ids = {name: k for k, name in enumerate(names)}, tuple(range(len(names)))
    slots = {name: itemgetter(k) for name, k in index.items()}
    if images is None:
        seeds = [(chase.term(lhs, slots, True), ids, rhs) for lhs, rhs in equations]
    else:
        image = {op: chase.term(images[op][1], {images[op][0]: itemgetter(0)}, True)
                 for op in equations}
        seeds = [(image[op], (index[row],), rhs) for op, pairs in equations.items()
                 for row, rhs in pairs]
    for build, at, rhs in seeds:  # a new image joins a value already known
        value = (index[rhs.name] if isinstance(rhs, Var) else
                 chase.literal_ids.get((rhs.base, rhs.value)) if isinstance(rhs, Lit) else None)
        chase.into = -1 if value is None else chase.find(value)
        node = build(at)
        chase.union(node, chase.term(rhs, slots)(ids) if value is None else value)
    chase.run(fuel)
    return chase


def _binder(t: TypeExpr, leaves: list[str]) -> Callable[[Sequence[int]], object]:
    """A binder of type `t` read off a tuple of roots, one per base type in
    `t`, appended to `leaves`: a root, a tuple of them, or () for unit."""
    if isinstance(t, Base):
        leaves.append(t.name)
        return itemgetter(len(leaves) - 1)
    if isinstance(t, Prod):
        left, right = _binder(t.left, leaves), _binder(t.right, leaves)
        return lambda env: (left(env), right(env))
    return lambda env: ()


class Tables:
    """One chase: `parent`, `types` and `roots` (ascending, per base type)
    of the ids; `tables` per operation, keyed by roots after a round; the
    `applied` builtin entries (value, op, argument) in creation order; each
    root's sorted `lits`; the `used` roots that key an entry, `stale` ones."""

    def __init__(self, s: FqlSchema, types: list[str], names: list[str]):
        self.s, self.names, self.builtins = s, names, s.builtin_ops()
        self.cods = {op: cod.name for op, (_, cod) in s.sig.operations.items()}
        self.ops_of = {t: [op for op, (dom, _) in sorted(s.sig.operations.items())
                           if dom == Base(t)] for t in s.sig.base_types}
        self.tables: dict[str, dict[int, int]] = {op: {} for op in self.cods}
        self.roots: dict[str, dict[int, None]] = {t: {} for t in s.sig.base_types}
        self.parent, self.types, self.applied, self.stale = list(range(len(types))), types, [], []
        self.lits, self.values, self.touched, self.literal_ids = {}, {}, {}, {}
        self.used, self.version, self.round, self.cap, self.into = set(), 0, 0, inf, -1
        for node, t in enumerate(types):
            self.roots[t][node] = None

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def _new(self, t: str, into: int = -1) -> int:
        """A new id, a root or, as a merge would leave it, in root `into`'s class."""
        node = len(self.parent)
        self.parent.append(node if into < 0 else into)
        self.types.append(t)
        if into < 0:
            self.roots[t][node] = None
        self.version += 1
        if node >= self.cap:
            raise _OverCap
        return node

    def _entry(self, op: str, key: int, into: int = -1) -> int:
        node = self._new(self.cods[op], into)
        node = self.tables[op][key] = node if into < 0 else into
        self.used.add(key)
        if op in self.builtins:
            self.applied.append((node, op, key))
        return node

    def literal(self, base: str, value: object) -> int:
        node = self.literal_ids.get((base, value))
        if node is None:
            node = self.literal_ids[base, value] = self._new(base)
            self.values[node], self.lits[node], self.touched[node] = value, [node], self.round
        return node

    def union(self, x: object, y: object) -> None:
        """Merge the classes of two values, tuples component by component."""
        if isinstance(x, tuple):
            for a, b in zip(x, y):
                self.union(a, b)
            return
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
            for lit in self.lits[ry]:
                self.touched[lit] = self.round
            self.lits[rx] = sorted(self.lits.get(rx, []) + self.lits.pop(ry))
        if ry in self.used:
            self.used.add(rx)
            self.stale.append(ry)
        self.version += 1

    def term(self, e: Term, slots: Mapping[str, Callable], top: bool = False
             ) -> Callable[[Sequence], object]:
        """`e` compiled to its value at an environment (variables read by
        `slots`), walked left first: a literal's id, an application's entry
        at its argument's root, added if missing (at `top`, in `into`)."""
        if isinstance(e, Var):
            return slots[e.name]
        if isinstance(e, Lit):
            return lambda env: self.literal(e.base, e.value)
        if isinstance(e, UnitTerm):
            return lambda env: ()
        if isinstance(e, Pair):
            fst, snd = self.term(e.fst, slots), self.term(e.snd, slots)
            return lambda env: (fst(env), snd(env))
        if isinstance(e, (Proj1, Proj2)):
            of, k = self.term(e.of, slots), isinstance(e, Proj2)
            return lambda env: of(env)[k]
        op, arg, table, parent = e.op, self.term(e.arg, slots), self.tables[e.op], self.parent

        def app(env: Sequence) -> int:
            key = arg(env)
            if parent[key] != key:
                key = self.find(key)
            node = table.get(key)
            return self._entry(op, key, self.into if top else -1) if node is None else node
        return app

    def _compile(self, eq: Equation) -> tuple:
        """`eq`'s binders' base components, its sides and its `computation`."""
        leaves: list[str] = []
        slots = {var: _binder(t, leaves) for var, t in eq.ctx}
        lits, values, find = self.lits, self.values, self.find
        compute = all(isinstance(t, Base) for _, t in eq.ctx) and computation(
            self.s.sig, self.builtins, eq,
            lambda c: [values[n] for n in lits.get(find(c), ())], self.literal)
        return leaves, self.term(eq.lhs, slots), self.term(eq.rhs, slots), compute or None

    def _instantiate(self, since: int) -> None:
        """Each equation at each tuple of roots of its binders' components,
        but those older than `since` while no key is stale and, if it
        computes, no old class's literal was touched lately (`_tuples_since`)."""
        for leaves, left, right, compute in self.compiled:
            changed = compute is not None and any(
                root < since and max(self.touched[n] for n in lits) >= self.round - 1
                for root, lits in self.lits.items())
            for env in _tuples_since([list(self.roots[t]) for t in leaves], since,
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
        held = dict(self.lits)
        for node, op, arg in self.applied:
            lits = held.get(self.find(arg))
            if lits:
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
        self.cap, self.compiled = cap, [self._compile(eq) for eq in self.s.theory.equations]
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
        entities = sorted(root for t in entity for root in self.roots[t])
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
        carriers: dict[str, list[str]] = {t: [] for t in sorted(entity)}
        for root in entities:
            carriers[types[root]].append(best[root][1])
        roots = {best[root][1]: root for root in entities}
        functions: dict[str, dict[str, Cell]] = {op: {} for op in s.tables}
        cells: list[tuple[str, str, int]] = []
        for op, (dom, cod) in s.tables.items():
            for row in sorted(carriers[dom]):
                result = find(self.tables[op][roots[row]])
                if cod in entity:
                    functions[op][row] = best[result][1]
                else:
                    cells.append((op, row, result))
        known: dict[int, Cell] = self.literals()
        nulls = count()
        fill(s, self.applications, known, [root for _, _, root in cells],
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
