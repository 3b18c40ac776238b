"""Equations-in-context, equational theories, and a fuel-bounded decision
procedure for provable equality.

One congruence closure serves the prover and the chase (Nelson and Oppen,
"Fast Decision Procedures Based on Congruence Closure"; Meyers, Spivak and
Wisnesky, "Fast Left Kan Extensions Using the Chase"): `EGraph` keeps
integer ids under a union-find, one table per operation from argument root
to value id, and one id per literal.  The theory, the goal and the mapping
images are put in base normal form first (`kernel.normalise`), where every
operation runs between base types, so every term is a path: a variable or
a literal under unary applications, such as `worksIn(manager(x))`.  The
prover adds the goal's sides and matches each equation side by walking
forward through the tables; the chase (see `chase`) instantiates each
equation at every tuple of roots.  A `Proved` verdict is sound; absence of
proof within fuel yields `Unknown`, never a refutation.

Before it saturates, the prover tries rewriting.  In a path theory, where
every equation equates two paths from its one variable, a goal between two
paths from one variable is a word problem of string rewriting (Knuth and
Bendix; AQL runs completion beside congruence closure for the same reason,
Schultz and Wisnesky, "Algebraic Data Integration").  `Theory.completion`
completes the equations once per theory, within a budget, and where it
finishes such a goal costs two normal-form walks and no fuel.

Matching is semi-naive.  Each id records the tick at which it was last
created, re-keyed by a rebuild, or moved into another class by a union.
After a rule's first pass, a match is instantiated only if an id it met was
touched since that pass began, a key is stale, or the match leaves a
variable free.  Any other match met the same entries at the same keys in
the same classes in the previous pass and was instantiated then (or skipped
for the same reason), so adding its other side again would find existing
ids and merge nothing: the skipped work never changes an id, a union or a
trace.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, deque
from collections.abc import Callable, Container, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, product
from math import inf

from .kernel import (
    App,
    Base,
    Context,
    EngineError,
    Lit,
    Signature,
    Term,
    Var,
    check_context,
    format_literal,
    format_term,
    format_type,
    infer_type,
    normalise,
    subterms,
)


class IllTyped(EngineError):
    """A term or equation failed to typecheck where typing is a precondition."""


class InconsistentConstants(EngineError):
    """The equations force distinct literals into one class."""

    def __init__(self, values: list[object]):
        rendered = ", ".join(format_literal(v) for v in values)
        super().__init__(f"theory forces distinct constants equal: {rendered}")
        self.values = values


@dataclass(frozen=True)
class Equation:
    ctx: Context
    lhs: Term
    rhs: Term

    def render(self) -> str:
        binder = ", ".join(f"{v}: {format_type(t)}" for v, t in self.ctx)
        head = f"forall {binder} . " if binder else ""
        return f"{head}{format_term(self.lhs)} = {format_term(self.rhs)}"

    def normal(self) -> tuple[Equation, ...]:
        """The equation in base normal form (`kernel.normalise`): itself if
        it uses no product, else one equation per base component of its
        type, over the split context, less those with equal sides."""
        ctx, left = normalise(self.ctx, self.lhs)
        right = normalise(self.ctx, self.rhs)[1]
        if ctx is self.ctx and left == (self.lhs,) and right == (self.rhs,):
            return (self,)
        return tuple(Equation(ctx, a, b) for a, b in zip(left, right) if a != b)


@dataclass(frozen=True)
class Theory:
    sig: Signature
    equations: tuple[Equation, ...] = ()

    @classmethod
    def of(cls, sig: Signature, equations: Iterable[Equation] = ()) -> Theory:
        return cls(sig, tuple(equations))

    @cached_property
    def normal(self) -> tuple[tuple[Equation, Equation], ...]:
        """Each equation beside each of its components in base normal form.
        Raises IllTyped as `cods` does, or where a side that is no bare
        variable does not typecheck."""
        self.cods
        normal = []
        for eq in self.equations:
            try:
                for side in (eq.lhs, eq.rhs):
                    if not isinstance(side, Var):
                        infer_type(self.sig, eq.ctx, side)
            except EngineError as err:
                raise IllTyped(f"equation '{eq.render()}': {err}") from err
            normal += ((eq, part) for part in eq.normal())
        return tuple(normal)

    @cached_property
    def problems(self) -> tuple[TheoryProblem, ...]:  # see `check_theory`
        problems = []
        for i, eq in enumerate(self.equations):
            try:
                check_context(self.sig, eq.ctx)
                tl = infer_type(self.sig, eq.ctx, eq.lhs)
                tr = infer_type(self.sig, eq.ctx, eq.rhs)
            except EngineError as err:
                problems.append(TheoryProblem(i, eq.render(), str(err)))
                continue
            if tl != tr:
                problems.append(TheoryProblem(
                    i, eq.render(),
                    f"sides have different types: {format_type(tl)} vs {format_type(tr)}"))
        return tuple(problems)

    @cached_property
    def cods(self) -> dict[str, str]:
        """Each operation's codomain, by name.  Raises IllTyped unless every
        operation runs between base types."""
        for op, (dom, cod) in self.sig.operations.items():
            if not isinstance(dom, Base) or not isinstance(cod, Base):
                raise IllTyped(f"operation '{op}' does not run between base types")
        return {op: cod.name for op, (_, cod) in self.sig.operations.items()}

    @cached_property
    def ops_of(self) -> dict[str, list[str]]:
        """The operations out of each base type, in name order."""
        ops: dict[str, list[str]] = {t: [] for t in self.sig.base_types}
        for op, (dom, _) in sorted(self.sig.operations.items()):
            ops.setdefault(getattr(dom, "name", None), []).append(op)
        return ops

    @cached_property
    def sides(self) -> tuple[tuple[tuple[str, ...], Side, Side, frozenset[str]], ...]:
        """The equations in base normal form as the chase instantiates them:
        each one's binders' type names, its two sides as paths over the
        binders, and the operations the sides apply.  Raises IllTyped as
        `normal` does."""
        out = []
        for _, eq in self.normal:
            slots = {var: k for k, (var, _) in enumerate(eq.ctx)}
            out.append((tuple(t.name for _, t in eq.ctx),
                        _side(*_path(eq.lhs), slots), _side(*_path(eq.rhs), slots),
                        frozenset(_operations(eq.lhs) | _operations(eq.rhs))))
        return tuple(out)

    @cached_property
    def completion(self) -> Completion | None:
        """The equations as a complete string-rewriting system (see
        `Completion`), if this is a path theory: one where each equation in
        base normal form has one context variable and equates two paths
        from it of one type, with no literal (a bare variable is a path).
        None for any other theory, or where completion passes its budget.
        Raises IllTyped as `normal` does."""
        pairs = []
        for _, part in self.normal:
            if len(part.ctx) != 1:
                return None
            (var, t), = part.ctx
            words = []
            for leaf, ops in map(_path, (part.lhs, part.rhs)):
                if leaf != Var(var):
                    return None
                words.append((tuple(ops), self.cods[ops[-1]] if ops else t.name))
            (left, cod), (right, other) = words
            if cod != other:
                return None
            pairs.append((left, right))
        rules = _complete(pairs)
        return None if rules is None else Completion.of(self.sig, rules)

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        """The equations in base normal form as the prover applies them, in
        order.  Each side not written as a bare variable is an anchor, even
        where its normal form is one: `(x, y).1` matches every root, as it
        matched every projection of a pair.  `x = y` has no anchor.  A
        rule's reason is the equation as written.  Raises IllTyped as
        `normal` does."""
        rules = []
        for eq, part in self.normal:
            written, paths = (eq.lhs, eq.rhs), (_path(part.lhs), _path(part.rhs))
            anchors = [k for k in (0, 1) if not isinstance(written[k], Var)] or [None]
            for anchor in anchors:
                leaf, ops = paths[anchor] if anchor is not None else (None, ())
                first = [leaf.name] if isinstance(leaf, Var) else []
                order = first + [var for var, _ in part.ctx if var not in first]
                slots = {var: k for k, var in enumerate(order)}
                # A bare variable consumes no entry, so no match of it is old.
                binds_all = (bool(ops) or isinstance(leaf, Lit)) and order == first
                rules.append(Rule(anchor, tuple(part.ctx.lookup(var).name for var in order),
                                  (_side(*paths[0], slots), _side(*paths[1], slots)),
                                  len(first), frozenset(ops), binds_all, eq.render()))
        return tuple(rules)


@dataclass(frozen=True, eq=False)
class Rule:
    """One way the prover applies an equation in base normal form: by
    matching side `anchor` (0 or 1), a path, at each root of its variable's
    type or at its literal, once every operation in `ops` has an entry, or
    with no anchor (`x = y`) at every tuple of roots.  `sides` are paths
    over an environment of the anchor's variable, if it has one (`bound`
    is 1), then the other context variables in order, of the type names
    `binders`.  `binds_all` says whether a match binds every context
    variable; `reason` is the rendered equation."""
    anchor: int | None
    binders: tuple[str, ...]
    sides: tuple[Side, Side]
    bound: int
    ops: frozenset[str]
    binds_all: bool
    reason: str


@dataclass(frozen=True)
class Proved:
    trace: tuple[str, ...]

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class Unknown:
    fuel_spent: int
    fuel: int
    node_cap: int
    stopped: str  # "saturated" (a round changed nothing), "nodes" (the cap) or "fuel"

    def __bool__(self) -> bool:
        return False


Verdict = Proved | Unknown


@dataclass(frozen=True)
class TheoryProblem:
    index: int
    equation: str
    message: str


def check_theory(th: Theory) -> list[TheoryProblem]:
    """Validate well-formedness of every equation, its binders' types
    included; reports all failures, worked out once per theory."""
    return list(th.problems)


# --------------------------------------------------------------------------
# The congruence-closure structure.

# Operation images, op -> (variable, body), as in a schema mapping.
Images = Mapping[str, tuple[str, Term]]

# A side of an equation in base normal form, compiled as a path: the slot of
# its variable in an environment of ids (-1 under a literal), its literal as
# (base, value) or None, and the operations applied to it, innermost first.
Side = tuple[int, tuple[str, object] | None, tuple[str, ...]]

# How many union reasons a graph keeps; `Proved.trace` lists them.
LOG_LIMIT = 30

# The most ids a saturation may make, whatever its fuel.
NODE_LIMIT = 1_000_000

# Equation instances one chase may visit (sigma of 6,400 employees visits 6,460).
CHASE_TUPLES = 100_000


class _OverCap(Exception):
    """An id or a chase's tuple passed a cap of the running `EGraph.run`."""


def node_cap(fuel: int) -> int:
    """The node budget of saturating with `fuel` rounds."""
    return min(fuel * 1000, NODE_LIMIT)


def _operations(e: Term) -> set[str]:
    return {sub.op for sub in subterms(e) if isinstance(sub, App)}


def _path(e: Term) -> tuple[Term, list[str]]:
    """`e`, in base normal form, as its leaf (a variable or a literal) and
    the operations applied to it, innermost first."""
    ops = []
    while isinstance(e, App):
        ops.append(e.op)
        e = e.arg
    return e, ops[::-1]


def _side(leaf: Term, ops: Sequence[str], slots: Mapping[str, int]) -> Side:
    """The path `ops` at `leaf` as a `Side`, its variable at `slots`."""
    if isinstance(leaf, Lit):
        return -1, (leaf.base, leaf.value), tuple(ops)
    return slots[leaf.name], None, tuple(ops)


class EGraph:
    """One congruence closure, for a proof or a chase: `parent` and `types`
    (type names) of integer ids under a union-find, and `roots` per type,
    ascending; `tables` per operation, from argument root to value id, whose
    keys `rebuild` moves off the roots a union merged away (`stale`, among
    the `used` ones); one id per literal (`literal_ids`, `values`), each
    root's sorted literal ids (`lits`), and the (round, root) of each union
    that `moved` literals; the builtin entries `applied`, as (value, op,
    argument), and the literal each was last `folded` at; per id, the tick
    at which it was last created, re-keyed or moved into another class
    (`touched`: a union ticks the root it merges away, and `find` passes
    the tick on to each id it points past it); and the first LOG_LIMIT
    union reasons (`log`).  The first ids are the variables or generators
    `names`, of the type names `types`.  Raises IllTyped unless every
    operation of `th` runs between base types."""

    def __init__(self, th: Theory, builtins: Mapping[str, Callable[[object], object]] | None,
                 types: list[str], names: Sequence[str] = ()):
        self.th, self.cods, self.names, self.builtins = th, th.cods, names, builtins or {}
        self.tables: dict[str, dict[int, int]] = {op: {} for op in self.cods}
        self.roots: dict[str, dict[int, None]] = defaultdict(dict)
        self.parent, self.types, self.touched = list(range(len(types))), types, [0] * len(types)
        self.applied: list[tuple[int, str, int]] = []
        self.folded: list[int] = []
        self.stale: list[int] = []
        self.moved: list[tuple[int, int]] = []
        self.lits: dict[int, list[int]] = {}
        self.values: dict[int, object] = {}
        self.literal_ids: dict[tuple[str, object], int] = {}
        self.used: set[int] = set()
        self.passes: dict[Rule, int] = {}
        self.log: list[str] = []
        self.version = self.round = self.tick = 0
        self.cap, self.tuples_left = inf, CHASE_TUPLES
        end = 0
        for t, run in groupby(types):  # each run of one type's ids at once
            start, end = end, end + len(list(run))
            ids = dict.fromkeys(range(start, end))
            if self.roots.setdefault(t, ids) is not ids:
                self.roots[t].update(ids)

    # -- ids ------------------------------------------------------------------

    def find(self, x: int) -> int:
        """The root of `x`'s class.  Each id on the way comes to point at
        it, keeping the newest tick of the ids it skips."""
        p = self.parent
        root = p[x]
        if p[root] == root:
            return root
        chain = [x]
        while p[root] != root:
            chain.append(root)
            root = p[root]
        touched, newest = self.touched, 0
        for y in reversed(chain):
            if touched[y] < newest:
                touched[y] = newest
            newest = touched[y]
            p[y] = root
        return root

    def node_count(self) -> int:
        return len(self.parent)

    def new(self, t: str) -> int:
        """A new root, of type `t`."""
        node = len(self.parent)
        self.parent.append(node)
        self.types.append(t)
        self.touched.append(self.tick)
        self.roots[t][node] = None
        self.version += 1
        if node >= self.cap:
            raise _OverCap
        return node

    def entry(self, op: str, key: int) -> int:
        """A new entry of `op` at root `key`."""
        node = self.tables[op][key] = self.new(self.cods[op])
        self.used.add(key)
        if op in self.builtins:
            self.applied.append((node, op, key))
        return node

    def literal(self, base: str, value: object) -> int:
        node = self.literal_ids.get((base, value))
        if node is None:
            node = self.literal_ids[base, value] = self.new(base)
            self.values[node], self.lits[node] = value, [node]
        return node

    def seed(self, image: tuple[Term, list[str]], rows: Sequence[int],
             values: Sequence[object], index: Mapping[str, int],
             entities: Container[str]) -> None:
        """Unite `image` (see `_path`) at each generator id of `rows`, or at
        its literal leaf, with the row's value, adding what is missing: a
        generator id, a constant (unless `image` has one of the types
        `entities`), or a term in the generators `index` names.  A missing
        top entry whose value has an id takes that id's root, beside a new
        id in its class."""
        leaf, path = image
        *inner, top = path or [None]
        lit = (leaf.base, leaf.value) if isinstance(leaf, Lit) else None
        table, base = self.tables.get(top), self.cods.get(top) or (lit and lit[0])
        constants = base is not None and base not in entities
        find, parent, literal_ids = self.find, self.parent, self.literal_ids
        for row, value in zip(rows, values):
            if isinstance(value, Term):
                known = (None if isinstance(value, App) else index[value.name]
                         if isinstance(value, Var) else literal_ids.get((value.base, value.value)))
            else:
                known = literal_ids.get((base, value)) if constants else value
            arg = row if lit is None else self.literal(*lit)
            if inner:
                arg = self.walk(arg, inner)
            if table is not None:
                key = arg if parent[arg] == arg else find(arg)
                arg = table.get(key, -1)
                if arg < 0 and known is not None:
                    root = table[key] = known if parent[known] == known else find(known)
                    parent.append(root)
                    self.types.append(base)
                    self.touched.append(self.tick)
                    self.used.add(key)
                    if top in self.builtins:
                        self.applied.append((root, top, key))
                    self.version += 1
                    continue
                arg = self.entry(top, key) if arg < 0 else arg
            if known is None:  # `index` as slots of the environment of all ids
                known = (self.add(_side(*_path(value), index), range(len(index)))
                         if isinstance(value, Term) else self.literal(base, value))
            self.union(arg, known)

    def walk(self, node: int, ops: Sequence[str]) -> int:
        """The entry of `ops`, innermost first, at id `node`, each added if
        missing."""
        for op in ops:
            key = node if self.parent[node] == node else self.find(node)
            node = self.tables[op].get(key, -1)
            if node < 0:
                node = self.entry(op, key)
        return node

    def add(self, side: Side, env: Sequence[int]) -> int:
        """The id of `side` with its variable at `env`, entries added."""
        slot, lit, ops = side
        return self.walk(env[slot] if lit is None else self.literal(*lit), ops)

    def union(self, x: int, y: int, reason: str = "") -> bool:
        """Merge the classes of two ids, logging `reason`; False if they
        were one."""
        parent, types = self.parent, self.types
        rx = x if parent[x] == x else self.find(x)
        ry = y if parent[y] == y else self.find(y)
        if rx == ry:
            return False
        if types[rx] != types[ry]:
            raise IllTyped(f"congruence would merge classes of different types "
                           f"{types[rx]} and {types[ry]}")
        if ry < rx:  # keep the lower id as root for determinism
            rx, ry = ry, rx
        parent[ry] = rx
        del self.roots[types[ry]][ry]
        self.touched[ry] = self.tick
        if ry in self.lits:
            self.moved.append((self.round, rx))
            self.lits[rx] = sorted(self.lits.get(rx, []) + self.lits.pop(ry))
        if ry in self.used:
            self.used.add(rx)
            self.stale.append(ry)
        self.version += 1
        if reason and len(self.log) < LOG_LIMIT:
            self.log.append(reason)
        return True

    # -- a round ----------------------------------------------------------------

    def apply_product_axioms(self) -> None:
        """Does nothing: `perfbench/layers.py` wraps it by name and fails without it."""

    def apply_equations_matched(self, th: Theory) -> None:
        """Apply each rule of `th` (see `Rule`): match its anchor, a path, by
        walking forward through the tables from each root of its variable's
        type or from its literal, one match per binding, and unite the
        class the walk ends in with the other side added at the binding and
        at each tuple of roots of the variables it leaves free.  A rule
        with an operation that has no entry yet matches nothing, and is
        skipped.

        The matches of a rule are all found before any is instantiated.
        Semi-naive: after a rule's first pass, a match is instantiated only
        if its literal or an entry it met was touched since the start of the
        rule's previous pass (`passes`), a union since the last rebuild has
        left a key stale, or the match leaves a variable free.  Else that
        pass met the same entries at the same keys in the same classes and
        instantiated the match, or skipped it for the same reason.  So its
        sides are one class, and with every key canonical, adding the other
        side again would find existing ids and the union would merge
        nothing: the ids, unions and log are those of instantiating every
        match."""
        tables, touched, find, parent = self.tables, self.touched, self.find, self.parent
        for rule in th.rules:
            left, right = rule.sides
            if rule.anchor is None:
                for env in product(*(list(self.roots[t]) for t in rule.binders)):
                    self.union(self.add(left, env), self.add(right, env), rule.reason)
                continue
            if not all(tables[op] for op in rule.ops):
                continue
            self.tick += 1
            recent = self.passes.get(rule, 0) if rule.binds_all else 0
            self.passes[rule] = self.tick
            _, lit, ops = rule.sides[rule.anchor]
            other = rule.sides[1 - rule.anchor]
            if lit is None:
                starts = list(self.roots[rule.binders[0]])
            else:
                starts = [self.literal_ids[lit]] if lit in self.literal_ids else []
            matches = []
            for start in starts:
                root = bound = start if parent[start] == start else find(start)
                newest = 0 if lit is None else touched[start]
                for op in ops:
                    entry = tables[op].get(root)
                    if entry is None:
                        break
                    root = entry if parent[entry] == entry else find(entry)
                    if touched[entry] > newest:
                        newest = touched[entry]
                else:
                    matches.append((bound, root, newest))
            for bound, root, newest in matches:
                if newest < recent and not self.stale:
                    continue
                pools = (list(self.roots[t]) for t in rule.binders[rule.bound:])
                for rest in product(*pools):
                    env = (bound, *rest) if rule.bound else rest
                    self.union(root, self.add(other, env), rule.reason)

    def apply_equations_enumerated(self, since: int = 0) -> None:
        """Each equation of the theory at each tuple of roots of its
        binders' types, both sides added and united, unless it computes
        there (`_compute`); but not the tuples of roots older than `since`
        while no key is stale and, if it computes, no class older than
        `since` gained literals in this round or the last
        (`_tuples_since`).  Only a union moves a literal into an older
        class, so the unions that `moved` literals tell.  Each tuple spends
        one of `tuples_left`."""
        for binders, left, right, ops in self.th.sides:
            computes = self.builtins.keys() >= ops
            changed = computes and any(
                at >= self.round - 1 and self.find(root) < since for at, root in self.moved)
            for env in _tuples_since([list(self.roots[t]) for t in binders], since,
                                     lambda: changed or bool(self.stale)):
                self.tuples_left -= 1
                if self.tuples_left < 0:
                    raise _OverCap
                if not computes or not self._compute(left, right, env):
                    self.union(self.add(left, env), self.add(right, env))

    def _compute(self, left: Side, right: Side, env: Sequence[int]) -> bool:
        """Where each id of `env` is in a class holding one literal and the
        sides, applying builtins only, compute one value there: add the
        literal of each value on the way, in the order `add` adds ids, and
        return True."""
        held = []
        for node in env:
            lits = self.lits.get(self.find(node))
            if lits is None or len(lits) > 1:
                return False
            held.append(self.values[lits[0]])
        out, results = [], []
        for slot, lit, ops in (left, right):
            if lit is None:
                value = held[slot]
            else:
                value = lit[1]
                out.append(lit)
            for op in ops:
                value = self.builtins[op](value)
                out.append((self.cods[op], value))
            results.append(value)
        if results[0] != results[1]:
            return False
        for base, value in out:
            self.literal(base, value)
        return True

    def fold_builtins(self) -> None:
        """Unite each builtin entry at a class holding a literal with the
        literal it computes there, unless it was folded at that literal."""
        held, folded = dict(self.lits), self.folded
        folded += [-1] * (len(self.applied) - len(folded))
        for k, (node, op, arg) in enumerate(self.applied):
            lits = held.get(self.find(arg))
            if lits and lits[0] != folded[k]:
                folded[k] = lits[0]
                value = self.builtins[op](self.values[lits[0]])
                self.union(node, self.literal(self.cods[op], value), f"compute {op}")

    def rebuild(self) -> None:
        """Restore congruence closure: move each entry keyed by a root that a
        union merged away to its class's root, uniting it with the entry
        already there, until no key is stale."""
        tables, ops_of, types = self.tables, self.th.ops_of, self.types
        while self.stale:
            todo, self.stale = self.stale, []
            for old in todo:
                for op in ops_of.get(types[old], ()):
                    node = tables[op].pop(old, None)
                    if node is not None:
                        self.touched[node] = self.tick
                        self.union(tables[op].setdefault(self.find(old), node), node,
                                   "congruence")

    def run(self, fuel: int, step: Callable[[int], None],
            goal: Callable[[], bool] = lambda: False) -> tuple[int, int, str]:
        """Saturate in at most `fuel` rounds over at most `node_cap(fuel)`
        ids: each calls `step(since)`, `since` the id count when the
        previous round began, then folds builtins and rebuilds.  A round
        stops at the id or the tuple past a cap.  Returns the rounds run,
        the cap, and why the run stopped: "goal" (tested before each round
        and at the end), "saturated", "nodes" or "fuel"."""
        cap, since = node_cap(fuel), 0
        self.cap = cap
        try:
            for rounds in range(fuel):
                if goal():
                    return rounds, cap, "goal"
                before, start = self.version, len(self.parent)
                self.round, self.tick = rounds + 1, self.tick + 1
                try:
                    step(since)
                    self.fold_builtins()
                    self.rebuild()
                except _OverCap:
                    return rounds + 1, cap, "nodes"
                if len(self.parent) > cap:
                    return rounds + 1, cap, "nodes"
                if self.version == before:
                    return rounds + 1, cap, "saturated"
                since = start
            return fuel, cap, "goal" if goal() else "fuel"
        finally:
            self.cap = inf

    # -- reading a saturated graph ---------------------------------------------

    def extract(self, types: Container[str]) -> dict[int, str]:
        """The least path over `types` from a named id to each root of
        `types` it reaches, as a row (`e.manager`).  Paths are found level
        by level from the named ids; a class keeps the first level that
        reaches it, and there the least text `op(t)`, `t` the least text of
        the argument's class, compared as a term: `f(b)` < `g(a)`, though
        rows `a.g` < `b.f`."""
        find, kinds, tables, cods = self.find, self.types, self.tables, self.cods
        best: dict[int, tuple[str, str]] = {}
        for node, name in enumerate(self.names):
            root = find(node)
            if kinds[node] in types and (root not in best or name < best[root][0]):
                best[root] = (name, name)
        level, total = dict(best), sum(len(self.roots[t]) for t in types)
        while level and len(best) < total:
            reached: dict[int, tuple[str, str]] = {}
            for child, (text, row) in level.items():
                for op in self.th.ops_of[kinds[child]]:
                    if cods[op] not in types or child not in tables[op]:
                        continue
                    root, text_op = find(tables[op][child]), f"{op}({text})"
                    if root not in best and (root not in reached or text_op < reached[root][0]):
                        reached[root] = (text_op, f"{row}.{op}")
            best.update(reached)
            level = reached
        return {root: row for root, (_, row) in best.items()}

    def literals(self) -> dict[int, object]:
        """The literal each class holds; InconsistentConstants if one holds two."""
        clashes = [lits for lits in self.lits.values() if len(lits) > 1]
        if clashes:  # the literals of one class share a type
            raise InconsistentConstants(sorted(map(self.values.get, min(clashes)), key=repr))
        return {root: self.values[lits[0]] for root, lits in self.lits.items()}

    def applications(self) -> list[tuple[int, str, int]]:
        """Each builtin entry, as sorted (class, op, argument class)."""
        return sorted({(self.find(node), op, self.find(arg)) for node, op, arg in self.applied})


def _tuples_since(pools: list[list[int]], since: int,
                  stale: Callable[[], bool]) -> Iterator[tuple[int, ...]]:
    """The product of `pools`, each an ascending list of roots, in
    lexicographic order, less each tuple of roots all older than `since`
    met while `stale()` is false.  Those tuples come in runs, the older
    roots of the last pool after an older prefix, and skipping a run
    changes nothing, so `stale` is asked once per run."""
    if not pools:
        if since == 0 or stale():
            yield ()
        return
    *firsts, last = pools
    newer = last[bisect_left(last, since):]
    for prefix in product(*firsts):
        if (prefix and max(prefix) >= since) or stale():
            for root in last:
                yield (*prefix, root)
        else:
            for root in newer:
                yield (*prefix, root)


# --------------------------------------------------------------------------
# Path theories by rewriting.

# A path as a word: the operations applied to its variable, innermost first.
Word = tuple[str, ...]

# Completion's budget: the most rules it may keep, and the most critical
# pairs it may meet over all its passes.
COMPLETION_RULES = 32
COMPLETION_PAIRS = 500

# The most rewrites one normal form may take.
REWRITE_STEPS = 10_000


@dataclass(frozen=True, eq=False)
class Completion:
    """A path theory as a complete string-rewriting system (Knuth and
    Bendix, "Simple Word Problems in Universal Algebras", 1970; Book and
    Otto, "String-Rewriting Systems", 1993).  Each rule `lhs -> rhs` is a
    pair of words of one domain type, `lhs` the greater in shortlex
    (length, then the operation names in order); no left side is a factor
    of another, and each right side is irreducible.  Every critical pair is
    joinable and shortlex is well founded, so each word has one normal
    form, and two paths from one variable are equal in the theory exactly
    when their normal forms are.  `reasons` renders each rule; `index`
    lists the rules by the last operation of their left side."""
    rules: tuple[tuple[Word, Word], ...]
    reasons: tuple[str, ...]
    index: Mapping[str, list[tuple[int, int, list[str], Word]]]

    @classmethod
    def of(cls, sig: Signature, rules: Sequence[tuple[Word, Word]]) -> Completion:
        reasons = tuple(f"forall x: {format_type(sig.operations[lhs[0]][0])} . "
                        f"{_spelled('x', lhs)} -> {_spelled('x', rhs)}" for lhs, rhs in rules)
        return cls(tuple(rules), reasons, _index(rules))

    def normal_form(self, word: Sequence[str]) -> tuple[Word, list[int]] | None:
        """`word`'s normal form and the rules that rewrote it, by number,
        in order; None past REWRITE_STEPS rewrites."""
        return _rewrite(word, self.index)


def _spelled(var: str, word: Sequence[str]) -> str:
    """The path `word` from `var`, as a term is formatted."""
    for op in word:
        var = f"{op}({var})"
    return var


def _index(rules: Iterable[tuple[Word, Word]],
           ) -> dict[str, list[tuple[int, int, list[str], Word]]]:
    """Each rule, numbered, with the length of its left side, under the
    last operation of its left side."""
    index: dict[str, list[tuple[int, int, list[str], Word]]] = defaultdict(list)
    for k, (lhs, rhs) in enumerate(rules):
        index[lhs[-1]].append((k, len(lhs), list(lhs), rhs))
    return index


def _rewrite(word: Sequence[str], index: Mapping[str, list[tuple[int, int, list[str], Word]]],
             ) -> tuple[Word, list[int]] | None:
    """The normal form of `word` under the rules of `index`, and the
    numbers of the rules applied; None past REWRITE_STEPS rewrites.  The
    word is read left to right onto a stack that holds no redex, so a redex
    can only end at its top: a rewrite pops it and puts its right side back
    in front of what is left to read."""
    out: list[str] = []
    todo, applied = list(reversed(word)), []
    while todo:
        op = todo.pop()
        out.append(op)
        for k, n, lhs, rhs in index.get(op, ()):
            if out[-n:] == lhs:
                del out[-n:]
                todo += reversed(rhs)
                applied.append(k)
                if len(applied) > REWRITE_STEPS:
                    return None
                break
    return tuple(out), applied


def _factor(part: Word, word: Word) -> bool:
    n = len(part)
    return any(word[i:i + n] == part for i in range(len(word) - n + 1))


def _overlaps(one: tuple[Word, Word], two: tuple[Word, Word]) -> Iterator[tuple[Word, Word]]:
    """The critical pairs of a proper overlap of `one`'s left side, a
    suffix of it, with a prefix of `two`'s: the two ways to rewrite the
    word they make."""
    (l1, r1), (l2, r2) = one, two
    for k in range(1, min(len(l1), len(l2))):
        if l1[-k:] == l2[:k]:
            yield r1 + l2[k:], l1[:-k] + r2


def _complete(equations: Iterable[tuple[Word, Word]]) -> list[tuple[Word, Word]] | None:
    """Knuth–Bendix completion of `equations` under shortlex: the rules of
    a complete, inter-reduced system, in the order they were made; None
    past COMPLETION_RULES rules or COMPLETION_PAIRS critical pairs, or
    where a normal form passes REWRITE_STEPS.  Each equation is rewritten
    to normal forms on both sides; unequal forms become a rule, the greater
    on the left.  A rule whose left side the new one rewrites goes back to
    be oriented again, and a right side it rewrites is put in normal form.
    Once no equation is left, the critical pairs of every two rules that
    have no common normal form become equations; completion ends when
    there are none, so every critical pair is joinable."""
    rules: dict[Word, Word] = {}
    index = _index(())
    todo, met = deque(equations), 0
    while True:
        while todo:
            sides = [_rewrite(side, index) for side in todo.popleft()]
            if None in sides:
                return None
            u, v = (form for form, _ in sides)
            if u == v:
                continue
            lhs, rhs = (u, v) if (len(v), v) < (len(u), u) else (v, u)  # shortlex
            collapsed = [old for old in rules if _factor(lhs, old)]
            for old in collapsed:
                todo.append((old, rules.pop(old)))
            rules[lhs] = rhs
            if len(rules) > COMPLETION_RULES:
                return None
            if collapsed:
                index = _index(rules.items())
            else:
                index[lhs[-1]].append((len(rules) - 1, len(lhs), list(lhs), rhs))
            reducible = [old for old, right in rules.items() if _factor(lhs, right)]
            for old in reducible:
                form = _rewrite(rules[old], index)
                if form is None:
                    return None
                rules[old] = form[0]
            if reducible:
                index = _index(rules.items())
        for one in rules.items():
            for two in rules.items():
                for u, v in _overlaps(one, two):
                    met += 1
                    if met > COMPLETION_PAIRS:
                        return None
                    forms = _rewrite(u, index), _rewrite(v, index)
                    if None in forms:
                        return None
                    if forms[0][0] != forms[1][0]:
                        todo.append((u, v))
        if not todo:
            return list(rules.items())


# --------------------------------------------------------------------------
# The decision procedure.

def normal_images(images: Images) -> Images:
    """Each image body in base normal form (`kernel.normalise`)."""
    return {op: (var, normalise(Context(), body)[1][0])
            for op, (var, body) in images.items()}


def _spliced(e: Term, images: Images | None) -> tuple[Term, list[str]]:
    """`e`'s path (see `_path`) with the body of each operation's image, if
    it has one, in place of the operation; a body that ignores its
    variable starts the path again at its literal."""
    leaf, ops = _path(e)
    if not images:
        return leaf, ops
    spliced: list[str] = []
    for op in ops:
        image = images.get(op)
        if image is None:
            spliced.append(op)
            continue
        start, body = _path(image[1])
        if isinstance(start, Var):
            spliced += body
        else:
            leaf, spliced = start, body
    return leaf, spliced


def decide_equal(th: Theory, ctx: Context, a: Term, b: Term,
                 fuel: int = 32,
                 builtin_ops: Mapping[str, Callable[[object], object]] | None = None,
                 images: Images | None = None,
                 goal: str | None = None,
                 ) -> Verdict:
    """Prove two terms equal modulo a theory whose operations run between
    base types: the components of the goal's base normal form (see
    `Equation.normal`), together.

    Where `th` is a path theory that completes (`Theory.completion`) and
    each component equates two paths from one variable, the components are
    equal exactly when their sides have one normal form: equal forms give
    `Proved`, whose first trace line is `proved <goal> in 0 round(s) by
    rewriting both sides to <normal forms>`, followed by the rules applied
    (at most LOG_LIMIT).  Any other goal, and one whose forms differ, is
    left to `decide_by_saturation`, with the same arguments, which gives
    `Unknown` past its caps.

    With `images`, in base normal form (`normal_images`), `a` and `b` are
    terms of another signature, to be proved equal translated along the
    images (see `_spliced`), which is never built as a term; `ctx` types
    them in `th`, and the caller guarantees that the translations are well
    typed at one type.  The goal defaults to `a = b` as written.  Raises
    IllTyped when a goal term or a side of an equation of `th` does not
    typecheck, or an operation of `th` does not run between base types.
    """
    parts, paths = _goal(th, ctx, a, b, fuel, images)
    proof = _rewritten(th, paths)
    if proof is None:
        return _saturate(th, ctx, a, b, parts, paths, fuel, builtin_ops, images, goal)
    forms, reasons = proof
    goal = goal or f"{format_term(a)} = {format_term(b)}"
    return Proved((f"proved {goal} in 0 round(s) by rewriting both sides to {forms}",
                   *reasons))


def decide_by_saturation(th: Theory, ctx: Context, a: Term, b: Term,
                         fuel: int = 32,
                         builtin_ops: Mapping[str, Callable[[object], object]] | None = None,
                         images: Images | None = None,
                         goal: str | None = None,
                         ) -> Verdict:
    """`decide_equal` by saturation alone: the components of the goal, in
    one graph, matched against the rules of `th` round by round (see
    `EGraph.apply_equations_matched`).  Context variables act as fresh
    constants.  Saturation runs for at most `fuel` rounds over a universe
    capped at `node_cap(fuel)` ids; exceeding either cap yields `Unknown`,
    which is not a refutation.  The first `Proved` trace line is `proved
    <goal> in N round(s) over M node(s)`; union reasons follow."""
    parts, paths = _goal(th, ctx, a, b, fuel, images)
    return _saturate(th, ctx, a, b, parts, paths, fuel, builtin_ops, images, goal)


def _goal(th: Theory, ctx: Context, a: Term, b: Term, fuel: int, images: Images | None,
          ) -> tuple[tuple[Equation, ...], list[tuple[Term, list[str]]]]:
    """The components of `a = b` in base normal form and their sides as
    spliced paths (`_spliced`), two per component, once the fuel, the
    goal's types (without `images`) and the theory are checked."""
    if fuel < 1:
        raise ValueError("fuel must be positive")
    if images is None:
        try:
            ta = infer_type(th.sig, ctx, a)
            tb = infer_type(th.sig, ctx, b)
        except EngineError as err:
            raise IllTyped(str(err)) from err
        if ta != tb:
            raise IllTyped(
                f"terms have different types: {format_type(ta)} vs {format_type(tb)}")
    th.normal  # types the theory, or raises IllTyped, before any work
    parts = Equation(ctx, a, b).normal()
    return parts, [_spliced(side, images) for part in parts for side in (part.lhs, part.rhs)]


def _rewritten(th: Theory, paths: Sequence[tuple[Term, list[str]]],
               ) -> tuple[str, list[str]] | None:
    """Where `th` completes and there are pairs of `paths`, each starting
    at one variable: the normal forms, joined by ', ', and the first
    LOG_LIMIT rules that rewrote the sides to them, if each pair has one;
    else None."""
    pairs = list(zip(paths[::2], paths[1::2]))
    if not pairs or not all(isinstance(one, Var) and one == two
                            for (one, _), (two, _) in pairs):
        return None
    completion = th.completion
    if completion is None:
        return None
    forms, applied = [], []
    for (leaf, left), (_, right) in pairs:
        one, two = completion.normal_form(left), completion.normal_form(right)
        if one is None or two is None or one[0] != two[0]:
            return None
        forms.append(_spelled(leaf.name, one[0]))
        applied += one[1] + two[1]
    return ", ".join(forms), [completion.reasons[k] for k in applied[:LOG_LIMIT]]


def _saturate(th: Theory, ctx: Context, a: Term, b: Term, parts: tuple[Equation, ...],
              paths: list[tuple[Term, list[str]]], fuel: int,
              builtin_ops: Mapping[str, Callable[[object], object]] | None,
              images: Images | None, goal: str | None) -> Verdict:
    """`decide_by_saturation` of the components `parts`, whose sides are
    spliced (`_spliced`) as `paths`."""
    if parts != (Equation(ctx, a, b),):
        # Keep every subterm's components, such as one that a projection
        # drops or an unused component of a variable: each can anchor a rule.
        paths = paths + [_spliced(t, images) for t in dict.fromkeys(
            part for side in (a, b) for sub in subterms(side) for part in normalise(ctx, sub)[1])]
    var_types = dict(normalise(ctx, a)[0].bindings)
    names = list(dict.fromkeys(leaf.name for leaf, _ in paths if isinstance(leaf, Var)))
    slots = {name: k for k, name in enumerate(names)}
    graph = EGraph(th, builtin_ops, [var_types[name].name for name in names], names)
    ids = [graph.add(_side(leaf, ops, slots), range(len(names))) for leaf, ops in paths]
    sides = list(zip(ids[0:2 * len(parts):2], ids[1:2 * len(parts):2]))
    rounds, cap, stop = graph.run(
        fuel, lambda since: graph.apply_equations_matched(th),
        lambda: all(graph.find(x) == graph.find(y) for x, y in sides))
    if stop == "goal":
        goal = goal or f"{format_term(a)} = {format_term(b)}"
        return Proved((f"proved {goal} in {rounds} round(s) over "
                       f"{graph.node_count()} node(s)", *graph.log))
    return Unknown(rounds, fuel, cap, stop)
