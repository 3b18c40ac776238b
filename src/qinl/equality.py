"""Equations-in-context, equational theories, and a fuel-bounded decision
procedure for provable equality.

The prover saturates a congruence-closure structure (a small e-graph) over
the term universe generated by the two goal terms, matching equation sides
against existing classes and applying the unit and product axioms by class
type.  The chase runs the same round loop and instantiation pass with other
rules (see `chase`).  A `Proved` verdict is sound; absence of proof within
fuel yields `Unknown`, never a refutation.

Matching is semi-naive.  Each equation side is compiled once per graph into
a matcher, and each node records the round in which it was last created,
moved by a union or re-keyed by a rebuild.  After the first round, a match
is instantiated only if it consumed a node touched in this round or the
previous one, a key is stale, or the side leaves a variable free.  Any
other match met the same nodes, keys and classes in the previous round and
was instantiated then (or skipped for the same reason), so adding its other
side again would find existing nodes and merge nothing: the skipped work
never changes a node, a union or a trace.

Instantiation is compiled too.  Each term the graph adds (an equation side,
a goal term, a seed's image) compiles once per graph into a builder, which
adds the nodes the recursive walk over the term would add, in its order.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import inf

from .kernel import (
    App,
    Base,
    Context,
    EngineError,
    Lit,
    Pair,
    Proj1,
    Proj2,
    Prod,
    Signature,
    Term,
    TypeExpr,
    UNIT,
    UNIT_TERM,
    UnitTerm,
    Var,
    check_context,
    format_literal,
    format_term,
    format_type,
    infer_type,
    substitute_many,
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


@dataclass(frozen=True)
class Theory:
    sig: Signature
    equations: tuple[Equation, ...] = ()

    @classmethod
    def of(cls, sig: Signature, equations: Iterable[Equation] = ()) -> Theory:
        return cls(sig, tuple(equations))

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        """The equations as the prover applies them, in order: each side
        that is not a bare variable is an anchor, and `x = y` has none.
        Raises IllTyped when an anchor side does not typecheck."""
        rules = []
        for eq in self.equations:
            reason = eq.render()
            sides = (eq.lhs, eq.rhs)
            if all(isinstance(side, Var) for side in sides):
                rules.append(Rule(eq, None, None, frozenset(), False, reason))
            for anchor, side in enumerate(sides):
                if isinstance(side, Var):
                    continue
                try:
                    t = infer_type(self.sig, eq.ctx, side)
                except EngineError as err:
                    raise IllTyped(f"equation '{reason}': {err}") from err
                binds_all = {v for v, _ in eq.ctx} <= _variables(side).keys()
                rules.append(Rule(eq, anchor, t, frozenset(_operations(side)),
                                  binds_all, reason))
        return tuple(rules)


@dataclass(frozen=True, eq=False)
class Rule:
    """One way the prover applies an equation: by matching side `anchor`
    (0 or 1) at the roots of `type`, once every operation in `ops` is
    applied by some node, or with no anchor (`x = y`) at every tuple of
    roots.  `binds_all` says whether a match binds every context variable;
    `reason` is the rendered equation."""
    eq: Equation
    anchor: int | None
    type: TypeExpr | None
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
    included; reports all failures."""
    problems = []
    for i, eq in enumerate(th.equations):
        try:
            check_context(th.sig, eq.ctx)
            tl = infer_type(th.sig, eq.ctx, eq.lhs)
            tr = infer_type(th.sig, eq.ctx, eq.rhs)
        except EngineError as err:
            problems.append(TheoryProblem(i, eq.render(), str(err)))
            continue
        if tl != tr:
            problems.append(TheoryProblem(
                i, eq.render(),
                f"sides have different types: {format_type(tl)} vs {format_type(tr)}"))
    return problems


def instantiate(sig: Signature, eq: Equation, assignment: Mapping[str, Term],
                ctx: Context = Context()) -> tuple[Term, Term]:
    """Substitute terms for all context variables of an equation, checking
    that the assignment is type-correct against the supplied outer context."""
    for var, want in eq.ctx:
        if var not in assignment:
            raise IllTyped(f"assignment misses variable '{var}'")
        got = infer_type(sig, ctx, assignment[var])
        if got != want:
            raise TypeMismatchError(var, format_type(want), format_type(got))
    return (substitute_many(eq.lhs, assignment),
            substitute_many(eq.rhs, assignment))


class TypeMismatchError(IllTyped):
    def __init__(self, var: str, expected: str, found: str):
        super().__init__(
            f"term for '{var}' has type {found}, expected {expected}")


# --------------------------------------------------------------------------
# The congruence-closure structure.
#
# Nodes are hash-consed over canonical child class ids:
#   ("var", name)  ("unit",)  ("lit", base, value)
#   ("pair", l, r)  ("p1", c)  ("p2", c)  ("app", op, c)

NodeKey = tuple

# Operation images, op -> (variable, body), as in a schema mapping.
Images = Mapping[str, tuple[str, Term]]

# How many union reasons a graph keeps; `Proved.trace` lists them.
LOG_LIMIT = 30

# The most nodes a saturation may build, whatever its fuel.
NODE_LIMIT = 1_000_000

# The matches of a pattern at a root: each one's classes for the pattern's
# variables, in order of first occurrence, and the newest round in which
# one of the nodes it consumed was touched (see `EGraph._touched`).
Matcher = Callable[[int], list[tuple[tuple[int, ...], int]]]

# A compiled term: adds the term with each variable bound to the class at
# its position in `env`, and returns the node it stands for (see
# `EGraph.builder`).
Builder = Callable[[Sequence[int]], int]

# How an equation is instantiated at a binding of some of its variables to
# classes (see `EGraph._instantiation`): the type ids of the variables the
# binding leaves free, or None when none is enumerated, and a builder per
# side, None for the side the binding matched.
Instantiation = tuple[list[int] | None, Builder | None, Builder | None]


class _OverCap(Exception):
    """`add_node` passed the node cap of the running `run_rounds`."""


def node_cap(fuel: int) -> int:
    """The node budget of saturating with `fuel` rounds."""
    return min(fuel * 1000, NODE_LIMIT)


def _operations(e: Term) -> set[str]:
    return {sub.op for sub in subterms(e) if isinstance(sub, App)}


def _variables(e: Term, images: Images | None = None) -> dict[str, None]:
    """The variables of `e` translated along `images`, in order of first
    occurrence: none under a body that ignores its variable."""
    if isinstance(e, Var):
        return {e.name: None}
    if isinstance(e, Pair):
        return _variables(e.fst, images) | _variables(e.snd, images)
    if isinstance(e, (Proj1, Proj2)):
        return _variables(e.of, images)
    if isinstance(e, App):
        image = images.get(e.op) if images else None
        if image is None or image[0] in _variables(image[1]):
            return _variables(e.arg, images)
    return {}


@dataclass
class EGraph:
    """Hash-consed nodes over a union-find of classes, with indexes kept up
    to date by `add_node` and `union`, so that reading a class, the roots or
    the stale keys never sweeps the whole graph:

    * `_members` maps each root to its sorted member nodes; its keys are in
      ascending order, because new nodes get the highest id and a union
      keeps the lower root.  A union replaces the merged list rather than
      mutating either, so a shallow copy of the dict is a snapshot.
    * Types are interned: `_types` holds each node's type id, `_type_of`
      the type of each id and `_type_ids` the id of each type.
      `_components` holds the ids of each product type's components,
      `_products` the product of each pair of ids, and `_op_types` each
      operation's result type id, so node creation, unions and matching
      compare ints.
    * `_roots_by_type` holds, per type id, its roots in ascending order.
    * `_uses` lists, per root, the nodes with a child in the class;
      `union` moves the absorbed root's list onto the worklist `_pending`,
      which `rebuild` recanonicalises.
    * `_nodes` holds each node's key; `rebuild` makes a key canonical
      again when one of its child classes is merged away.
    * `_projections` and `_builtin_apps` list the p1/p2 nodes and the
      applications of operations with builtin semantics, by id; `_ops` is
      the set of operations that some node applies.
    * `_lits` holds the sorted literal nodes of each root that has one.
    * `_axioms_from` is the node count when `apply_product_axioms` last
      began.
    * `_touched` holds, per node, the round of `run_rounds` (`_round`, 0
      outside it) in which the node was last created, moved to another
      class by a union, or re-keyed by `rebuild`.
    * `_compiled` holds, per rule matched and per equation enumerated so
      far, its compiled matcher and instantiation.
    """

    sig: Signature
    builtin_ops: Mapping[str, Callable[[object], object]] | None = None
    _nodes: list[NodeKey] = field(default_factory=list)
    _types: list[int] = field(default_factory=list)
    _type_of: list[TypeExpr] = field(default_factory=list)
    _type_ids: dict[TypeExpr, int] = field(default_factory=dict)
    _components: dict[int, tuple[int, int]] = field(default_factory=dict)
    _products: dict[tuple[int, int], int] = field(default_factory=dict)
    _op_types: dict[str, int] = field(default_factory=dict)
    _parent: list[int] = field(default_factory=list)
    _table: dict[NodeKey, int] = field(default_factory=dict)
    _members: dict[int, list[int]] = field(default_factory=dict)
    _roots_by_type: list[dict[int, None]] = field(default_factory=list)
    _uses: list[list[int]] = field(default_factory=list)
    _pending: list[int] = field(default_factory=list)
    _projections: list[int] = field(default_factory=list)
    _builtin_apps: list[int] = field(default_factory=list)
    _lits: dict[int, list[int]] = field(default_factory=dict)
    _applications: tuple[int, list] = (-1, [])
    _ops: set[str] = field(default_factory=set)
    _axioms_from: int = 0
    _version: int = 0
    _touched: list[int] = field(default_factory=list)
    _round: int = 0
    _cap: float = inf
    _compiled: dict[object, tuple] = field(default_factory=dict)
    log: list[str] = field(default_factory=list)

    # -- union-find ---------------------------------------------------------

    def find(self, x: int) -> int:
        p = self._parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def equal(self, x: int, y: int) -> bool:
        return self.find(x) == self.find(y)

    def union(self, x: int, y: int, reason: str = "") -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        t = self._types[rx]
        if t != self._types[ry]:
            raise IllTyped(
                f"congruence would merge classes of different types "
                f"{format_type(self._type_of[t])} and "
                f"{format_type(self._type_of[self._types[ry]])}")
        # keep the lower id as root for determinism
        if ry < rx:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if ry in self._lits:
            self._lits[rx] = sorted(self._lits.get(rx, []) + self._lits.pop(ry))
        absorbed = self._members.pop(ry)
        for node in absorbed:
            self._touched[node] = self._round
        self._members[rx] = sorted(self._members[rx] + absorbed)
        del self._roots_by_type[t][ry]
        moved = self._uses[ry]
        self._uses[ry] = []
        self._uses[rx].extend(moved)
        self._pending.extend(moved)
        self._version += 1
        if reason and len(self.log) < LOG_LIMIT:
            self.log.append(reason)
        return True

    # -- types ----------------------------------------------------------------

    def _intern(self, t: TypeExpr) -> int:
        tid = self._type_ids.get(t)
        if tid is None:
            tid = self._type_ids[t] = len(self._type_of)
            self._type_of.append(t)
            self._roots_by_type.append({})
            if isinstance(t, Prod):
                self._components[tid] = (self._intern(t.left), self._intern(t.right))
        return tid

    def _product(self, left: int, right: int) -> int:
        tid = self._products.get((left, right))
        if tid is None:
            tid = self._products[left, right] = self._intern(
                Prod(self._type_of[left], self._type_of[right]))
        return tid

    def _component(self, tag: str, of: int) -> int:
        """The type id of projection `tag` ("p1" or "p2") of class `of`."""
        parts = self._components.get(self._types[of])
        if parts is None:
            raise IllTyped(f"projection from non-product "
                           f"{format_type(self._type_of[self._types[of]])}")
        return parts[tag == "p2"]

    def _op_type(self, op: str) -> int:
        tid = self._op_types.get(op)
        if tid is None:
            tid = self._op_types[op] = self._intern(self.sig.op_type(op)[1])
        return tid

    # -- node creation ------------------------------------------------------

    def _canon(self, key: NodeKey) -> NodeKey:
        tag = key[0]
        if tag in ("p1", "p2", "app"):
            return (*key[:-1], self.find(key[-1]))
        if tag == "pair":
            return ("pair", self.find(key[1]), self.find(key[2]))
        return key

    def _node_type(self, key: NodeKey) -> int:
        tag = key[0]
        if tag == "unit":
            return self._intern(UNIT)
        if tag == "lit":
            return self._intern(Base(key[1]))
        if tag == "pair":
            return self._product(self._types[self.find(key[1])],
                                 self._types[self.find(key[2])])
        if tag in ("p1", "p2"):
            return self._component(tag, self.find(key[1]))
        if tag == "app":
            return self._op_type(key[1])
        raise EngineError(f"bad node key {key!r}")

    def add_node(self, key: NodeKey, var_type: TypeExpr | None = None) -> int:
        key = self._canon(key)
        existing = self._table.get(key)
        if existing is not None:
            return existing
        t = self._intern(var_type) if key[0] == "var" else self._node_type(key)
        return self._new(key, t)

    def _new(self, key: NodeKey, t: int, into: int = -1) -> int:
        """Add a node whose canonical key `key` is not in the table, of type
        id `t`, in a class of its own or, as a union would, in root `into`'s."""
        node = len(self._nodes)
        if into < 0:
            into, self._members[node] = node, [node]
            self._roots_by_type[t][node] = None
        else:
            self._members[into] = self._members[into] + [node]
        self._nodes.append(key)
        self._types.append(t)
        self._parent.append(into)
        self._table[key] = node
        self._uses.append([])
        self._touched.append(self._round)
        tag = key[0]
        if tag == "app":
            self._uses[key[2]].append(node)
            self._ops.add(key[1])
            if self.builtin_ops and key[1] in self.builtin_ops:
                self._builtin_apps.append(node)
        elif tag == "pair":
            self._uses[key[1]].append(node)
            self._uses[key[2]].append(node)
        elif tag == "p1" or tag == "p2":
            self._uses[key[1]].append(node)
            self._projections.append(node)
        elif tag == "lit":
            self._lits[into] = self._lits.get(into, []) + [node]
        self._version += 1
        if node >= self._cap:
            raise _OverCap
        return node

    def node_count(self) -> int:
        return len(self._nodes)

    # -- views --------------------------------------------------------------

    def members(self) -> dict[int, list[int]]:
        """Each root's sorted member nodes.  The dict is a copy; the lists
        are shared with the graph and must not be mutated."""
        return dict(self._members)

    def class_roots(self) -> list[int]:
        return list(self._members)

    def class_type(self, root: int) -> TypeExpr:
        return self._type_of[self._types[self.find(root)]]

    def classes_of_type(self, t: TypeExpr) -> list[int]:
        tid = self._type_ids.get(t)
        return [] if tid is None else list(self._roots_by_type[tid])

    def node_of(self, key: NodeKey) -> int | None:
        """The node whose key is `key`, canonical, or None."""
        return self._table.get(key)

    def builtin_applications(self) -> list[tuple[int, str, int]]:
        """Each builtin application, as sorted (class, op, argument class); cached."""
        if self._applications[0] != self._version:
            nodes = self._nodes
            self._applications = (self._version, sorted(
                {(self.find(node), nodes[node][1], self.find(nodes[node][2]))
                 for node in self._builtin_apps}))
        return self._applications[1]

    def literals(self) -> dict[int, object]:
        """The literal each class holds.  Raises InconsistentConstants,
        naming the first such class's literals, when a class holds two."""
        nodes, clashes = self._nodes, [lits for lits in self._lits.values() if len(lits) > 1]
        if clashes:
            keys = sorted((nodes[n] for n in min(clashes)), key=lambda k: (k[1], repr(k[2])))
            raise InconsistentConstants([k[2] for k in keys])
        return {root: nodes[lits[0]][2] for root, lits in self._lits.items()}

    # -- congruence ---------------------------------------------------------

    def rebuild(self) -> bool:
        """Restore congruence closure after unions: recanonicalise the nodes
        whose child classes were merged (the worklist), merging any two
        that come to share a key, until no key is stale.  Afterwards the
        table maps each node's canonical key to the lowest node holding it,
        exactly as a sweep over the whole graph would leave it."""
        changed = False
        nodes, table = self._nodes, self._table
        while self._pending:
            todo, self._pending = self._pending, []
            for node in todo:
                old = nodes[node]
                new = self._canon(old)
                if new == old:
                    continue
                nodes[node] = new
                self._touched[node] = self._round
                # A key holding a merged-away root is stale for every node
                # with that key, and each of those nodes is on the worklist.
                table.pop(old, None)
                other = table.get(new)
                if other is None or node < other:
                    table[new] = node
                if other is not None and self.union(other, node, "congruence"):
                    changed = True
        return changed

    # -- axiom schemas -------------------------------------------------------

    def apply_product_axioms(self) -> None:
        """Unit uniqueness, surjective pairing, and the projection laws,
        applied schematically by class type.

        Called once per round, after a rebuild: a root that was already a
        root when the previous call began has its unit or pairing node from
        that call, so only younger roots are visited, and none while no
        type is the unit or a product."""
        start, self._axioms_from = self._axioms_from, len(self._nodes)
        unit_type = self._type_ids.get(UNIT)
        roots = self.class_roots() if unit_type is not None or self._components else []
        for root in roots[bisect_left(roots, start):]:
            t = self._types[root]
            if t == unit_type:
                unit = self.add_node(("unit",))
                self.union(root, unit, "unit law")
            elif t in self._components:
                p1 = self.add_node(("p1", self.find(root)))
                p2 = self.add_node(("p2", self.find(root)))
                pr = self.add_node(("pair", self.find(p1), self.find(p2)))
                self.union(pr, root, "surjective pairing")
        if not self._projections:
            return
        members = self.members()
        for node in self._projections:
            key = self._nodes[node]
            for member in members.get(self.find(key[1]), ()):
                mkey = self._nodes[member]
                if mkey[0] == "pair":
                    component = mkey[1] if key[0] == "p1" else mkey[2]
                    self.union(node, component, "projection")

    def fold_builtins(self) -> None:
        """Compute operations with registered semantics on literal classes."""
        if not self._builtin_apps:
            return
        lits = dict(self._lits)  # a snapshot, as a union replaces a class's list
        for node in self._builtin_apps:
            key = self._nodes[node]
            held = lits.get(self.find(key[2]))
            cod = held and self.sig.op_type(key[1])[1]
            if isinstance(cod, Base):
                value = self.builtin_ops[key[1]](self._nodes[held[0]][2])
                lit = self.add_node(("lit", cod.name, value))
                self.union(node, lit, f"compute {key[1]}")

    # -- equation application -----------------------------------------------

    def _matcher(self, pattern: Term, ctx: Context) -> tuple[list[str], Matcher]:
        """The matches of `pattern` at a root, found by descending from the
        root through the members of each class: at a member whose key has
        the pattern's constructor, into its children; a variable binds the
        class it meets when that has the variable's type, and a repeated
        variable requires the class it first bound.  The matches come in the
        order of that descent, members in ascending order, and the left
        component of a pair before the right.  Also returns the variables,
        in order of first occurrence."""
        members, nodes, touched = self._members, self._nodes, self._touched
        types, find = self._types, self.find
        names: list[str] = []
        env: list[int] = []  # the class bound to each variable
        rights: list[int] = []  # the right child of the pair being matched
        found: list[tuple[tuple[int, ...], int]] = []

        # Each pattern position compiles to a function of a root and the
        # newest round seen so far, calling `then` once per match.
        def compile(p: Term, then: Callable[[int], None]) -> Callable[[int, int], None]:
            if isinstance(p, Var):
                if p.name in names:
                    slot = names.index(p.name)

                    def same(c: int, newest: int) -> None:
                        if env[slot] == c:
                            then(newest)
                    return same
                slot, want = len(names), self._intern(ctx.lookup(p.name))
                names.append(p.name)
                env.append(-1)

                def bind(c: int, newest: int) -> None:
                    if types[c] == want:
                        env[slot] = c
                        then(newest)
                return bind
            if isinstance(p, Pair):
                slot = len(rights)
                rights.append(-1)

                def right(newest: int) -> None:
                    snd(find(rights[slot]), newest)
                fst = compile(p.fst, right)
                snd = compile(p.snd, then)

                def pair(c: int, newest: int) -> None:
                    for node in members[c]:
                        key = nodes[node]
                        if key[0] == "pair":
                            rights[slot] = key[2]
                            t = touched[node]
                            fst(find(key[1]), t if t > newest else newest)
                return pair
            if isinstance(p, App):
                op, arg = p.op, compile(p.arg, then)

                def app(c: int, newest: int) -> None:
                    for node in members[c]:
                        key = nodes[node]
                        if key[0] == "app" and key[1] == op:
                            t = touched[node]
                            arg(find(key[2]), t if t > newest else newest)
                return app
            if isinstance(p, (Proj1, Proj2)):
                tag, of = ("p1" if isinstance(p, Proj1) else "p2"), compile(p.of, then)

                def projection(c: int, newest: int) -> None:
                    for node in members[c]:
                        key = nodes[node]
                        if key[0] == tag:
                            t = touched[node]
                            of(find(key[1]), t if t > newest else newest)
                return projection
            if isinstance(p, (UnitTerm, Lit)):
                leaf = ("unit",) if isinstance(p, UnitTerm) else ("lit", p.base, p.value)

                def constant(c: int, newest: int) -> None:
                    for node in members[c]:
                        if nodes[node] == leaf:
                            t = touched[node]
                            then(t if t > newest else newest)
                return constant
            raise EngineError(f"cannot match unknown construct {p!r}")

        top = compile(pattern, lambda newest: found.append((tuple(env), newest)))

        def match(root: int) -> list[tuple[tuple[int, ...], int]]:
            top(find(root), 0)
            out = found[:]
            found.clear()
            return out
        return names, match

    def builder(self, e: Term, slots: Mapping[str, int],
                images: Images | None = None,
                into: list[int] | None = None) -> Builder:
        """Compile `e` into a builder (see `Builder`) that reads the class of
        each variable at its position in `slots`, and adds the nodes a
        recursive walk over `e` adds, in its order: a pair's left component
        before its right, a child before its parent.  An application of an
        operation in `images` adds the image's body, with no images, and
        its variable bound to the argument's class; the argument is added
        only if the body uses its variable, and once however often it
        does.  With `into`, the node `e` stands for, if new, joins the
        class of root `into[0]` unless that is negative."""
        table, find, types = self._table, self.find, self._types
        new = self._new if into is None else (lambda key, t: self._new(key, t, into[0]))
        if isinstance(e, Var):
            slot = slots[e.name]
            return lambda env: env[slot]
        if isinstance(e, (UnitTerm, Lit)):
            leaf = ("unit",) if isinstance(e, UnitTerm) else ("lit", e.base, e.value)

            def constant(env: Sequence[int]) -> int:
                node = table.get(leaf)
                return new(leaf, self._node_type(leaf)) if node is None else node
            return constant
        if isinstance(e, Pair):
            fst = self.builder(e.fst, slots, images)
            snd = self.builder(e.snd, slots, images)

            def pair(env: Sequence[int]) -> int:
                left, right = find(fst(env)), find(snd(env))
                key = ("pair", left, right)
                node = table.get(key)
                if node is None:
                    return new(key, self._product(types[left], types[right]))
                return node
            return pair
        if isinstance(e, (Proj1, Proj2)):
            tag, of = ("p1" if isinstance(e, Proj1) else "p2"), self.builder(e.of, slots, images)

            def projection(env: Sequence[int]) -> int:
                inner = find(of(env))
                key = (tag, inner)
                node = table.get(key)
                return new(key, self._component(tag, inner)) if node is None else node
            return projection
        if isinstance(e, App):
            image = images.get(e.op) if images else None
            if image is not None:
                var, body = image
                build = self.builder(body, {var: 0}, None, into)
                if var not in _variables(body):
                    return lambda env: build(())
                arg = self.builder(e.arg, slots, images)
                return lambda env: build((find(arg(env)),))
            op, arg = e.op, self.builder(e.arg, slots, images)

            def app(env: Sequence[int]) -> int:
                key = ("app", op, find(arg(env)))
                node = table.get(key)
                return new(key, self._op_type(op)) if node is None else node
            return app
        raise EngineError(f"cannot instantiate unknown construct {e!r}")

    def apply_equations_matched(self, th: Theory) -> None:
        """Apply each equation by matching one side against existing classes
        and adding the instantiated other side.  A side that is a bare
        variable is not used as a match anchor (its partner direction covers
        the derivation without inventing terms; `x = y` has none).  A side
        applying an operation that no node applies yet matches nothing, and
        then its pass adds nothing either, so it is skipped.

        Semi-naive: in round R > 1 of `run_rounds`, a match is instantiated
        only if one of the nodes it consumed was touched in round R - 1 or
        R, a union since the last rebuild has left a key stale, or the side
        leaves a context variable free (whose pools grow).  Any other match
        was found at the same root in round R - 1, by the same descent
        through the same keys into the same classes, and was instantiated
        then or skipped for the same reason.  So its two sides are already
        one class, and with every key canonical, adding the other side again
        would find existing nodes and the union would merge nothing: the
        nodes, unions and log are those of instantiating every match."""
        for rule in th.rules:
            if rule.anchor is None:
                compiled = self._compiled.get(rule)
                if compiled is None:
                    compiled = self._compiled[rule] = self._instantiation(rule.eq, [])
                self._union_sides(compiled, (), 0, rule.reason)
                continue
            if not rule.ops <= self._ops:
                continue
            compiled = self._compiled.get(rule)
            if compiled is None:
                side = (rule.eq.lhs, rule.eq.rhs)[rule.anchor]
                names, match = self._matcher(side, rule.eq.ctx)
                compiled = self._compiled[rule] = (
                    self._intern(rule.type), match,
                    self._instantiation(rule.eq, names, rule.anchor))
            t, match, instantiation = compiled
            recent = self._round - 1 if self._round > 1 and rule.binds_all else 0
            for root in list(self._roots_by_type[t]):
                for classes, newest in match(root):
                    if newest >= recent or self._pending:
                        self._union_sides(instantiation, classes, 0, rule.reason, root)

    def apply_equations_enumerated(self, equations: Iterable[Equation],
                                   since: int = 0) -> None:
        """Instantiate each equation at every tuple of existing classes whose
        types match the equation context, adding both sides.  Unlike matched
        application this invents terms; the chase uses it to impose every
        ground instance of a theory.

        Semi-naive: with `since` no more than the node count when the
        previous call began, a tuple of roots all older than `since` is
        skipped while every node's key is canonical (no union since the
        last rebuild has left a key stale).  That call, or an earlier one,
        instantiated the tuple, so both its sides are nodes of one class,
        and adding them again would find those nodes and merge nothing.  So
        the nodes and unions are those of visiting every tuple.  An equation
        with an empty context has one tuple, which counts as old after the
        first call.

        Constants are computed where `_computation` can, adding the literals
        `fold_builtins` would put in the classes of instantiated builtins.
        Such an equation meets every tuple while an old class has a literal
        node touched in this round or the last, as a class that gains one has."""
        for eq in equations:
            compiled = self._compiled.get(eq)
            if compiled is None:
                compiled = self._compiled[eq] = (self._instantiation(eq, []),
                                                 eq.render(), self._computation(eq))
            self._union_sides(compiled[0], (), since, compiled[1], compute=compiled[2])

    def _computation(self, eq: Equation) -> Callable[[tuple[int, ...]], bool] | None:
        """Computes `eq` at classes, one per variable, that each hold one
        literal, where both sides compute one value: adds the literal of
        each value, in the order instantiation adds nodes, and returns True.
        None unless the sides apply only builtins with base codomains."""
        ops, slots = self.builtin_ops or {}, {var: k for k, (var, _) in enumerate(eq.ctx)}
        subs = [*subterms(eq.lhs), *subterms(eq.rhs)]
        cods = {sub.op: self.sig.op_type(sub.op)[1] for sub in subs if isinstance(sub, App)}
        if not all(isinstance(sub, (Var, Lit, App)) for sub in subs) or not all(
                op in ops and isinstance(cod, Base) for op, cod in cods.items()):
            return None

        def value(e: Term, env: list, out: list) -> object:
            if isinstance(e, Var):
                return env[slots[e.name]]
            v = e.value if isinstance(e, Lit) else ops[e.op](value(e.arg, env, out))
            out.append(("lit", e.base if isinstance(e, Lit) else cods[e.op].name, v))
            return v

        def compute(env: tuple[int, ...]) -> bool:
            held, out = [self._lits.get(self.find(c), ()) for c in env], []
            values = [self._nodes[h[0]][2] for h in held if len(h) == 1]
            if len(values) < len(env) or value(eq.lhs, values, out) != value(eq.rhs, values, out):
                return False
            for key in out:
                self.add_node(key)
            return True
        return compute

    def _instantiation(self, eq: Equation, bound: list[str],
                       anchor: int | None = None) -> Instantiation:
        """Compile `eq` for instantiation at bindings of the variables
        `bound`, in that order, that match side `anchor` (0 or 1), or with
        no anchor.  The variables left free, in context order, range over
        the tuples of roots of their types, as do all of them with no
        anchor."""
        free = [(var, t) for var, t in eq.ctx if var not in bound]
        slots = {var: k for k, var in enumerate(bound + [var for var, _ in free])}
        enumerated = anchor is None or len(bound) < len(eq.ctx.bindings)
        pools = [self._intern(t) for _, t in free] if enumerated else None
        left, right = (None if anchor == k else self.builder(side, slots)
                       for k, side in enumerate((eq.lhs, eq.rhs)))
        return pools, left, right

    def _union_sides(self, instantiation: Instantiation, bound: tuple[int, ...],
                     since: int, reason: str, root: int = -1,
                     compute: Callable[[tuple[int, ...]], bool] | None = None) -> None:
        """Union the two sides of an equation compiled by `_instantiation`
        at the classes `bound` matched, the matched side standing for
        `root`, unless `compute` computes it there.  The variables a match
        leaves free range over the tuples of roots of their types, read
        now, from `_tuples_since`."""
        pools, left, right = instantiation
        envs: Iterable[tuple[int, ...]] = (bound,)
        if pools is not None:
            touched, recent = self._touched, self._round - 1
            changed = compute is not None and any(
                root < since and max(touched[n] for n in lits) >= recent
                for root, lits in self._lits.items())
            envs = (bound + roots for roots in _tuples_since(
                [list(self._roots_by_type[t]) for t in pools], since,
                lambda: changed or bool(self._pending)))
        for env in envs:
            if compute is None or not compute(env):
                self.union(root if left is None else left(env),
                           root if right is None else right(env), reason)

    def run_rounds(self, step: Callable[[int], None], fuel: int,
                   goal: Callable[[], bool] = lambda: False) -> tuple[int, int, str]:
        """Saturate in at most `fuel` rounds over at most `node_cap(fuel)`
        nodes: each calls `step(since)`, `since` the node count when the
        previous round began, then folds builtins and rebuilds.  A round
        stops at the node that passes the cap.  Returns the rounds run, the
        cap, and why the run stopped: "goal" (tested before each round and
        at the end), "saturated", "nodes" or "fuel"."""
        cap, since = node_cap(fuel), 0
        self._cap = cap
        try:
            for rounds in range(fuel):
                if goal():
                    return rounds, cap, "goal"
                before, start = self._version, len(self._nodes)
                self._round = rounds + 1
                try:
                    step(since)
                    self.fold_builtins()
                    self.rebuild()
                except _OverCap:
                    return rounds + 1, cap, "nodes"
                since = start
                if len(self._nodes) > cap:
                    return rounds + 1, cap, "nodes"
                if self._version == before:
                    return rounds + 1, cap, "saturated"
            return fuel, cap, "goal" if goal() else "fuel"
        finally:
            self._cap = inf

    # -- extraction ----------------------------------------------------------

    def _types_below(self, roots: Iterable[int]) -> set[int]:
        """The type ids of `roots` and, transitively, those a child of a
        node of such a type can have: the domain of each operation that
        some node applies and that returns the type, the components of a
        product, and, once there is a projection node, each product of
        which the type is a component."""
        below: dict[int, set[int]] = {}
        for op in self._ops:
            below.setdefault(self._op_type(op), set()).add(
                self._intern(self.sig.op_type(op)[0]))
        for product, parts in self._components.items():
            below.setdefault(product, set()).update(parts)
            if self._projections:
                for part in parts:
                    below.setdefault(part, set()).add(product)
        wanted: set[int] = set()
        todo = [self._types[self.find(root)] for root in roots]
        while todo:
            t = todo.pop()
            if t not in wanted:
                wanted.add(t)
                todo.extend(below.get(t, ()))
        return wanted

    def extract(self, roots: Iterable[int] | None = None) -> dict[int, Term]:
        """Minimal representative term per class, by (size, text) order, of
        every class, or of at least the classes of `roots`.  Classes with no
        leaf-grounded member (possible in cyclic graphs) are absent from the
        result.

        Every node is offered to its class, in id order, sweep after sweep,
        until no class improves.  A node's (size, text) key is composed from
        its children's best keys, as `term_key` of the term it stands for
        would compute it (`op(t)` is one larger than `t`, and its text is
        `op(` + text + `)`), and the term itself is built only when the key
        beats the class's.  With `roots`, only the nodes of the types
        `_types_below` gives are offered.  Their children are of those types
        too, so each of their classes is offered the nodes it would be
        offered in a sweep over every node, in the same order, and gets the
        same term."""
        best: dict[int, tuple[tuple[int, str], Term]] = {}
        find, nodes = self.find, self._nodes
        order: Iterable[int] = range(len(nodes))
        if roots is not None:
            wanted, types = self._types_below(roots), self._types
            order = [node for node in order if types[node] in wanted]
        changed = True
        while changed:
            changed = False
            for node in order:
                key = nodes[node]
                tag = key[0]
                if tag == "app" or tag == "p1" or tag == "p2":
                    inner = best.get(find(key[-1]))
                    if inner is None:
                        continue
                    size = inner[0][0] + 1
                elif tag == "pair":
                    left = best.get(find(key[1]))
                    right = best.get(find(key[2]))
                    if left is None or right is None:
                        continue
                    size = left[0][0] + right[0][0] + 1
                else:
                    size = 1
                root = find(node)
                current = best.get(root)
                if current is not None and size > current[0][0]:
                    continue
                if tag == "app":
                    text = f"{key[1]}({inner[0][1]})"
                elif tag == "p1" or tag == "p2":
                    text = f"{inner[0][1]}.{tag[1]}"
                elif tag == "pair":
                    text = f"({left[0][1]}, {right[0][1]})"
                elif tag == "var":
                    text = key[1]
                elif tag == "unit":
                    text = "()"
                else:
                    text = format_literal(key[2])
                if current is not None and (size, text) >= current[0]:
                    continue
                if tag == "app":
                    term: Term = App(key[1], inner[1])
                elif tag == "p1":
                    term = Proj1(inner[1])
                elif tag == "p2":
                    term = Proj2(inner[1])
                elif tag == "pair":
                    term = Pair(left[1], right[1])
                elif tag == "var":
                    term = Var(key[1])
                elif tag == "unit":
                    term = UNIT_TERM
                else:
                    term = Lit(key[1], key[2])
                best[root] = ((size, text), term)
                changed = True
        return {root: term for root, (_, term) in best.items()}


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
# The decision procedure.

def decide_equal(th: Theory, ctx: Context, a: Term, b: Term,
                 fuel: int = 32,
                 builtin_ops: Mapping[str, Callable[[object], object]] | None = None,
                 images: Images | None = None,
                 goal: str | None = None,
                 ) -> Verdict:
    """Prove two terms equal modulo a theory plus the unit/product axioms.

    Context variables act as fresh constants.  Saturation runs for at most
    `fuel` rounds over a universe capped at `node_cap(fuel)` nodes;
    exceeding either cap yields `Unknown`, which is not a refutation.

    With `images`, `a` and `b` are terms of another signature, to be proved
    equal translated along the images (see `EGraph.builder`), which is
    never built as a term; `ctx` types them in `th`, and the caller
    guarantees that the translations are well typed at one type.  The
    first `Proved` trace line is `proved <goal> in N round(s) over M
    node(s)`, the goal defaulting to `a = b`; union reasons follow.
    Raises IllTyped when a goal term or a side of an equation of `th`
    does not typecheck.
    """
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

    graph = EGraph(th.sig, builtin_ops)
    var_types = dict(ctx.bindings)
    names = list(_variables(Pair(a, b), images))
    env = [graph.add_node(("var", name), var_types[name]) for name in names]
    slots = {name: k for k, name in enumerate(names)}
    ida = graph.builder(a, slots, images)(env)
    idb = graph.builder(b, slots, images)(env)

    def step(since: int) -> None:
        graph.apply_product_axioms()
        graph.apply_equations_matched(th)

    rounds, cap, stop = graph.run_rounds(step, fuel, lambda: graph.equal(ida, idb))
    if stop == "goal":
        goal = goal or f"{format_term(a)} = {format_term(b)}"
        return Proved((f"proved {goal} in {rounds} round(s) over "
                       f"{graph.node_count()} node(s)", *graph.log))
    return Unknown(rounds, fuel, cap, stop)
