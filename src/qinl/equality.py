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
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Mapping
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
    saturated: bool = False
    capped: bool = False  # the node cap stopped the run

    def __bool__(self) -> bool:
        return False

    @property
    def stopped(self) -> str:
        """Why the prover stopped: "saturated" (a round changed nothing),
        "nodes" (the node cap) or "fuel"."""
        return "saturated" if self.saturated else "nodes" if self.capped else "fuel"


Verdict = Proved | Unknown


@dataclass(frozen=True)
class TheoryProblem:
    index: int
    equation: str
    message: str


def check_theory(th: Theory) -> list[TheoryProblem]:
    """Validate well-formedness of every equation; reports all failures."""
    problems = []
    for i, eq in enumerate(th.equations):
        try:
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


def _children(key: NodeKey) -> tuple[int, ...]:
    tag = key[0]
    if tag in ("p1", "p2", "app"):
        return (key[-1],)
    if tag == "pair":
        return (key[1], key[2])
    return ()


@dataclass
class EGraph:
    """Hash-consed nodes over a union-find of classes, with indexes kept up
    to date by `add_node` and `union`, so that reading a class, the roots or
    the stale keys never sweeps the whole graph:

    * `_members` maps each root to its sorted member nodes; its keys are in
      ascending order, because new nodes get the highest id and a union
      keeps the lower root.  A union replaces the merged list rather than
      mutating either, so a shallow copy of the dict is a snapshot.
    * `_roots_by_type` maps each type to its roots, in the same order.
    * `_uses` lists, per root, the nodes with a child in the class;
      `union` moves the absorbed root's list onto the worklist `_pending`,
      which `rebuild` recanonicalises.
    * `_nodes` holds each node's key; `rebuild` makes a key canonical
      again when one of its child classes is merged away.
    * `_projections` and `_builtin_apps` list the p1/p2 nodes and the
      applications of operations with builtin semantics, by id; `_ops` is
      the set of operations that some node applies.
    * `_axioms_from` is the node count when `apply_product_axioms` last
      began.
    * `_image_uses` holds, per operation, the image `add_instance` last
      added for it and whether that image's body uses its variable.
    * `_touched` holds, per node, the round of `run_rounds` (`_round`, 0
      outside it) in which the node was last created, moved to another
      class by a union, or re-keyed by `rebuild`.
    * `_matchers` holds the compiled matcher of each rule matched so far.
    """

    sig: Signature
    builtin_ops: Mapping[str, Callable[[object], object]] | None = None
    _nodes: list[NodeKey] = field(default_factory=list)
    _types: list[TypeExpr] = field(default_factory=list)
    _parent: list[int] = field(default_factory=list)
    _table: dict[NodeKey, int] = field(default_factory=dict)
    _members: dict[int, list[int]] = field(default_factory=dict)
    _roots_by_type: dict[TypeExpr, dict[int, None]] = field(default_factory=dict)
    _uses: list[list[int]] = field(default_factory=list)
    _pending: list[int] = field(default_factory=list)
    _projections: list[int] = field(default_factory=list)
    _builtin_apps: list[int] = field(default_factory=list)
    _ops: set[str] = field(default_factory=set)
    _axioms_from: int = 0
    _image_uses: dict[str, tuple[tuple[str, Term], bool]] = field(
        default_factory=dict)
    _version: int = 0
    _touched: list[int] = field(default_factory=list)
    _round: int = 0
    _cap: float = inf
    _matchers: dict[Rule, tuple[list[str], Matcher]] = field(default_factory=dict)
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
                f"{format_type(t)} and {format_type(self._types[ry])}")
        # keep the lower id as root for determinism
        if ry < rx:
            rx, ry = ry, rx
        self._parent[ry] = rx
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

    # -- node creation ------------------------------------------------------

    def _canon(self, key: NodeKey) -> NodeKey:
        tag = key[0]
        if tag in ("p1", "p2", "app"):
            return (*key[:-1], self.find(key[-1]))
        if tag == "pair":
            return ("pair", self.find(key[1]), self.find(key[2]))
        return key

    def _node_type(self, key: NodeKey) -> TypeExpr:
        tag = key[0]
        if tag == "unit":
            return UNIT
        if tag == "lit":
            return Base(key[1])
        if tag == "pair":
            return Prod(self._types[self.find(key[1])],
                        self._types[self.find(key[2])])
        if tag in ("p1", "p2"):
            t = self._types[self.find(key[1])]
            if not isinstance(t, Prod):
                raise IllTyped(f"projection from non-product {format_type(t)}")
            return t.left if tag == "p1" else t.right
        if tag == "app":
            return self.sig.op_type(key[1])[1]
        raise EngineError(f"bad node key {key!r}")

    def add_node(self, key: NodeKey, var_type: TypeExpr | None = None) -> int:
        key = self._canon(key)
        existing = self._table.get(key)
        if existing is not None:
            return existing
        node = len(self._nodes)
        t = var_type if key[0] == "var" else self._node_type(key)
        self._nodes.append(key)
        self._types.append(t)
        self._parent.append(node)
        self._table[key] = node
        self._members[node] = [node]
        self._roots_by_type.setdefault(t, {})[node] = None
        self._uses.append([])
        self._touched.append(self._round)
        for child in _children(key):
            self._uses[child].append(node)
        if key[0] in ("p1", "p2"):
            self._projections.append(node)
        elif key[0] == "app":
            self._ops.add(key[1])
            if self.builtin_ops and key[1] in self.builtin_ops:
                self._builtin_apps.append(node)
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
        return self._types[self.find(root)]

    def classes_of_type(self, t: TypeExpr) -> list[int]:
        return list(self._roots_by_type.get(t, ()))

    def builtin_applications(self) -> list[tuple[int, str, int]]:
        """Each builtin application, as sorted (class, op, argument class)."""
        nodes = self._nodes
        return sorted({(self.find(node), nodes[node][1], self.find(nodes[node][2]))
                       for node in self._builtin_apps})

    def literals(self) -> dict[int, object]:
        """The literal each class holds.  Raises InconsistentConstants,
        naming the first such class's literals, when a class holds two."""
        found: dict[int, list[NodeKey]] = {}
        for node, key in enumerate(self._nodes):
            if key[0] == "lit":
                found.setdefault(self.find(node), []).append(key)
        for keys in found.values():
            if len(keys) > 1:
                keys.sort(key=lambda k: (k[1], repr(k[2])))
                raise InconsistentConstants([k[2] for k in keys])
        return {root: keys[0][2] for root, keys in found.items()}

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
        that call, so only younger roots are visited."""
        start, self._axioms_from = self._axioms_from, len(self._nodes)
        for root in self.class_roots():
            if root < start:
                continue
            t = self.class_type(root)
            if t == UNIT:
                unit = self.add_node(("unit",))
                self.union(root, unit, "unit law")
            elif isinstance(t, Prod):
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
        members = self.members()
        for node in self._builtin_apps:
            key = self._nodes[node]
            for member in members.get(self.find(key[2]), ()):
                mkey = self._nodes[member]
                if mkey[0] == "lit":
                    cod = self.sig.op_type(key[1])[1]
                    if not isinstance(cod, Base):
                        continue
                    value = self.builtin_ops[key[1]](mkey[2])
                    lit = self.add_node(("lit", cod.name, value))
                    self.union(node, lit, f"compute {key[1]}")
                    break

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
                slot, want = len(names), ctx.lookup(p.name)
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

    def add_instance(self, e: Term, binding: Mapping[str, int],
                     images: Images | None = None) -> int:
        """Add a term whose variables are already bound to classes.  An
        application of an operation in `images` adds the image's body, with
        its variable bound to the argument's class (the argument is added
        only if the body uses it); bodies are added with no images."""
        if isinstance(e, Var):
            return binding[e.name]
        if isinstance(e, UnitTerm):
            return self.add_node(("unit",))
        if isinstance(e, Lit):
            return self.add_node(("lit", e.base, e.value))
        if isinstance(e, Pair):
            left = self.add_instance(e.fst, binding, images)
            right = self.add_instance(e.snd, binding, images)
            return self.add_node(("pair", self.find(left), self.find(right)))
        if isinstance(e, (Proj1, Proj2)):
            inner = self.find(self.add_instance(e.of, binding, images))
            return self.add_node(("p1" if isinstance(e, Proj1) else "p2", inner))
        if isinstance(e, App):
            image = images.get(e.op) if images else None
            if image is not None:
                var, body = image
                uses = self._image_uses.get(e.op)
                if uses is None or uses[0] is not image:
                    uses = self._image_uses[e.op] = (image, var in _variables(body))
                if not uses[1]:
                    return self.add_instance(body, {})
                return self.add_instance(
                    body, {var: self.find(self.add_instance(e.arg, binding, images))})
            arg = self.add_instance(e.arg, binding, images)
            return self.add_node(("app", e.op, self.find(arg)))
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
                self._union_sides(rule.eq, {}, 0, rule.reason)
                continue
            if not rule.ops <= self._ops:
                continue
            compiled = self._matchers.get(rule)
            if compiled is None:
                side = (rule.eq.lhs, rule.eq.rhs)[rule.anchor]
                compiled = self._matchers[rule] = self._matcher(side, rule.eq.ctx)
            names, match = compiled
            recent = self._round - 1 if self._round > 1 and rule.binds_all else 0
            for root in self.classes_of_type(rule.type):
                for classes, newest in match(root):
                    if newest >= recent or self._pending:
                        self._union_sides(rule.eq, dict(zip(names, classes)), 0,
                                          rule.reason, rule.anchor, root)

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
        first call."""
        for eq in equations:
            self._union_sides(eq, {}, since, eq.render())

    def _union_sides(self, eq: Equation, found: dict[str, int], since: int,
                     reason: str, anchor: int | None = None, root: int = -1) -> None:
        """Union the two sides of `eq` at the match `found` of side `anchor`
        (0 or 1) at `root`, which stands for that side, or with no anchor at
        the empty match.  The variables a match leaves free range over the
        tuples of roots of their types, read now, from `_tuples_since`."""
        bindings: Iterable[dict[str, int]] = (found,)
        if anchor is None or len(found) < len(eq.ctx.bindings):
            free = [(var, t) for var, t in eq.ctx if var not in found]
            names = [var for var, _ in free]
            pools = [self.classes_of_type(t) for _, t in free]
            bindings = (dict(zip(names, roots), **found) for roots in
                        _tuples_since(pools, since, lambda: bool(self._pending)))
        for binding in bindings:
            left = root if anchor == 0 else self.add_instance(eq.lhs, binding)
            right = root if anchor == 1 else self.add_instance(eq.rhs, binding)
            self.union(left, right, reason)

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

    def extract(self) -> dict[int, Term]:
        """Minimal representative term per class, by (size, text) order.
        Classes with no leaf-grounded member (possible in cyclic graphs) are
        absent from the result.

        Every node is offered to its class, sweep after sweep, until no class
        improves.  A node's (size, text) key is composed from its children's
        best keys, as `term_key` of the term it stands for would compute it
        (`op(t)` is one larger than `t`, and its text is `op(` + text + `)`),
        and the term itself is built only when the key beats the class's."""
        best: dict[int, tuple[tuple[int, str], Term]] = {}
        find = self.find
        changed = True
        while changed:
            changed = False
            for node, key in enumerate(self._nodes):
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
    equal translated along the images (see `EGraph.add_instance`), which
    is never built as a term; `ctx` types them in `th`, and the caller
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
    binding = {name: graph.add_node(("var", name), var_types[name])
               for name in _variables(Pair(a, b), images)}
    ida = graph.add_instance(a, binding, images)
    idb = graph.add_instance(b, binding, images)

    def step(since: int) -> None:
        graph.apply_product_axioms()
        graph.apply_equations_matched(th)

    rounds, cap, stop = graph.run_rounds(step, fuel, lambda: graph.equal(ida, idb))
    if stop == "goal":
        goal = goal or f"{format_term(a)} = {format_term(b)}"
        return Proved((f"proved {goal} in {rounds} round(s) over "
                       f"{graph.node_count()} node(s)", *graph.log))
    return Unknown(rounds, fuel, cap, stop == "saturated", stop == "nodes")
