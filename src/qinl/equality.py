"""Equations-in-context, equational theories, and a fuel-bounded decision
procedure for provable equality.

The prover saturates a congruence-closure structure (a small e-graph) over
the term universe generated by the goal terms, matching equation sides
against existing classes.  The theory, the goal and the mapping images are
put in base normal form first (`kernel.normalise`), so every class has a
base type.  A `Proved` verdict is sound; absence of proof within fuel
yields `Unknown`, never a refutation.  The chase runs on tables (see
`chase`); `apply_equations_enumerated` and `extract` serve the chase on the e-graph
that `tests/oracles.py` keeps as its reference.

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
    Signature,
    Term,
    TypeExpr,
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
        Raises IllTyped unless every operation runs between base types, or
        where a side that is no bare variable does not typecheck."""
        for op, (dom, cod) in self.sig.operations.items():
            if not isinstance(dom, Base) or not isinstance(cod, Base):
                raise IllTyped(f"operation '{op}' does not run between base types")
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
    def rules(self) -> tuple[Rule, ...]:
        """The equations in base normal form as the prover applies them, in
        order.  Each side not written as a bare variable is an anchor, even
        where its normal form is one: `(x, y).1` matches every root, as it
        matched every projection of a pair.  `x = y` has no anchor.  A
        rule's reason is the equation as written.  Raises IllTyped as
        `normal` does."""
        rules = []
        for eq, part in self.normal:
            reason, written = eq.render(), (eq.lhs, eq.rhs)
            if all(isinstance(side, Var) for side in written):
                rules.append(Rule(part, None, None, frozenset(), False, reason))
                continue
            for anchor, side in enumerate((part.lhs, part.rhs)):
                if isinstance(written[anchor], Var):
                    continue
                t = (part.ctx.lookup(side.name) if isinstance(side, Var)
                     else Base(side.base) if isinstance(side, Lit)
                     else self.sig.op_type(side.op)[1])
                # A bare variable consumes no node, so no match of it is old.
                binds_all = not isinstance(side, Var) and (
                    {v for v, _ in part.ctx} <= _variables(side).keys())
                rules.append(Rule(part, anchor, t, frozenset(_operations(side)),
                                  binds_all, reason))
        return tuple(rules)


@dataclass(frozen=True, eq=False)
class Rule:
    """One way the prover applies an equation in base normal form: by
    matching side `anchor` (0 or 1) at the roots of `type`, once every
    operation in `ops` is applied by some node, or with no anchor (`x = y`)
    at every tuple of roots.  `binds_all` says whether a match binds every context variable;
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
    included; reports all failures, worked out once per theory."""
    return list(th.problems)


# --------------------------------------------------------------------------
# The congruence-closure structure.
#
# Nodes are hash-consed over canonical child class ids:
#   ("var", name)  ("lit", base, value)  ("app", op, c)

NodeKey = tuple

# Operation images, op -> (variable, body), as in a schema mapping.
Images = Mapping[str, tuple[str, Term]]

# How many union reasons a graph keeps; `Proved.trace` lists them.
LOG_LIMIT = 30

# The most nodes a saturation may build, whatever its fuel.
NODE_LIMIT = 1_000_000

# The matches of a pattern at a root: each one's classes for the pattern's
# variables, in order of first occurrence, and the newest tick at which
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


def _path(e: Term) -> tuple[Term, list[str]]:
    """`e`, in base normal form, as its leaf (a variable or a literal) and
    the operations applied to it, innermost first."""
    *apps, leaf = subterms(e)
    return leaf, [app.op for app in reversed(apps)]


def _variables(e: Term, images: Images | None = None) -> dict[str, None]:
    """The variables of `e` translated along `images`, in order of first
    occurrence: none under a body that ignores its variable."""
    if isinstance(e, Var):
        return {e.name: None}
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
      the type of each id, `_type_ids` the id of each type and `_op_types`
      each operation's result type id, so node creation, unions and
      matching compare ints.
    * `_roots_by_type` holds, per type id, its roots in ascending order.
    * `_uses` lists, per root, the nodes with a child in the class;
      `union` moves the absorbed root's list onto the worklist `_pending`,
      which `rebuild` recanonicalises.
    * `_nodes` holds each node's key; `rebuild` makes a key canonical
      again when one of its child classes is merged away.
    * `_builtin_apps` lists the applications of builtins, by id; `_ops` is
      the set of operations that some node applies.
    * `_lits` holds the sorted literal nodes of each root that has one.
    * `_touched` holds, per node, the tick (`_tick`) at which the node was
      last created, moved to another class by a union, or re-keyed by
      `rebuild`.  The tick is 0 before `run_rounds` and advances at each
      round (`_ticks` holds each round's first) and at each rule pass
      (`_passes` holds each rule's last).
    * `_compiled` holds, per rule matched and per equation enumerated so
      far, its compiled matcher and instantiation.
    """

    sig: Signature
    builtin_ops: Mapping[str, Callable[[object], object]] | None = None
    _nodes: list[NodeKey] = field(default_factory=list)
    _types: list[int] = field(default_factory=list)
    _type_of: list[TypeExpr] = field(default_factory=list)
    _type_ids: dict[TypeExpr, int] = field(default_factory=dict)
    _op_types: dict[str, int] = field(default_factory=dict)
    _parent: list[int] = field(default_factory=list)
    _table: dict[NodeKey, int] = field(default_factory=dict)
    _members: dict[int, list[int]] = field(default_factory=dict)
    _roots_by_type: list[dict[int, None]] = field(default_factory=list)
    _uses: list[list[int]] = field(default_factory=list)
    _pending: list[int] = field(default_factory=list)
    _builtin_apps: list[int] = field(default_factory=list)
    _lits: dict[int, list[int]] = field(default_factory=dict)
    _ops: set[str] = field(default_factory=set)
    _version: int = 0
    _touched: list[int] = field(default_factory=list)
    _tick: int = 0
    _ticks: list[int] = field(default_factory=list)
    _passes: dict[Rule, int] = field(default_factory=dict)
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
            self._touched[node] = self._tick
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
        return tid

    def _op_type(self, op: str) -> int:
        tid = self._op_types.get(op)
        if tid is None:
            tid = self._op_types[op] = self._intern(self.sig.op_type(op)[1])
        return tid

    # -- node creation ------------------------------------------------------

    def _canon(self, key: NodeKey) -> NodeKey:
        return ("app", key[1], self.find(key[2])) if key[0] == "app" else key

    def add_node(self, key: NodeKey, var_type: TypeExpr | None = None) -> int:
        key = self._canon(key)
        existing = self._table.get(key)
        if existing is not None:
            return existing
        tag = key[0]
        if tag == "app":
            return self._new(key, self._op_type(key[1]))
        return self._new(key, self._intern(var_type if tag == "var" else Base(key[1])))

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
        self._touched.append(self._tick)
        tag = key[0]
        if tag == "app":
            self._uses[key[2]].append(node)
            self._ops.add(key[1])
            if self.builtin_ops and key[1] in self.builtin_ops:
                self._builtin_apps.append(node)
        elif tag == "lit":
            self._lits[into] = self._lits.get(into, []) + [node]
        self._version += 1
        if node >= self._cap:
            raise _OverCap
        return node

    def node_count(self) -> int:
        return len(self._nodes)

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
                self._touched[node] = self._tick
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
        """Does nothing: `perfbench/layers.py` wraps it by name and fails without it."""

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
        order of that descent, members in ascending order.  Also returns the
        variables, in order of first occurrence."""
        members, nodes, touched = self._members, self._nodes, self._touched
        types, find = self._types, self.find
        names: list[str] = []
        env: list[int] = []  # the class bound to each variable
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
            if isinstance(p, App):
                op, arg = p.op, compile(p.arg, then)

                def app(c: int, newest: int) -> None:
                    for node in members[c]:
                        key = nodes[node]
                        if key[0] == "app" and key[1] == op:
                            t = touched[node]
                            arg(find(key[2]), t if t > newest else newest)
                return app
            if isinstance(p, Lit):
                leaf = ("lit", p.base, p.value)

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
        recursive walk over `e` adds, in its order: a child before its
        parent.  An application of an
        operation in `images` adds the image's body, with no images, and
        its variable bound to the argument's class; the argument is added
        only if the body uses its variable, and once however often it
        does.  With `into`, the node `e` stands for, if new, joins the
        class of root `into[0]` unless that is negative."""
        table, find = self._table, self.find
        new = self._new if into is None else (lambda key, t: self._new(key, t, into[0]))
        if isinstance(e, Var):
            slot = slots[e.name]
            return lambda env: env[slot]
        if isinstance(e, Lit):
            leaf = ("lit", e.base, e.value)

            def constant(env: Sequence[int]) -> int:
                node = table.get(leaf)
                return new(leaf, self._intern(Base(e.base))) if node is None else node
            return constant
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

        Semi-naive: after a rule's first pass, a match is instantiated only
        if one of the nodes it consumed was touched since the start of the
        rule's previous pass (`_passes`), a union since the last rebuild has
        left a key stale, or the side leaves a context variable free (whose
        pools grow).  Any other match was found at the same root in that
        pass, by the same descent through the same keys into the same
        classes, and was instantiated then or skipped for the same reason.
        So its two sides are already one class, and with every key
        canonical, adding the other side again would find existing nodes and
        the union would merge nothing: the nodes, unions and log are those
        of instantiating every match."""
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
            self._tick += 1
            recent = self._passes.get(rule, 0) if rule.binds_all else 0
            self._passes[rule] = self._tick
            for root in list(self._roots_by_type[t]):
                for classes, newest in match(root):
                    if newest >= recent or self._pending:
                        self._union_sides(instantiation, classes, 0, rule.reason, root)

    def apply_equations_enumerated(self, equations: Iterable[Equation],
                                   since: int = 0) -> None:
        """Instantiate each equation at every tuple of existing classes whose
        types match the equation context, adding both sides.  Unlike matched
        application this invents terms; the e-graph chase uses it to impose
        every ground instance of a theory.

        Semi-naive: with `since` no more than the node count when the
        previous call began, a tuple of roots all older than `since` is
        skipped while every node's key is canonical (no union since the
        last rebuild has left a key stale).  That call, or an earlier one,
        instantiated the tuple, so both its sides are nodes of one class,
        and adding them again would find those nodes and merge nothing.  So
        the nodes and unions are those of visiting every tuple.  An equation
        with an empty context has one tuple, which counts as old after the
        first call.

        Constants are computed where `computation` can, adding the literals
        `fold_builtins` would put in the classes of instantiated builtins.
        Such an equation meets every tuple while an old class has a literal
        node touched in this round or the last, as a class that gains one has."""
        for eq in equations:
            compiled = self._compiled.get(eq)
            if compiled is None:
                compute = computation(
                    self.sig, self.builtin_ops or {}, eq,
                    lambda c: [self._nodes[n][2] for n in self._lits.get(self.find(c), ())],
                    lambda base, value: self.add_node(("lit", base, value)))
                compiled = self._compiled[eq] = (
                    self._instantiation(eq, []), eq.render(), compute)
            self._union_sides(compiled[0], (), since, compiled[1], compute=compiled[2])

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
            touched, recent = self._touched, self._ticks[-2] if len(self._ticks) > 1 else 0
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
                self._round, self._tick = rounds + 1, self._tick + 1
                self._ticks.append(self._tick)
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

    def extract(self, roots: Iterable[int]) -> dict[int, Term]:
        """The least path term, by (size, text) order, of each class of the
        roots' types that a path over those types reaches: a variable under
        applications, such as `manager(x)`.  Other classes are absent.

        Paths are found level by level.  Level 1 is the variable nodes;
        level k+1 is the applications among the uses of each class level k
        reached.  A class keeps the first level that reaches it, and there
        the least text `op(t)`, `t` the least text of the argument's class,
        compared as a term: `f(b)` < `g(a)`, though rows `a.g` < `b.f`.

        In a saturated e-graph chase, at the entity roots, this is each entity
        class's least term of any shape, as only entity classes lie on a
        path to one."""
        find, nodes, types, uses = self.find, self._nodes, self._types, self._uses
        wanted = {types[find(root)] for root in roots}
        best: dict[int, tuple[str, Term]] = {}
        for node, key in enumerate(nodes):
            if key[0] == "var" and types[node] in wanted:
                root = find(node)
                if root not in best or key[1] < best[root][0]:
                    best[root] = (key[1], Var(key[1]))
        level = dict(best)
        while level:
            reached: dict[int, tuple[str, Term]] = {}
            for child, (text, term) in level.items():
                for node in uses[child]:
                    key = nodes[node]
                    if key[0] != "app" or types[node] not in wanted:
                        continue
                    root = find(node)
                    candidate = f"{key[1]}({text})"
                    if root not in best and (root not in reached
                                             or candidate < reached[root][0]):
                        reached[root] = (candidate, App(key[1], term))
            best.update(reached)
            level = reached
        return {root: term for root, (_, term) in best.items()}


def computation(sig: Signature, ops: Mapping[str, Callable[[object], object]],
                eq: Equation, held: Callable[[int], Sequence[object]],
                add: Callable[[str, object], object]
                ) -> Callable[[Sequence[int]], bool] | None:
    """Computes `eq`, in base normal form, at classes, one per variable, each
    holding one literal (`held` gives their values), where both sides compute
    one value: adds each value's literal, `add(base, value)`, in the order
    instantiation adds nodes, and returns True.  Each side is a path: its
    leaf (a variable's value or a literal), then its builtins, innermost
    first.  None unless the sides apply only builtins."""
    slots, sides = {var: k for k, (var, _) in enumerate(eq.ctx)}, []
    for leaf, path in map(_path, (eq.lhs, eq.rhs)):
        if not ops.keys() >= set(path):
            return None
        steps = [(lambda _, value=leaf.value: value, leaf.base)] if isinstance(leaf, Lit) else []
        steps += [(ops[op], sig.op_type(op)[1].name) for op in path]
        sides.append((slots.get(getattr(leaf, "name", None), -1), steps))

    def compute(env: Sequence[int]) -> bool:
        values, out, results = [lits[0] for lits in map(held, env) if len(lits) == 1], [], []
        if len(values) < len(env):
            return False
        for slot, steps in sides:
            v = values[slot] if slot >= 0 else None
            for fn, base in steps:
                v = fn(v)
                out.append((base, v))
            results.append(v)
        if results[0] != results[1]:
            return False
        for base, v in out:
            add(base, v)
        return True
    return compute


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

def normal_images(images: Images) -> Images:
    """Each image body in base normal form (`kernel.normalise`)."""
    return {op: (var, normalise(Context(), body)[1][0])
            for op, (var, body) in images.items()}


def decide_equal(th: Theory, ctx: Context, a: Term, b: Term,
                 fuel: int = 32,
                 builtin_ops: Mapping[str, Callable[[object], object]] | None = None,
                 images: Images | None = None,
                 goal: str | None = None,
                 ) -> Verdict:
    """Prove two terms equal modulo a theory whose operations run between
    base types: the components of the goal's base normal form (see
    `Equation.normal`), together, in one graph.

    Context variables act as fresh constants.  Saturation runs for at most
    `fuel` rounds over a universe capped at `node_cap(fuel)` nodes;
    exceeding either cap yields `Unknown`, which is not a refutation.

    With `images`, in base normal form (`normal_images`), `a` and `b` are
    terms of another signature, to be proved equal translated along the
    images (see `EGraph.builder`), which is
    never built as a term; `ctx` types them in `th`, and the caller
    guarantees that the translations are well typed at one type.  The
    first `Proved` trace line is `proved <goal> in N round(s) over M
    node(s)`, the goal defaulting to `a = b` as written; union reasons
    follow.  Raises IllTyped when a goal term or a side of an equation of
    `th` does not typecheck, or an operation of `th` does not run between
    base types.
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
    th.rules  # types the theory, or raises IllTyped, before any work
    written = Equation(ctx, a, b)
    parts = written.normal()
    terms = [side for part in parts for side in (part.lhs, part.rhs)]
    if parts != (written,):
        # Keep every subterm's components, such as one that a projection
        # drops or an unused component of a variable: each can anchor a rule.
        terms += dict.fromkeys(part for side in (a, b) for sub in subterms(side)
                               for part in normalise(ctx, sub)[1])

    graph = EGraph(th.sig, builtin_ops)
    var_types = dict(normalise(ctx, a)[0].bindings)
    names = list(dict.fromkeys(name for t in terms for name in _variables(t, images)))
    env = [graph.add_node(("var", name), var_types[name]) for name in names]
    slots = {name: k for k, name in enumerate(names)}
    ids = [graph.builder(t, slots, images)(env) for t in terms]
    sides = list(zip(ids[0:2 * len(parts):2], ids[1:2 * len(parts):2]))
    rounds, cap, stop = graph.run_rounds(
        lambda since: graph.apply_equations_matched(th), fuel,
        lambda: all(graph.equal(x, y) for x, y in sides))
    if stop == "goal":
        goal = goal or f"{format_term(a)} = {format_term(b)}"
        return Proved((f"proved {goal} in {rounds} round(s) over "
                       f"{graph.node_count()} node(s)", *graph.log))
    return Unknown(rounds, fuel, cap, stop)
