"""Independent oracles the tests check the engine against.

Everything here deliberately avoids the engine's own evaluation, saturation,
and chase code paths: the set evaluator works on plain frozensets, the
equality oracle is a breadth-first rewrite closure over syntax trees, the
model checker enumerates entire finite models by brute force, terms are
evaluated by a recursive walk one row at a time (`eval_by_walk`) rather than
a column at a time, satisfaction is checked by a scan of one combination at
a time, and the query oracle scans the whole cartesian product of the
carriers, the chase runs on the prover's e-graph (`egraph_chase`) rather
than on tables, the e-graph's enumeration pass and
extraction visit every tuple and every node on every sweep, the enumeration
pass computes constants with the naive evaluator, the reference chase
computes none and instantiates every equation at every tuple, the prover's
matched pass instantiates every match every round, found by a recursive
descent rather than a compiled matcher, `sigma`'s seeds
are built as translated terms rather than added through the mapping's
images, terms are added to the e-graph by a recursive walk rather than by
compiled builders, the tokenizer oracle steps through the text one
character at a time instead of matching a regular expression, and the
instance-table oracle reads every entry token by token into a located value
and resolves each cell on its own instead of converting whole columns of
entry texts.  Two helpers build what the engine never builds: `translate`
writes a term out along a mapping as a tree, and `isomorphism` filters the
engine's hom search for bijections (it is checked against the brute-force
`brute_force_iso`).
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field

from qinl import chase
from qinl.chase import FuelExhausted, UnstatedNull
from qinl.equality import (
    EGraph, Equation, IllTyped, InconsistentConstants, Theory, normal_images)
from qinl.kernel import (
    App,
    Base,
    Context,
    Lit,
    Pair,
    Proj1,
    Proj2,
    Prod,
    Signature,
    Term,
    TypeExpr,
    UNIT,
    UnitTerm,
    Var,
    format_term,
    infer_type,
    subterms,
)
from qinl.nrc import (
    Empty,
    EqTest,
    For,
    If,
    SetT,
    Singleton,
    Union,
    print_nrc,
)
from qinl.kernel import EngineError, UnboundVariable, UnknownOperation, format_literal, format_type
from qinl.schema import (
    Instance,
    LabelledNull,
    OpApplied,
    PartialFunction,
    SetV,
    UNIT_CELL,
    cell_key,
    format_cell,
    make_set,
    render_cell,
    search_homs,
    validate_instance,
)
from qinl.surface import (
    IDENT,
    INT,
    KEYWORDS,
    NULL,
    STRING,
    NO_LOC,
    Diagnostic,
    Elaborated,
    InstanceDecl,
    InstanceItem,
    Loc,
    ParseError,
    SourceUnit,
    Token,
    _Parser,
    _row_text,
    _unescape,
    elaborate,
    line_col,
    tokenize,
)

# --------------------------------------------------------------------------
# Naive set-semantics evaluator over hashable python values.
# unit -> "()", Bool constant -> bool, other base constant ->
# ("const", base, value),
# pair -> 2-tuple, set -> frozenset.


def naive_eval(e: Term, env: Mapping[str, object], ops: Mapping) -> object:
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, UnitTerm):
        return "()"
    if isinstance(e, Lit):
        return e.value if e.base == "Bool" else ("const", e.base, e.value)
    if isinstance(e, Pair):
        return (naive_eval(e.fst, env, ops), naive_eval(e.snd, env, ops))
    if isinstance(e, Proj1):
        return naive_eval(e.of, env, ops)[0]
    if isinstance(e, Proj2):
        return naive_eval(e.of, env, ops)[1]
    if isinstance(e, App):
        return ops[e.op](naive_eval(e.arg, env, ops))
    if isinstance(e, Empty):
        return frozenset()
    if isinstance(e, Singleton):
        return frozenset([naive_eval(e.elem, env, ops)])
    if isinstance(e, Union):
        return naive_eval(e.left, env, ops) | naive_eval(e.right, env, ops)
    if isinstance(e, If):
        if naive_eval(e.cond, env, ops):
            return naive_eval(e.then, env, ops)
        return naive_eval(e.els, env, ops)
    if isinstance(e, EqTest):
        return naive_eval(e.left, env, ops) == naive_eval(e.right, env, ops)
    if isinstance(e, For):
        acc = frozenset()
        for member in naive_eval(e.source, env, ops):
            inner = dict(env)
            inner[e.var] = member
            acc |= naive_eval(e.body, inner, ops)
        return acc
    raise AssertionError(f"naive oracle cannot evaluate {e!r}")


_CARRIERS = {"Int": int, "String": str, "Bool": bool}


def inhabits(v: object, t: TypeExpr) -> bool:
    """Whether a cell is a value of a closed set-calculus type over the
    builtin carriers, every member of every set checked."""
    if t == UNIT:
        return v is UNIT_CELL
    if isinstance(t, Prod):
        return (isinstance(v, tuple) and len(v) == 2
                and inhabits(v[0], t.left) and inhabits(v[1], t.right))
    if isinstance(t, SetT):
        return isinstance(v, SetV) and all(inhabits(m, t.elem) for m in v.members)
    carrier = _CARRIERS[t.name]
    return isinstance(v, carrier) and (carrier is bool or not isinstance(v, bool))


# --------------------------------------------------------------------------
# Breadth-first rewrite closure: are two terms connected by instantiated
# equation steps (in either direction), at any subterm?


def rewrite_reachable(equations: list[Equation], a: Term, b: Term,
                      max_size: int = 30, max_terms: int = 20000) -> bool:
    seen = {a}
    frontier = [a]
    while frontier and len(seen) < max_terms:
        nxt = []
        for term in frontier:
            for neighbor in _rewrites(equations, term):
                if neighbor in seen or _tree_size(neighbor) > max_size:
                    continue
                if neighbor == b:
                    return True
                seen.add(neighbor)
                nxt.append(neighbor)
        frontier = nxt
    return b in seen


def _tree_size(e: Term) -> int:
    if isinstance(e, (Var, UnitTerm, Lit)):
        return 1
    if isinstance(e, Pair):
        return 1 + _tree_size(e.fst) + _tree_size(e.snd)
    if isinstance(e, (Proj1, Proj2)):
        return 1 + _tree_size(e.of)
    if isinstance(e, App):
        return 1 + _tree_size(e.arg)
    return 1


def _rewrites(equations: list[Equation], term: Term):
    for eq in equations:
        for pattern, result in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            yield from _rewrite_at(term, pattern, result)


def _rewrite_at(term: Term, pattern: Term, result: Term):
    binding: dict[str, Term] = {}
    if _match(pattern, term, binding):
        yield _subst(result, binding)
    if isinstance(term, Pair):
        for new in _rewrite_at(term.fst, pattern, result):
            yield Pair(new, term.snd)
        for new in _rewrite_at(term.snd, pattern, result):
            yield Pair(term.fst, new)
    elif isinstance(term, Proj1):
        for new in _rewrite_at(term.of, pattern, result):
            yield Proj1(new)
    elif isinstance(term, Proj2):
        for new in _rewrite_at(term.of, pattern, result):
            yield Proj2(new)
    elif isinstance(term, App):
        for new in _rewrite_at(term.arg, pattern, result):
            yield App(term.op, new)


def _match(pattern: Term, term: Term, binding: dict[str, Term]) -> bool:
    if isinstance(pattern, Var):
        if pattern.name in binding:
            return binding[pattern.name] == term
        binding[pattern.name] = term
        return True
    if isinstance(pattern, UnitTerm):
        return isinstance(term, UnitTerm)
    if isinstance(pattern, Lit):
        return pattern == term
    if isinstance(pattern, Pair) and isinstance(term, Pair):
        return (_match(pattern.fst, term.fst, binding)
                and _match(pattern.snd, term.snd, binding))
    if isinstance(pattern, Proj1) and isinstance(term, Proj1):
        return _match(pattern.of, term.of, binding)
    if isinstance(pattern, Proj2) and isinstance(term, Proj2):
        return _match(pattern.of, term.of, binding)
    if isinstance(pattern, App) and isinstance(term, App):
        return pattern.op == term.op and _match(pattern.arg, term.arg, binding)
    return False


def _subst(e: Term, binding: Mapping[str, Term]) -> Term:
    """Replace each variable `binding` names by its term; terms have no
    binders, so this is plain tree replacement."""
    if isinstance(e, Var):
        return binding.get(e.name, e)
    if isinstance(e, (UnitTerm, Lit)):
        return e
    if isinstance(e, Pair):
        return Pair(_subst(e.fst, binding), _subst(e.snd, binding))
    if isinstance(e, Proj1):
        return Proj1(_subst(e.of, binding))
    if isinstance(e, Proj2):
        return Proj2(_subst(e.of, binding))
    if isinstance(e, App):
        return App(e.op, _subst(e.arg, binding))
    return e


def translate(mapping, e: Term) -> Term:
    """A source term written out in the mapping's target: each operation
    with an image replaced by the image's body at the translated argument,
    builtins, variables and constants kept."""
    if isinstance(e, Pair):
        return Pair(translate(mapping, e.fst), translate(mapping, e.snd))
    if isinstance(e, Proj1):
        return Proj1(translate(mapping, e.of))
    if isinstance(e, Proj2):
        return Proj2(translate(mapping, e.of))
    if isinstance(e, App):
        arg = translate(mapping, e.arg)
        if e.op not in mapping.op_map:
            return App(e.op, arg)
        var, body = mapping.op_map[e.op]
        return _subst(body, {var: arg})
    return e


# --------------------------------------------------------------------------
# Brute-force finite-model checking for theories over base-to-base signatures.
# A model assigns each base type a carrier {0..n-1} and each operation a
# total function; provable equality must hold in every model of the theory.


def enumerate_models(sig: Signature, max_size: int = 2):
    names = sorted(sig.base_types)
    ops = sorted(sig.operations)
    sizes = itertools.product(range(max_size + 1), repeat=len(names))
    for combo in sizes:
        carriers = {name: list(range(size)) for name, size in zip(names, combo)}
        spaces = []
        impossible = False
        for op in ops:
            dom, cod = sig.operations[op]
            dom_c, cod_c = carriers[dom.name], carriers[cod.name]
            if dom_c and not cod_c:
                impossible = True
                break
            tables = itertools.product(cod_c, repeat=len(dom_c))
            spaces.append([dict(zip(dom_c, t)) for t in tables])
        if impossible:
            continue
        for tables in itertools.product(*spaces):
            yield carriers, dict(zip(ops, tables))


def model_eval(tables: Mapping, env: Mapping, e: Term) -> object:
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, UnitTerm):
        return "()"
    if isinstance(e, Pair):
        return (model_eval(tables, env, e.fst), model_eval(tables, env, e.snd))
    if isinstance(e, Proj1):
        return model_eval(tables, env, e.of)[0]
    if isinstance(e, Proj2):
        return model_eval(tables, env, e.of)[1]
    if isinstance(e, App):
        return tables[e.op][model_eval(tables, env, e.arg)]
    raise AssertionError(f"model oracle cannot evaluate {e!r}")


def _envs(carriers: Mapping, ctx) -> list[dict]:
    domains = []
    for _, t in ctx:
        domains.append(_type_values(carriers, t))
    return [
        {var: value for (var, _), value in zip(ctx, combo)}
        for combo in itertools.product(*domains)]


def _type_values(carriers: Mapping, t: TypeExpr) -> list:
    if t == UNIT:
        return ["()"]
    if isinstance(t, Base):
        return list(carriers[t.name])
    if isinstance(t, Prod):
        return [(a, b) for a in _type_values(carriers, t.left)
                for b in _type_values(carriers, t.right)]
    raise AssertionError(f"unsupported type {t!r}")


def model_satisfies(carriers, tables, theory: Theory) -> bool:
    for eq in theory.equations:
        for env in _envs(carriers, eq.ctx):
            if model_eval(tables, env, eq.lhs) != model_eval(tables, env, eq.rhs):
                return False
    return True


def true_in_all_models(theory: Theory, ctx, a: Term, b: Term,
                       max_size: int = 2) -> bool:
    """Semantic truth of an equation over every finite model of the theory
    with carriers up to max_size; the soundness oracle for Proved verdicts."""
    for carriers, tables in enumerate_models(theory.sig, max_size):
        if not model_satisfies(carriers, tables, theory):
            continue
        for env in _envs(carriers, ctx):
            if model_eval(tables, env, a) != model_eval(tables, env, b):
                return False
    return True


def find_countermodel(theory: Theory, ctx, a: Term, b: Term,
                      max_size: int = 2):
    for carriers, tables in enumerate_models(theory.sig, max_size):
        if not model_satisfies(carriers, tables, theory):
            continue
        for env in _envs(carriers, ctx):
            if model_eval(tables, env, a) != model_eval(tables, env, b):
                return carriers, tables, env
    return None


# --------------------------------------------------------------------------
# Ground-closure oracle for the chase: quotient the depth-bounded ground
# term universe by the theory's instantiated equations plus congruence,
# using a plain dict-based union-find over syntax trees.


def ground_closure(sig: Signature, generators: Mapping[str, str],
                   ground_equations, theory: Theory, depth: int):
    universe: set[Term] = {Var(g) for g in generators}
    term_type: dict[Term, str] = {Var(g): t for g, t in generators.items()}
    for _ in range(depth):
        new = set()
        for term in universe:
            for op in sorted(sig.operations):
                dom, cod = sig.operations[op]
                if dom == Base(term_type[term]):
                    grown = App(op, term)
                    if grown not in universe:
                        new.add(grown)
                        term_type[grown] = cod.name
        universe |= new

    parent: dict[Term, Term] = {t: t for t in universe}

    def find(t: Term) -> Term:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a: Term, b: Term) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    for lhs, rhs in ground_equations:
        if lhs in parent and rhs in parent:
            union(lhs, rhs)

    changed = True
    while changed:
        changed = False
        for eq in theory.equations:
            candidates = []
            for var, t in eq.ctx:
                assert isinstance(t, Base)
                candidates.append(
                    [u for u in universe if term_type[u] == t.name])
            for combo in itertools.product(*candidates):
                binding = {var: value
                           for (var, _), value in zip(eq.ctx, combo)}
                li, ri = _subst(eq.lhs, binding), _subst(eq.rhs, binding)
                if li in parent and ri in parent and union(li, ri):
                    changed = True
        for a in universe:
            for b in universe:
                if (isinstance(a, App) and isinstance(b, App)
                        and a.op == b.op and find(a.arg) == find(b.arg)
                        and union(a, b)):
                    changed = True
    return universe, find


# --------------------------------------------------------------------------
# Brute-force homomorphisms between finite instances: every function from
# the rows of i to the rows of j, kept when it commutes with the tables.
# Attribute cells are compared by substituting the null binding built so
# far and computing what the builtins can; bare nulls are bound first, and
# symbolic cells are then unified in (operation, row) order.


def brute_force_homs(s, i, j) -> list[tuple[dict, dict]]:
    """Every (carrier maps, null binding) from i to j, in lexicographic order
    of the images of i's rows (types sorted, rows sorted, j's order)."""
    types = sorted(s.entity_types)
    spaces = [[dict(zip(i.rows(t), images))
               for images in itertools.product(j.rows(t), repeat=len(i.rows(t)))]
              for t in types]
    out = []
    for combo in itertools.product(*spaces):
        maps = dict(zip(types, combo))
        binding = _attribute_binding(s, i, j, maps, bijective=False)
        if _fks_commute(s, i, j, maps) and binding is not None:
            out.append((maps, binding))
    return out


def brute_force_iso(s, i, j) -> bool:
    """Whether some bijection of carriers commutes with the tables while
    renaming nulls injectively to nulls."""
    types = sorted(s.entity_types)
    if any(len(i.rows(t)) != len(j.rows(t)) for t in types):
        return False
    spaces = [[dict(zip(i.rows(t), perm))
               for perm in itertools.permutations(j.rows(t))] for t in types]
    for combo in itertools.product(*spaces):
        maps = dict(zip(types, combo))
        if (_fks_commute(s, i, j, maps)
                and _attribute_binding(s, i, j, maps, bijective=True) is not None):
            return True
    return False


def isomorphism(s, i, j) -> dict | None:
    """The carrier maps of the first homomorphism `search_homs` yields from
    i to j that is a bijection on every carrier and binds i's nulls
    injectively to nulls, or None if none is."""
    if any(len(i.rows(t)) != len(j.rows(t)) for t in s.entity_types):
        return None
    for maps, binding in search_homs(s, i, j):
        nulls = list(binding.values())
        if (all(len(set(m.values())) == len(m) for m in maps.values())
                and all(isinstance(v, LabelledNull) for v in nulls)
                and len(set(nulls)) == len(nulls)):
            return {t: dict(m) for t, m in maps.items()}
    return None


def _fks_commute(s, i, j, maps) -> bool:
    for op in s.tables:
        dom, cod = s.sig.op_type(op)
        if cod.name in s.entity_types:
            for row in i.rows(dom.name):
                if maps[cod.name][i.functions[op][row]] != \
                        j.functions[op][maps[dom.name][row]]:
                    return False
    return True


def _attribute_binding(s, i, j, maps, bijective: bool):
    pairs = []
    for op in s.tables:
        dom, cod = s.sig.op_type(op)
        if cod.name not in s.entity_types:
            pairs += [(i.functions[op][row], j.functions[op][maps[dom.name][row]])
                      for row in i.rows(dom.name)]
    binding: dict = {}
    # Stable sort: bare cells first, each group in (operation, row) order.
    for vi, vj in sorted(pairs, key=lambda p: isinstance(p[0], OpApplied)):
        if isinstance(vi, OpApplied) and not bijective:
            vi = _substitute(s, vi, binding)
        if not _unify(vi, vj, binding, bijective):
            return None
    if bijective and len(set(binding.values())) != len(binding):
        return None
    return binding


def _substitute(s, v, binding):
    """Replace nulls bound to constants by them and compute the builtins
    whose argument became a constant."""
    if isinstance(v, LabelledNull):
        bound = binding.get(v.label)
        symbolic = bound is None or isinstance(bound, (LabelledNull, OpApplied))
        return v if symbolic else bound
    if isinstance(v, OpApplied):
        arg = _substitute(s, v.arg, binding)
        if isinstance(arg, (LabelledNull, OpApplied)):
            return OpApplied(v.op, arg)
        return s.builtins.ops[v.op].fn(arg)
    return v


def _unify(vi, vj, binding, bijective) -> bool:
    if isinstance(vi, LabelledNull) and vi.label in binding:
        return binding[vi.label] == vj
    if isinstance(vi, LabelledNull):
        if bijective and not isinstance(vj, LabelledNull):
            return False
        binding[vi.label] = vj
        return True
    if isinstance(vi, OpApplied):
        return (isinstance(vj, OpApplied) and vi.op == vj.op
                and _unify(vi.arg, vj.arg, binding, bijective))
    return type(vi) is type(vj) and vi == vj


# --------------------------------------------------------------------------
# E-graph indexes recomputed from the union-find alone.

def classes_of_type(graph, t: TypeExpr) -> list[int]:
    """The roots of type `t`, in ascending order, from the graph's index."""
    tid = graph._type_ids.get(t)
    return [] if tid is None else list(graph._roots_by_type[tid])


def class_type(graph, root: int) -> TypeExpr:
    return graph._type_of[graph._types[graph.find(root)]]


def _canonical_key(key: tuple, find) -> tuple:
    return ("app", key[1], find(key[2])) if key[0] == "app" else key


def egraph_indexes(graph) -> dict:
    """What the indexes of a rebuilt e-graph must hold, recomputed by a
    sweep over every node with full canonicalisation through `find`: each
    root's sorted members, the roots in ascending order, the roots of each
    type, the hash-cons table (each canonical key mapped to the lowest
    node holding it), and each root's sorted literal nodes, for the roots
    that hold one."""
    members: dict[int, list[int]] = {}
    for node in range(graph.node_count()):
        members.setdefault(graph.find(node), []).append(node)
    roots = sorted(members)
    by_type: dict[TypeExpr, list[int]] = {}
    for root in roots:
        by_type.setdefault(class_type(graph, root), []).append(root)
    table: dict[tuple, int] = {}
    literals: dict[int, list[int]] = {}
    for node in range(graph.node_count()):
        table.setdefault(_canonical_key(graph._nodes[node], graph.find), node)
        if graph._nodes[node][0] == "lit":
            literals.setdefault(graph.find(node), []).append(node)
    return {"members": members, "roots": roots, "by_type": by_type,
            "table": table, "literals": literals}


def check_egraph_indexes(graph) -> None:
    """Assert that the graph's maintained indexes equal `egraph_indexes`."""
    want = egraph_indexes(graph)
    assert graph._members == want["members"]
    assert list(graph._members) == want["roots"]
    types = {class_type(graph, root) for root in graph._members}
    assert types
    for t in types:
        assert classes_of_type(graph, t) == want["by_type"].get(t, [])
    assert graph._table == want["table"]
    assert graph._lits == want["literals"]


def add_instance(graph, e: Term, binding: Mapping[str, int], images=None) -> int:
    """Add a term whose variables are already bound to classes, as its
    builder does (see `EGraph.builder`)."""
    slots = {name: k for k, name in enumerate(binding)}
    return graph.builder(e, slots, images)(list(binding.values()))


def add_by_walk(graph, e: Term, binding: Mapping[str, int], images=None) -> int:
    """`EGraph.builder` by a recursive walk over `e`, in base normal form,
    whose variables are bound to classes in `binding`: a child before its
    parent.  An application of an operation in `images` adds the image's
    body, with no images, and its variable bound to the argument's class;
    the argument is added only if the body uses it."""
    if isinstance(e, Var):
        return binding[e.name]
    if isinstance(e, Lit):
        return graph.add_node(("lit", e.base, e.value))
    image = images.get(e.op) if images else None
    if image is None:
        arg = add_by_walk(graph, e.arg, binding, images)
        return graph.add_node(("app", e.op, graph.find(arg)))
    var, body = image
    if Var(var) not in subterms(body):
        return add_by_walk(graph, body, {})
    arg = graph.find(add_by_walk(graph, e.arg, binding, images))
    return add_by_walk(graph, body, {var: arg})


# --------------------------------------------------------------------------
# The chase's enumeration pass and extraction, each by a sweep over all
# of its candidates.


def enumerate_all_tuples(graph, equations, since: int = 0,
                         compute: bool = True) -> None:
    """`EGraph.apply_equations_enumerated` visiting every tuple of classes
    of the context's types, whatever `since` is: the whole cartesian product,
    built as a list of bindings before any is instantiated.  With
    `compute`, a tuple where `computed` computes the equation is not
    instantiated; without it, every tuple is."""
    for eq in equations:
        bindings: list[dict[str, int]] = [{}]
        for var, t in eq.ctx:
            candidates = classes_of_type(graph, t)
            bindings = [dict(b, **{var: c}) for b in bindings for c in candidates]
            if not bindings:
                break
        reason = eq.render()
        for binding in bindings:
            if compute and computed(graph, eq, binding):
                continue
            left = add_instance(graph, eq.lhs, binding)
            right = add_instance(graph, eq.rhs, binding)
            graph.union(left, right, reason)


def computed(graph, eq, binding: Mapping[str, int]) -> bool:
    """Whether the chase computes `eq` at `binding` instead of instantiating
    it: every subterm of its sides is a variable, a literal or a builtin
    application with a base codomain, each class holds exactly one literal
    (found by a sweep over its members), and `naive_eval` gives both sides
    one value.  If so, adds the literal of the value of every subterm that
    is no variable, children first, left side first."""
    ops = graph.builtin_ops or {}
    subs = [sub for side in (eq.lhs, eq.rhs) for sub in _children_first(side)]
    if not all(isinstance(sub, (Var, Lit)) or (
            isinstance(sub, App) and sub.op in ops
            and isinstance(graph.sig.op_type(sub.op)[1], Base)) for sub in subs):
        return False
    env = {}
    for var, c in binding.items():
        lits = [graph._nodes[node] for node in graph._members[graph.find(c)]
                if graph._nodes[node][0] == "lit"]
        if len(lits) != 1:
            return False
        env[var] = ("const", *lits[0][1:])
    apply = {op: (lambda v, op=op: ("const", graph.sig.op_type(op)[1].name,
                                    ops[op](v[2]))) for op in ops}
    if naive_eval(eq.lhs, env, apply) != naive_eval(eq.rhs, env, apply):
        return False
    for sub in subs:
        if not isinstance(sub, Var):
            graph.add_node(("lit", *naive_eval(sub, env, apply)[1:]))
    return True


def _children_first(e: Term) -> list[Term]:
    return [*(_children_first(e.arg) if isinstance(e, App) else []), e]


def match_every_root(graph, th) -> None:
    """`EGraph.apply_equations_matched` instantiating, every round, every
    match of every anchor side (one not written as a bare variable) of each
    equation of `th` in base normal form at every root, each root's matches
    listed by `match_class` before any is instantiated; a variable a match
    leaves free ranges over every class of its type."""
    for original, eq in th.normal:
        reason = original.render()
        sides, written = (eq.lhs, eq.rhs), (original.lhs, original.rhs)
        anchors = [None] if all(isinstance(side, Var) for side in written) else [0, 1]
        for anchor in anchors:
            if anchor is None:
                matches = [(-1, {})]
            else:
                side = sides[anchor]
                ops = {sub.op for sub in subterms(side) if isinstance(sub, App)}
                if isinstance(written[anchor], Var) or not ops <= graph._ops:
                    continue
                matches = ((root, found) for root in list(graph._members)
                           for found in match_class(graph, side, root, {}, eq.ctx))
            for root, found in matches:
                free = [var for var, _ in eq.ctx if var not in found]
                pools = [classes_of_type(graph, eq.ctx.lookup(var)) for var in free]
                for roots in itertools.product(*pools):
                    binding = dict(zip(free, roots), **found)
                    left = root if anchor == 0 else add_instance(graph, eq.lhs, binding)
                    right = root if anchor == 1 else add_instance(graph, eq.rhs, binding)
                    graph.union(left, right, reason)


def match_class(graph, pattern: Term, root: int, binding: dict[str, int],
                ctx) -> list[dict[str, int]]:
    """The bindings under which `pattern` matches the class of `root`, by
    recursive descent through each class's members."""
    root = graph.find(root)
    if isinstance(pattern, Var):
        if ctx.lookup(pattern.name) != class_type(graph, root):
            return []
        bound = binding.get(pattern.name)
        if bound is not None:
            return [binding] if graph.equal(bound, root) else []
        return [dict(binding, **{pattern.name: root})]
    results = []
    for node in graph._members[root]:
        key = graph._nodes[node]
        if isinstance(pattern, Lit) and key == ("lit", pattern.base, pattern.value):
            results.append(binding)
        elif isinstance(pattern, App) and key[0] == "app" and key[1] == pattern.op:
            results.extend(match_class(graph, pattern.arg, key[2], binding, ctx))
    return results


def substitute_images(seeds, images) -> list[tuple[Term, Term]]:
    """Seed equations `op(row) = rhs`, from the seeds `(row, rhs)` of each
    operation, with `op(row)` translated along `images` by building the
    term, the image body with `row` for its variable, for `chase.saturate`
    to type and add without `images`."""
    out = []
    for op, pairs in seeds.items():
        var, body = images[op]
        for row, rhs in pairs:
            out.append((_subst(body, {var: Var(row)}), rhs))
    return out


def egraph_chase(s, generators, equations=(), fuel: int = 32, images=None):
    """The chase run on the prover's e-graph, as the engine ran it before
    its chase moved to tables: `chase.saturate`, returning the saturated
    e-graph, whose node ids are the table chase's ids.  The theory, the
    ground seeds and the image bodies are taken in base normal form.  The
    seeds join their values' classes through `EGraph.builder`'s `into`,
    each round adds the missing applications (`egraph_totality`) and
    instantiates every equation with `EGraph.apply_equations_enumerated`,
    and FuelExhausted names the base type that gained the most classes in
    the last round."""
    if fuel < 1:
        raise ValueError("fuel must be positive")
    names = sorted(generators)
    bases: dict[str, Base] = {}
    for name in names:
        base = generators[name]
        if base not in bases:
            if base not in s.sig.base_types:
                raise IllTyped(f"generator '{name}' has undeclared type '{base}'")
            bases[base] = Base(base)
    var_types = [bases[generators[name]] for name in names]
    if images is None:
        ctx, ground = Context(tuple(zip(names, var_types))), []
        for lhs, rhs in equations:
            tl = infer_type(s.sig, ctx, lhs)
            tr = infer_type(s.sig, ctx, rhs)
            if tl != tr:
                raise IllTyped(
                    f"ground equation {format_term(lhs)} = {format_term(rhs)} "
                    f"relates different types")
            ground += [(eq.lhs, eq.rhs) for eq in Equation(ctx, lhs, rhs).normal()]
        equations = ground
    else:
        images = normal_images(images)
    theory = [eq for _, eq in s.theory.normal]

    graph = EGraph(s.sig, s.builtin_ops())
    env = [graph.add_node(("var", name), t) for name, t in zip(names, var_types)]
    slots = {name: k for k, name in enumerate(names)}

    target = [-1]
    if images is None:
        seeds = [(graph.builder(lhs, slots, None, target), env, rhs) for lhs, rhs in equations]
    else:
        image = {op: graph.builder(App(op, Var(op)), {op: 0}, images, target) for op in equations}
        seeds = [(image[op], (env[slots[row]],), rhs)
                 for op, pairs in equations.items() for row, rhs in pairs]
    for build, at, rhs in seeds:
        value = (env[slots[rhs.name]] if isinstance(rhs, Var) else
                 graph._table.get(("lit", rhs.base, rhs.value)) if isinstance(rhs, Lit)
                 else None)
        target[0] = -1 if value is None else graph.find(value)
        node = build(at)
        if value is None:
            target[0] = graph.find(node)
            value = graph.builder(rhs, slots, None, target)(env)
        graph.equal(node, value) or graph.union(node, value, "seed equation")

    sizes: dict[str, int] = {}

    def step(since: int) -> None:
        sizes.update(_class_counts(graph, s))
        egraph_totality(graph, s, since)
        graph.apply_equations_enumerated(theory, since)

    _, cap, stop = graph.run_rounds(step, fuel)
    if stop != "saturated":
        raise _fuel_exhausted(graph, s, stop, cap, sizes)
    return graph


def _class_counts(graph, s) -> dict[str, int]:
    return {t: len(classes_of_type(graph, Base(t))) for t in s.sig.base_types}


def _fuel_exhausted(graph, s, stop: str, cap: int, sizes) -> FuelExhausted:
    within = "fuel" if stop == "fuel" else f"the node cap of {cap} nodes"
    grew = max(sorted((t, n - sizes[t]) for t, n in _class_counts(graph, s).items()),
               key=lambda g: g[1])
    return FuelExhausted(f"chase did not saturate within {within}",
                         len(egraph_entity_roots(graph, s)),
                         grew if grew[1] > 0 else None)


def egraph_totality(graph, s, since: int) -> None:
    """Every operation with an entity domain must be defined on every entity
    class, so create the application nodes that are still missing.  A root
    older than node `since` (where the previous pass began) already got its
    application nodes from that pass, and their keys are still canonical,
    so only younger roots are visited, in ascending order."""
    younger: list[tuple[int, str]] = []
    for op, (dom, _) in s.tables.items():
        roots = classes_of_type(graph, Base(dom))
        younger += ((root, op) for root in roots[bisect_left(roots, since):])
    for root, op in sorted(younger):
        if graph._table.get(("app", op, root)) is None:
            graph.add_node(("app", op, root))


def egraph_entity_roots(graph, s) -> list[int]:
    return sorted(root for t in s.entity_types
                  for root in classes_of_type(graph, Base(t)))


def egraph_literals(graph) -> dict[int, object]:
    """The literal each class holds.  Raises InconsistentConstants,
    naming the first such class's literals, when a class holds two."""
    nodes, clashes = graph._nodes, [lits for lits in graph._lits.values() if len(lits) > 1]
    if clashes:
        keys = sorted((nodes[n] for n in min(clashes)), key=lambda k: (k[1], repr(k[2])))
        raise InconsistentConstants([k[2] for k in keys])
    return {root: nodes[lits[0]][2] for root, lits in graph._lits.items()}


def egraph_applications(graph) -> list[tuple[int, str, int]]:
    """Each builtin application, as sorted (class, op, argument class)."""
    nodes = graph._nodes
    return sorted({(graph.find(node), nodes[node][1], graph.find(nodes[node][2]))
                   for node in graph._builtin_apps})


def _row_name(term: Term) -> str:
    """Deterministic row identifiers derived from generator provenance,
    e.g. the manager of generator e is row 'e.manager'."""
    if isinstance(term, App):
        return f"{_row_name(term.arg)}.{term.op}"
    return term.name


def egraph_materialize(graph, s):
    """`Tables.materialize` on a saturated e-graph: the instance, its
    attribute cells as (op, row, class) in table order and the value of
    each attribute class.  Each entity class's row is named by its least
    path from a generator (see `EGraph.extract`)."""
    entities = egraph_entity_roots(graph, s)
    reps = graph.extract(entities)
    carriers: dict[str, list[str]] = {t: [] for t in sorted(s.entity_types)}
    row_of: dict[int, str] = {}
    for root in entities:
        term = reps.get(root)
        if term is None:
            raise EngineError("entity class with no extractable representative")
        row = _row_name(term)
        row_of[root] = row
        carriers[class_type(graph, root).name].append(row)

    roots = {row: root for root, row in row_of.items()}
    functions: dict[str, dict] = {}
    cells: list[tuple[str, str, int]] = []
    for op, (dom, cod) in s.tables.items():
        table: dict = {}
        for row in sorted(carriers[dom]):
            result = graph.find(graph._table.get(("app", op, roots[row])))
            if cod in s.entity_types:
                table[row] = row_of[result]
                continue
            cells.append((op, row, result))
        functions[op] = table
    known = egraph_literals(graph)
    nulls = itertools.count()
    chase.fill(s, egraph_applications(graph), known, [root for _, _, root in cells],
               lambda _: LabelledNull(str(next(nulls))))
    for op, row, root in cells:
        functions[op][row] = known[root]
    return Instance.make(carriers, functions), cells, known


def _egraph_model(s, graph, fuel: int):
    model, _, known = egraph_materialize(graph, s)
    clash = chase.conflict(s, egraph_applications(graph), known, chase.identities(s, fuel))
    if clash is not None:
        raise UnstatedNull(*clash)
    return model


def egraph_initial_model(s, generators, equations=(), fuel: int = 32, images=None):
    """`chase.initial_model` on `egraph_chase`: the model, or what it raises."""
    return _egraph_model(s, egraph_chase(s, generators, equations, fuel, images), fuel)


def instantiating_chase(s, generators, equations=(), fuel: int = 32, images=None):
    """`chase.initial_model` as the chase that computes no constant: every
    seed added as a ground equation in base normal form by `add_by_walk`,
    its two sides united,
    and each pass instantiating every equation at every tuple of classes
    (`enumerate_all_tuples` without `compute`), so that `fold_builtins`
    computes the builtins.  Returns the model, or raises what
    `initial_model` raises."""
    if images is not None:
        equations = substitute_images(equations, images)
    graph = EGraph(s.sig, s.builtin_ops())
    env = {name: graph.add_node(("var", name), Base(generators[name]))
           for name in sorted(generators)}
    for lhs, rhs in equations:
        for eq in Equation(Context(), lhs, rhs).normal():
            graph.union(add_by_walk(graph, eq.lhs, env), add_by_walk(graph, eq.rhs, env))
    sizes: dict[str, int] = {}
    theory = [eq for _, eq in s.theory.normal]

    def step(since: int) -> None:
        sizes.update(_class_counts(graph, s))
        egraph_totality(graph, s, since)
        enumerate_all_tuples(graph, theory, compute=False)

    _, cap, stop = graph.run_rounds(step, fuel)
    if stop != "saturated":
        raise _fuel_exhausted(graph, s, stop, cap, sizes)
    return _egraph_model(s, graph, fuel)


def sweep_extract(graph) -> dict[int, Term]:
    """The least term of each class, of any shape, by a sweep that builds
    the term of every node and orders terms by (size, text), repeated
    until no class improves."""
    best: dict[int, tuple[tuple[int, str], Term]] = {}
    changed = True
    while changed:
        changed = False
        for node, key in enumerate(graph._nodes):
            term = None
            tag = key[0]
            if tag == "var":
                term = Var(key[1])
            elif tag == "lit":
                term = Lit(key[1], key[2])
            elif tag == "app":
                inner = best.get(graph.find(key[2]))
                if inner:
                    term = App(key[1], inner[1])
            if term is None:
                continue
            root = graph.find(node)
            current = best.get(root)
            key = (_tree_size(term), format_term(term))
            if current is None or key < current[0]:
                best[root] = (key, term)
                changed = True
    return {root: term for root, (_, term) in best.items()}


# --------------------------------------------------------------------------
# Terms evaluated one row at a time by a recursive walk, and satisfaction
# checked by a scan that evaluates both sides at one combination at a time.


def eval_by_walk(s, i, env: Mapping[str, object], e: Term) -> object:
    """The value of a term or set-calculus expression under `env`, one
    subterm at a time: the engine's evaluator before it ran over columns."""
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariable(e.name)
        return env[e.name]
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, UnitTerm):
        return UNIT_CELL
    if isinstance(e, Pair):
        return (eval_by_walk(s, i, env, e.fst), eval_by_walk(s, i, env, e.snd))
    if isinstance(e, (Proj1, Proj2)):
        v = eval_by_walk(s, i, env, e.of)
        assert isinstance(v, tuple)
        return v[0] if isinstance(e, Proj1) else v[1]
    if isinstance(e, App):
        arg = eval_by_walk(s, i, env, e.arg)
        if e.op not in s.tables:
            if e.op not in s.sig.operations:
                raise UnknownOperation(e.op)
            return s.builtins.apply(e.op, arg)
        table = i.functions.get(e.op)
        if table is None or arg not in table:
            raise PartialFunction(e.op, render_cell(arg))
        return table[arg]
    if isinstance(e, Empty):
        return SetV(())
    if isinstance(e, Singleton):
        return SetV((eval_by_walk(s, i, env, e.elem),))
    if isinstance(e, Union):
        return make_set(eval_by_walk(s, i, env, e.left).members
                        + eval_by_walk(s, i, env, e.right).members)
    if isinstance(e, If):
        cond = eval_by_walk(s, i, env, e.cond)
        if not isinstance(cond, bool):
            raise EngineError(f"condition {print_nrc(e.cond)} is neither true nor "
                              f"false: {format_cell(cond)}")
        return eval_by_walk(s, i, env, e.then if cond else e.els)
    if isinstance(e, EqTest):
        return eval_by_walk(s, i, env, e.left) == eval_by_walk(s, i, env, e.right)
    if isinstance(e, For):
        inner, collected = dict(env), []
        for member in eval_by_walk(s, i, env, e.source).members:
            inner[e.var] = member
            collected += eval_by_walk(s, i, inner, e.body).members
        return make_set(collected)
    raise EngineError(f"cannot evaluate term construct {e!r}")


def check_by_scan(s, i, *, sample_size: int = 256, seed: int = 0
                  ) -> list[tuple[str, tuple | None]]:
    """(status, witness) of each equation, as `check_instance` reports them:
    entity variables range over their carriers, attribute variables over
    the active domain (table cells and the equations' literals, nulls
    left out) then a seeded sample of the rest, drawn once per type in the
    order the contexts first ask for it.  Both sides are evaluated by
    `eval_by_walk` at one combination at a time, in product order."""
    rng, drawn = random.Random(seed), {}

    def domain(t: TypeExpr) -> tuple[list, bool]:
        if t == UNIT:
            return [UNIT_CELL], False
        if isinstance(t, Prod):
            (left, ls), (right, rs) = domain(t.left), domain(t.right)
            return [(a, b) for a in left for b in right], ls or rs
        if t.name in s.entity_types:
            return list(i.rows(t.name)), False
        if t.name not in drawn:
            cells = [v for op, (_, cod) in s.tables.items() if cod == t.name
                     for v in i.functions[op].values()]
            cells += [sub.value for eq in s.theory.equations for side in (eq.lhs, eq.rhs)
                      for sub in subterms(side) if isinstance(sub, Lit) and sub.base == t.name]
            active = {cell_key(v): v for v in cells
                      if not isinstance(v, (LabelledNull, OpApplied))}
            fresh = [v for v in s.builtins.sample_spaces[t.name]
                     if cell_key(v) not in active]
            drawn[t.name] = ([active[k] for k in sorted(active)]
                             + rng.sample(fresh, min(sample_size, len(fresh))))
        return drawn[t.name], True

    out = []
    for eq in s.theory.equations:
        domains = [domain(t) for _, t in eq.ctx]
        status = "sampled-only" if any(sampled for _, sampled in domains) else "satisfied"
        witness = None
        for combo in itertools.product(*(values for values, _ in domains)):
            env = {var: value for (var, _), value in zip(eq.ctx, combo)}
            if eval_by_walk(s, i, env, eq.lhs) != eval_by_walk(s, i, env, eq.rhs):
                status = "violated"
                witness = tuple((v, render_cell(c)) for v, c in sorted(env.items()))
                break
        out.append((status, witness))
    return out


# --------------------------------------------------------------------------
# Comprehension queries by a filtered cartesian scan: every binding tuple,
# in lexicographic order over the carriers, kept when each where clause
# evaluates equal on both sides.


def scan_query(s, i, q) -> tuple[tuple, tuple, tuple[str, ...]]:
    """(values, witnesses, warnings) of a comprehension, laid out as in
    `QueryResult`.  The warnings are every null-valued comparison the scan
    evaluates, uncapped: clauses are evaluated in order and a tuple's first
    failing clause ends its scan."""
    warnings: list[str] = []
    kept = []
    carriers = [i.rows(t) for _, t in q.bindings]
    for combo in itertools.product(*carriers):
        env = {var: row for (var, _), row in zip(q.bindings, combo)}
        ok = True
        for lhs, rhs in q.wheres:
            vl = eval_by_walk(s, i, env, lhs)
            vr = eval_by_walk(s, i, env, rhs)
            if _has_unknown(vl) or _has_unknown(vr):
                warnings.append(
                    f"null-valued comparison {format_term(lhs)} = "
                    f"{format_term(rhs)} at "
                    + ", ".join(f"{v}={r}" for v, r in sorted(env.items())))
            if vl != vr:
                ok = False
                break
        if ok:
            kept.append((env, eval_by_walk(s, i, env, q.returns)))
    unique = {cell_key(v): v for _, v in kept}
    values = tuple(unique[k] for k in sorted(unique))
    witnesses = tuple(
        (tuple(sorted((var, str(row)) for var, row in env.items())),
         render_cell(value))
        for env, value in kept)
    return values, witnesses, tuple(warnings)


def _has_unknown(v) -> bool:
    if isinstance(v, (LabelledNull, OpApplied)):
        return True
    if isinstance(v, tuple):
        return any(_has_unknown(c) for c in v)
    return False


# --------------------------------------------------------------------------
# The character-stepping tokenizer `surface.tokenize` replaced: the same
# tokens and the same ParseErrors, one character at a time.

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_CHARS = _IDENT_START | set("0123456789_")
_PUNCT2 = ("->", "=>")
_PUNCT1 = set("{}()[],;:.*=")


def scan_tokens(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    n = len(source)

    def advance(count: int) -> None:
        nonlocal line, col, pos
        for _ in range(count):
            if source[pos] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            pos += 1

    while pos < n:
        c = source[pos]
        if c in " \t\r\n":
            advance(1)
            continue
        if source.startswith("--", pos):
            while pos < n and source[pos] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        if c in _IDENT_START:
            end = pos
            while end < n and source[end] in _IDENT_CHARS:
                end += 1
            word = source[pos:end]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, word, start_line, start_col))
            advance(end - pos)
            continue
        if c.isdecimal() or (c == "-" and pos + 1 < n and source[pos + 1].isdecimal()
                           and not source.startswith("->", pos)):
            end = pos + 1
            while end < n and source[end].isdecimal():
                end += 1
            text = source[pos:end]
            tokens.append(Token("int", text, int(text), start_line, start_col))
            advance(end - pos)
            continue
        if c == '"':
            value, end = _scan_string(source, pos, start_line, start_col)
            tokens.append(Token("string", source[pos:end], value,
                                start_line, start_col))
            advance(end - pos)
            continue
        if c == "?":
            end = pos + 1
            while end < n and source[end] in _IDENT_CHARS:
                end += 1
            if end == pos + 1:
                raise ParseError("lone '?'", start_line, start_col,
                                 "a null label like ?0")
            tokens.append(Token("null", source[pos:end], source[pos + 1:end],
                                start_line, start_col))
            advance(end - pos)
            continue
        if source[pos:pos + 2] in _PUNCT2:
            tokens.append(Token("punct", source[pos:pos + 2], None,
                                start_line, start_col))
            advance(2)
            continue
        if c in _PUNCT1:
            tokens.append(Token("punct", c, None, start_line, start_col))
            advance(1)
            continue
        raise ParseError(f"unexpected character {c!r}", start_line, start_col)
    tokens.append(Token("eof", "", None, line, col))
    return tokens


def _scan_string(source: str, pos: int, line: int, col: int) -> tuple[str, int]:
    out = []
    i = pos + 1
    while i < len(source):
        c = source[i]
        if c == '"':
            return "".join(out), i + 1
        if c == "\n":
            break
        if c == "\\":
            if i + 1 >= len(source):
                break
            esc = source[i + 1]
            mapped = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}.get(esc)
            if mapped is None:
                raise ParseError(f"bad escape '\\{esc}'", line, col)
            out.append(mapped)
            i += 2
            continue
        out.append(c)
        i += 1
    raise ParseError("unterminated string literal", line, col)


# --------------------------------------------------------------------------
# The instance-table reader that `surface` replaced: each entry read token by
# token into a located value, each cell resolved on its own.  Elaboration
# here adds one rule to the reader it replaced: a row given two different
# values is an error, at the second entry.

@dataclass
class RawValue:
    kind: str  # name | str | int | bool | null | app
    value: object  # an app's value is (operation, argument RawValue)
    loc: Loc = field(default=NO_LOC, compare=False)


class _TokenTableParser(_Parser):
    def _instance_item(self) -> InstanceItem:
        loc = self.pos()
        name = self.ident("a type or operation name")
        self.expect("=")
        self.expect("{")
        entries = self._list(self._raw_entry) if self.text != "}" else []
        self.expect("}")
        self.expect(";")
        kinds = {entry[1] is None for entry in entries}
        if len(kinds) > 1:
            raise ParseError(f"item '{name}' mixes rows and arrows",
                             *line_col(self.source, loc))
        return InstanceItem(name, tuple(entries), loc)

    def _raw_entry(self) -> tuple[RawValue, RawValue | None]:
        key = self._raw_value()
        if self.text == "->":
            self.next()
            return key, self._raw_value()
        return key, None

    def _raw_value(self) -> RawValue:
        loc, text, kind = self.pos(), self.text, self.kind
        if kind in (INT, STRING, NULL) or (kind == IDENT and text not in KEYWORDS):
            self.next()
            if kind != IDENT or self.text != "(":
                return _plain_raw(text, loc)
            self.next()
            saved = self.begin(1)
            arg = self._raw_value()
            self.expect(")")
            self.end(saved)
            return RawValue("app", (text, arg), loc)
        if text in ("true", "false"):
            self.next()
            return RawValue("bool", text == "true", loc)
        raise self.fail("expected a row id, literal, or null")


def _plain_raw(text: str, loc: Loc) -> RawValue:
    c = text[0]
    if c.isalpha():
        return RawValue("name", text, loc)
    if c == '"':
        return RawValue("str", _unescape(text), loc)
    if c == "?":
        return RawValue("null", text[1:], loc)
    return RawValue("int", int(text), loc)


def print_raw_value(v: RawValue) -> str:
    if v.kind == "null":
        return f"?{v.value}"
    if v.kind == "name":
        return str(v.value)
    if v.kind == "app":
        op, arg = v.value
        return f"{op}({print_raw_value(arg)})"
    return format_literal(v.value)


def read_by_tokens(text: str) -> Elaborated:
    """`surface.elaborate(surface.parse(text))` with the instance tables
    read and resolved by the reference reader: declarations other than
    instances go through `surface`, which must place them all before the
    instances for the diagnostics to come in the same order."""
    try:
        unit = _TokenTableParser(text).unit()
    except ParseError:
        tokenize(text)
        raise
    out = elaborate(SourceUnit(tuple(
        d for d in unit.decls if not isinstance(d, InstanceDecl)), text))
    out.unit = unit

    def err(loc: Loc, message: str) -> None:
        out.diagnostics.append(Diagnostic(*line_col(text, loc), "error", message))

    for decl in unit.decls:
        if isinstance(decl, InstanceDecl):
            try:
                _elab_instance_by_cells(decl, out, err)
            except EngineError as exc:
                err(decl.loc, str(exc))
    return out


_BAD = object()


def _elab_instance_by_cells(decl, out: Elaborated, err) -> None:
    if decl.name in out.instances:
        err(decl.loc, f"duplicate instance name '{decl.name}'")
        return
    schema = out.schemas.get(decl.schema_name)
    if schema is None:
        err(decl.loc, f"unknown schema '{decl.schema_name}'")
        return
    carriers: dict[str, list[str]] = {}
    functions: dict[str, dict[str, object]] = {}
    seen: set[str] = set()
    ok = True
    for item in decl.items:
        if item.name in seen:
            err(item.loc, f"duplicate item '{item.name}'")
            ok = False
            continue
        seen.add(item.name)
        if item.name in schema.entity_types:
            rows = []
            for key, value in item.entries:
                if value is not None:
                    err(key.loc, f"carrier '{item.name}' cannot contain arrows")
                    ok = False
                    break
                if key.kind not in ("name", "str"):
                    err(key.loc, f"row id expected in carrier '{item.name}'")
                    ok = False
                    break
                rows.append(str(key.value))
            carriers[item.name] = rows
        elif item.name in schema.sig.operations:
            if item.name not in schema.tables:
                err(item.loc,
                    f"operation '{item.name}' is builtin; its semantics are "
                    f"registered, not tabulated")
                ok = False
                continue
            cod = schema.sig.op_type(item.name)[1]
            entity = cod.name in schema.entity_types
            table: dict[str, object] = {}
            for key, value in item.entries:
                if value is None:
                    err(key.loc, f"table '{item.name}' needs 'row -> value' entries")
                    ok = False
                    break
                if key.kind not in ("name", "str"):
                    err(key.loc, "row id expected on the left of ->")
                    ok = False
                    break
                cell = _resolve_cell(schema, cod, value, err)
                if cell is _BAD:
                    ok = False
                    break
                row = str(key.value)
                if row in table and table[row] != cell:
                    show = _row_text if entity else format_cell
                    err(key.loc, f"table '{item.name}' gives row '{row}' two "
                                 f"values: {show(table[row])} and {show(cell)}")
                    ok = False
                    break
                table[row] = cell
            functions[item.name] = table
        else:
            err(item.loc,
                f"'{item.name}' is neither an entity type nor an operation "
                f"of schema '{decl.schema_name}'")
            ok = False
    if not ok:
        return
    instance = Instance.make(carriers, functions)
    problems = validate_instance(schema, instance)
    for problem in problems:
        err(decl.loc, f"instance '{decl.name}': {problem}")
    if not problems:
        out.instances[decl.name] = instance
        out.instance_schema[decl.name] = decl.schema_name


def _resolve_cell(schema, cod, value: RawValue, err):
    assert isinstance(cod, Base)
    if cod.name in schema.entity_types:
        if value.kind in ("name", "str"):
            return str(value.value)
        err(value.loc, f"row id of type {cod.name} expected")
        return _BAD
    if value.kind == "null":
        return LabelledNull(str(value.value))
    if value.kind == "app":
        return _resolve_application(schema, cod, value, err)
    if value.kind == "name":
        err(value.loc, f"'{value.value}' is not a {cod.name} literal")
        return _BAD
    if not schema.builtins.in_carrier(cod.name, value.value):
        err(value.loc, f"literal {print_raw_value(value)} is not a {cod.name}")
        return _BAD
    return value.value


def _resolve_application(schema, cod, value: RawValue, err):
    op, arg = value.value
    if op not in schema.sig.operations or op in schema.tables:
        err(value.loc, f"'{op}' is not a builtin operation of the schema")
        return _BAD
    dom, op_cod = schema.sig.op_type(op)
    if op_cod != cod:
        err(value.loc, f"'{op}' gives {format_type(op_cod)}, not {cod.name}")
        return _BAD
    if arg.kind not in ("null", "app"):
        err(arg.loc, f"the argument of '{op}' must be a null or a builtin "
                     f"application of one")
        return _BAD
    inner = _resolve_cell(schema, dom, arg, err)
    return _BAD if inner is _BAD else OpApplied(op, inner)
