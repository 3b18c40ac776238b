"""Independent oracles the tests check the engine against.

Everything here deliberately avoids the engine's own evaluation, saturation,
and chase code paths: the set evaluator works on plain frozensets, the
equality oracle is a breadth-first rewrite closure over syntax trees, the
model checker enumerates entire finite models by brute force, terms are
evaluated by a recursive walk one row at a time (`eval_by_walk`) rather than
a column at a time, satisfaction is checked by a scan of one combination at
a time, and the query oracle scans the whole cartesian product of the
carriers, the chase and the prover run on the hash-consed e-graph the
engine used before (`egraph_chase`, `egraph_decide_equal`) rather than on
tables, the e-graph's enumeration pass and
extraction visit every tuple and every node on every sweep, the enumeration
pass computes constants with the naive evaluator, the reference chase
computes none and instantiates every equation at every tuple, the prover's
matched pass instantiates every match every round, found by walking every
root through the tables one step at a time (`match_every_root`), `sigma`'s seeds
are built as translated terms rather than added through the mapping's
images, terms are added to the e-graph by a recursive walk rather than by
compiled builders, the tokenizer oracle steps through the text one
character at a time instead of matching a regular expression, and the
instance-table oracle reads every entry token by token into a located value
and resolves each cell on its own instead of converting whole columns of
entry texts, homomorphisms are found by backtracking over the rows one
candidate at a time (`backtracking_homs`) rather than by the engine's
level-by-level join, and `pi` fills, checks and names one homomorphism at a
time, a value per class (`hom_by_hom_pi`), rather than a join run at a time,
a column per class.  Two helpers build what the engine never builds:
`translate` writes a term out along a mapping as a tree, and `isomorphism`
filters the backtracking search for bijections (it is checked against the
brute-force `brute_force_iso`).
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import reduce
from math import inf

from qinl import chase, migration
from qinl.chase import FuelExhausted, UnstatedNull
from qinl.equality import (
    LOG_LIMIT, Equation, IllTyped, Images, InconsistentConstants, Proved, Theory, Unknown,
    Verdict, _OverCap, _path, _tuples_since, node_cap, normal_images)
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
    normalise,
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
    """The carrier maps of the first homomorphism `backtracking_homs` yields
    from i to j that is a bijection on every carrier and binds i's nulls
    injectively to nulls, or None if none is."""
    if any(len(i.rows(t)) != len(j.rows(t)) for t in s.entity_types):
        return None
    for maps, binding in backtracking_homs(s, i, j):
        nulls = list(binding.values())
        if (all(len(set(m.values())) == len(m) for m in maps.values())
                and all(isinstance(v, LabelledNull) for v in nulls)
                and len(set(nulls)) == len(nulls)):
            return {t: dict(m) for t, m in maps.items()}
    return None


def backtracking_homs(s, i, j):
    """Yield every homomorphism from i to j as (carrier maps, null binding),
    in lexicographic order of the images of i's rows with the types in
    `s.slot_order`, lazily: a depth-first search over i's rows in that
    order, trying j's rows in order.  Assigning a row forces the
    images of its foreign-key images and checks its other cells at once;
    symbolic cells are matched last, by computing once their null is bound
    to a constant, or else structurally.  The yielded dicts are reused:
    copy them before the next step."""
    types = s.slot_order
    slots = [(t, r) for t in types for r in i.rows(t)]
    fks = {t: [] for t in types}
    attrs = {t: [] for t in types}
    symbolic = []  # cells of i matched once all rows are assigned
    for op, (dom, cod) in s.tables.items():
        if cod in s.entity_types:
            fks[dom].append((op, cod))
            continue
        attrs[dom].append(op)
        symbolic += [(op, dom, r) for r in i.rows(dom)
                     if isinstance(i.functions[op][r], OpApplied)]
    maps = {t: {} for t in types}
    binding = {}

    def match(vi, vj, binding, trail) -> bool:
        """Match a cell of i against one of j, binding i's nulls on first
        use (recorded on `trail`) and checking them afterwards."""
        if isinstance(vi, LabelledNull):
            if vi.label in binding:
                return binding[vi.label] == vj
            binding[vi.label] = vj
            trail.append((binding, vi.label))
            return True
        if isinstance(vi, OpApplied):
            ground = _ground(s, vi, binding)
            if ground is not None:
                return ground == vj
            return (isinstance(vj, OpApplied) and vi.op == vj.op
                    and match(vi.arg, vj.arg, binding, trail))
        return type(vi) is type(vj) and vi == vj

    def assign(t, r, r2, trail) -> bool:
        work = [(t, r, r2)]
        while work:
            t, r, r2 = work.pop()
            have = maps[t].get(r)
            if have is not None:
                if have != r2:
                    return False
                continue
            maps[t][r] = r2
            trail.append((maps[t], r))
            for op in attrs[t]:
                vi = i.functions[op][r]
                if not isinstance(vi, OpApplied) and not match(
                        vi, j.functions[op][r2], binding, trail):
                    return False
            work += [(cod, i.functions[op][r], j.functions[op][r2])
                     for op, cod in fks[t]]
        return True

    def undo(trail) -> None:
        for table, key in reversed(trail):
            del table[key]
        trail.clear()

    def complete():
        full = dict(binding)
        for op, t, r in symbolic:
            if not match(i.functions[op][r], j.functions[op][maps[t][r]], full, []):
                return None
        return full

    if not slots:
        yield maps, binding
        return
    # Each frame is an open slot, its remaining candidates, and the trail
    # of the candidate currently assigned to it.
    stack = [(0, iter(j.rows(slots[0][0])), [])]
    while stack:
        k, candidates, trail = stack[-1]
        undo(trail)
        t, r = slots[k]
        for r2 in candidates:
            if assign(t, r, r2, trail):
                break
            undo(trail)
        else:
            stack.pop()
            continue
        k += 1
        while k < len(slots) and slots[k][1] in maps[slots[k][0]]:
            k += 1  # already forced
        if k < len(slots):
            stack.append((k, iter(j.rows(slots[k][0])), []))
        else:
            full = complete()
            if full is not None:
                yield maps, full


def _ground(s, v, binding):
    """The value of a cell once its nulls are replaced by their bindings, or
    None while one of them is unbound or bound to an unknown."""
    if isinstance(v, LabelledNull):
        bound = binding.get(v.label)
        if bound is None or isinstance(bound, (LabelledNull, OpApplied)):
            return None
        return bound
    if isinstance(v, OpApplied):
        arg = _ground(s, v.arg, binding)
        return None if arg is None else s.builtins.apply(v.op, arg)
    return v


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


def hom_by_hom_pi(mapping, i, *, fuel: int = 32, allow_unverified: bool = False):
    """`migration.pi` one homomorphism at a time, as a dict of carrier maps
    and null binding from `backtracking_homs`, each filled and checked by value
    (`fill_by_value`, `conflict_by_value`) and named by its own join;
    `migration.pi` computes, checks and names a join run at a time."""
    migration.require_verified(mapping, fuel, allow_unverified)
    tgt = mapping.target
    same = chase.identities(tgt, fuel)
    limits = {t: _hom_by_hom_limit(mapping, i, t, fuel, same)
              for t in sorted(tgt.entity_types)}
    carriers = {t: sorted(names.values()) for t, (_, _, names, _) in limits.items()}

    functions: dict[str, dict] = {}
    nulls: dict = {}
    first = max((int(null.label) + 1 for null in i.nulls()
                 if null.label.isdecimal()), default=0)
    for op, (dom, cod) in tgt.tables.items():
        rep_of, slots, names, values = limits[dom]
        table: dict = {}
        if cod in tgt.entity_types:
            _, image_slots, image_names, _ = limits[cod]
            rep = rep_of.functions
            positions = [slots.index((s, reduce(
                lambda row, step: rep[step][row], path.split(".")[1:],
                rep[op]["x"]))) for s, path in image_slots]
            for key, name in names.items():
                moved = tuple(key[p] for p in positions)
                if moved not in image_names:
                    raise FuelExhausted(
                        f"image row under '{op}' escaped the computed limit",
                        len(names))
                table[name] = image_names[moved]
        else:
            for name in sorted(names.values()):
                table[name] = migration._restate(values[name][op], (dom, name),
                                                 nulls, first)
        functions[op] = table
    return Instance.make(carriers, functions)


def _hom_by_hom_limit(mapping, i, t: str, fuel: int, same):
    """pi at one target entity type: the representable, the slots, each
    kept homomorphism's row name by its images of the slots, and each row's
    attribute cells at x."""
    src, tgt = mapping.source, mapping.target
    chased = chase.saturate(tgt, {"x": t}, (), fuel)
    stated, cells, _ = chase.materialize(tgt, chased)
    literals = chased.literals()
    functions = {op: dict(table) for op, table in stated.functions.items()}
    for op, row, root in cells:
        functions[op][row] = literals.get(root, LabelledNull(str(root)))
    rep = Instance.make(stated.carriers, functions)
    pulled = migration._pull(mapping, rep)
    slots = [(s, row) for s in sorted(src.entity_types)
             for row in pulled.rows(s)]
    applications = chased.applications()
    classes = [root for _, _, root in cells]
    at_x = {op: root for op, row, root in cells if row == "x"}

    names: dict = {}
    values: dict = {}
    for maps, binding in backtracking_homs(src, pulled, i):
        known = dict(literals)
        known.update((int(label), v) for label, v in binding.items())
        fill_by_value(tgt, applications, known, classes,
                      lambda root: migration._Fresh(str(root)))
        if conflict_by_value(tgt, applications, known, same) is not None:
            continue
        key = tuple(maps[s][row] for s, row in slots)
        name = "(" + ", ".join(
            f"{row}:{s}={image}" for (s, row), image in zip(slots, key)) + ")"
        names[key] = name
        values[name] = {op: known[root] for op, root in at_x.items()}
    return rep, slots, names, values


def fill_by_value(s, applications, known: dict, cells, fresh) -> None:
    """`chase.fill` with one value per class instead of a column: the values
    in `known` are carried along `applications` (class, op, argument
    class), then each class of `cells` still without one gets
    `fresh(class)`, first those that are no builtin application, then the
    rest, each in order and carried at once."""
    uses: dict = {}
    for root, op, arg in applications:
        uses.setdefault(arg, []).append((root, op))
    applied = {root for root, _, _ in applications}

    def carry(todo: list) -> None:
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


def conflict_by_value(s, applications, known: dict, same):
    """`chase.conflict` at one value per class: the first of `applications`
    whose op computes another value than its class holds, as (computed,
    held), unless `same` proves the two equal; None when there is none."""
    for root, op, arg in applications:
        if arg in known:
            value = s.builtins.apply(op, known[arg])
            if value != known[root] and not same(known[root], value):
                return value, known[root]
    return None


# --------------------------------------------------------------------------
# The hash-consed e-graph, as the engine kept it before the prover moved to
# the chase's tables: the reference that `egraph_chase` and
# `egraph_decide_equal` run on.  Nodes are hash-consed over canonical child
# class ids:
#   ("var", name)  ("lit", base, value)  ("app", op, c)

NodeKey = tuple

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


@dataclass(frozen=True, eq=False)
class Rule:
    """One way the reference prover applies an equation in base normal
    form: by matching side `anchor` (0 or 1) at the roots of `type`, once
    every operation in `ops` is applied by some node, or with no anchor
    (`x = y`) at every tuple of roots.  `binds_all` says whether a match
    binds every context variable; `reason` is the rendered equation."""
    eq: Equation
    anchor: int | None
    type: TypeExpr | None
    ops: frozenset[str]
    binds_all: bool
    reason: str


def egraph_rules(th: Theory) -> tuple[Rule, ...]:
    """The rules of `th` for the reference prover, made once per theory.
    Each side not written as a bare variable is an anchor, even where its
    normal form is one; `x = y` has no anchor."""
    cached = th.__dict__.get("_egraph_rules")
    if cached is not None:
        return cached
    rules = []
    for eq, part in th.normal:
        reason, written = eq.render(), (eq.lhs, eq.rhs)
        if all(isinstance(side, Var) for side in written):
            rules.append(Rule(part, None, None, frozenset(), False, reason))
            continue
        for anchor, side in enumerate((part.lhs, part.rhs)):
            if isinstance(written[anchor], Var):
                continue
            t = (part.ctx.lookup(side.name) if isinstance(side, Var)
                 else Base(side.base) if isinstance(side, Lit)
                 else th.sig.op_type(side.op)[1])
            # A bare variable consumes no node, so no match of it is old.
            binds_all = not isinstance(side, Var) and (
                {v for v, _ in part.ctx} <= _variables(side).keys())
            ops = {sub.op for sub in subterms(side) if isinstance(sub, App)}
            rules.append(Rule(part, anchor, t, frozenset(ops), binds_all, reason))
    th.__dict__["_egraph_rules"] = tuple(rules)
    return th.__dict__["_egraph_rules"]


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
    """The reference congruence closure: hash-consed nodes over a
    union-find of classes, with indexes kept up to date by `add_node` and
    `union`, so that reading a class, the roots or the stale keys never
    sweeps the whole graph:

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
        for rule in egraph_rules(th):
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


def egraph_decide_equal(th: Theory, ctx: Context, a: Term, b: Term,
                 fuel: int = 32,
                 builtin_ops: Mapping[str, Callable[[object], object]] | None = None,
                 images: Images | None = None,
                 goal: str | None = None,
                 ) -> Verdict:
    """`equality.decide_equal` on the hash-consed e-graph: the components of
    the goal's base normal form, together, in one graph, each rule matched
    by descending through the members of each class.

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
    egraph_rules(th)  # types the theory, or raises IllTyped, before any work
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
    """`equality.EGraph.apply_equations_matched` instantiating, every round,
    every match of every anchor side (one not written as a bare variable)
    of each equation of `th` in base normal form: the class that each root
    of the side's variable's type, or its literal, reaches along the side's
    operations through the tables, one step at a time, all of a side's
    matches listed before any is instantiated (`add_path`); a variable a
    match leaves free ranges over every class of its type."""
    for original, eq in th.normal:
        reason = original.render()
        sides, written = (eq.lhs, eq.rhs), (original.lhs, original.rhs)
        anchors = [None] if all(isinstance(side, Var) for side in written) else [0, 1]
        for anchor in anchors:
            if anchor is None:
                matches = [(-1, {})]
            elif isinstance(written[anchor], Var):
                continue
            else:
                matches = [(root, found) for root, found in _walks(graph, sides[anchor], eq.ctx)]
            for root, found in matches:
                free = [var for var, _ in eq.ctx if var not in found]
                pools = [list(graph.roots[eq.ctx.lookup(var).name]) for var in free]
                for roots in itertools.product(*pools):
                    binding = dict(zip(free, roots), **found)
                    if anchor is None:
                        root = add_path(graph, eq.lhs, binding)
                    other = eq.lhs if anchor == 1 else eq.rhs
                    graph.union(root, add_path(graph, other, binding), reason)


def _walks(graph, side: Term, ctx) -> list[tuple[int, dict[str, int]]]:
    """The matches of `side`, a path, as (class reached, binding): from each
    root of its variable's type in ascending order, or from its literal."""
    apps = []
    while isinstance(side, App):
        apps.append(side.op)
        side = side.arg
    if isinstance(side, Lit):
        lit = graph.literal_ids.get((side.base, side.value))
        starts = [] if lit is None else [(lit, {})]
    else:
        starts = [(root, {side.name: graph.find(root)})
                  for root in list(graph.roots[ctx.lookup(side.name).name])]
    found = []
    for start, binding in starts:
        c = graph.find(start)
        for op in reversed(apps):
            c = graph.tables[op].get(c)
            if c is None:
                break
            c = graph.find(c)
        else:
            found.append((c, binding))
    return found


def add_path(graph, e: Term, binding: Mapping[str, int]) -> int:
    """Add `e`, in base normal form, with its variable bound to a class in
    `binding`, by a recursive walk: a literal's id, or each application's
    entry at the root of its argument, made if missing."""
    if isinstance(e, Var):
        return binding[e.name]
    if isinstance(e, Lit):
        return graph.literal(e.base, e.value)
    arg = graph.find(add_path(graph, e.arg, binding))
    node = graph.tables[e.op].get(arg)
    return graph.entry(e.op, arg) if node is None else node


def check_tables(graph) -> None:
    """Assert what a rebuilt `equality.EGraph` holds, recomputed by a sweep
    over its ids through `find`: no stale key, every table keyed by roots,
    each type's roots in ascending order, and each root's sorted literal
    ids, for the roots that hold one."""
    find = graph.find
    assert not graph.stale
    for table in graph.tables.values():
        assert all(find(key) == key for key in table)
    roots: dict[str, list[int]] = {}
    literals: dict[int, list[int]] = {}
    for node in range(graph.node_count()):
        if find(node) == node:
            roots.setdefault(graph.types[node], []).append(node)
        if node in graph.values:
            literals.setdefault(find(node), []).append(node)
    assert {t: list(ids) for t, ids in graph.roots.items() if ids} == roots
    assert graph.lits == literals


def seed_pairs(s, generators, seeds, images) -> dict[str, list[tuple[str, Term]]]:
    """The seed columns `chase.saturate` takes with `images`, as the seeds
    `(row, rhs)` of each operation: a generator id as the generator's name,
    or as its variable where the image has an entity type, and a constant
    as a literal of the image's type."""
    names, out = sorted(generators), {}
    for op, (rows, values) in seeds.items():
        var, body = images[op]
        pairs = out[op] = []
        for row, value in zip(rows, values):
            if not isinstance(value, Term):
                t = infer_type(s.sig, Context.of((var, Base(generators[names[row]]))), body).name
                value = Var(names[value]) if t in s.entity_types else Lit(t, value)
            pairs.append((names[row], value))
    return out


def substitute_images(s, generators, seeds, images) -> list[tuple[Term, Term]]:
    """Seed equations `op(row) = rhs`, from the seed columns of each
    operation (see `seed_pairs`), with `op(row)` translated along `images`
    by building the term, the image body with `row` for its variable, for
    `chase.saturate` to type and add without `images`."""
    out = []
    for op, pairs in seed_pairs(s, generators, seeds, images).items():
        var, body = images[op]
        for row, rhs in pairs:
            out.append((_subst(body, {var: Var(row)}), rhs))
    return out


def egraph_chase(s, generators, equations=(), fuel: int = 32, images=None):
    """The chase run on the hash-consed e-graph, as the engine ran it before
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
        equations = seed_pairs(s, generators, equations, images)
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
    """`chase.materialize` on a saturated e-graph: the instance, its
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
    fill_by_value(s, egraph_applications(graph), known, [root for _, _, root in cells],
                  lambda _: LabelledNull(str(next(nulls))))
    for op, row, root in cells:
        functions[op][row] = known[root]
    return Instance.make(carriers, functions), cells, known


def _egraph_model(s, graph, fuel: int):
    model, _, known = egraph_materialize(graph, s)
    clash = conflict_by_value(s, egraph_applications(graph), known, chase.identities(s, fuel))
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
        equations = substitute_images(s, generators, equations, images)
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
        return InstanceItem(name, *(tuple(zip(*entries)) or ((), ())), loc)

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
