"""Comprehension queries over instances: for/where/return with entity-typed
bindings, evaluated by a planned search.

A comprehension is a conjunctive query (Chandra and Merlin, STOC 1977), so
it runs as a nested loop over its bindings in their declared order, each
where clause checked at the first binding where both of its sides can be
evaluated.  A clause that ties a term of the new binding to terms of
earlier ones is a hash probe into the new binding's rows, so a join along
foreign keys costs in proportion to its output, not to the product of the
carriers (Yannakakis, VLDB 1981).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .kernel import (
    Base,
    Context,
    EngineError,
    Term,
    TypeExpr,
    Var,
    format_term,
    format_type,
    infer_type,
    subterms,
)
from .equality import IllTyped
from .schema import (
    Cell,
    FqlSchema,
    Instance,
    LabelledNull,
    OpApplied,
    cell_key,
    eval_term,
    render_cell,
)

MAX_WARNINGS = 32


class NonEntityBinding(EngineError):
    def __init__(self, var: str, type_name: str):
        super().__init__(
            f"binding '{var}: {type_name}' does not name an entity type; "
            f"query variables range over finite carriers only")
        self.var = var
        self.type_name = type_name


@dataclass(frozen=True)
class Comprehension:
    """Ordered entity-typed bindings, a conjunction of term equations, and a
    returned term, all over the binding context."""

    bindings: tuple[tuple[str, str], ...]  # (variable, entity type name)
    wheres: tuple[tuple[Term, Term], ...]
    returns: Term

    def context(self) -> Context:
        return Context(tuple((v, Base(t)) for v, t in self.bindings))


def typecheck_query(s: FqlSchema, q: Comprehension) -> TypeExpr:
    """Check bindings name entity types, each where clause type-balances,
    and the return body types; gives the result type."""
    for var, t in q.bindings:
        if t not in s.entity_types:
            raise NonEntityBinding(var, t)
    ctx = q.context()
    for lhs, rhs in q.wheres:
        tl = infer_type(s.sig, ctx, lhs)
        tr = infer_type(s.sig, ctx, rhs)
        if tl != tr:
            raise IllTyped(
                f"where clause {format_term(lhs)} = {format_term(rhs)} "
                f"relates {format_type(tl)} and {format_type(tr)}")
    return infer_type(s.sig, ctx, q.returns)


@dataclass(frozen=True)
class QueryResult:
    """Deduplicated result values in canonical order, the binding witnesses
    that produced them in lexicographic order of their bindings, and the
    null-comparison warnings.

    A warning names a where clause whose two (equal) sides are null-valued
    at a kept witness, with that witness's bindings: the first 32, in
    witness order and then clause order.  A comparison involving a labelled
    null holds only on the identical unknown; when it fails, the tuple is
    dropped like any other."""

    values: tuple[Cell, ...]
    witnesses: tuple[tuple[tuple[tuple[str, str], ...], str], ...]
    warnings: tuple[str, ...]

    def rendered_values(self) -> list[str]:
        return [render_cell(v) for v in self.values]


@dataclass(frozen=True)
class _Step:
    """One binding of the plan: its variable and entity type, the probe
    (clause index, term of this binding, term of earlier ones) that picks
    its candidate rows, and the clauses (index, lhs, rhs) first evaluable
    here."""

    var: str
    entity: str
    probe: tuple[int, Term, Term] | None
    checks: tuple[tuple[int, Term, Term], ...]


def _plan(q: Comprehension) -> tuple[tuple[tuple[int, Term, Term], ...], list[_Step]]:
    """The clauses that mention no variable, and one step per binding.

    A variable bound twice is visible from its last binding on, so each
    clause is placed at the last binding of its latest variable."""
    last = {var: k for k, (var, _) in enumerate(q.bindings)}

    def position(term: Term) -> int:
        return max((last[sub.name] for sub in subterms(term)
                    if isinstance(sub, Var)), default=-1)

    placed: list[list[tuple[int, Term, Term]]] = [[] for _ in range(len(q.bindings) + 1)]
    probes: list[tuple[int, Term, Term] | None] = [None] * len(q.bindings)
    for index, (lhs, rhs) in enumerate(q.wheres):
        pl, pr = position(lhs), position(rhs)
        k = max(pl, pr)
        for new, earlier, pn, pe in ((lhs, rhs, pl, pr), (rhs, lhs, pr, pl)):
            if pn == k > pe and probes[k] is None and {
                    sub.name for sub in subterms(new) if isinstance(sub, Var)
                    } == {q.bindings[k][0]}:
                probes[k] = (index, new, earlier)
                break
        else:
            placed[k + 1].append((index, lhs, rhs))
    steps = [_Step(var, entity, probes[k], tuple(placed[k + 1]))
             for k, (var, entity) in enumerate(q.bindings)]
    return tuple(placed[0]), steps


def eval_query(s: FqlSchema, i: Instance, q: Comprehension) -> QueryResult:
    """Find the binding tuples whose where clauses evaluate equal on both
    sides, in lexicographic order of the bindings over the carriers, and
    collect the deduplicated return values with their witnesses.

    The search binds one variable at a time.  A clause is checked as soon
    as both of its sides can be evaluated; a clause `t(new) = u(earlier)`
    picks the new binding's candidates from a dict, built once, that maps
    each value of t to the rows giving it, in row order.  Cells compare by
    equality (a labelled null equals only itself), so the probe keeps
    exactly the rows the comparison would.
    """
    typecheck_query(s, q)
    constant, steps = _plan(q)
    indexes = []
    for step in steps:
        index: dict[Cell, list[str]] = {}
        if step.probe is not None:
            _, new, _ = step.probe
            for row in i.rows(step.entity):
                index.setdefault(eval_term(s, i, {step.var: row}, new), []).append(row)
        indexes.append(index)

    env: dict[str, Cell] = {}
    kept: list[tuple[dict[str, Cell], Cell]] = []
    warnings: list[str] = []
    nulls: list[list[int]] = [[] for _ in range(len(steps) + 1)]

    def holds(checks: tuple[tuple[int, Term, Term], ...], out: list[int]) -> bool:
        """Whether every check holds under env; appends the indexes of
        those whose sides are null-valued to `out`."""
        for index, lhs, rhs in checks:
            value = eval_term(s, i, env, lhs)
            if value != eval_term(s, i, env, rhs):
                return False
            if _has_unknown(value):
                out.append(index)
        return True

    def keep() -> None:
        kept.append((dict(env), eval_term(s, i, env, q.returns)))
        room = MAX_WARNINGS - len(warnings)
        for index in sorted(n for level in nulls for n in level)[:room]:
            lhs, rhs = q.wheres[index]
            warnings.append(
                f"null-valued comparison {format_term(lhs)} = "
                f"{format_term(rhs)} at "
                + ", ".join(f"{v}={r}" for v, r in sorted(env.items())))

    def candidates(k: int) -> tuple[Iterator[str], list[int]]:
        """Binding k's candidate rows under env, and the probe clause's
        index if its value is null-valued."""
        step = steps[k]
        if step.probe is None:
            return iter(i.rows(step.entity)), []
        index, _, earlier = step.probe
        value = eval_term(s, i, env, earlier)
        return (iter(indexes[k].get(value, ())),
                [index] if _has_unknown(value) else [])

    # Each frame holds the remaining candidates of one binding; the loop
    # runs as deep as there are bindings, with no recursion.
    stack = []
    if holds(constant, nulls[0]):
        if steps:
            stack.append(candidates(0))
        else:
            keep()
    while stack:
        k = len(stack) - 1
        rows, found = stack[k]
        for row in rows:
            env[steps[k].var] = row
            nulls[k + 1] = list(found)
            if holds(steps[k].checks, nulls[k + 1]):
                break
        else:
            stack.pop()
            continue
        if k + 1 < len(steps):
            stack.append(candidates(k + 1))
        else:
            keep()

    unique = {cell_key(v): v for _, v in kept}
    values = tuple(unique[k] for k in sorted(unique))
    witnesses = tuple(
        (tuple(sorted((var, str(row)) for var, row in env.items())),
         render_cell(value))
        for env, value in kept)
    return QueryResult(values, witnesses, tuple(warnings))


def _has_unknown(v: Cell) -> bool:
    if isinstance(v, (LabelledNull, OpApplied)):
        return True
    if isinstance(v, tuple):
        return any(_has_unknown(c) for c in v)
    return False
