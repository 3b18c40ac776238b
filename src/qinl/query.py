"""Comprehension queries over instances: for/where/return with entity-typed
bindings, evaluated level by level.

A comprehension is a conjunctive query (Chandra and Merlin, STOC 1977),
so it binds its variables in their declared order, one level of partial
tuples per binding, each term evaluated over a whole level (Boncz et al.,
CIDR 2005) and each where clause at the first level where both of its
sides can be.  A clause that ties a term of the new binding to terms of
earlier ones is a hash probe into the new binding's rows, so a join along
foreign keys costs in proportion to its output, not to the product of the
carriers (Yannakakis, VLDB 1981).
"""

from __future__ import annotations

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
    NodeBudget,
    OpApplied,
    TooLarge,
    cell_key,
    eval_column,
    render_cell,
)

MAX_WARNINGS = 32
# The binding tuples that one query may build over all its levels; past
# them, TooLarge.  The largest query of the tests builds 3,000 of them.
QUERY_TUPLES = 100_000


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

    The search binds one variable per level, over every partial tuple at
    once, each level in lexicographic order.  A clause is checked over the
    first level where both of its sides can be evaluated; a clause
    `t(new) = u(earlier)` picks the new binding's candidates from a dict,
    built once, that maps each value of t to the rows giving it, in row
    order.  Cells compare by equality (a labelled null equals only itself),
    so the probe keeps exactly the rows the comparison would.  The levels
    spend their tuples from QUERY_TUPLES; past it, TooLarge is raised
    before the level is built.
    """
    typecheck_query(s, q)
    constant, steps = _plan(q)
    # The level: a column per bound variable and, per tuple, the indexes
    # of the clauses whose compared sides were null-valued on its way.
    columns: dict[str, list[Cell]] = {}
    nulls: list[tuple[int, ...]] = [()]
    budget = NodeBudget(QUERY_TUPLES)

    def take(picks: list[int]) -> None:
        nonlocal columns, nulls
        columns = {var: [col[p] for p in picks] for var, col in columns.items()}
        nulls = [nulls[p] for p in picks]

    def check(clauses: tuple[tuple[int, Term, Term], ...]) -> None:
        for index, lhs, rhs in clauses:
            left = eval_column(s, i, columns, len(nulls), lhs)
            right = eval_column(s, i, columns, len(nulls), rhs)
            picks = []
            for p, value in enumerate(left):
                if value == right[p]:
                    picks.append(p)
                    if _has_unknown(value):
                        nulls[p] += (index,)
            if len(picks) < len(left):
                take(picks)

    check(constant)
    for step in steps:
        if step.probe is None:
            hits = [i.rows(step.entity)] * len(nulls)
        else:
            clause, new, earlier = step.probe
            rows, index = list(i.rows(step.entity)), {}
            for row, value in zip(rows, eval_column(s, i, {step.var: rows}, len(rows), new)):
                index.setdefault(value, []).append(row)
            values = eval_column(s, i, columns, len(nulls), earlier)
            hits = [index.get(value, ()) for value in values]
            nulls = [found + (clause,) if _has_unknown(value) else found
                     for found, value in zip(nulls, values)]
        size = sum(map(len, hits))
        if size > budget.left:
            raise TooLarge(
                f"query binding '{step.var}: {step.entity}' makes {size} more "
                f"tuples, past the {budget.limit} that a query may build")
        budget.left -= size
        take([p for p, rows in enumerate(hits) for _ in rows])
        columns[step.var] = [row for rows in hits for row in rows]
        check(step.checks)

    returns = eval_column(s, i, columns, len(nulls), q.returns)
    names = sorted(columns)
    witnesses = tuple(
        (tuple((var, str(columns[var][p])) for var in names), render_cell(value))
        for p, value in enumerate(returns))
    warnings: list[str] = []
    for p, found in enumerate(nulls):
        for index in sorted(found)[:MAX_WARNINGS - len(warnings)]:
            lhs, rhs = q.wheres[index]
            warnings.append(
                f"null-valued comparison {format_term(lhs)} = "
                f"{format_term(rhs)} at "
                + ", ".join(f"{var}={columns[var][p]}" for var in names))
    unique = {cell_key(v): v for v in returns}
    values = tuple(unique[k] for k in sorted(unique))
    return QueryResult(values, witnesses, tuple(warnings))


def _has_unknown(v: Cell) -> bool:
    if isinstance(v, (LabelledNull, OpApplied)):
        return True
    if isinstance(v, tuple):
        return any(_has_unknown(c) for c in v)
    return False
