"""Comprehension queries over instances: for/where/return with entity-typed
bindings, evaluated level by level.

A comprehension is a conjunctive query (Chandra and Merlin, STOC 1977),
answered by `schema.join`, the executor that also finds homomorphisms: it
binds the variables in their declared order, one level of partial tuples
per binding, and checks each where clause at the first level where both
of its sides can be evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

from .kernel import (
    Base,
    Context,
    EngineError,
    Term,
    TypeExpr,
    format_term,
    format_type,
    infer_type,
)
from .equality import IllTyped
from .schema import (
    Cell,
    FqlSchema,
    Instance,
    LabelledNull,
    NodeBudget,
    OpApplied,
    cell_key,
    eval_column,
    join,
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


def eval_query(s: FqlSchema, i: Instance, q: Comprehension) -> QueryResult:
    """Find the binding tuples whose where clauses evaluate equal on both
    sides, in lexicographic order of the bindings over the carriers, and
    collect the deduplicated return values with their witnesses.

    The bindings are the variables of one `join`, the where clauses its
    atoms: one level per binding, a clause `t(new) = u(earlier)` a hash
    probe.  Cells compare by equality (a labelled null equals only itself).
    The levels spend their tuples from QUERY_TUPLES; past it, TooLarge is
    raised before the level is built.
    """
    typecheck_query(s, q)
    runs = list(join(
        s, i, [(var, i.rows(t)) for var, t in q.bindings], q.wheres,
        NodeBudget(QUERY_TUPLES), lambda k, size: (
            f"query binding '{q.bindings[k][0]}: {q.bindings[k][1]}' makes {size} "
            f"more tuples, past the {QUERY_TUPLES} that a query may build")))
    columns = {var: list(chain.from_iterable(run[var] for run, _ in runs))
               for var, _ in q.bindings}
    n = sum(size for _, size in runs)
    returns = eval_column(s, i, columns, n, q.returns)
    names = sorted(columns)
    witnesses = tuple(
        (tuple((var, str(columns[var][p])) for var in names), render_cell(value))
        for p, value in enumerate(returns))
    # The two sides of a clause are equal at a witness, so one tells
    # whether they are null-valued.
    unknown = [list(map(_has_unknown, eval_column(s, i, columns, n, lhs)))
               for lhs, _ in q.wheres]
    warnings = islice((
        f"null-valued comparison {format_term(lhs)} = {format_term(rhs)} at "
        + ", ".join(f"{var}={columns[var][p]}" for var in names)
        for p in range(n) for (lhs, rhs), flags in zip(q.wheres, unknown)
        if flags[p]), MAX_WARNINGS)
    unique = {cell_key(v): v for v in returns}
    values = tuple(unique[k] for k in sorted(unique))
    return QueryResult(values, witnesses, tuple(warnings))


def _has_unknown(v: Cell) -> bool:
    if isinstance(v, (LabelledNull, OpApplied)):
        return True
    if isinstance(v, tuple):
        return any(_has_unknown(c) for c in v)
    return False
