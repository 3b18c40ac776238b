"""Comprehension queries over instances: for/where/return with entity-typed
bindings, evaluated by a filtered cartesian scan."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    OpApplied,
    cell_key,
    eval_term,
    render_cell,
)


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
    that produced them, and any null-comparison warnings."""

    values: tuple[Cell, ...]
    witnesses: tuple[tuple[tuple[tuple[str, str], ...], str], ...]
    warnings: tuple[str, ...]

    def rendered_values(self) -> list[str]:
        return [render_cell(v) for v in self.values]


def eval_query(s: FqlSchema, i: Instance, q: Comprehension) -> QueryResult:
    """Enumerate all binding tuples over the carriers in deterministic
    order, keep those whose where clauses evaluate equal on both sides, and
    collect the deduplicated return values with their witnesses.

    Comparisons involving labelled nulls succeed only on identical unknowns
    and are recorded as warnings, not errors.
    """
    typecheck_query(s, q)
    warnings: list[str] = []
    kept: list[tuple[dict[str, Cell], Cell]] = []
    carriers = [i.rows(t) for _, t in q.bindings]
    for combo in itertools.product(*carriers):
        env = {var: row for (var, _), row in zip(q.bindings, combo)}
        ok = True
        for lhs, rhs in q.wheres:
            vl = eval_term(s, i, env, lhs)
            vr = eval_term(s, i, env, rhs)
            if _has_unknown(vl) or _has_unknown(vr):
                if len(warnings) < 32:
                    warnings.append(
                        f"null-valued comparison {format_term(lhs)} = "
                        f"{format_term(rhs)} at "
                        + ", ".join(f"{v}={r}" for v, r in sorted(env.items())))
            if vl != vr:
                ok = False
                break
        if ok:
            kept.append((env, eval_term(s, i, env, q.returns)))

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
