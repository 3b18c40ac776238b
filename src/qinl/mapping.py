"""Schema mappings: a base-type map plus an operation-to-open-expression map
between schemas, with fuel-bounded verification that the source theory's
equations are preserved."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from .equality import Equation, IllTyped, Proved, Verdict, check_theory, decide_equal
from .kernel import (
    App,
    Base,
    Context,
    Lit,
    Pair,
    Proj1,
    Proj2,
    Prod,
    Term,
    TypeExpr,
    UNIT,
    Unit,
    UnitTerm,
    UnknownBaseType,
    UnknownOperation,
    Var,
    format_type,
    infer_type,
    substitute,
)
from .schema import FqlSchema


@dataclass
class SchemaMapping:
    """Entity base types map to entity base types (attribute types are
    fixed); each operation with an entity domain maps to an open expression
    over the target.  Builtin operations map to themselves."""

    source: FqlSchema
    target: FqlSchema
    type_map: Mapping[str, str]
    op_map: Mapping[str, tuple[str, Term]]  # op -> (bound variable, body)
    _preservation: dict = field(default_factory=dict, repr=False, compare=False)

    def validate(self) -> list[str]:
        problems = []
        src, tgt = self.source, self.target
        for t in sorted(src.entity_types):
            if t not in self.type_map:
                problems.append(f"no image for entity type '{t}'")
            elif self.type_map[t] not in tgt.entity_types:
                problems.append(
                    f"'{t}' maps to '{self.type_map[t]}', not a target entity type")
        for t in sorted(self.type_map):
            if t not in src.entity_types:
                problems.append(f"type map mentions non-entity type '{t}'")
        for a in sorted(src.attribute_types):
            if a not in tgt.attribute_types:
                problems.append(
                    f"attribute type '{a}' is fixed but absent from the target")
        for op in src.entity_dom_ops():
            if op not in self.op_map:
                problems.append(f"no image for operation '{op}'")
        for op in sorted(self.op_map):
            if op not in src.entity_dom_ops():
                problems.append(
                    f"operation map mentions '{op}', which is not a "
                    f"source operation with entity domain")
        for op in src.builtin_op_names():
            if src.sig.operations.get(op) != tgt.sig.operations.get(op):
                problems.append(
                    f"builtin operation '{op}' is not declared identically "
                    f"in the target")
        if problems:
            return problems
        for op in src.entity_dom_ops():
            dom, cod = src.sig.op_type(op)
            var, body = self.op_map[op]
            try:
                got = infer_type(
                    self.target.sig,
                    Context.of((var, apply_to_type(self, dom))), body)
            except Exception as err:  # noqa: BLE001 - reported, not raised
                problems.append(f"image of '{op}' does not typecheck: {err}")
                continue
            want = apply_to_type(self, cod)
            if got != want:
                problems.append(
                    f"image of '{op}' has type {format_type(got)}, "
                    f"expected {format_type(want)}")
        return problems


def apply_to_type(mapping: SchemaMapping, t: TypeExpr) -> TypeExpr:
    if isinstance(t, Unit):
        return UNIT
    if isinstance(t, Prod):
        return Prod(apply_to_type(mapping, t.left),
                    apply_to_type(mapping, t.right))
    if isinstance(t, Base):
        if t.name in mapping.source.attribute_types:
            return t
        image = mapping.type_map.get(t.name)
        if image is None:
            raise UnknownBaseType(t.name)
        return Base(image)
    raise UnknownBaseType(format_type(t))


def apply_to_context(mapping: SchemaMapping, ctx: Context) -> Context:
    return Context(tuple((v, apply_to_type(mapping, t)) for v, t in ctx))


def apply_to_term(mapping: SchemaMapping, ctx: Context, e: Term) -> Term:
    """Translate a source term into the target, substituting operation
    images.  Typing preservation is asserted, not assumed: the result must
    typecheck at the translated type."""
    result = _translate(mapping, e)
    source_type = infer_type(mapping.source.sig, ctx, e)
    target_type = infer_type(
        mapping.target.sig, apply_to_context(mapping, ctx), result)
    expected = apply_to_type(mapping, source_type)
    if target_type != expected:
        raise IllTyped(
            f"translated term has type {format_type(target_type)}, "
            f"expected {format_type(expected)}")
    return result


def _translate(mapping: SchemaMapping, e: Term) -> Term:
    if isinstance(e, (Var, UnitTerm, Lit)):
        return e
    if isinstance(e, Pair):
        return Pair(_translate(mapping, e.fst), _translate(mapping, e.snd))
    if isinstance(e, Proj1):
        return Proj1(_translate(mapping, e.of))
    if isinstance(e, Proj2):
        return Proj2(_translate(mapping, e.of))
    if isinstance(e, App):
        arg = _translate(mapping, e.arg)
        if e.op in mapping.op_map:
            var, body = mapping.op_map[e.op]
            return substitute(body, var, arg)
        if e.op in mapping.source.builtin_op_names():
            return App(e.op, arg)
        raise UnknownOperation(e.op)
    raise UnknownOperation(str(e))


def check_preservation(mapping: SchemaMapping, fuel: int = 32,
                       ) -> tuple[tuple[Equation, Verdict], ...]:
    """Prove each source equation, translated along the mapping, in the
    target theory; the mapping is certified only if all come back Proved.
    `decide_equal` adds each operation image at its argument's class, so
    the translation is never built, and its trace names the source equation.

    The translations are well typed, as `apply_to_term` asserts of a built
    one, by induction on the source term: `validate` types each image at
    its operation's translated type, builtins and attribute types are the
    same in both schemas, and `check_theory` types both sides alike."""
    cached = mapping._preservation.get(fuel)
    if cached is not None:
        return cached
    problems = mapping.validate() + [
        f"'{p.equation}': {p.message}" for p in check_theory(mapping.source.theory)]
    if problems:
        raise IllTyped(f"mapping is not well formed: {problems[0]}")
    builtin_ops = mapping.target.builtin_ops()
    out = tuple(
        (eq, decide_equal(mapping.target.theory, apply_to_context(mapping, eq.ctx),
                          eq.lhs, eq.rhs, fuel, builtin_ops=builtin_ops,
                          images=mapping.op_map, goal=eq.render()))
        for eq in mapping.source.theory.equations)
    mapping._preservation[fuel] = out
    return out


def preservation_ok(mapping: SchemaMapping, fuel: int = 32) -> bool:
    return all(isinstance(v, Proved) for _, v in check_preservation(mapping, fuel))


def identity_mapping(s: FqlSchema) -> SchemaMapping:
    return SchemaMapping(
        source=s,
        target=s,
        type_map={t: t for t in sorted(s.entity_types)},
        op_map={op: ("x", App(op, Var("x"))) for op in s.entity_dom_ops()},
    )


def compose(outer: SchemaMapping, inner: SchemaMapping) -> SchemaMapping:
    """The mapping sending each type through inner then outer, and each
    operation image through inner then translated by outer."""
    type_map = {t: apply_to_type(outer, apply_to_type(inner, Base(t))).name
                for t in sorted(inner.source.entity_types)}
    op_map = {}
    for op in inner.source.entity_dom_ops():
        var, body = inner.op_map[op]
        dom = inner.source.sig.op_type(op)[0]
        ctx = Context.of((var, apply_to_type(inner, dom)))
        op_map[op] = (var, apply_to_term(outer, ctx, body))
    return SchemaMapping(inner.source, outer.target, type_map, op_map)
