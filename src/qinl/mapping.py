"""Schema mappings: a base-type map plus an operation-to-open-expression map
between schemas, with fuel-bounded verification that the source theory's
equations are preserved."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping
from functools import cached_property

from .equality import Equation, IllTyped, Verdict, check_theory, decide_equal, normal_images
from .kernel import (
    App,
    Base,
    Context,
    Prod,
    Term,
    TypeExpr,
    UNIT,
    Unit,
    UnknownBaseType,
    Var,
    format_type,
    infer_type,
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
        """What keeps the mapping from being well formed, worked out once."""
        return list(self._problems)

    @cached_property
    def _problems(self) -> list[str]:
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
        for op in src.tables:
            if op not in self.op_map:
                problems.append(f"no image for operation '{op}'")
        for op in sorted(self.op_map):
            if op not in src.tables:
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
        for op in src.tables:
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


def check_preservation(mapping: SchemaMapping, fuel: int = 32,
                       ) -> tuple[tuple[Equation, Verdict], ...]:
    """Prove each source equation, translated along the mapping, in the
    target theory; the mapping is certified only if all come back Proved.
    `decide_equal` adds each operation image at its argument's class, so
    the translation is never built, and its trace names the source equation.

    The translations are well typed, by induction on the source term:
    `validate` types each image at its operation's translated type,
    builtins and attribute types are the same in both schemas, and
    `check_theory` types both sides alike.  The tests check this of built
    translations (`test_typing_preservation_on_random_terms`)."""
    cached = mapping._preservation.get(fuel)
    if cached is not None:
        return cached
    problems = mapping.validate() + [
        f"'{p.equation}': {p.message}" for p in check_theory(mapping.source.theory)]
    if problems:
        raise IllTyped(f"mapping is not well formed: {problems[0]}")
    builtin_ops, images = mapping.target.builtin_ops(), normal_images(mapping.op_map)
    out = tuple(
        (eq, decide_equal(mapping.target.theory, apply_to_context(mapping, eq.ctx),
                          eq.lhs, eq.rhs, fuel, builtin_ops=builtin_ops,
                          images=images, goal=eq.render()))
        for eq in mapping.source.theory.equations)
    mapping._preservation[fuel] = out
    return out


def identity_mapping(s: FqlSchema) -> SchemaMapping:
    return SchemaMapping(
        source=s,
        target=s,
        type_map={t: t for t in sorted(s.entity_types)},
        op_map={op: ("x", App(op, Var("x"))) for op in s.tables},
    )
