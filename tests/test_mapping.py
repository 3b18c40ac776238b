from __future__ import annotations

import random

import pytest

from qinl.equality import Equation, Proved, Theory, Unknown
from qinl.kernel import (
    MAX_NESTING,
    App,
    Base,
    Context,
    Pair,
    Prod,
    Proj1,
    Signature,
    UNIT,
    Var,
)
from qinl.mapping import (
    SchemaMapping,
    apply_to_term,
    apply_to_type,
    check_preservation,
    compose,
    identity_mapping,
    preservation_ok,
)
from qinl.schema import FqlSchema

from conftest import company_schema, entity_schema
from oracles import find_countermodel
from test_kernel import random_term


def people_schema():
    sig = Signature.of(
        {"String", "Int", "Person", "Unit"},
        {
            "length": (Base("String"), Base("Int")),
            "reverse": (Base("String"), Base("String")),
            "unitOf": (Base("Person"), Base("Unit")),
            "boss": (Base("Person"), Base("Person")),
            "pname": (Base("Person"), Base("String")),
        })
    x_str = Context.of(("x", Base("String")))
    x_p = Context.of(("x", Base("Person")))
    theory = Theory.of(sig, [
        Equation(x_str, App("length", Var("x")),
                 App("length", App("reverse", Var("x")))),
        Equation(x_str, Var("x"), App("reverse", App("reverse", Var("x")))),
        Equation(x_p, App("unitOf", Var("x")),
                 App("unitOf", App("boss", Var("x")))),
    ])
    return FqlSchema(theory, frozenset({"Person", "Unit"}),
                     frozenset({"String", "Int"}))


def rename_mapping():
    return SchemaMapping(
        company_schema(), people_schema(),
        {"Emp": "Person", "Dept": "Unit"},
        {"worksIn": ("x", App("unitOf", Var("x"))),
         "manager": ("x", App("boss", Var("x"))),
         "ename": ("x", App("pname", Var("x")))})


def test_identity_mapping_validates(company):
    assert identity_mapping(company).validate() == []


def test_rename_mapping_validates():
    assert rename_mapping().validate() == []


def test_missing_op_image_reported(company):
    f = identity_mapping(company)
    f.op_map = {k: v for k, v in f.op_map.items() if k != "manager"}
    assert any("no image for operation 'manager'" in p for p in f.validate())


def test_non_entity_image_reported(company):
    f = identity_mapping(company)
    f.type_map = dict(f.type_map, Emp="String")
    assert any("not a target entity type" in p for p in f.validate())


def test_ill_typed_image_reported(company):
    f = identity_mapping(company)
    f.op_map = dict(f.op_map, worksIn=("x", App("manager", Var("x"))))
    assert any("image of 'worksIn' has type" in p for p in f.validate())


# A translated equation may nest twice as deep as a parsed one.
TRANSLATED_LIMIT = 2 * MAX_NESTING


@pytest.mark.parametrize("image, per_level, k", [
    (App("g", Var("y")), 1, TRANSLATED_LIMIT - 1),
    (App("g", Var("y")), 1, TRANSLATED_LIMIT),
    (Proj1(Pair(App("g", Var("y")), Var("y"))), 3, 66),
    (Proj1(Pair(App("g", Var("y")), Var("y"))), 3, 67),
])
def test_translated_equation_nesting_is_bounded(image, per_level, k):
    """f^k(x) = x translates to a term of per_level * k + 1 levels, and a
    mapping whose translation nests past the limit is reported."""
    lhs = Var("x")
    for _ in range(k):
        lhs = App("f", lhs)
    eq = Equation(Context.of(("x", Base("A"))), lhs, Var("x"))
    src = entity_schema({"A"}, {"f": ("A", "A")}, [eq])
    tgt = entity_schema({"A"}, {"g": ("A", "A")})
    mapping = SchemaMapping(src, tgt, {"A": "A"}, {"f": ("y", image)})
    past = per_level * k + 1 > TRANSLATED_LIMIT
    assert mapping.validate() == (
        [f"translated equation '{eq.render()}' nests deeper than "
         f"{TRANSLATED_LIMIT} levels"] if past else [])


def test_apply_to_type_structural():
    f = rename_mapping()
    assert apply_to_type(f, Prod(Base("Emp"), Base("String"))) == \
        Prod(Base("Person"), Base("String"))
    assert apply_to_type(f, UNIT) == UNIT


def test_apply_to_type_identity(company):
    f = identity_mapping(company)
    for t in (Base("Emp"), Prod(Base("Dept"), Base("Int")), UNIT):
        assert apply_to_type(f, t) == t


def test_apply_to_term_single_substitution():
    src = entity_schema({"A", "B"}, {"f": ("A", "B")})
    tgt = entity_schema({"P", "Q"}, {"g": ("P", "P"), "h": ("P", "Q")})
    mapping = SchemaMapping(src, tgt, {"A": "P", "B": "Q"},
                            {"f": ("y", App("h", App("g", Var("y"))))})
    ctx = Context.of(("x", Base("A")))
    assert apply_to_term(mapping, ctx, App("f", Var("x"))) == \
        App("h", App("g", Var("x")))


def test_apply_to_term_identity_is_syntactic_identity(company):
    f = identity_mapping(company)
    ctx = Context.of(("x", Base("Emp")))
    term = Pair(App("ename", App("manager", Var("x"))),
                Proj1(Pair(Var("x"), Var("x"))))
    assert apply_to_term(f, ctx, term) == term


def test_nested_substitution_collapses():
    src = entity_schema({"A"}, {"m": ("A", "A")})
    tgt = entity_schema({"P"}, {})
    mapping = SchemaMapping(src, tgt, {"A": "P"}, {"m": ("y", Var("y"))})
    ctx = Context.of(("x", Base("A")))
    assert apply_to_term(mapping, ctx, App("m", App("m", Var("x")))) == Var("x")


def test_typing_preservation_on_random_terms():
    f = rename_mapping()
    sig = f.source.sig
    rng = random.Random(3)
    types = [Base("Emp"), Base("Dept"), Base("String"), Base("Int"),
             Prod(Base("Emp"), Base("String")), UNIT]
    checked = 0
    for _ in range(400):
        want = rng.choice(types)
        ctx = Context.of(("a", Base("Emp")), ("s", Base("String")))
        term = random_term(rng, sig, ctx, want, depth=4)
        if term is None:
            continue
        translated = apply_to_term(f, ctx, term)  # asserts typing internally
        from qinl.kernel import infer_type
        got = infer_type(f.target.sig,
                         Context(tuple((v, apply_to_type(f, t))
                                       for v, t in ctx)), translated)
        assert got == apply_to_type(f, want)
        checked += 1
    assert checked > 80


def test_functoriality_of_composition(company):
    f = rename_mapping()
    g = identity_mapping(people_schema())
    gf = compose(g, f)
    rng = random.Random(17)
    ctx = Context.of(("x", Base("Emp")))
    types = [Base("Dept"), Base("String"), Base("Emp")]
    for _ in range(100):
        term = random_term(rng, company.sig, ctx, rng.choice(types), depth=4)
        if term is None:
            continue
        assert apply_to_term(gf, ctx, term) == \
            apply_to_term(g, Context.of(("x", Base("Person"))),
                          apply_to_term(f, ctx, term))


def test_identity_preservation_all_proved(company):
    results = check_preservation(identity_mapping(company), fuel=8)
    assert all(isinstance(v, Proved) for _, v in results)
    assert len(results) == 3


def test_rename_preservation_all_proved():
    assert preservation_ok(rename_mapping(), fuel=8)


def test_collapsed_manager_translates_to_reflexive_equation():
    """Mapping manager to the identity makes the department equation
    translate to a reflexive instance, provable in the bare target."""
    src = company_schema()
    tgt_sig = Signature.of(
        {"String", "Int", "Emp", "Dept"},
        {"length": (Base("String"), Base("Int")),
         "reverse": (Base("String"), Base("String")),
         "worksIn": (Base("Emp"), Base("Dept")),
         "ename": (Base("Emp"), Base("String"))})
    x_str = Context.of(("x", Base("String")))
    tgt = FqlSchema(
        Theory.of(tgt_sig, [
            Equation(x_str, App("length", Var("x")),
                     App("length", App("reverse", Var("x")))),
            Equation(x_str, Var("x"),
                     App("reverse", App("reverse", Var("x")))),
        ]),
        frozenset({"Emp", "Dept"}), frozenset({"String", "Int"}))
    mapping = SchemaMapping(
        src, tgt, {"Emp": "Emp", "Dept": "Dept"},
        {"worksIn": ("x", App("worksIn", Var("x"))),
         "manager": ("x", Var("x")),
         "ename": ("x", App("ename", Var("x")))})
    assert mapping.validate() == []
    assert preservation_ok(mapping, fuel=8)


def test_dropped_axiom_gives_unknown_with_countermodel():
    """Target lacking the department axiom cannot prove the translated
    equation; a two-element countermodel confirms it is genuinely false."""
    src = entity_schema(
        {"A", "B"}, {"f": ("A", "B"), "m": ("A", "A")},
        [Equation(Context.of(("x", Base("A"))),
                  App("f", Var("x")), App("f", App("m", Var("x"))))])
    tgt = entity_schema({"A", "B"}, {"f": ("A", "B"), "m": ("A", "A")})
    mapping = SchemaMapping(
        src, tgt, {"A": "A", "B": "B"},
        {"f": ("x", App("f", Var("x"))), "m": ("x", App("m", Var("x")))})
    assert mapping.validate() == []
    [(eq, verdict)] = check_preservation(mapping, fuel=6)
    assert isinstance(verdict, Unknown)
    ctx = Context.of(("x", Base("A")))
    assert find_countermodel(tgt.theory, ctx, App("f", Var("x")),
                             App("f", App("m", Var("x"))), 2) is not None


def test_composition_type_and_op_maps():
    src = entity_schema({"A"}, {"m": ("A", "A")})
    mid = entity_schema({"P"}, {"n": ("P", "P")})
    tgt = entity_schema({"Z"}, {"k": ("Z", "Z")})
    f = SchemaMapping(src, mid, {"A": "P"}, {"m": ("x", App("n", Var("x")))})
    g = SchemaMapping(mid, tgt, {"P": "Z"},
                      {"n": ("x", App("k", App("k", Var("x"))))})
    gf = compose(g, f)
    assert gf.type_map == {"A": "Z"}
    assert gf.op_map["m"] == ("x", App("k", App("k", Var("x"))))
    assert gf.validate() == []


def test_preservation_is_cached(company):
    f = identity_mapping(company)
    first = check_preservation(f, fuel=8)
    assert check_preservation(f, fuel=8) is first
