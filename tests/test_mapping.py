from __future__ import annotations

import random

import pytest

from qinl.equality import Equation, IllTyped, Proved, Theory, Unknown, decide_equal
from qinl.kernel import (
    MAX_NESTING,
    App,
    Base,
    Context,
    Lit,
    Pair,
    Prod,
    Proj1,
    Proj2,
    Signature,
    UNIT,
    Var,
)
from qinl.mapping import (
    SchemaMapping,
    apply_to_context,
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


def _applied(op: str, n: int, inner):
    for _ in range(n):
        inner = App(op, inner)
    return inner


def _paired(n: int, inner):
    """n levels of (g(inner), y).1: 3n + 1 levels, each using y again."""
    for _ in range(n):
        inner = Proj1(Pair(App("g", inner), Var("y")))
    return inner


@pytest.mark.parametrize("image", [
    _applied("g", MAX_NESTING - 1, Var("y")),
    _paired((MAX_NESTING - 1) // 3, Var("y")),
])
def test_deep_source_along_deep_image_is_proved(image):
    """A 100-level source along a 100-level image translates to some 10,000
    levels.  Preservation adds it to the e-graph image by image, so no walk
    recurses through the translation; the trace names the source equation."""
    lhs = _applied("f", MAX_NESTING - 1, Var("x"))
    eq = Equation(Context.of(("x", Base("A"))), lhs, lhs)
    src = entity_schema({"A"}, {"f": ("A", "A")}, [eq])
    tgt = entity_schema({"A"}, {"g": ("A", "A")})
    mapping = SchemaMapping(src, tgt, {"A": "A"}, {"f": ("y", image)})
    assert mapping.validate() == []
    [(got, verdict)] = check_preservation(mapping, fuel=4)
    assert got == eq
    assert isinstance(verdict, Proved)
    assert verdict.trace[0].startswith(f"proved {eq.render()} in 0 round(s) ")


def test_preservation_rejects_an_ill_typed_mapping(company):
    f = identity_mapping(company)
    f.op_map = dict(f.op_map, worksIn=("x", App("manager", Var("x"))))
    with pytest.raises(IllTyped, match="image of 'worksIn' has type"):
        check_preservation(f, fuel=4)


def test_preservation_rejects_an_unbalanced_source_equation():
    eq = Equation(Context.of(("x", Base("A"))), App("f", Var("x")), Var("x"))
    src = entity_schema({"A", "B"}, {"f": ("A", "B")}, [eq])
    mapping = SchemaMapping(src, src, {"A": "A", "B": "B"},
                            {"f": ("x", App("f", Var("x")))})
    with pytest.raises(IllTyped, match="different types: B vs A"):
        check_preservation(mapping, fuel=4)


def _random_image(rng: random.Random, sig: Signature, want, depth: int):
    """A target term over y: Emp of the wanted type, often using y more than
    once, through pairs, projections and the String builtins."""
    ctx = Context.of(("y", Base("Emp")))
    roll = rng.random()
    if roll < 0.1 and want == Base("String"):
        return Lit("String", rng.choice(["", "ab", "aba"]))
    if roll < 0.45 and depth > 0:
        inner = _random_image(rng, sig, want, depth - 1)
        other = _random_image(rng, sig, rng.choice(
            [Base("Emp"), Base("Dept"), Base("String"), Base("Int")]), depth - 1)
        if rng.random() < 0.5:
            return Proj1(Pair(inner, other))
        return Proj2(Pair(other, inner))
    if roll < 0.6 and want == Base("String") and depth > 0:
        return App("reverse", _random_image(rng, sig, want, depth - 1))
    if roll < 0.7 and want == Base("Int") and depth > 0:
        return App("length", _random_image(rng, sig, Base("String"), depth - 1))
    term = None
    while term is None:
        term = random_term(rng, sig, ctx, want, depth=3)
    return term


def _random_side(rng: random.Random, sig: Signature, ctx: Context, want):
    term = None
    while term is None:
        term = random_term(rng, sig, ctx, want, depth=4)
    return term


def _related(rng: random.Random, sig: Signature, ctx: Context, lhs, want):
    """A term equal to lhs in the company theory, or an unrelated one."""
    roll = rng.random()
    if roll < 0.2:
        return lhs
    if roll < 0.4:
        return Proj1(Pair(lhs, _random_side(rng, sig, ctx, Base("Dept"))))
    if roll < 0.55 and want == Base("String"):
        return App("reverse", App("reverse", lhs))
    if roll < 0.7 and want == Base("Dept"):
        return App("worksIn", App("manager", _random_side(rng, sig, ctx, Base("Emp"))))
    return _random_side(rng, sig, ctx, want)


def _reference(mapping: SchemaMapping, eq: Equation, fuel: int):
    """Preservation the way it was first written: translate both sides into
    terms and prove them equal."""
    builtin_ops = mapping.target.builtin_ops()
    return decide_equal(
        mapping.target.theory, apply_to_context(mapping, eq.ctx),
        apply_to_term(mapping, eq.ctx, eq.lhs),
        apply_to_term(mapping, eq.ctx, eq.rhs), fuel, builtin_ops=builtin_ops)


def test_image_ignoring_its_variable_adds_neither_argument_nor_variable(company):
    """ename -> "ab" drops manager(x), and with it x, from the translation
    of length(ename(manager(x))) = 2; the graph holds neither."""
    x_emp = Context.of(("x", Base("Emp")))
    eq = Equation(x_emp, App("length", App("ename", App("manager", Var("x")))),
                  Lit("Int", 2))
    source = FqlSchema(Theory.of(company.sig, [eq]), company.entity_types,
                       company.attribute_types)
    mapping = identity_mapping(company)
    mapping = SchemaMapping(source, company, mapping.type_map,
                            dict(mapping.op_map, ename=("y", Lit("String", "ab"))))
    [(_, verdict)] = check_preservation(mapping, fuel=4)
    want = _reference(mapping, eq, 4)
    assert want.trace[0] == "proved length(\"ab\") = 2 in 1 round(s) over 6 node(s)"
    assert verdict.trace == (f"proved {eq.render()} in 1 round(s) over 6 node(s)",
                             *want.trace[1:])


def test_preservation_agrees_with_translated_terms():
    """On random company mappings whose images reuse their variable, and on
    random source equations, adding images at argument classes gives the
    verdict, round count, node count and union log that proving the
    translated terms gives."""
    rng = random.Random(20260601)
    company = company_schema()
    sig = company.sig
    ctx = Context.of(("x", Base("Emp")), ("s", Base("String")))
    proved = unknown = 0
    for _ in range(40):
        equations = []
        for _ in range(5):
            want = rng.choice([Base("Emp"), Base("Dept"), Base("String"),
                               Base("Int"), Prod(Base("Dept"), Base("String"))])
            lhs = _random_side(rng, sig, ctx, want)
            equations.append(Equation(ctx, lhs, _related(rng, sig, ctx, lhs, want)))
        source = FqlSchema(Theory.of(sig, equations), company.entity_types,
                           company.attribute_types)
        mapping = SchemaMapping(source, company, {"Emp": "Emp", "Dept": "Dept"}, {
            op: ("y", _random_image(rng, sig, sig.op_type(op)[1], 3))
            for op in source.entity_dom_ops()})
        assert mapping.validate() == []
        for eq, verdict in check_preservation(mapping, fuel=4):
            want = _reference(mapping, eq, 4)
            if isinstance(want, Proved):
                proved += 1
                assert isinstance(verdict, Proved)
                counts = want.trace[0].rpartition(" in ")[2]
                assert verdict.trace[0] == f"proved {eq.render()} in {counts}"
                assert verdict.trace[1:] == want.trace[1:]
            else:
                unknown += 1
                assert verdict == want
    assert proved > 50 and unknown > 20


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
