from __future__ import annotations

import random

import pytest

from qinl.equality import Equation, Theory
from qinl.kernel import (
    App,
    Base,
    Context,
    EngineError,
    Lit,
    Pair,
    Prod,
    Proj1,
    Proj2,
    Signature,
    UNIT,
    UNIT_TERM,
    UnknownOperation,
    Var,
)
from qinl.nrc import Empty, EqTest, For, If, Singleton, Union
from qinl.schema import (
    BuiltinOp,
    BuiltinRegistry,
    FqlSchema,
    Instance,
    InvalidInstance,
    LabelledNull,
    OpApplied,
    PartialFunction,
    check_instance,
    default_builtins,
    eval_column,
    eval_term,
    render_cell,
    validate_instance,
)

from conftest import company_schema, entity_schema
from oracles import check_by_scan, eval_by_walk, isomorphism


def test_company_schema_validates():
    assert company_schema().validate() == []


def test_partition_must_cover_base_types():
    s = company_schema()
    broken = FqlSchema(s.theory, frozenset({"Emp"}), frozenset({"String", "Int"}))
    assert any("not classified" in p for p in broken.validate())


def test_attribute_to_entity_operation_rejected():
    sig = Signature.of({"E", "String"},
                       {"owner": (Base("String"), Base("E"))})
    s = FqlSchema(Theory.of(sig), frozenset({"E"}), frozenset({"String"}))
    assert any("attribute type String to entity type E" in p
               for p in s.validate())


def test_unregistered_builtin_rejected():
    sig = Signature.of({"E", "String"},
                       {"shout": (Base("String"), Base("String"))})
    s = FqlSchema(Theory.of(sig), frozenset({"E"}), frozenset({"String"}))
    assert any("no registered semantics" in p for p in s.validate())


def test_classification(company):
    assert company.tables["manager"] == ("Emp", "Emp")
    assert company.tables["ename"] == ("Emp", "String")
    assert "reverse" not in company.tables
    assert list(company.tables) == ["ename", "manager", "worksIn"]
    assert company.builtin_op_names() == ["length", "reverse"]


def test_instance_validation_catches_partial_table(company):
    broken = Instance.make(
        {"Emp": ["e1", "e2"], "Dept": ["d1"]},
        {"manager": {"e1": "e1"},
         "ename": {"e1": "a", "e2": "b"},
         "worksIn": {"e1": "d1", "e2": "d1"}})
    assert any("partial function 'manager'" in p
               for p in validate_instance(company, broken))


def test_instance_validation_catches_ill_typed_cell(company):
    broken = Instance.make(
        {"Emp": ["e1"], "Dept": ["d1"]},
        {"manager": {"e1": "e1"},
         "ename": {"e1": 42},
         "worksIn": {"e1": "d1"}})
    assert any("ill-typed cell ename(e1)" in p
               for p in validate_instance(company, broken))


def test_instance_validation_reports_cells_of_a_type_with_no_carrier():
    """An attribute type the registry has no carrier for holds no constant:
    its cells are reported, not a crash."""
    sig = Signature.of({"E", "Color"}, {"hue": (Base("E"), Base("Color"))})
    s = FqlSchema(Theory.of(sig), frozenset({"E"}), frozenset({"Color"}))
    assert s.validate() == ["attribute type 'Color' has no builtin carrier"]
    i = Instance.make({"E": ["e1", "e2"]},
                      {"hue": {"e1": "red", "e2": LabelledNull("0")}})
    assert validate_instance(s, i) == [
        "ill-typed cell hue(e1) = red: not a Color"]


def test_a_builtin_is_declared_only_at_its_registered_type():
    sig = Signature.of({"E", "String", "Int"},
                       {"length": (Base("Int"), Base("String")),
                        "reverse": (Base("String"), Base("String"))})
    s = FqlSchema(Theory.of(sig), frozenset({"E"}), frozenset({"String", "Int"}))
    assert s.validate() == [
        "builtin operation 'length' is declared Int -> String, but its "
        "registered type is String -> Int"]


def test_instance_validation_reads_symbolic_cells_as_instance_text_does():
    """A symbolic cell applies only builtins the schema declares, each at
    the type it gives: what the `.qinl` reader already requires."""
    sig = Signature.of({"E", "String", "Int"},
                       {"k": (Base("E"), Base("Int")),
                        "length": (Base("String"), Base("Int"))})
    s = FqlSchema(Theory.of(sig), frozenset({"E"}), frozenset({"String", "Int"}))
    q = LabelledNull("q")
    table = {"e1": OpApplied("length", q), "e2": OpApplied("reverse", q),
             "e3": OpApplied("length", OpApplied("length", q))}
    i = Instance.make({"E": list(table)}, {"k": table})
    assert validate_instance(s, i) == [
        "symbolic cell k(e2) = reverse(?q): 'reverse' is not a builtin "
        "operation of the schema",
        "symbolic cell k(e3) = length(length(?q)): 'length' gives Int, "
        "not String"]


def test_instance_validation_catches_escaping_value(company):
    broken = Instance.make(
        {"Emp": ["e1"], "Dept": ["d1"]},
        {"manager": {"e1": "e1"},
         "ename": {"e1": "a"},
         "worksIn": {"e1": "d9"}})
    assert any("outside the 'Dept' carrier" in p
               for p in validate_instance(company, broken))


def test_check_instance_raises_on_invalid(company):
    broken = Instance.make({"Emp": ["e1"]}, {})
    with pytest.raises(InvalidInstance):
        check_instance(company, broken)


def test_staff_satisfies_company(company, staff):
    report = check_instance(company, staff, sample_size=32, seed=1)
    statuses = {c.equation: c.status for c in report.checks}
    assert report.all_ok
    assert statuses["forall x: Emp . worksIn(x) = worksIn(manager(x))"] == "satisfied"
    sampled = [c for c in report.checks if c.status == "sampled-only"]
    assert len(sampled) == 2
    assert all(c.sample_size == 32 for c in sampled)


def test_check_instance_quantifies_over_unit_and_product_binders():
    """A binder of type E * E ranges over the pairs of rows and one of type
    1 over `()`: both are enumerated, not sampled."""
    e = Base("E")
    p = Var("p")
    pairs = Context.of(("p", Prod(e, e)))
    s = FqlSchema(
        Theory.of(Signature.of({"E"}, {"f": (e, e)}), (
            Equation(pairs, App("f", Proj1(p)), App("f", Proj1(p))),
            Equation(pairs, App("f", Proj1(p)), Proj2(p)),
            Equation(Context.of(("u", UNIT)), Var("u"), UNIT_TERM))),
        frozenset({"E"}), frozenset())
    i = Instance.make({"E": ["a", "b"]}, {"f": {"a": "a", "b": "b"}})
    report = check_instance(s, i)
    assert [(c.equation, c.status, c.witness) for c in report.checks] == [
        ("forall p: E * E . f(p.1) = f(p.1)", "satisfied", None),
        ("forall p: E * E . f(p.1) = p.2", "violated", (("p", "(a, b)"),)),
        ("forall u: 1 . u = ()", "satisfied", None)]


def test_single_row_self_manager_satisfied(company):
    tiny = Instance.make(
        {"Emp": ["e1"], "Dept": ["d1"]},
        {"manager": {"e1": "e1"},
         "ename": {"e1": "x"},
         "worksIn": {"e1": "d1"}})
    assert check_instance(company, tiny, sample_size=8).all_ok


def test_cross_department_manager_violates(company):
    crossed = Instance.make(
        {"Emp": ["e1", "e2"], "Dept": ["d1", "d2"]},
        {"manager": {"e1": "e2", "e2": "e2"},
         "ename": {"e1": "a", "e2": "b"},
         "worksIn": {"e1": "d1", "e2": "d2"}})
    report = check_instance(company, crossed, sample_size=8)
    violated = report.violations()
    assert len(violated) == 1
    assert violated[0].witness == (("x", "e1"),)


def test_empty_carriers_vacuously_satisfy(company):
    empty = Instance.make({"Emp": [], "Dept": []},
                          {"manager": {}, "ename": {}, "worksIn": {}})
    report = check_instance(company, empty, sample_size=8)
    entity_eq = [c for c in report.checks if "Emp" in c.equation]
    assert entity_eq[0].status == "satisfied"


def test_eval_term_computes_builtins(company, staff):
    term = App("length", App("reverse", App("ename", Var("x"))))
    assert eval_term(company, staff, {"x": "e1"}, term) == 4


def test_eval_term_reads_tables_computes_declared_builtins_only(company, staff):
    """A table operation reads its table and a declared builtin computes;
    an operation the schema does not declare is unknown, even one the
    registry could compute, and a row missing from a table is partial."""
    env = {"x": "e2"}
    assert eval_term(company, staff, env, App("manager", Var("x"))) == "e1"
    assert eval_term(company, staff, env, App("reverse", Lit("String", "ab"))) == "ba"
    with pytest.raises(UnknownOperation):
        eval_term(company, staff, env, App("salary", Var("x")))
    ops = {op: t for op, t in company.sig.operations.items() if op != "length"}
    no_length = FqlSchema(Theory.of(Signature.of(company.sig.base_types, ops)),
                          company.entity_types, company.attribute_types)
    assert no_length.validate() == []
    with pytest.raises(UnknownOperation):
        eval_term(no_length, staff, env, App("length", Lit("String", "ab")))
    partial = Instance.make(staff.carriers, {**staff.functions, "manager": {}})
    with pytest.raises(PartialFunction):
        eval_term(company, partial, env, App("manager", Var("x")))


def test_eval_term_on_null_stays_symbolic(company):
    withnull = Instance.make(
        {"Emp": ["e1"], "Dept": ["d1"]},
        {"manager": {"e1": "e1"},
         "ename": {"e1": LabelledNull("0")},
         "worksIn": {"e1": "d1"}})
    value = eval_term(company, withnull, {"x": "e1"},
                      App("reverse", App("ename", Var("x"))))
    assert value == OpApplied("reverse", LabelledNull("0"))
    assert render_cell(value) == "reverse(?0)"


def test_nulls_compare_only_to_themselves():
    assert LabelledNull("0") == LabelledNull("0")
    assert LabelledNull("0") != LabelledNull("1")
    assert LabelledNull("0") != "?0"


def test_iso_identity(company, staff):
    iso = isomorphism(company, staff, staff)
    assert iso is not None
    assert iso["Emp"] == {"e1": "e1", "e2": "e2", "e3": "e3"}


def test_iso_rejects_size_mismatch(company, staff):
    smaller = Instance.make(
        {"Emp": ["e1"], "Dept": ["d1"]},
        {"manager": {"e1": "e1"}, "ename": {"e1": "a"},
         "worksIn": {"e1": "d1"}})
    assert isomorphism(company, staff, smaller) is None


def test_iso_modulo_row_renaming(company):
    a = Instance.make(
        {"Emp": ["e1"], "Dept": ["d1"]},
        {"manager": {"e1": "e1"}, "ename": {"e1": "bob"},
         "worksIn": {"e1": "d1"}})
    b = Instance.make(
        {"Emp": ["zz"], "Dept": ["qq"]},
        {"manager": {"zz": "zz"}, "ename": {"zz": "bob"},
         "worksIn": {"zz": "qq"}})
    iso = isomorphism(company, a, b)
    assert iso == {"Emp": {"e1": "zz"}, "Dept": {"d1": "qq"}}


def test_iso_distinguishes_constants(company):
    a = Instance.make(
        {"Emp": ["e1"], "Dept": ["d1"]},
        {"manager": {"e1": "e1"}, "ename": {"e1": "bob"},
         "worksIn": {"e1": "d1"}})
    b = Instance.make(
        {"Emp": ["e1"], "Dept": ["d1"]},
        {"manager": {"e1": "e1"}, "ename": {"e1": "eve"},
         "worksIn": {"e1": "d1"}})
    assert isomorphism(company, a, b) is None


def test_iso_renames_nulls_bijectively(company):
    a = Instance.make(
        {"Emp": ["e1", "e2"], "Dept": ["d1"]},
        {"manager": {"e1": "e1", "e2": "e2"},
         "ename": {"e1": LabelledNull("0"), "e2": LabelledNull("0")},
         "worksIn": {"e1": "d1", "e2": "d1"}})
    b_shared = Instance.make(
        {"Emp": ["e1", "e2"], "Dept": ["d1"]},
        {"manager": {"e1": "e1", "e2": "e2"},
         "ename": {"e1": LabelledNull("7"), "e2": LabelledNull("7")},
         "worksIn": {"e1": "d1", "e2": "d1"}})
    b_split = Instance.make(
        {"Emp": ["e1", "e2"], "Dept": ["d1"]},
        {"manager": {"e1": "e1", "e2": "e2"},
         "ename": {"e1": LabelledNull("7"), "e2": LabelledNull("8")},
         "worksIn": {"e1": "d1", "e2": "d1"}})
    assert isomorphism(company, a, b_shared) is not None
    assert isomorphism(company, a, b_split) is None


def test_iso_respects_operation_structure():
    s = entity_schema({"N"}, {"next": ("N", "N")})
    cycle = Instance.make({"N": ["a", "b"]}, {"next": {"a": "b", "b": "a"}})
    fixed = Instance.make({"N": ["a", "b"]}, {"next": {"a": "a", "b": "b"}})
    assert isomorphism(s, cycle, cycle) is not None
    assert isomorphism(s, cycle, fixed) is None


def test_satisfaction_stable_under_iso(company):
    a = Instance.make(
        {"Emp": ["e1", "e2"], "Dept": ["d1", "d2"]},
        {"manager": {"e1": "e2", "e2": "e2"},
         "ename": {"e1": "a", "e2": "b"},
         "worksIn": {"e1": "d1", "e2": "d2"}})
    b = Instance.make(
        {"Emp": ["x1", "x2"], "Dept": ["y1", "y2"]},
        {"manager": {"x1": "x2", "x2": "x2"},
         "ename": {"x1": "a", "x2": "b"},
         "worksIn": {"x1": "y1", "x2": "y2"}})
    assert isomorphism(company, a, b) is not None
    ra = check_instance(company, a, sample_size=8)
    rb = check_instance(company, b, sample_size=8)
    assert [c.status for c in ra.checks] == [c.status for c in rb.checks]


def test_sampling_is_seed_deterministic(company, staff):
    r1 = check_instance(company, staff, sample_size=64, seed=9)
    r2 = check_instance(company, staff, sample_size=64, seed=9)
    assert r1 == r2


STRINGS = default_builtins().sample_spaces["String"]


def _recording(variables: int):
    """A schema whose one equation, over `variables` String variables,
    records the values each variable takes: seen(v) records v and returns
    "", so the equation holds everywhere and every combination is tried.
    Its instance names rows "abba" and "abc" (and the literal "ba"); "abc"
    lies outside the sample space."""
    log: list[str] = []
    reg = default_builtins()
    seen = BuiltinOp("String", "String", lambda v: log.append(v) or "")
    reg = BuiltinRegistry(reg.carriers, {**reg.ops, "seen": seen},
                          reg.sample_spaces)
    sig = Signature.of({"E", "String"}, {"name": (Base("E"), Base("String")),
                                          "seen": (Base("String"), Base("String"))})
    names = ["x", "y"][:variables]
    ctx = Context.of(*((v, Base("String")) for v in names))
    eq = Equation(ctx, App("seen", Var(names[0])), App("seen", Var(names[-1])))
    literal = Equation(Context.of(("e", Base("E"))), Lit("String", "ba"),
                       Lit("String", "ba"))
    schema = FqlSchema(Theory.of(sig, [literal, eq]), frozenset({"E"}),
                       frozenset({"String"}), reg)
    inst = Instance.make({"E": ["r1", "r2"]}, {"name": {"r1": "abba", "r2": "abc"}})
    return schema, inst, log


ACTIVE = ["abba", "abc", "ba"]  # in cell_key order


def _sides(log: list[str]) -> tuple[list[str], list[str]]:
    """The arguments `seen` took on the left side and on the right side of
    one check: under CHECK_CHUNK combinations, each side is evaluated over
    all of them at once, the left side first."""
    half = len(log) // 2
    return log[:half], log[half:]


def test_string_domain_is_the_active_domain_then_the_whole_sample_space():
    schema, inst, log = _recording(1)
    check_instance(schema, inst, sample_size=63)
    domain, _ = _sides(log)
    assert domain[:3] == ACTIVE
    assert len(domain) == 1 + 63
    assert set(domain) == {"abc", *STRINGS}
    log.clear()
    check_instance(schema, inst, sample_size=1000)
    assert _sides(log)[0] == domain


def test_sample_draws_exactly_sample_size_fresh_values_per_seed():
    schema, inst, log = _recording(1)
    check_instance(schema, inst, sample_size=8, seed=5)
    first, _ = _sides(log)
    fresh = [v for v in STRINGS if v not in ACTIVE]
    assert first == ACTIVE + random.Random(5).sample(fresh, 8)
    log.clear()
    check_instance(schema, inst, sample_size=8, seed=5)
    assert _sides(log)[0] == first
    log.clear()
    check_instance(schema, inst, sample_size=8, seed=6)
    assert _sides(log)[0][3:] != first[3:]


def test_variables_of_one_attribute_type_share_its_domain():
    schema, inst, log = _recording(2)
    check_instance(schema, inst, sample_size=8, seed=5)
    domain = ACTIVE + random.Random(5).sample(
        [v for v in STRINGS if v not in ACTIVE], 8)
    pairs = list(zip(*_sides(log)))
    assert pairs == [(x, y) for x in domain for y in domain]


def test_sampled_value_outside_the_active_domain_violates():
    """Every name is a palindrome, so only a sampled string can refute
    reverse(x) = x; the first non-palindrome of the seeded sample does."""
    sig = Signature.of({"E", "String"}, {"name": (Base("E"), Base("String")),
                                          "reverse": (Base("String"), Base("String"))})
    eq = Equation(Context.of(("x", Base("String"))),
                  App("reverse", Var("x")), Var("x"))
    schema = FqlSchema(Theory.of(sig, [eq]), frozenset({"E"}),
                       frozenset({"String"}))
    inst = Instance.make({"E": ["r1", "r2"]}, {"name": {"r1": "abba", "r2": "aba"}})
    check, = check_instance(schema, inst, sample_size=8, seed=0).checks
    assert check.status == "violated"
    assert check.witness == (("x", "bbaab"),)


def test_default_builtins_cover_needed_ops():
    reg = default_builtins()
    assert reg.apply("length", "abba") == 4
    assert reg.apply("reverse", "abc") == "cba"
    assert isinstance(reg.apply("reverse", LabelledNull("3")), OpApplied)


# --------------------------------------------------------------------------
# The column evaluator against the recursive walk of `oracles`

E, F, STR, INT = Base("E"), Base("F"), Base("String"), Base("Int")
WALK_OPS = {"g": (E, E), "f": (E, F), "name": (E, STR), "size": (F, INT),
            "length": (STR, INT), "reverse": (STR, STR)}
WALK_CTX = (("x", E), ("y", F), ("p", Prod(E, STR)))
NAMES = ["", "ab", "ba", "aab", LabelledNull("0"), LabelledNull("1"),
         OpApplied("reverse", LabelledNull("0"))]
SIZES = [0, 1, 2, LabelledNull("2"), OpApplied("length", LabelledNull("0"))]


def _walk_schema(equations=()) -> FqlSchema:
    sig = Signature.of({"E", "F", "String", "Int"}, WALK_OPS)
    return FqlSchema(Theory.of(sig, list(equations)), frozenset({"E", "F"}),
                     frozenset({"String", "Int"}))


def _walk_instance(rng: random.Random) -> Instance:
    """Total tables whose attribute cells mix constants, labelled nulls and
    builtins applied to them."""
    es = [f"e{k}" for k in range(rng.randint(1, 5))]
    fs = [f"f{k}" for k in range(rng.randint(1, 3))]
    return Instance.make({"E": es, "F": fs}, {
        "g": {e: rng.choice(es) for e in es}, "f": {e: rng.choice(fs) for e in es},
        "name": {e: rng.choice(NAMES) for e in es},
        "size": {f: rng.choice(SIZES) for f in fs}})


def _kernel_term(rng: random.Random, ctx, want, depth: int):
    """A random well-typed term of type `want` over `ctx`, which binds a
    variable of type E: variables, literals, unit, pairs, projections,
    table operations and builtins."""
    makers = [lambda v=v: Var(v) for v, t in ctx if t == want]
    if want == UNIT:
        makers.append(lambda: UNIT_TERM)
    if want == STR:
        makers.append(lambda: Lit("String", rng.choice(["", "ab", "ba"])))
    if want == INT:
        makers.append(lambda: Lit("Int", rng.randint(0, 2)))
    if isinstance(want, Prod):
        makers.append(lambda: Pair(_kernel_term(rng, ctx, want.left, depth),
                                   _kernel_term(rng, ctx, want.right, depth)))
    if depth > 0 or not makers:
        d = max(depth - 1, 0)
        makers += [lambda op=op, dom=dom: App(op, _kernel_term(rng, ctx, dom, d))
                   for op, (dom, cod) in WALK_OPS.items() if cod == want]
    if depth > 0:
        other = rng.choice([E, F, STR, INT])
        makers.append(lambda: Proj1(_kernel_term(rng, ctx, Prod(want, other), d)))
        makers.append(lambda: Proj2(_kernel_term(rng, ctx, Prod(other, want), d)))
    return rng.choice(makers)()


def test_eval_column_equals_the_walk_at_every_position():
    rng = random.Random(11)
    s = _walk_schema()
    for _ in range(300):
        i = _walk_instance(rng)
        n = rng.randint(0, 6)
        es, fs = i.rows("E"), i.rows("F")
        columns = {"x": [rng.choice(es) for _ in range(n)],
                   "y": [rng.choice(fs) for _ in range(n)],
                   "p": [(rng.choice(es), rng.choice(NAMES)) for _ in range(n)]}
        want = rng.choice([E, F, STR, INT, UNIT, Prod(STR, INT), Prod(E, Prod(F, STR))])
        term = _kernel_term(rng, WALK_CTX, want, depth=4)
        assert eval_column(s, i, columns, n, term) == [
            eval_by_walk(s, i, {v: c[k] for v, c in columns.items()}, term)
            for k in range(n)], term


def _outcome(evaluate):
    try:
        return evaluate()
    except EngineError as exc:
        return type(exc), str(exc)


def test_eval_term_equals_the_walk_on_generated_expressions():
    """The 300 expressions of the type-soundness test, then expressions
    that raise: on each, eval_term gives the walk's value or its error."""
    from test_nrc import EMPTY_INSTANCE, SCHEMA, TYPES, _random_expr

    rng = random.Random(5)
    for _ in range(300):
        expr = _random_expr(rng, {}, rng.choice(TYPES), depth=5)
        assert eval_term(SCHEMA, EMPTY_INSTANCE, {}, expr) == eval_by_walk(
            SCHEMA, EMPTY_INSTANCE, {}, expr)
    s = company_schema()
    withnull = Instance.make(
        {"Emp": ["e1"], "Dept": ["d1"]},
        {"manager": {"e1": "e1"}, "ename": {"e1": LabelledNull("0")},
         "worksIn": {"e1": "d1"}})
    partial = Instance.make(withnull.carriers, {**withnull.functions, "manager": {}})
    ops = {op: t for op, t in s.sig.operations.items() if op != "length"}
    no_length = FqlSchema(Theory.of(Signature.of(s.sig.base_types, ops)),
                          s.entity_types, s.attribute_types)
    unregistered = FqlSchema(s.theory, s.entity_types, s.attribute_types,
                             BuiltinRegistry(s.builtins.carriers, {},
                                             s.builtins.sample_spaces))
    emps = Singleton(Var("x"))
    raising = [
        (s, withnull, If(Var("b"), emps, Empty(Base("Emp")))),
        (s, partial, For("y", emps, Singleton(App("manager", Var("y"))))),
        (s, withnull, Singleton(App("salary", Var("x")))),
        (no_length, withnull, App("length", Lit("String", "ab"))),
        (unregistered, withnull, App("reverse", App("ename", Var("x")))),
        (s, withnull, Union(emps, Singleton(Var("z")))),
    ]
    for schema, inst, expr in raising:
        env = {"x": "e1", "b": LabelledNull("1")}
        walked = _outcome(lambda: eval_by_walk(schema, inst, env, expr))
        assert isinstance(walked, tuple) and issubclass(walked[0], EngineError), expr
        assert _outcome(lambda: eval_term(schema, inst, env, expr)) == walked, expr


def test_check_instance_matches_a_scan_of_one_combination_at_a_time(monkeypatch):
    """Random equations over two or three variables, entity- and
    attribute-typed, with chunks of three combinations so that many
    witnesses lie past the first chunk."""
    import qinl.schema

    monkeypatch.setattr(qinl.schema, "CHECK_CHUNK", 3)
    rng = random.Random(3)
    for _ in range(60):
        equations = []
        for _ in range(3):
            ctx = [("u", E)] + [(v, rng.choice([E, F, STR, INT]))
                                for v in ["v", "w"][:rng.randint(1, 2)]]
            rng.shuffle(ctx)
            want = rng.choice([E, F, STR, INT])
            lhs = _kernel_term(rng, ctx, want, depth=3)
            rhs = lhs if rng.random() < 0.3 else _kernel_term(rng, ctx, want, depth=3)
            equations.append(Equation(Context.of(*ctx), lhs, rhs))
        s, i = _walk_schema(equations), _walk_instance(rng)
        seed = rng.randint(0, 9)
        report = check_instance(s, i, sample_size=3, seed=seed)
        assert [(c.status, c.witness) for c in report.checks] == check_by_scan(
            s, i, sample_size=3, seed=seed)


def test_violation_past_the_first_chunk_is_the_first_in_product_order():
    """Over 20 rows, (x, y, z) has 8,000 combinations; the only row tagged
    1 is the last, so the first violation of tag(x) = 0 is the 7,601st."""
    rows = [f"r{k:02d}" for k in range(20)]
    eq = Equation(Context.of(("x", E), ("y", E), ("z", E)),
                  App("tag", Var("x")), Lit("Int", 0))
    s = FqlSchema(Theory.of(Signature.of({"E", "Int"}, {"tag": (E, INT)}), [eq]),
                  frozenset({"E"}), frozenset({"Int"}))
    i = Instance.make({"E": rows}, {"tag": {r: int(r == "r19") for r in rows}})
    check, = check_instance(s, i).checks
    assert check.witness == (("x", "r19"), ("y", "r00"), ("z", "r00"))
    assert [(check.status, check.witness)] == check_by_scan(s, i)
