"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from qinl.cli import main as cli_main
from qinl.equality import Equation, Proved, Theory, decide_equal
from qinl.kernel import (
    App,
    Base,
    Context,
    Pair,
    Prod,
    Proj1,
    Proj2,
    Signature,
    UNIT,
    UNIT_TERM,
    Var,
)
from qinl.mapping import SchemaMapping, identity_mapping
from qinl.migration import delta, enumerate_homs, pi, sigma
from qinl.nrc import relational_library
from qinl.query import Comprehension, eval_query
from qinl.schema import (
    FqlSchema, Instance, SetV, eval_term, instance_equal_upto_iso, make_set)
from qinl.surface import elaborate, parse, print_unit

from conftest import company_schema, entity_schema, staff_instance
from oracles import naive_eval, true_in_all_models
from test_surface import random_declaration
from qinl.surface import SourceUnit

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(number: int, ok: bool, message: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {state} - {message}")
    assert ok, message


# --------------------------------------------------------------------------
# 1. The four unit/product axioms prove at fuel <= 4 within a second.

def test_acceptance_1_product_axiom_suite():
    start = time.monotonic()
    sig = Signature.of({"T1", "T2"}, {})
    th = Theory.of(sig)
    pair_ctx = Context.of(("x1", Base("T1")), ("x2", Base("T2")))
    prod_ctx = Context.of(("e", Prod(Base("T1"), Base("T2"))))
    unit_ctx = Context.of(("u", UNIT))
    goals = [
        (pair_ctx, Proj1(Pair(Var("x1"), Var("x2"))), Var("x1")),
        (pair_ctx, Proj2(Pair(Var("x1"), Var("x2"))), Var("x2")),
        (prod_ctx, Var("e"), Pair(Proj1(Var("e")), Proj2(Var("e")))),
        (unit_ctx, Var("u"), UNIT_TERM),
    ]
    verdicts = [decide_equal(th, ctx, a, b, fuel=4) for ctx, a, b in goals]
    elapsed = time.monotonic() - start
    ok = all(isinstance(v, Proved) for v in verdicts) and elapsed < 1.0
    report(1, ok, f"4/4 axiom instances proved at fuel<=4 in {elapsed:.3f}s")


# --------------------------------------------------------------------------
# 2. The transliterated fixture is accepted; the broken variant is rejected
#    with a located diagnostic.

def test_acceptance_2_fixture_and_broken_variant():
    good = elaborate(parse((FIXTURES / "company.qinl").read_text()))
    good_ok = (not good.diagnostics and "company" in good.schemas
               and len(good.schemas["company"].theory.equations) == 3)
    bad = elaborate(parse((FIXTURES / "company_broken.qinl").read_text()))
    located = [d for d in bad.errors() if d.line > 0 and d.col > 0]
    report(2, good_ok and bool(located),
           f"fixture accepted; broken variant rejected at "
           f"{located[0].line}:{located[0].col}" if located else
           "broken variant produced no located diagnostic")


# --------------------------------------------------------------------------
# 3. The three relational combinators agree exactly with the naive oracle
#    on every instance with carriers of size <= 3.

def _values_of(base: str, size: int) -> list[str]:
    return [f"{base.lower()}_{k}" for k in range(size)]


def _subsets(values: list) -> list[tuple]:
    out = []
    for mask in range(1 << len(values)):
        out.append(tuple(v for k, v in enumerate(values) if mask >> k & 1))
    return out


def _to_naive(v):
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return (_to_naive(v[0]), _to_naive(v[1]))
    if isinstance(v, SetV):
        return frozenset(_to_naive(m) for m in v.members)
    raise AssertionError


def test_acceptance_3_relational_oracle_equivalence():
    start = time.monotonic()
    sig = Signature.of({"T1", "T2"}, {})
    schema = FqlSchema(Theory.of(sig), frozenset({"T1", "T2"}), frozenset())
    lib = relational_library()
    cases = 0

    def mine(expr, relation):
        return eval_term(schema, Instance({}, {}), {"I": relation}, expr)

    t1, t2 = Base("T1"), Base("T2")
    pairs = [(a, b) for a in _values_of("T1", 3) for b in _values_of("T2", 3)]
    _, project = lib["project1"](t1, t2)
    for subset in _subsets(pairs):
        rel = make_set(subset)
        naive = naive_eval(project, {"I": _to_naive(rel)}, {})
        assert _to_naive(mine(project, rel)) == naive
        cases += 1

    _, product = lib["product"](t1, t2)
    for s1 in _subsets(_values_of("T1", 3)):
        for s2 in _subsets(_values_of("T2", 3)):
            rel = (make_set(s1), make_set(s2))
            naive = naive_eval(product, {"I": _to_naive(rel)}, {})
            assert _to_naive(mine(product, rel)) == naive
            cases += 1

    same_pairs = [(a, b) for a in _values_of("T1", 3) for b in _values_of("T1", 3)]
    _, select = lib["select-eq"](t1, t1)
    for subset in _subsets(same_pairs):
        rel = make_set(subset)
        naive = naive_eval(select, {"I": _to_naive(rel)}, {})
        assert _to_naive(mine(select, rel)) == naive
        cases += 1

    elapsed = time.monotonic() - start
    report(3, elapsed < 10.0,
           f"{cases} exhaustive instances matched the oracle in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 4. The flagship query through the CLI: {d1}, then {d1, d2} after adding a
#    fourth self-managing palindrome.

def test_acceptance_4_flagship_query(capsys):
    company = str(FIXTURES / "company.qinl")
    code1 = cli_main(["query", company, "palindromeDepts", "staff"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["query", company, "palindromeDepts", "staffExtended"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and out1 == "d1\n" and code2 == 0 and out2 == "d1\nd2\n"
    report(4, ok, "query yields {d1} on staff and {d1, d2} with employee 'ee'")


# --------------------------------------------------------------------------
# 5. Adjunction suite over generated triples.

def _random_dag_mapping(rng: random.Random):
    """A mapping between entity-only schemas whose target is cycle-free, so
    both adjoints complete."""
    tgt_types = ["U", "V"][: rng.randint(1, 2)]
    tgt_ops = {}
    if len(tgt_types) == 2:
        for k in range(rng.randint(0, 2)):
            tgt_ops[f"g{k}"] = ("U", "V")
    tgt = entity_schema(set(tgt_types), tgt_ops)

    src_types = ["A", "B"][: rng.randint(1, 2)]
    type_map = {t: rng.choice(tgt_types) for t in src_types}
    src_ops = {}
    op_map = {}
    for k in range(rng.randint(0, 2)):
        dom = rng.choice(src_types)
        cod = rng.choice(src_types)
        chains = _target_chains(tgt, type_map[dom], type_map[cod])
        if not chains:
            continue
        name = f"f{k}"
        src_ops[name] = (dom, cod)
        op_map[name] = ("x", rng.choice(chains))
    src = entity_schema(set(src_types), src_ops)
    return SchemaMapping(src, tgt, type_map, op_map)


def _target_chains(tgt, start: str, goal: str):
    chains = []
    frontier = [(Var("x"), start)]
    for _ in range(3):
        nxt = []
        for term, t in frontier:
            if t == goal:
                chains.append(term)
            for op, (dom, cod) in tgt.tables.items():
                if dom == t:
                    nxt.append((App(op, term), cod))
        frontier = nxt
    chains.extend(term for term, t in frontier if t == goal)
    return chains


def _random_instance(rng: random.Random, s) -> Instance:
    carriers = {t: [f"{t.lower()}{k}" for k in range(rng.randint(0, 3))]
                for t in sorted(s.entity_types)}
    functions = {}
    for op in s.tables:
        dom, cod = s.sig.op_type(op)
        rows = carriers[dom.name]
        cod_rows = carriers[cod.name]
        if rows and not cod_rows:
            return None
        functions[op] = {r: rng.choice(cod_rows) for r in rows}
    return Instance.make(carriers, functions)


def test_acceptance_5_adjunction_suite():
    start = time.monotonic()
    rng = random.Random(414)
    attempted = completed = 0
    mismatches = []
    while attempted < 200:
        mapping = _random_dag_mapping(rng)
        i = _random_instance(rng, mapping.source)
        j = _random_instance(rng, mapping.target)
        if i is None or j is None:
            continue
        attempted += 1
        try:
            pushed_free = sigma(mapping, i, fuel=64)
            pushed_limit = pi(mapping, i, fuel=64)
        except Exception:  # noqa: BLE001 - incomplete chase/saturation
            continue
        completed += 1
        pulled = delta(mapping, j)
        lhs1 = len(enumerate_homs(mapping.target, pushed_free, j))
        rhs1 = len(enumerate_homs(mapping.source, i, pulled))
        lhs2 = len(enumerate_homs(mapping.source, pulled, i))
        rhs2 = len(enumerate_homs(mapping.target, j, pushed_limit))
        if lhs1 != rhs1 or lhs2 != rhs2:
            mismatches.append((mapping, i, j, lhs1, rhs1, lhs2, rhs2))
    elapsed = time.monotonic() - start
    ok = (not mismatches and attempted >= 200 and completed >= 150
          and elapsed < 60.0)
    report(5, ok,
           f"{attempted} triples, {completed} completed, "
           f"{len(mismatches)} hom-count mismatches in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 6. Identity laws on twenty fixture instances.

def _identity_fixtures():
    """Twenty instances over saturating schemas (cycle-free operation graphs
    or idempotently collapsed cycles)."""
    bare = entity_schema({"N"}, {})
    arrow = entity_schema({"A", "B"}, {"f": ("A", "B")})
    two_arrows = entity_schema({"A", "B"}, {"f": ("A", "B"), "g": ("A", "B")})
    idem = entity_schema(
        {"E"}, {"boss": ("E", "E")},
        [Equation(Context.of(("x", Base("E"))),
                  App("boss", App("boss", Var("x"))), App("boss", Var("x")))])
    tagged_sig = Signature.of({"A", "String"},
                              {"tag": (Base("A"), Base("String"))})
    tagged = FqlSchema(Theory.of(tagged_sig), frozenset({"A"}),
                       frozenset({"String"}))

    fixtures = []
    for size in range(4):
        fixtures.append((bare, Instance.make(
            {"N": [f"n{k}" for k in range(size)]}, {})))
    for fa, fb in [(0, 0), (1, 1), (2, 1), (3, 2)]:
        rows_a = [f"a{k}" for k in range(fa)]
        rows_b = [f"b{k}" for k in range(fb)]
        table = {r: rows_b[k % fb] if fb else None
                 for k, r in enumerate(rows_a)}
        if fa and not fb:
            continue
        fixtures.append((arrow, Instance.make(
            {"A": rows_a, "B": rows_b}, {"f": table})))
    for fa, fb in [(1, 2), (2, 2), (3, 3)]:
        rows_a = [f"a{k}" for k in range(fa)]
        rows_b = [f"b{k}" for k in range(fb)]
        fixtures.append((two_arrows, Instance.make(
            {"A": rows_a, "B": rows_b},
            {"f": {r: rows_b[k % fb] for k, r in enumerate(rows_a)},
             "g": {r: rows_b[(k + 1) % fb] for k, r in enumerate(rows_a)}})))
    for pattern in [{"e0": "e0"}, {"e0": "e1", "e1": "e1"},
                    {"e0": "e1", "e1": "e1", "e2": "e2"},
                    {"e0": "e0", "e1": "e0", "e2": "e0"},
                    {"e0": "e1", "e1": "e1", "e2": "e1"}]:
        fixtures.append((idem, Instance.make(
            {"E": sorted(pattern)}, {"boss": pattern})))
    for cells in [{}, {"a0": "x"}, {"a0": "x", "a1": "yy"},
                  {"a0": "x", "a1": "x", "a2": ""}]:
        fixtures.append((tagged, Instance.make(
            {"A": sorted(cells)}, {"tag": cells})))
    return fixtures


def test_acceptance_6_identity_laws():
    fixtures = _identity_fixtures()
    assert len(fixtures) >= 20
    failures = []
    for index, (schema, instance) in enumerate(fixtures[:20]):
        ident = identity_mapping(schema)
        for name, migrated in (
                ("delta", delta(ident, instance)),
                ("sigma", sigma(ident, instance, fuel=32)),
                ("pi", pi(ident, instance, fuel=32))):
            if instance_equal_upto_iso(schema, migrated, instance) is None:
                failures.append((index, name))
    report(6, not failures,
           f"delta/sigma/pi along identities isomorphic on 20 fixtures "
           f"({len(failures)} failures)")


# --------------------------------------------------------------------------
# 7. Every Proved verdict across a corpus survives exhaustive small-model
#    checking with entity carriers <= 2.

def _soundness_corpus():
    """(theory, context, lhs, rhs) cases that exercise the prover; each is
    converted to an all-entity signature for finite-model enumeration."""
    cases = []
    sig = Signature.of({"T1", "T2"}, {})
    th = Theory.of(sig)
    pair_ctx = Context.of(("x1", Base("T1")), ("x2", Base("T2")))
    cases.append((th, pair_ctx, Proj1(Pair(Var("x1"), Var("x2"))), Var("x1")))
    cases.append((th, pair_ctx, Proj2(Pair(Var("x1"), Var("x2"))), Var("x2")))

    company = company_schema()
    all_entity = Theory.of(
        Signature.of(company.sig.base_types, dict(company.sig.operations)),
        company.theory.equations)
    x_str = Context.of(("x", Base("String")))
    x_emp = Context.of(("x", Base("Emp")))
    rev = lambda t: App("reverse", t)
    cases.append((all_entity, x_str, rev(rev(Var("x"))), Var("x")))
    cases.append((all_entity, x_str,
                  App("length", rev(rev(rev(Var("x"))))),
                  App("length", Var("x"))))
    cases.append((all_entity, x_emp,
                  App("worksIn", App("manager", App("manager", Var("x")))),
                  App("worksIn", Var("x"))))

    idem = Theory.of(
        Signature.of({"E"}, {"boss": (Base("E"), Base("E"))}),
        [Equation(Context.of(("x", Base("E"))),
                  App("boss", App("boss", Var("x"))),
                  App("boss", Var("x")))])
    x_e = Context.of(("x", Base("E")))
    boss = lambda t: App("boss", t)
    cases.append((idem, x_e, boss(boss(boss(Var("x")))), boss(Var("x"))))

    rng = random.Random(99)
    from test_equality import _random_chain, _random_theory
    for _ in range(60):
        th = _random_theory(rng)
        t = rng.choice(sorted(th.sig.base_types))
        a = _random_chain(rng, th.sig, t, rng.randint(0, 3))
        b = _random_chain(rng, th.sig, t, rng.randint(0, 3))
        if a and b and a[1] == b[1]:
            cases.append((th, Context.of(("v", Base(t))), a[0], b[0]))
    return cases


def test_acceptance_7_soundness_sampling():
    proved = checked = 0
    for th, ctx, a, b in _soundness_corpus():
        verdict = decide_equal(th, ctx, a, b, fuel=8)
        if isinstance(verdict, Proved):
            proved += 1
            # products appear only in goals over product-free signatures here,
            # and the model oracle handles them structurally
            assert true_in_all_models(th, ctx, a, b, max_size=2)
            checked += 1
    report(7, proved == checked and proved >= 10,
           f"{proved} Proved verdicts, all confirmed over exhaustive "
           f"carriers<=2 models")


# --------------------------------------------------------------------------
# 8. A hand-built delta-pi-delta pipeline reproduces a two-binding
#    conjunctive comprehension.

def test_acceptance_8_migration_vs_conjunctive_query():
    company = company_schema()
    staff = staff_instance()

    # Step 1: forget everything but the two carriers.
    bare = entity_schema({"A", "B"}, {})
    forget = SchemaMapping(bare, company, {"A": "Emp", "B": "Dept"}, {})
    carriers_only = delta(forget, staff)

    # Step 2: complete into pairs with projections.
    paired = entity_schema({"P", "PA", "PB"},
                           {"p1": ("P", "PA"), "p2": ("P", "PB")})
    widen = SchemaMapping(bare, paired, {"A": "PA", "B": "PB"}, {})
    completed = pi(widen, carriers_only, fuel=16)

    # Step 3: pull the pair object back to a plain schema of tuples.
    tuples = entity_schema({"Q", "QA", "QB"},
                           {"q1": ("Q", "QA"), "q2": ("Q", "QB")})
    rename = SchemaMapping(tuples, paired,
                           {"Q": "P", "QA": "PA", "QB": "PB"},
                           {"q1": ("x", App("p1", Var("x"))),
                            "q2": ("x", App("p2", Var("x")))})
    migrated = delta(rename, completed)

    query = Comprehension((("e", "Emp"), ("d", "Dept")), (),
                          Pair(Var("e"), Var("d")))
    result = eval_query(company, staff, query)

    expected_rows = [f"{e},{d}" for e, d in result.values]
    expected = Instance.make(
        {"Q": expected_rows,
         "QA": staff.rows("Emp"), "QB": staff.rows("Dept")},
        {"q1": {f"{e},{d}": e for e, d in result.values},
         "q2": {f"{e},{d}": d for e, d in result.values}})
    iso = instance_equal_upto_iso(tuples, migrated, expected)
    ok = iso is not None and len(migrated.rows("Q")) == len(result.values) == 6
    report(8, ok, "delta-pi-delta pipeline matches the two-binding "
           "comprehension (6 tuples, isomorphic witness structure)")


# --------------------------------------------------------------------------
# 9. Parser roundtrip on the corpus plus 1000 generated units of depth <= 6.

def test_acceptance_9_parser_roundtrip():
    failures = 0
    corpus = ["company.qinl", "company_broken.qinl",
              "company_violation.qinl", "migration.qinl"]
    for name in corpus:
        unit = parse((FIXTURES / name).read_text())
        if parse(print_unit(unit)) != unit:
            failures += 1
    rng = random.Random(606)
    for _ in range(1000):
        unit = SourceUnit(tuple(
            random_declaration(rng, k, depth=6)
            for k in range(rng.randint(1, 3))))
        if parse(print_unit(unit)) != unit:
            failures += 1
    report(9, failures == 0,
           f"roundtrip identity on {len(corpus)} fixture files + 1000 "
           f"generated units ({failures} failures)")


# --------------------------------------------------------------------------
# 10. Byte-identical CLI output on repeated runs.

def test_acceptance_10_cli_determinism(capsys, tmp_path):
    company = str(FIXTURES / "company.qinl")
    migration = str(FIXTURES / "migration.qinl")
    exprs = tmp_path / "exprs.qinl"
    exprs.write_text('expr demo = for s in {"one"} union {"two"} '
                     'return {length(s)}\n')
    commands = [
        ["check", company],
        ["check", company, "--format", "json"],
        ["query", company, "palindromeDepts", "staff"],
        ["query", company, "palindromeDepts", "staffExtended",
         "--format", "json"],
        ["eval", str(exprs)],
        ["homs", migration, "twoNodes", "threeNodes", "--list"],
    ]
    stable = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
        stable = stable and outputs[0] == outputs[1]
    for suffix in ("one", "two"):
        path = tmp_path / f"m_{suffix}.qinl"
        code = cli_main(["migrate", migration, "sigma", "toPeople", "orgData",
                         "--out", str(path)])
        capsys.readouterr()
        assert code == 0
    stable = stable and ((tmp_path / "m_one.qinl").read_bytes()
                         == (tmp_path / "m_two.qinl").read_bytes())
    report(10, stable,
           f"{len(commands)} commands plus migrate output byte-identical "
           f"across repeated runs")
