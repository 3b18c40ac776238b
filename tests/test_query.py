from __future__ import annotations

import random

import pytest

from qinl.equality import IllTyped
from qinl.kernel import App, Base, Lit, Pair, Var
from qinl.nrc import Empty, EqTest, For, If, Singleton
from qinl.query import Comprehension, NonEntityBinding, eval_query, typecheck_query
from qinl.schema import Instance, LabelledNull, SetV, TooLarge, eval_term, make_set




def palindrome_query() -> Comprehension:
    return Comprehension(
        (("e", "Emp"),),
        ((App("manager", Var("e")), Var("e")),
         (App("reverse", App("ename", Var("e"))), App("ename", Var("e")))),
        App("worksIn", Var("e")))


def test_flagship_query_types_to_dept(company):
    assert typecheck_query(company, palindrome_query()) == Base("Dept")


def test_attribute_projection_types(company):
    q = Comprehension((("e", "Emp"),), (), App("ename", Var("e")))
    assert typecheck_query(company, q) == Base("String")


def test_attribute_binding_rejected(company):
    q = Comprehension((("s", "String"),), (), Var("s"))
    with pytest.raises(NonEntityBinding):
        typecheck_query(company, q)


def test_unbalanced_where_clause_rejected(company):
    q = Comprehension(
        (("e", "Emp"),),
        ((App("ename", Var("e")), Var("e")),),
        Var("e"))
    with pytest.raises(IllTyped):
        typecheck_query(company, q)


def test_flagship_query_result(company, staff):
    """Only e1 both manages itself and has a palindromic name; e3
    self-manages but 'cat' is no palindrome."""
    result = eval_query(company, staff, palindrome_query())
    assert result.values == ("d1",)
    assert result.witnesses == (((("e", "e1"),), "d1"),)


def test_fourth_palindromic_self_manager_extends_result(company):
    extended = Instance.make(
        {"Emp": ["e1", "e2", "e3", "e4"], "Dept": ["d1", "d2"]},
        {"manager": {"e1": "e1", "e2": "e1", "e3": "e3", "e4": "e4"},
         "ename": {"e1": "abba", "e2": "bob", "e3": "cat", "e4": "ee"},
         "worksIn": {"e1": "d1", "e2": "d1", "e3": "d2", "e4": "d2"}})
    result = eval_query(company, extended, palindrome_query())
    assert result.values == ("d1", "d2")


def test_empty_where_scans_everything(company, staff):
    q = Comprehension((("e", "Emp"),), (), App("worksIn", Var("e")))
    result = eval_query(company, staff, q)
    assert result.values == ("d1", "d2")
    assert len(result.witnesses) == 3


def test_empty_carrier_empty_result(company):
    empty = Instance.make({"Emp": [], "Dept": []},
                          {"manager": {}, "ename": {}, "worksIn": {}})
    result = eval_query(company, empty, palindrome_query())
    assert result.values == ()
    assert result.witnesses == ()


def test_two_binding_cartesian_query(company, staff):
    q = Comprehension(
        (("e", "Emp"), ("d", "Dept")), (),
        Pair(Var("e"), Var("d")))
    result = eval_query(company, staff, q)
    assert len(result.values) == 6


def test_null_comparisons_warn_and_match_identically(company):
    shared = LabelledNull("0")
    withnulls = Instance.make(
        {"Emp": ["e1", "e2"], "Dept": ["d1"]},
        {"manager": {"e1": "e1", "e2": "e2"},
         "ename": {"e1": shared, "e2": LabelledNull("1")},
         "worksIn": {"e1": "d1", "e2": "d1"}})
    q = Comprehension(
        (("a", "Emp"), ("b", "Emp")),
        ((App("ename", Var("a")), App("ename", Var("b"))),),
        Pair(Var("a"), Var("b")))
    result = eval_query(company, withnulls, q)
    # nulls equal only themselves: the diagonal survives
    assert result.values == (("e1", "e1"), ("e2", "e2"))
    assert result.warnings == tuple(
        f"null-valued comparison ename(a) = ename(b) at a={e}, b={e}"
        for e in ("e1", "e2"))


def test_monotonicity_in_where_clauses(company, staff):
    rng = random.Random(23)
    base_clauses = [
        (App("manager", Var("e")), Var("e")),
        (App("reverse", App("ename", Var("e"))), App("ename", Var("e"))),
        (App("worksIn", Var("e")), App("worksIn", App("manager", Var("e")))),
    ]
    for _ in range(20):
        count = rng.randint(0, len(base_clauses))
        clauses = tuple(rng.sample(base_clauses, count))
        q = Comprehension((("e", "Emp"),), clauses, Var("e"))
        larger = eval_query(company, staff, q)
        extended = Comprehension(
            (("e", "Emp"),),
            clauses + (base_clauses[rng.randrange(len(base_clauses))],),
            Var("e"))
        smaller = eval_query(company, staff, extended)
        assert set(smaller.values) <= set(larger.values)


def test_result_independent_of_carrier_enumeration_order(company):
    a = Instance.make(
        {"Emp": ["e1", "e2", "e3"], "Dept": ["d1", "d2"]},
        {"manager": {"e1": "e1", "e2": "e1", "e3": "e3"},
         "ename": {"e1": "abba", "e2": "bob", "e3": "cat"},
         "worksIn": {"e1": "d1", "e2": "d1", "e3": "d2"}})
    b = Instance.make(  # same rows listed in another order
        {"Emp": ["e3", "e1", "e2"], "Dept": ["d2", "d1"]},
        {"manager": {"e1": "e1", "e2": "e1", "e3": "e3"},
         "ename": {"e1": "abba", "e2": "bob", "e3": "cat"},
         "worksIn": {"e1": "d1", "e2": "d1", "e3": "d2"}})
    qa = eval_query(company, a, palindrome_query())
    qb = eval_query(company, b, palindrome_query())
    assert qa.values == qb.values


# --------------------------------------------------------------------------
# Equivalence with the set-calculus evaluator on single-binding queries.

def _query_via_nrc(s, i, q: Comprehension) -> tuple:
    """Evaluate a single-binding comprehension as a set-calculus iteration
    over the binding's carrier, the tables looked up by `eval_term`."""
    (var, entity), = q.bindings
    body = Singleton(q.returns)
    for lhs, rhs in reversed(q.wheres):
        body = If(EqTest(lhs, rhs), body, Empty(typecheck_query(s, q)))
    expr = For(var, Var("I"), body)
    return eval_term(s, i, {"I": make_set(i.rows(entity))}, expr).members


def test_flat_fragment_agrees_with_nrc(company, staff):
    rng = random.Random(31)
    clause_pool = [
        (App("manager", Var("e")), Var("e")),
        (App("reverse", App("ename", Var("e"))), App("ename", Var("e"))),
        (App("worksIn", Var("e")), App("worksIn", App("manager", Var("e")))),
        (App("ename", Var("e")), App("ename", App("manager", Var("e")))),
    ]
    returns_pool = [Var("e"), App("worksIn", Var("e")), App("ename", Var("e")),
                    App("manager", Var("e"))]
    for _ in range(40):
        clauses = tuple(rng.sample(clause_pool, rng.randint(0, 3)))
        q = Comprehension((("e", "Emp"),), clauses, rng.choice(returns_pool))
        direct = eval_query(company, staff, q).values
        via_nrc = _query_via_nrc(company, staff, q)
        assert tuple(direct) == via_nrc


def test_set_expression_over_tables_with_a_null(company):
    """A labelled null equals only itself, in a set expression as in
    eval_query, and appears once in the result."""
    unknown = LabelledNull("0")
    i = Instance.make(
        {"Emp": ["e1", "e2", "e3", "e4"], "Dept": ["d1"]},
        {"manager": {"e1": "e1", "e2": "e1", "e3": "e1", "e4": "e4"},
         "ename": {"e1": unknown, "e2": unknown, "e3": LabelledNull("1"),
                   "e4": "bob"},
         "worksIn": {e: "d1" for e in ("e1", "e2", "e3", "e4")}})
    name, boss_name = App("ename", Var("e")), App("ename", App("manager", Var("e")))
    expr = For("e", Var("I"), If(EqTest(name, boss_name), Singleton(name),
                                 Empty(Base("String"))))
    result = eval_term(company, i, {"I": make_set(i.rows("Emp"))}, expr)
    assert result == SetV(("bob", unknown))
    query = Comprehension((("e", "Emp"),), ((name, boss_name),), name)
    assert eval_query(company, i, query).values == result.members


# --------------------------------------------------------------------------
# The planned search against the cartesian scan of `oracles.scan_query`.

def _random_company(rng: random.Random) -> Instance:
    """Up to six employees in one to three departments, with a fifth of the
    names drawn from two labelled nulls."""
    emps = [f"e{k}" for k in range(rng.randint(0, 6))]
    depts = [f"d{k}" for k in range(rng.randint(1, 3))]
    names = ["", "a", "ab", "ba", "aba", "b"]
    return Instance.make(
        {"Emp": emps, "Dept": depts},
        {"manager": {e: rng.choice(emps) for e in emps},
         "worksIn": {e: rng.choice(depts) for e in emps},
         "ename": {e: LabelledNull(rng.choice("01")) if rng.random() < 0.2
                   else rng.choice(names) for e in emps}})


def _random_clause(rng: random.Random, bindings) -> tuple:
    """A where clause from one of five templates over the bindings."""
    emps = [v for v, t in bindings if t == "Emp"]
    a, b = rng.choice(emps), rng.choice(emps)
    other, entity = rng.choice(bindings)
    template = rng.randrange(5)
    if template == 0:  # a foreign key to a binding
        fk = "manager" if entity == "Emp" else "worksIn"
        clause = (App(fk, Var(a)), Var(other))
    elif template == 1:  # an attribute to an attribute
        clause = (App("ename", Var(a)), App("ename", Var(b)))
    elif template == 2:  # reverse or length of an attribute
        clause = rng.choice([
            (App("reverse", App("ename", Var(a))), App("ename", Var(b))),
            (App("length", App("ename", Var(a))), App("length", App("ename", Var(b)))),
            (App("length", App("ename", Var(a))), Lit("Int", rng.randint(0, 2)))])
    elif template == 3:  # no variables
        clause = rng.choice([
            (Lit("String", "ab"), App("reverse", Lit("String", "ba"))),
            (App("length", Lit("String", "ab")), Lit("Int", 3))])
    else:  # two earlier bindings
        clause = rng.choice([
            (App("worksIn", Var(a)), App("worksIn", App("manager", Var(b)))),
            (Pair(App("ename", Var(a)), Var(b)), Pair(App("ename", Var(b)), Var(a)))])
    return clause if rng.random() < 0.5 else clause[::-1]


def _random_query(rng: random.Random) -> Comprehension:
    """One to three bindings (a name is sometimes bound twice), zero to
    three clauses, and a returned binding, pair or attribute."""
    bindings = []
    for k in range(rng.randint(1, 3)):
        var = rng.choice([v for v, _ in bindings]) if bindings and rng.random() < 0.1 \
            else "xyz"[k]
        bindings.append((var, "Emp" if rng.random() < 0.75 else "Dept"))
    if "Emp" not in dict(bindings).values():
        bindings[-1] = ("w", "Emp")
    visible = list(dict(bindings).items())
    clauses = tuple(_random_clause(rng, visible) for _ in range(rng.randint(0, 3)))
    v, t = rng.choice(visible)
    returns = rng.choice([Var(v), Pair(Var(v), Var(visible[0][0]))]
                         + ([App("ename", Var(v))] if t == "Emp" else []))
    return Comprehension(tuple(bindings), clauses, returns)


def test_planned_search_matches_the_cartesian_scan(company):
    """Values and witnesses equal the scan's; the warnings are the scan's
    null-valued comparisons at kept witnesses, the first 32 of them."""
    from oracles import scan_query

    rng = random.Random(1977)
    witnessed = warned = capped = 0
    for _ in range(300):
        i = _random_company(rng)
        q = _random_query(rng)
        result = eval_query(company, i, q)
        values, witnesses, warnings = scan_query(company, i, q)
        assert result.values == values
        assert result.witnesses == witnesses
        kept = {", ".join(f"{v}={r}" for v, r in bindings)
                for bindings, _ in witnesses}
        expected = [w for w in warnings if w.rpartition(" at ")[2] in kept]
        assert result.warnings == tuple(expected[:32])
        witnessed += bool(witnesses)
        warned += bool(expected)
        capped += len(expected) > 32
    assert witnessed > 150 and warned > 20 and capped > 0


def test_query_join_in_halves_keeps_witnesses_and_warnings(company, monkeypatch):
    """With every level of more than 2 tuples built from each half of the
    level before in turn, the join yields its answers in several runs; the
    query's values, witnesses and warnings do not change."""
    import qinl.schema

    rng = random.Random(2005)
    cases = [(i, q, eval_query(company, i, q)) for i, q in
             ((_random_company(rng), _random_query(rng)) for _ in range(150))]
    monkeypatch.setattr(qinl.schema, "JOIN_CHUNK", 2)
    for i, q, whole in cases:
        assert eval_query(company, i, q) == whole
    assert sum(len(whole.witnesses) > 2 for _, _, whole in cases) > 50


def test_failing_null_comparison_drops_the_tuple_without_a_warning(company):
    """ename(a) = ename(b) fails for two different nulls: that pair is
    dropped, and only the kept diagonal warns."""
    withnulls = Instance.make(
        {"Emp": ["e1", "e2"], "Dept": ["d1"]},
        {"manager": {"e1": "e1", "e2": "e2"},
         "ename": {"e1": LabelledNull("0"), "e2": LabelledNull("1")},
         "worksIn": {"e1": "d1", "e2": "d1"}})
    q = Comprehension(
        (("a", "Emp"), ("b", "Emp")),
        ((App("ename", Var("a")), App("ename", Var("b"))),),
        Pair(Var("a"), Var("b")))
    assert eval_query(company, withnulls, q).warnings == (
        "null-valued comparison ename(a) = ename(b) at a=e1, b=e1",
        "null-valued comparison ename(a) = ename(b) at a=e2, b=e2")


def test_thousands_of_bindings_need_no_recursion(company):
    """A chain of 3,000 bindings over one-row carriers has one witness; the
    search keeps one frame per binding on a list, not on the call stack."""
    one = Instance.make(
        {"Emp": ["e1"], "Dept": ["d1"]},
        {"manager": {"e1": "e1"}, "ename": {"e1": "a"}, "worksIn": {"e1": "d1"}})
    q = Comprehension(
        tuple((f"v{k}", "Emp") for k in range(3000)),
        tuple((App("manager", Var(f"v{k}")), Var(f"v{k + 1}")) for k in range(2999)),
        Var("v0"))
    assert eval_query(company, one, q).values == ("e1",)


# --------------------------------------------------------------------------
# Growth: the work of a join along foreign keys follows its output.

def _managed_company(n: int) -> Instance:
    """n employees in n/8 departments, each managed by the first employee
    of their department or by themselves."""
    rng = random.Random(n)
    emps = [f"e{k}" for k in range(n)]
    depts = [f"d{k}" for k in range(max(1, n // 8))]
    works_in = {e: rng.choice(depts) for e in emps}
    heads: dict[str, str] = {}
    for e in emps:
        heads.setdefault(works_in[e], e)
    manager = {e: e if rng.random() < 0.3 else heads[works_in[e]] for e in emps}
    return Instance.make(
        {"Emp": emps, "Dept": depts},
        {"manager": manager, "worksIn": works_in,
         "ename": {e: rng.choice(["a", "ab", "ba"]) for e in emps}})


def test_three_binding_join_work_grows_with_its_output(company, monkeypatch):
    """for e, f, g: Emp where manager(e) = f and manager(f) = g and
    worksIn(g) = worksIn(e): the scan evaluates n^3 tuples; the planned
    search evaluates a fixed number of terms per row and per witness.  The
    work counted is the positions evaluated, `n` summed over the calls,
    nested calls included, in the query module and in the join it runs:
    here 17 per row (the probe dict of f, shared by g, 1; the probes of f
    and g, 2 each; the worksIn check, 4; the returned ename, 2; the three
    clauses' left sides read for warnings, 6)."""
    import qinl.query
    import qinl.schema

    calls = [0]
    real = qinl.schema.eval_column

    def counted(s, i, columns, n, e):
        calls[0] += n
        return real(s, i, columns, n, e)

    monkeypatch.setattr(qinl.query, "eval_column", counted)
    monkeypatch.setattr(qinl.schema, "eval_column", counted)
    q = Comprehension(
        (("e", "Emp"), ("f", "Emp"), ("g", "Emp")),
        ((App("manager", Var("e")), Var("f")),
         (App("manager", Var("f")), Var("g")),
         (App("worksIn", Var("g")), App("worksIn", Var("e")))),
        App("ename", Var("g")))
    counts = []
    for n in (100, 200, 400):
        calls[0] = 0
        result = eval_query(company, _managed_company(n), q)
        assert len(result.witnesses) == n  # every chain stays in its department
        counts.append(calls[0])
    assert counts[1] <= 2.05 * counts[0] and counts[2] <= 2.05 * counts[1]
    assert counts[2] <= 20 * 400


def test_unconstrained_query_stops_at_its_tuple_guard_before_building_a_level(
        company):
    """for a, b, c: Emp at n = 200: the third level would hold 8,000,000
    tuples, so TooLarge names it before it is built; at n = 40 the 65,640
    tuples of all three levels fit under the guard."""
    q = Comprehension((("a", "Emp"), ("b", "Emp"), ("c", "Emp")), (),
                      App("worksIn", Var("a")))
    with pytest.raises(TooLarge, match="binding 'c: Emp' makes 8000000 more tuples, "
                                       "past the 100000 that a query may build"):
        eval_query(company, _managed_company(200), q)
    assert len(eval_query(company, _managed_company(40), q).witnesses) == 40 ** 3


def test_pi_along_a_renaming_visits_a_few_nodes_per_output_row(monkeypatch):
    """pi along org -> people at n = 200 and 400, with each of its hom
    searches (`_join_homs`) capped at twice the output rows: the
    representable of Person joins its Emp and Dept slots along worksIn, a
    probe of one slot's rows by the other's, so either slot order builds
    about one tuple per output row.  Without the probe, every Dept row
    would be tried against every Emp row."""
    import qinl.migration
    from qinl.surface import elaborate, parse

    cap = [0]
    real = qinl.migration._join_homs
    monkeypatch.setattr(qinl.migration, "_join_homs", lambda *args: real(
        *args[:-1], qinl.schema.NodeBudget(cap[0])))
    schemas = """
schema org = { entities Emp, Dept; attributes String;
  operations worksIn : Emp -> Dept, dname : Dept -> String; }
schema people = { entities Person, Unit; attributes String;
  operations unitOf : Person -> Unit, uname : Unit -> String; }
mapping rename : org -> people = { Emp -> Person; Dept -> Unit;
  worksIn -> (x => unitOf(x)); dname -> (x => uname(x)); }
"""
    for n in (200, 400):
        emps = [f"e{k}" for k in range(n)]
        depts = [f"d{k}" for k in range(n // 8)]
        rows = (f"Emp = {{ {', '.join(emps)} }}; Dept = {{ {', '.join(depts)} }}; "
                "worksIn = { " + ", ".join(
                    f"{e} -> d{k % len(depts)}" for k, e in enumerate(emps)) + " }; "
                "dname = { " + ", ".join(f'{d} -> "{d}"' for d in depts) + " };")
        elab = elaborate(parse(schemas + f"instance i : org = {{ {rows} }}\n"))
        cap[0] = 2 * (n + n // 8)
        out = qinl.migration.pi(elab.mappings["rename"], elab.instances["i"])
        assert out.total_rows() == n + n // 8
