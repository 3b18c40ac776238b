from __future__ import annotations

import math
import random
from pathlib import Path

import pytest

from qinl.chase import FuelExhausted, InconsistentConstants
from qinl.equality import Equation, IllTyped, Theory
from qinl.kernel import App, Base, Context, Lit, Signature, Var
from qinl.mapping import SchemaMapping, identity_mapping
from qinl.migration import (
    TooLarge,
    UnstatedNull,
    UnverifiedMapping,
    delta,
    enumerate_homs,
    pi,
    sigma,
)
from qinl.schema import (
    FqlSchema,
    Instance,
    InvalidInstance,
    LabelledNull,
    OpApplied,
    check_instance,
    search_homs,
)
from qinl.surface import SourceUnit, elaborate, instance_to_decl, parse, print_unit

from conftest import entity_schema, nulls_case
from oracles import isomorphism

FIXTURE_MIGRATION = Path(__file__).resolve().parent.parent / "fixtures" / "migration.qinl"


def dag_schema():
    return entity_schema({"A", "B"}, {"f": ("A", "B")})


def dag_instance():
    return Instance.make({"A": ["a1", "a2"], "B": ["b1", "b2"]},
                         {"f": {"a1": "b1", "a2": "b1"}})


# --------------------------------------------------------------------------
# delta

def test_delta_identity_is_input(company, staff):
    assert delta(identity_mapping(company), staff) == staff


def test_delta_pure_renaming_up_to_iso():
    src = entity_schema({"A", "B"}, {"f": ("A", "B")})
    tgt = entity_schema({"P", "Q"}, {"g": ("P", "Q")})
    mapping = SchemaMapping(src, tgt, {"A": "P", "B": "Q"},
                            {"f": ("x", App("g", Var("x")))})
    j = Instance.make({"P": ["p1", "p2"], "Q": ["q1"]},
                      {"g": {"p1": "q1", "p2": "q1"}})
    pulled = delta(mapping, j)
    assert pulled.rows("A") == ("p1", "p2")
    assert isomorphism(
        src, pulled,
        Instance.make({"A": ["a1", "a2"], "B": ["b1"]},
                      {"f": {"a1": "b1", "a2": "b1"}})) is not None


def test_delta_collapsing_two_types_shares_carrier():
    src = entity_schema({"A", "B"}, {})
    tgt = entity_schema({"C"}, {})
    mapping = SchemaMapping(src, tgt, {"A": "C", "B": "C"}, {})
    j = Instance.make({"C": ["c1", "c2"]}, {})
    pulled = delta(mapping, j)
    assert pulled.rows("A") == pulled.rows("B") == ("c1", "c2")


def test_delta_requires_verified_mapping():
    src = entity_schema(
        {"A"}, {"m": ("A", "A")},
        [Equation(Context.of(("x", Base("A"))),
                  App("m", Var("x")), App("m", App("m", Var("x"))))])
    tgt = entity_schema({"A"}, {"m": ("A", "A")})
    mapping = SchemaMapping(src, tgt, {"A": "A"},
                            {"m": ("x", App("m", Var("x")))})
    j = Instance.make({"A": ["a"]}, {"m": {"a": "a"}})
    with pytest.raises(UnverifiedMapping):
        delta(mapping, j, fuel=4)
    assert delta(mapping, j, fuel=4, allow_unverified=True).rows("A") == ("a",)


@pytest.mark.parametrize("migrate", [delta, sigma, pi])
@pytest.mark.parametrize("image, problem", [
    (Lit("Int", 3), "does not typecheck: unknown base type 'Int'"),
    (Lit("String", "a"), "has type String, expected Unit"),
    (App("uname", Var("x")),
     "does not typecheck: expected Unit, found Person at uname(x)")])
def test_ill_formed_mapping_is_refused_even_when_unverified_is_allowed(
        migrate, image, problem):
    """toPeople with an ill-typed image of worksIn: each migration refuses
    it with the problem `validate` finds, before it reads the instance."""
    elab = elaborate(parse(FIXTURE_MIGRATION.read_text(encoding="utf-8")))
    good = elab.mappings["toPeople"]
    bad = SchemaMapping(good.source, good.target, good.type_map,
                        {**good.op_map, "worksIn": ("x", image)})
    with pytest.raises(IllTyped) as exc:
        migrate(bad, elab.instances["orgData"], allow_unverified=True)
    assert str(exc.value) == f"mapping is not well formed: image of 'worksIn' {problem}"


def test_delta_composition_law():
    s0 = entity_schema({"A"}, {"m": ("A", "A")})
    s1 = entity_schema({"P"}, {"n": ("P", "P")})
    s2 = entity_schema({"Z"}, {"k": ("Z", "Z")})
    f = SchemaMapping(s0, s1, {"A": "P"}, {"m": ("x", App("n", Var("x")))})
    g = SchemaMapping(s1, s2, {"P": "Z"},
                      {"n": ("x", App("k", App("k", Var("x"))))})
    gf = SchemaMapping(s0, s2, {"A": "Z"},
                       {"m": ("x", App("k", App("k", Var("x"))))})
    j = Instance.make({"Z": ["z1", "z2", "z3"]},
                      {"k": {"z1": "z2", "z2": "z3", "z3": "z1"}})
    assert isomorphism(s0, delta(gf, j), delta(f, delta(g, j))) is not None


# --------------------------------------------------------------------------
# sigma

def test_sigma_identity_isomorphic(company, staff):
    pushed = sigma(identity_mapping(company), staff, fuel=24)
    assert isomorphism(company, pushed, staff) is not None


def test_sigma_empty_input_gives_empty_output(company):
    empty = Instance.make({"Emp": [], "Dept": []},
                          {"manager": {}, "ename": {}, "worksIn": {}})
    pushed = sigma(identity_mapping(company), empty, fuel=8)
    assert pushed.total_rows() == 0


def test_sigma_into_unconstrained_target_exhausts_fuel():
    """A target operation outside the mapping's reach, with no collapsing
    equation, generates a fresh element from each seed every round."""
    src = entity_schema({"E"}, {})
    tgt = entity_schema({"E"}, {"boss": ("E", "E")})
    mapping = SchemaMapping(src, tgt, {"E": "E"}, {})
    i = Instance.make({"E": ["e"]}, {})
    with pytest.raises(FuelExhausted):
        sigma(mapping, i, fuel=5)


def test_sigma_preserves_input_nulls(company):
    withnull = Instance.make(
        {"Emp": ["e1", "e2"], "Dept": ["d1"]},
        {"manager": {"e1": "e1", "e2": "e2"},
         "ename": {"e1": LabelledNull("0"), "e2": LabelledNull("0")},
         "worksIn": {"e1": "d1", "e2": "d1"}})
    pushed = sigma(identity_mapping(company), withnull, fuel=16)
    assert isomorphism(company, pushed, withnull) is not None
    names = list(pushed.functions["ename"].values())
    assert all(isinstance(v, LabelledNull) for v in names)
    assert names[0] == names[1]  # one unknown shared by both rows


def test_sigma_fills_new_target_attributes_with_nulls():
    src = entity_schema({"A"}, {})
    tgt_sig = Signature.of({"A", "String"},
                           {"tag": (Base("A"), Base("String"))})
    tgt = FqlSchema(Theory.of(tgt_sig), frozenset({"A"}),
                    frozenset({"String"}))
    mapping = SchemaMapping(src, tgt, {"A": "A"}, {})
    i = Instance.make({"A": ["a1", "a2"]}, {})
    pushed = sigma(mapping, i, fuel=8)
    values = list(pushed.functions["tag"].values())
    assert all(isinstance(v, LabelledNull) for v in values)
    assert values[0] != values[1]  # unconstrained cells stay independent


def test_sigma_writes_a_builtin_of_a_null_where_the_class_is_one():
    """k(x) = length(w(x)) and nothing determines w: k is the length of
    w's null, not a null of its own."""
    tgt = _string_schema({"U"}, {"w": ("U", "String"), "k": ("U", "Int")},
                         [Equation(_X_U, _app("k"), _app("length", _app("w")))])
    mapping = SchemaMapping(entity_schema({"A"}, {}), tgt, {"A": "U"}, {})
    pushed = sigma(mapping, Instance.make({"A": ["a1", "a2"]}, {}), fuel=8)
    assert pushed.functions == {
        "k": {"a1": OpApplied("length", LabelledNull("0")),
              "a2": OpApplied("length", LabelledNull("1"))},
        "w": {"a1": LabelledNull("0"), "a2": LabelledNull("1")}}
    assert check_instance(tgt, pushed).all_ok


def test_sigma_refuses_a_null_tied_to_a_constant():
    """u -> k with u = 2 makes length(w(a)) = 2 of w's null, which no cell
    can state; the parent wrote w = ?0 and k = 2, which break the equation."""
    tgt = _string_schema({"U"}, {"w": ("U", "String"), "k": ("U", "Int")},
                         [Equation(_X_U, _app("k"), _app("length", _app("w")))])
    src = _string_schema({"A"}, {"u": ("A", "Int")})
    mapping = SchemaMapping(src, tgt, {"A": "U"}, {"u": ("x", _app("k"))})
    i = Instance.make({"A": ["a"]}, {"u": {"a": 2}})
    with pytest.raises(UnstatedNull, match=r"length\(\?0\) = 2"):
        sigma(mapping, i, fuel=8)


def test_sigma_refuses_constants_forced_equal_off_any_cell():
    """u -> (x => "a") with u(a1) = "b" seeds "a" = "b" in a class that no
    attribute cell holds; the parent wrote name = ?0 and reported nothing."""
    tgt = _string_schema({"C"}, {"name": ("C", "String")})
    src = _string_schema({"A"}, {"u": ("A", "String")})
    mapping = SchemaMapping(src, tgt, {"A": "C"},
                            {"u": ("x", Lit("String", "a"))})
    i = Instance.make({"A": ["a1"]}, {"u": {"a1": "b"}})
    with pytest.raises(InconsistentConstants, match='"a", "b"'):
        sigma(mapping, i, fuel=8)


def test_sigma_refuses_constants_forced_equal_in_a_cell():
    tgt = _string_schema({"C"}, {"name": ("C", "String")},
                         [Equation(Context.of(("x", Base("C"))),
                                   App("name", Var("x")), Lit("String", "a"))])
    src = _string_schema({"A"}, {"u": ("A", "String")})
    mapping = SchemaMapping(src, tgt, {"A": "C"},
                            {"u": ("x", App("name", Var("x")))})
    i = Instance.make({"A": ["a1"]}, {"u": {"a1": "b"}})
    with pytest.raises(InconsistentConstants, match='"a", "b"'):
        sigma(mapping, i, fuel=8)


@pytest.mark.parametrize("words, clash", [(("ab", "aba"), '"ab", "ba"'),
                                          (("aa", "aba"), None)])
def test_sigma_computes_a_constant_equation_or_reports_its_clash(words, clash):
    """The target states forall s: String . reverse(s) = s.  The chase
    computes it at the palindromes "aa" and "aba"; at "ab" the two sides
    compute "ba" and "ab", so it instantiates the equation, and the clash is
    reported as before."""
    s = Var("s")
    tgt = _string_schema({"C"}, {"name": ("C", "String")},
                         [Equation(Context.of(("s", Base("String"))),
                                   App("reverse", s), s)], ("length", "reverse"))
    src = _string_schema({"A"}, {"u": ("A", "String")})
    mapping = SchemaMapping(src, tgt, {"A": "C"}, {"u": ("x", _app("name"))})
    i = Instance.make({"A": ["a1", "a2"]}, {"u": dict(zip(["a1", "a2"], words))})
    if clash is not None:
        with pytest.raises(InconsistentConstants, match=clash):
            sigma(mapping, i, fuel=8)
        return
    pushed = sigma(mapping, i, fuel=8)
    assert {t: len(rows) for t, rows in pushed.carriers.items()} == {"C": 2}
    assert pushed.functions["name"] == {"a1": "aa", "a2": "aba"}


def test_sigma_row_name_collision_across_types():
    src = entity_schema({"A", "B"}, {})
    tgt = entity_schema({"C"}, {})
    mapping = SchemaMapping(src, tgt, {"A": "C", "B": "C"}, {})
    i = Instance.make({"A": ["x"], "B": ["x"]}, {})
    pushed = sigma(mapping, i, fuel=8)
    assert len(pushed.rows("C")) == 2


# --------------------------------------------------------------------------
# pi

def test_pi_identity_isomorphic_on_dag():
    s = dag_schema()
    i = dag_instance()
    projected = pi(identity_mapping(s), i, fuel=8)
    assert isomorphism(s, projected, i) is not None


def test_pi_product_of_unrelated_types():
    src = entity_schema({"A", "B"}, {})
    tgt = entity_schema({"C"}, {})
    mapping = SchemaMapping(src, tgt, {"A": "C", "B": "C"}, {})
    i = Instance.make({"A": ["a1", "a2"], "B": ["b1", "b2", "b3"]}, {})
    projected = pi(mapping, i, fuel=8)
    assert len(projected.rows("C")) == 6


def test_pi_empty_factor_gives_empty_carrier():
    src = entity_schema({"A", "B"}, {})
    tgt = entity_schema({"C"}, {})
    mapping = SchemaMapping(src, tgt, {"A": "C", "B": "C"}, {})
    i = Instance.make({"A": ["a1"], "B": []}, {})
    assert pi(mapping, i, fuel=8).rows("C") == ()


def test_pi_unreached_target_type_is_singleton():
    """A target type with no classes into the image indexes an empty
    diagram, whose limit is a single point."""
    src = entity_schema({"A"}, {})
    tgt = entity_schema({"C", "D"}, {})
    mapping = SchemaMapping(src, tgt, {"A": "C"}, {})
    i = Instance.make({"A": ["a1", "a2"]}, {})
    projected = pi(mapping, i, fuel=8)
    assert len(projected.rows("C")) == 2
    assert len(projected.rows("D")) == 1


def test_pi_nonsaturating_classes_exhaust_fuel():
    src = entity_schema({"A"}, {})
    tgt = entity_schema({"C"}, {"next": ("C", "C")})
    mapping = SchemaMapping(src, tgt, {"A": "C"}, {})
    i = Instance.make({"A": ["a1"]}, {})
    with pytest.raises(FuelExhausted):
        pi(mapping, i, fuel=4)


def test_pi_determined_attributes():
    """Attributes of the target determined by source data come through; the
    projected instance keeps the source's cell values."""
    src_sig = Signature.of({"A", "String"},
                           {"tag": (Base("A"), Base("String"))})
    src = FqlSchema(Theory.of(src_sig), frozenset({"A"}),
                    frozenset({"String"}))
    tgt = src
    mapping = identity_mapping(src)
    i = Instance.make({"A": ["a1", "a2"]},
                      {"tag": {"a1": "red", "a2": "blue"}})
    projected = pi(mapping, i, fuel=8)
    assert sorted(projected.functions["tag"].values()) == ["blue", "red"]
    assert isomorphism(src, projected, i) is not None


_BUILTINS = {"length": (Base("String"), Base("Int")),
             "reverse": (Base("String"), Base("String"))}


def _string_schema(entities: set[str], ops: dict[str, tuple[str, str]],
                   equations=(), builtins=("length",)) -> FqlSchema:
    """Entity types plus String and Int, with `builtins` (by default
    `length`) declared."""
    sig = Signature.of(
        {*entities, "String", "Int"},
        {**{b: _BUILTINS[b] for b in builtins},
         **{name: (Base(dom), Base(cod)) for name, (dom, cod) in ops.items()}})
    return FqlSchema(Theory.of(sig, equations), frozenset(entities),
                     frozenset({"String", "Int"}))


_X_U = Context.of(("x", Base("U")))
_W_IS_K = Equation(_X_U, App("w", Var("x")), Lit("String", "k"))


def test_pi_drops_rows_that_contradict_a_target_constant():
    """w(x) = "k" holds in the target, so a source row whose image of w is
    "z" has no homomorphism out of the representable and is no pi row."""
    src = _string_schema({"A"}, {"u": ("A", "String")})
    tgt = _string_schema({"U"}, {"w": ("U", "String")}, [_W_IS_K])
    mapping = SchemaMapping(src, tgt, {"A": "U"},
                            {"u": ("x", App("w", Var("x")))})
    i = Instance.make({"A": ["a", "b"]}, {"u": {"a": "k", "b": "z"}})
    projected = pi(mapping, i, fuel=8)
    assert check_instance(tgt, projected).all_ok
    assert list(projected.functions["w"].values()) == ["k"]


def test_pi_takes_a_target_constant_no_source_value_reaches():
    src = entity_schema({"A"}, {})
    tgt = _string_schema({"U"}, {"w": ("U", "String")}, [_W_IS_K])
    mapping = SchemaMapping(src, tgt, {"A": "U"}, {})
    projected = pi(mapping, Instance.make({"A": ["a"]}, {}), fuel=8)
    assert list(projected.functions["w"].values()) == ["k"]
    assert check_instance(tgt, projected).all_ok


def _length_mapping(with_n: bool) -> SchemaMapping:
    """Target: len(x) = length(w(x)).  Source u goes to w, and n to len."""
    ops = {"u": ("A", "String")}
    op_map = {"u": ("x", App("w", Var("x")))}
    if with_n:
        ops["n"] = ("A", "Int")
        op_map["n"] = ("x", App("len", Var("x")))
    tgt = _string_schema(
        {"U"}, {"w": ("U", "String"), "len": ("U", "Int")},
        [Equation(_X_U, App("len", Var("x")),
                  App("length", App("w", Var("x"))))])
    return SchemaMapping(_string_schema({"A"}, ops), tgt, {"A": "U"}, op_map)


def test_pi_computes_an_attribute_through_a_builtin():
    mapping = _length_mapping(with_n=False)
    i = Instance.make({"A": ["a"]}, {"u": {"a": "pq"}})
    projected = pi(mapping, i, fuel=8)
    assert list(projected.functions["len"].values()) == [2]


def test_pi_drops_rows_whose_attribute_images_disagree():
    mapping = _length_mapping(with_n=True)
    i = Instance.make({"A": ["a", "b"]},
                      {"u": {"a": "pq", "b": "pq"}, "n": {"a": 3, "b": 2}})
    projected = pi(mapping, i, fuel=8)
    assert len(projected.rows("U")) == 1
    assert list(projected.functions["len"].values()) == [2]


def _fk_length_pi(source_builtins: tuple[str, ...]) -> tuple[FqlSchema, Instance]:
    """The target of pi, and pi of one source row a1 with u = "pq" and
    n = 3, which breaks the target's len(x) = length(w(x)), plus one row t1
    whose image under g is a1."""
    src = _string_schema({"St", "A"}, {"g": ("St", "A"), "u": ("A", "String"),
                                       "n": ("A", "Int")},
                         builtins=source_builtins)
    tgt = _string_schema(
        {"Tt", "U"},
        {"f": ("Tt", "U"), "w": ("U", "String"), "len": ("U", "Int")},
        [Equation(_X_U, App("len", Var("x")),
                  App("length", App("w", Var("x"))))])
    mapping = SchemaMapping(
        src, tgt, {"St": "Tt", "A": "U"},
        {"g": ("x", App("f", Var("x"))), "u": ("x", App("w", Var("x"))),
         "n": ("x", App("len", Var("x")))})
    i = Instance.make({"St": ["t1"], "A": ["a1"]},
                      {"g": {"t1": "a1"}, "u": {"a1": "pq"}, "n": {"a1": 3}})
    return tgt, pi(mapping, i, fuel=8)


def test_pi_drops_rows_whose_foreign_key_image_is_dropped():
    """t1's image a1 has no homomorphism at U (n = 3 but length(u) = 2), so
    t1 has none at Tt either: the check covers the attribute cells of f(x)
    in Tt's representable, not only those of x."""
    tgt, projected = _fk_length_pi(("length",))
    assert projected.rows("Tt") == () and projected.rows("U") == ()
    assert check_instance(tgt, projected).all_ok


def test_pi_reads_builtins_the_source_does_not_declare():
    """The check reads the target's builtin applications, so the row is
    dropped also when the source schema has no `length`."""
    tgt, projected = _fk_length_pi(())
    assert projected.rows("Tt") == () and projected.rows("U") == ()
    assert check_instance(tgt, projected).all_ok


def test_pi_carries_values_along_builtin_chains_of_any_depth():
    """n(x) = length(reverse^4(w(x))) holds in the target but not in the
    source: b ("abc", 4) breaks it and is dropped, a ("pq", 2) is kept."""
    w_x = App("w", Var("x"))
    for _ in range(4):
        w_x = App("reverse", w_x)
    both = ("length", "reverse")
    src = _string_schema({"A"}, {"u": ("A", "String"), "n": ("A", "Int")},
                         builtins=both)
    tgt = _string_schema(
        {"U"}, {"w": ("U", "String"), "n": ("U", "Int")},
        [Equation(_X_U, App("n", Var("x")), App("length", w_x))], builtins=both)
    mapping = SchemaMapping(src, tgt, {"A": "U"},
                            {"u": ("x", App("w", Var("x"))),
                             "n": ("x", App("n", Var("x")))})
    i = Instance.make({"A": ["a", "b"]},
                      {"u": {"a": "pq", "b": "abc"}, "n": {"a": 2, "b": 4}})
    projected = pi(mapping, i, fuel=8)
    assert projected.rows("U") == ("(x:A=a)",)
    assert projected.functions["w"] == {"(x:A=a)": "pq"}
    assert check_instance(tgt, projected).all_ok


def _app(op: str, arg=Var("x")) -> App:
    """An application, by default to the variable x."""
    return App(op, arg)


_FOR_ALL_S = Context.of(("s", Base("String")))
_REVERSE_TWICE = Equation(_FOR_ALL_S, _app("reverse", _app("reverse", Var("s"))),
                          Var("s"))
_LENGTH_OF_REVERSE = Equation(_FOR_ALL_S, _app("length", _app("reverse", Var("s"))),
                              _app("length", Var("s")))


@pytest.mark.parametrize("equations, images, rows, kept", [
    # Identities for every String hold of a source null in any form.
    ([_REVERSE_TWICE], ("w", None), {"a": (LabelledNull("u"), None)}, ["a"]),
    ([_REVERSE_TWICE, _LENGTH_OF_REVERSE], ("w", None),
     {"a": (LabelledNull("u"), None)}, ["a"]),
    # A literal in a class that is no cell is compared too.
    ([Equation(_X_U, _app("length", _app("w")), Lit("Int", 3))], ("w", None),
     {"a": ("pq", None), "b": ("abc", None), "c": (LabelledNull("u"), None)},
     ["b"]),
    # m is open: it takes length(w2(x)), a constant or `length(?u)`.
    ([Equation(_X_U, _app("m"), _app("length", _app("w2")))], ("w2", None),
     {"a": ("pq", None), "b": (LabelledNull("u"), None)}, ["a", "b"]),
    # w2 is open and gets a fresh null, whose length cannot be 1.
    ([Equation(_X_U, _app("m"), _app("length", _app("w2")))], ("w", "m"),
     {"a": ("cc", 1)}, []),
    # A constant against a value of a null, or two different nulls.
    ([Equation(_X_U, _app("n"), _app("length", _app("w")))], ("w", "n"),
     {"a": (LabelledNull("u"), LabelledNull("k")), "b": ("pq", 2),
      "c": (LabelledNull("v"), 2), "d": ("pq", LabelledNull("j"))}, ["b"]),
    # w(x) = reverse(w(x)) constrains w, so ?u and reverse(?u) are two
    # forms of one null that the target does not prove equal.
    ([Equation(_X_U, _app("w"), _app("reverse", _app("w")))], ("w", None),
     {"a": (LabelledNull("u"), None), "b": ("abba", None)}, ["b"]),
], ids=["reverse-twice", "length-of-reverse", "literal", "open-cell-of-null",
        "open-cell-fresh-null", "constant-against-null", "palindrome"])
def test_pi_keeps_only_rows_an_instance_with_nulls_can_state(
        equations, images, rows, kept):
    """u goes to a String attribute, and k, if mapped, to an Int one; each
    kept row's output satisfies the target's equations as `check` reads
    them, and the same rows are kept whichever builtins the source has."""
    strings, ints = ("w", "w2"), ("n", "m")
    tgt = _string_schema({"U"}, {**{op: ("U", "String") for op in strings},
                                 **{op: ("U", "Int") for op in ints}},
                         equations, builtins=("length", "reverse"))
    u_image, k_image = images
    for builtins in ((), ("length", "reverse")):
        ops, op_map = {"u": ("A", "String")}, {"u": ("x", _app(u_image))}
        functions = {"u": {row: u for row, (u, _) in rows.items()}}
        if k_image is not None:
            ops["k"], op_map["k"] = ("A", "Int"), ("x", _app(k_image))
            functions["k"] = {row: k for row, (_, k) in rows.items()}
        mapping = SchemaMapping(_string_schema({"A"}, ops, builtins=builtins),
                                tgt, {"A": "U"}, op_map)
        projected = pi(mapping, Instance.make({"A": list(rows)}, functions),
                       fuel=8)
        assert projected.rows("U") == tuple(f"(x:A={row})" for row in kept)
        assert check_instance(tgt, projected).all_ok


def test_pi_gives_one_fresh_null_to_an_open_class():
    """w(x) = w2(x) and nothing goes to either: both cells of a row are one
    class, so they hold one fresh null (one null per cell broke w = w2)."""
    tgt = _string_schema({"U"}, {op: ("U", "String") for op in ("w", "w2", "u2")},
                         [Equation(_X_U, _app("w"), _app("w2"))])
    mapping = SchemaMapping(_string_schema({"A"}, {"u": ("A", "String")}), tgt,
                            {"A": "U"}, {"u": ("x", _app("u2"))})
    projected = pi(mapping, Instance.make({"A": ["a"]}, {"u": {"a": "pq"}}),
                   fuel=8)
    assert projected.functions["w"] == {"(x:A=a)": LabelledNull("0")}
    assert projected.functions["w2"] == {"(x:A=a)": LabelledNull("0")}
    assert projected.functions["u2"] == {"(x:A=a)": "pq"}
    assert check_instance(tgt, projected).all_ok


def test_pi_numbers_fresh_nulls_past_the_source_nulls():
    """A source null ?0 reaches u2 while w is open: w's fresh null is ?1,
    since a fresh ?0 would state w = u2, which nothing forces."""
    tgt = _string_schema({"U"}, {op: ("U", "String") for op in ("w", "u2")})
    mapping = SchemaMapping(_string_schema({"A"}, {"u": ("A", "String")}), tgt,
                            {"A": "U"}, {"u": ("x", _app("u2"))})
    source = Instance.make({"A": ["a"]}, {"u": {"a": LabelledNull("0")}})
    projected = pi(mapping, source, fuel=8)
    assert projected.functions["u2"] == {"(x:A=a)": LabelledNull("0")}
    assert projected.functions["w"] == {"(x:A=a)": LabelledNull("1")}
    assert check_instance(tgt, projected).all_ok


_OPEN_LENGTH = """
schema S = { entities A; attributes String, Int;
  operations u : A -> String, v : A -> Int, length : String -> Int; }
schema T = { entities U; attributes String, Int;
  operations w : U -> String, w2 : U -> String, k : U -> Int, n : U -> Int,
    length : String -> Int;
  equations forall x: U . n(x) = length(w(x)); }
mapping M : S -> T = { A -> U; u -> (x => w2(x)); v -> (x => k(x)); }
instance I : S = { A = { a0, a1 }; u = { a0 -> "", a1 -> "abba" };
  v = { a0 -> 0, a1 -> 1 }; }
"""


def test_pi_keeps_rows_whose_open_cells_are_builtins_of_a_fresh_null():
    """n(x) = length(w(x)) with w and n open: w takes a fresh null and n its
    length, so both rows are kept (both were dropped before)."""
    elab = elaborate(parse(_OPEN_LENGTH))
    tgt = elab.schemas["T"]
    projected = pi(elab.mappings["M"], elab.instances["I"], fuel=8)
    rows = ("(x:A=a0)", "(x:A=a1)")
    assert projected.rows("U") == rows
    nulls = [LabelledNull("0"), LabelledNull("1")]
    assert projected.functions["w"] == dict(zip(rows, nulls))
    assert projected.functions["n"] == {
        row: OpApplied("length", null) for row, null in zip(rows, nulls)}
    assert check_instance(tgt, projected).all_ok


_REVERSE_CYCLE = """
schema S = { entities A; SOURCE }
schema T = { entities Tt, U; attributes String;
  operations f : Tt -> U, a : Tt -> String, w : U -> String,
    w2 : U -> String, reverse : String -> String;
  equations
    forall y: U . w(y) = reverse(w2(y));
    forall y: U . w2(y) = reverse(w(y));
    forall x: Tt . a(x) = w2(f(x)); }
mapping M : S -> T = { A -> U; IMAGE }
instance I : S = { A = { p, q }; CELLS }
"""


def test_pi_across_a_foreign_key_with_a_builtin_cycle():
    """w and w2 are reverses of each other, and Tt's a reads w2 across f.
    p ("ab") is kept at U and at Tt; q (?z) is dropped, since the target
    does not prove reverse(reverse(?z)) = ?z.  With no source attribute,
    every row is dropped, and the search along f still runs."""
    source = "attributes String; operations u : A -> String;"
    text = (_REVERSE_CYCLE.replace("SOURCE", source)
            .replace("IMAGE", "u -> (x => w(x));")
            .replace("CELLS", 'u = { p -> "ab", q -> ?z };'))
    elab = elaborate(parse(text))
    projected = pi(elab.mappings["M"], elab.instances["I"], fuel=8)
    assert projected.carriers == {"Tt": ("(x.f:A=p)",), "U": ("(x:A=p)",)}
    assert projected.functions["a"] == {"(x.f:A=p)": "ba"}
    assert projected.functions["w"] == {"(x:A=p)": "ab"}
    assert projected.functions["w2"] == {"(x:A=p)": "ba"}
    assert check_instance(elab.schemas["T"], projected).all_ok
    bare = elaborate(parse(_REVERSE_CYCLE.replace("SOURCE", "")
                           .replace("IMAGE", "").replace("CELLS", "")))
    empty = pi(bare.mappings["M"], bare.instances["I"], fuel=8)
    assert empty.carriers == {"Tt": (), "U": ()}


def test_delta_refuses_a_builtin_its_source_does_not_declare():
    """k -> length(w(x)) over w = ?q computes length(?q), which a source
    without `length` cannot state; with `length` it is the cell.  pi pulls
    such cells back inside, and keeps the same rows either way."""
    tgt = _string_schema({"U"}, {"w": ("U", "String")})
    j = Instance.make({"U": ["u1", "u2"]},
                      {"w": {"u1": LabelledNull("q"), "u2": "abc"}})
    i = Instance.make({"A": ["a"]}, {"k": {"a": 2}})
    kept = []
    for builtins in ((), ("length",)):
        src = _string_schema({"A"}, {"k": ("A", "Int")}, builtins=builtins)
        mapping = SchemaMapping(src, tgt, {"A": "U"},
                                {"k": ("x", _app("length", _app("w")))})
        kept.append(pi(mapping, i, fuel=8).rows("U"))
        if not builtins:
            with pytest.raises(InvalidInstance, match=r"k\(u1\) = length\(\?q\)"):
                delta(mapping, j)
    assert delta(mapping, j).functions["k"] == {
        "u1": OpApplied("length", LabelledNull("q")), "u2": 3}
    assert kept[0] == kept[1]


# --------------------------------------------------------------------------
# homomorphism enumeration

def test_homs_contain_identity(company, staff):
    homs = enumerate_homs(company, staff, staff)
    identity = {t: {r: r for r in staff.rows(t)} for t in ("Emp", "Dept")}
    assert any(
        all(hom.apply(t, r) == r for t in identity for r in identity[t])
        for hom in homs)


def test_unconstrained_hom_count():
    s = entity_schema({"A"}, {})
    i = Instance.make({"A": ["x", "y"]}, {})
    j = Instance.make({"A": ["1", "2", "3"]}, {})
    assert len(enumerate_homs(s, i, j)) == 9


def test_operation_constrains_hom_count():
    s = entity_schema({"A"}, {"m": ("A", "A")})
    i = Instance.make({"A": ["x", "y"]}, {"m": {"x": "y", "y": "y"}})
    j = Instance.make({"A": ["1", "2", "3"]},
                      {"m": {"1": "2", "2": "2", "3": "3"}})
    homs = enumerate_homs(s, i, j)
    # x can land anywhere, then y is forced to its image's fixpoint;
    # y itself must land on a fixpoint of m.
    assert 0 < len(homs) < 9
    assert len(homs) == 3  # x -> 1 forces y -> 2; x -> 2, y -> 2; x -> 3, y -> 3


def test_homs_guard_rejects_oversized():
    """Ten isolated rows are ten components of one row each: 10 search
    nodes apiece count 10**10 homomorphisms, which are too many to list.
    Ten rows whose key points at one hub are one component, and its search
    passes HOM_SEARCH_NODES before it has counted them."""
    s = entity_schema({"A"}, {})
    i = Instance.make({"A": [f"x{k}" for k in range(10)]}, {})
    j = Instance.make({"A": [f"y{k}" for k in range(10)]}, {})
    homs = enumerate_homs(s, i, j)
    assert homs.size == len(homs) == 10**10
    with pytest.raises(TooLarge, match="10000000000 homomorphisms"):
        list(homs)
    with pytest.raises(TooLarge, match="10000000000 homomorphisms"):
        homs[0]

    s = entity_schema({"A"}, {"f": ("A", "A")})
    i = Instance.make({"A": ["hub", *i.rows("A")]},
                      {"f": {r: "hub" for r in ["hub", *i.rows("A")]}})
    j = Instance.make(j.carriers, {"f": {r: "y0" for r in j.rows("A")}})
    with pytest.raises(TooLarge, match="exceeds 100000 search nodes"):
        enumerate_homs(s, i, j)


def test_homs_components_share_one_search_budget():
    """A star of five keys into a hub, mapped into seven rows whose key
    points at y0, takes 19,614 search nodes: five disjoint stars stay
    within HOM_SEARCH_NODES together, six pass it, though each star alone
    is far below it."""
    s = entity_schema({"A"}, {"f": ("A", "A")})

    def stars(count: int) -> Instance:
        keys = {}
        for c in range(count):
            keys[f"h{c}"] = f"h{c}"
            keys.update((f"h{c}x{k}", f"h{c}") for k in range(5))
        return Instance.make({"A": keys}, {"f": keys})

    j = Instance.make({"A": [f"y{k}" for k in range(7)]},
                      {"f": {f"y{k}": "y0" for k in range(7)}})
    assert enumerate_homs(s, stars(5), j).size == (7**5) ** 5
    with pytest.raises(TooLarge, match="exceeds 100000 search nodes"):
        enumerate_homs(s, stars(6), j)


def test_homs_guard_counts_search_nodes_not_the_function_space():
    """An 8-cycle maps onto an 8-cycle in 8 ways under next^8 = id, though
    the function space has 8^8 = 16,777,216 members."""
    body = Var("x")
    for _ in range(8):
        body = App("next", body)
    s = entity_schema({"V"}, {"next": ("V", "V")},
                      [Equation(Context.of(("x", Base("V"))), body, Var("x"))])

    def ring(prefix: str) -> Instance:
        rows = [f"{prefix}{k}" for k in range(8)]
        return Instance.make(
            {"V": rows}, {"next": {r: rows[(k + 1) % 8] for k, r in enumerate(rows)}})

    homs = enumerate_homs(s, ring("a"), ring("b"))
    assert [h.apply("V", "a0") for h in homs] == [f"b{k}" for k in range(8)]


def test_homs_come_in_lexicographic_order_when_slots_are_reordered():
    """With a key from Q to P the search assigns Q's rows before P's, and
    enumerate_homs still lists the homomorphisms in the oracle's order,
    types by name."""
    import random

    from oracles import brute_force_homs

    s = entity_schema({"P", "Q"}, {"g": ("Q", "P"), "m": ("P", "P")})
    rng = random.Random(1981)

    def instance(prefix: str) -> Instance:
        ps = [f"{prefix}p{k}" for k in range(rng.randint(1, 3))]
        qs = [f"{prefix}q{k}" for k in range(rng.randint(0, 3))]
        return Instance.make(
            {"P": ps, "Q": qs},
            {"g": {q: rng.choice(ps) for q in qs},
             "m": {p: rng.choice(ps) for p in ps}})

    found = 0
    for _ in range(200):
        i, j = instance("i"), instance("j")
        homs = [{t: dict(pairs) for t, pairs in h.maps}
                for h in enumerate_homs(s, i, j)]
        assert homs == [maps for maps, _ in brute_force_homs(s, i, j)]
        found += len(homs) > 1
    assert found > 50


def test_homs_of_interleaved_components_come_in_lexicographic_order():
    """The components {a, c} and {b} interleave by name, so the product of
    their homomorphisms, {a, c} first, is not in the documented order:
    (a, c) = (p, p) with b = r comes after (p, q) with b = p."""
    from oracles import brute_force_homs

    s = entity_schema({"A"}, {"m": ("A", "A")})
    i = Instance.make({"A": ["a", "b", "c"]}, {"m": {"a": "a", "b": "b", "c": "a"}})
    j = Instance.make({"A": ["p", "q", "r"]}, {"m": {"p": "p", "q": "p", "r": "r"}})
    homs = [[h.apply("A", r) for r in "abc"] for h in enumerate_homs(s, i, j)]
    assert homs == [[maps["A"][r] for r in "abc"]
                    for maps, _ in brute_force_homs(s, i, j)]
    assert homs == [list("ppp"), list("ppq"), list("prp"), list("prq"),
                    list("rpr"), list("rrr")]


def test_homs_with_attribute_constants():
    src_sig = Signature.of({"A", "String"},
                           {"tag": (Base("A"), Base("String"))})
    s = FqlSchema(Theory.of(src_sig), frozenset({"A"}), frozenset({"String"}))
    i = Instance.make({"A": ["x"]}, {"tag": {"x": "red"}})
    j = Instance.make({"A": ["1", "2"]},
                      {"tag": {"1": "red", "2": "blue"}})
    homs = enumerate_homs(s, i, j)
    assert len(homs) == 1
    assert homs[0].apply("A", "x") == "1"


def test_homs_null_binds_consistently():
    src_sig = Signature.of({"A", "String"},
                           {"t1": (Base("A"), Base("String")),
                            "t2": (Base("A"), Base("String"))})
    s = FqlSchema(Theory.of(src_sig), frozenset({"A"}), frozenset({"String"}))
    shared = LabelledNull("0")
    i = Instance.make({"A": ["x"]}, {"t1": {"x": shared}, "t2": {"x": shared}})
    j_same = Instance.make({"A": ["1"]}, {"t1": {"1": "v"}, "t2": {"1": "v"}})
    j_diff = Instance.make({"A": ["1"]}, {"t1": {"1": "v"}, "t2": {"1": "w"}})
    assert len(enumerate_homs(s, i, j_same)) == 1
    assert list(enumerate_homs(s, i, j_diff)) == []


def _hom_oracle_schema() -> FqlSchema:
    """Self-loop foreign keys on both entity types, one between them, and a
    String attribute on each, with `reverse` for symbolic cells."""
    sig = Signature.of(
        {"A", "B", "String"},
        {"m": (Base("A"), Base("A")), "f": (Base("A"), Base("B")),
         "n": (Base("B"), Base("B")), "tag": (Base("A"), Base("String")),
         "label": (Base("B"), Base("String")),
         "reverse": (Base("String"), Base("String"))})
    return FqlSchema(Theory.of(sig), frozenset({"A", "B"}),
                     frozenset({"String"}))


def _random_cell(rng):
    roll = rng.randrange(4)
    if roll == 0:
        return rng.choice(["a", "ab", "ba"])
    null = LabelledNull(str(rng.randrange(3)))
    return OpApplied("reverse", null) if roll == 1 else null


def _random_oracle_instance(rng, prefix: str) -> Instance:
    rows_a = [f"{prefix}a{k}" for k in range(rng.randint(0, 3))]
    rows_b = [f"{prefix}b{k}" for k in range(rng.randint(1 if rows_a else 0, 2))]
    return Instance.make(
        {"A": rows_a, "B": rows_b},
        {"m": {r: rng.choice(rows_a) for r in rows_a},
         "f": {r: rng.choice(rows_b) for r in rows_a},
         "n": {r: rng.choice(rows_b) for r in rows_b},
         "tag": {r: _random_cell(rng) for r in rows_a},
         "label": {r: _random_cell(rng) for r in rows_b}})


def _renamed(s: FqlSchema, i: Instance, rng, nulls_to_nulls: bool) -> Instance:
    """i with its rows renamed by a random bijection and its nulls replaced
    by other nulls, some of them merged (or, unless `nulls_to_nulls`,
    sometimes by constants), so that i maps onto the result."""
    rows = {t: list(i.rows(t)) for t in ("A", "B")}
    for t in rows:
        rng.shuffle(rows[t])
    rename = {t: {r: f"j{t}{k}" for k, r in enumerate(rows[t])} for t in rows}
    replace = {str(k): LabelledNull(str(rng.randrange(5, 8)))
               if nulls_to_nulls or rng.random() < 0.5
               else rng.choice(["a", "ab"]) for k in range(3)}

    def cell(v):
        if isinstance(v, LabelledNull):
            return replace[v.label]
        if isinstance(v, OpApplied):
            return s.builtins.apply(v.op, cell(v.arg))
        return v

    functions = {}
    for op, (dom, cod) in s.tables.items():
        functions[op] = {
            rename[dom][r]: rename[cod][v] if cod in rename else cell(v)
            for r, v in i.functions[op].items()}
    return Instance.make({t: rename[t].values() for t in rows}, functions)


def test_hom_search_matches_brute_force_oracle():
    """enumerate_homs returns exactly the oracle's homomorphisms in the
    oracle's order, and the isomorphism that filters them agrees with a
    brute-force bijection check, on small random instances with self-loop foreign keys,
    shared nulls and symbolic cells."""
    import random

    from oracles import brute_force_homs, brute_force_iso

    s = _hom_oracle_schema()
    rng = random.Random(2024)
    found = isomorphic = 0
    for trial in range(300):
        i = _random_oracle_instance(rng, "i")
        if trial % 3 == 0:
            j = _random_oracle_instance(rng, "j")
        else:
            j = _renamed(s, i, rng, nulls_to_nulls=trial % 3 == 1)
        homs = enumerate_homs(s, i, j)
        expected = brute_force_homs(s, i, j)
        assert [({t: dict(pairs) for t, pairs in h.maps}, dict(h.null_map))
                for h in homs] == expected
        iso = isomorphism(s, i, j)
        assert (iso is not None) == brute_force_iso(s, i, j)
        found += bool(homs)
        isomorphic += iso is not None
    assert found > 100 and isomorphic > 50


def _disjoint_union(s: FqlSchema, parts: list[Instance], rng) -> Instance:
    """The union of instances with disjoint rows, its rows renamed in a
    random order so that the parts interleave in each carrier."""
    rows = {t: [r for part in parts for r in part.rows(t)] for t in ("A", "B")}
    rename = {}
    for t, names in rows.items():
        rng.shuffle(names)
        rename[t] = {r: f"u{t}{k}" for k, r in enumerate(names)}
    functions = {}
    for op, (dom, cod) in s.tables.items():
        functions[op] = {
            rename[dom][r]: rename[cod][v] if cod in rename else v
            for part in parts for r, v in part.functions[op].items()}
    return Instance.make({t: rename[t].values() for t in rows}, functions)


def _relabelled(part: Instance, suffix: str) -> Instance:
    def cell(v):
        if isinstance(v, LabelledNull):
            return LabelledNull(v.label + suffix)
        if isinstance(v, OpApplied):
            return OpApplied(v.op, cell(v.arg))
        return v

    return Instance.make(part.carriers, {
        op: {r: cell(v) for r, v in table.items()}
        for op, table in part.functions.items()})


def test_homs_out_of_a_disjoint_union_multiply():
    """A source made of 2-4 small parts, their rows interleaved by name:
    enumerate_homs lists the oracle's homomorphisms in the oracle's order,
    and when the parts share no null its size is the product of the parts'
    counts.  Parts hold symbolic cells and empty carriers; in a third of the
    trials they keep their nulls, so a null shared by two parts joins them.
    Most targets are an image of the parts, so that the counts are not 0."""
    from oracles import brute_force_homs

    s = _hom_oracle_schema()
    rng = random.Random(1212)
    products = shared = 0
    for trial in range(120):
        parts: list[Instance] = []
        wanted = rng.randint(2, 4)
        while len(parts) < wanted:
            part = _random_oracle_instance(rng, f"p{len(parts)}")
            if part.total_rows() + sum(p.total_rows() for p in parts) <= 6:
                parts.append(part)
        j = (_random_oracle_instance(rng, "j") if trial % 5 == 0 else
             _renamed(s, _disjoint_union(s, parts, rng), rng,
                      nulls_to_nulls=trial % 2 == 0))
        disjoint = trial % 3 != 0
        if disjoint:
            parts = [_relabelled(part, f"p{k}") for k, part in enumerate(parts)]
        i = _disjoint_union(s, parts, rng)
        homs = enumerate_homs(s, i, j)
        expected = brute_force_homs(s, i, j)
        assert [({t: dict(pairs) for t, pairs in h.maps}, dict(h.null_map))
                for h in homs] == expected
        assert homs.size == len(expected)
        if disjoint:
            counts = [len(brute_force_homs(s, part, j)) for part in parts]
            assert homs.size == math.prod(counts)
            products += sum(c > 1 for c in counts) > 1
        else:
            shared += len(i.nulls()) < sum(len(part.nulls()) for part in parts)
    assert products > 5 and shared > 10


def test_homs_bind_bare_nulls_before_symbolic_cells():
    """length(?0) can only be checked once ?0 is bound, and ?0 is bound by
    the cell of `b` even though `a` comes first by name."""
    s = _string_schema({"A"}, {"a": ("A", "Int"), "b": ("A", "String")})
    i = Instance.make({"A": ["x"]},
                      {"a": {"x": OpApplied("length", LabelledNull("0"))},
                       "b": {"x": LabelledNull("0")}})
    j = Instance.make({"A": ["y"]}, {"a": {"y": 2}, "b": {"y": "pq"}})
    homs = enumerate_homs(s, i, j)
    assert [h.null_map for h in homs] == [(("0", "pq"),)]


def test_homs_match_cells_by_type_structure_and_computation():
    """A constant matches only a cell of its own type, so 1 does not match
    True; a null that occurs only under a builtin binds structurally, so
    reverse(?k) matches reverse(?5) and not "ab"; and a symbolic cell whose
    null is bound to a constant is computed."""
    s = _string_schema({"A"}, {"k": ("A", "Int"), "u": ("A", "String"),
                               "w": ("A", "String")}, builtins=("reverse",))
    i = Instance.make({"A": ["x"]}, {"k": {"x": 1}, "u": {"x": "c"},
                                     "w": {"x": OpApplied("reverse", LabelledNull("k"))}})
    five = OpApplied("reverse", LabelledNull("5"))
    j = Instance.make({"A": ["y1", "y2", "y3"]},
                      {"k": {"y1": True, "y2": 1, "y3": 1},
                       "u": {"y1": "c", "y2": "c", "y3": "c"},
                       "w": {"y1": five, "y2": "ab", "y3": five}})
    assert [(h.apply("A", "x"), h.null_map) for h in enumerate_homs(s, i, j)] == [
        ("y3", (("k", LabelledNull("5")),))]
    i = Instance.make({"A": ["x"]}, {"k": {"x": 1}, "u": {"x": LabelledNull("k")},
                                     "w": {"x": OpApplied("reverse", LabelledNull("k"))}})
    j = Instance.make({"A": ["y1", "y2"]},
                      {"k": {"y1": 1, "y2": 1}, "u": {"y1": "ab", "y2": "ab"},
                       "w": {"y1": "ab", "y2": "ba"}})
    assert [(h.apply("A", "x"), h.null_map) for h in enumerate_homs(s, i, j)] == [
        ("y2", (("k", "ab"),))]


def test_constant_cells_narrow_the_candidates_of_a_slot():
    """Sixteen one-row components, each with a name, into 6,400 rows over
    30 names: each component's name leaves it the rows with that name, so
    the count, the product of those rows' numbers, takes about 3,400
    tuples.  Trying every row for every component would take 102,400,
    past HOM_SEARCH_NODES."""
    from collections import Counter

    s = _string_schema({"A"}, {"name": ("A", "String")}, builtins=())
    rng = random.Random(16)
    names = [f"n{k}" for k in range(30)]
    j_names = {f"y{k}": rng.choice(names) for k in range(6400)}
    j = Instance.make({"A": j_names}, {"name": j_names})
    i_names = {f"x{k:02d}": rng.choice(names) for k in range(16)}
    i = Instance.make({"A": i_names}, {"name": i_names})
    rows_named = Counter(j_names.values())
    assert enumerate_homs(s, i, j).size == math.prod(
        rows_named[name] for name in i_names.values())


def _large_oracle_instance(rng, prefix: str, size: int) -> Instance:
    """`size` rows of the oracle schema, A empty in a tenth of the draws.
    Cells are constants, three shared nulls bare or under `reverse`, and a
    null `?9` that occurs only under `reverse`."""
    n_a = 0 if rng.random() < 0.1 else rng.randint(1, size - 1)
    rows_a = [f"{prefix}a{k}" for k in range(n_a)]
    rows_b = [f"{prefix}b{k}" for k in range(size - n_a)]

    def cell():
        roll = rng.randrange(6)
        if roll < 2:
            return rng.choice(["a", "ab", "ba"])
        if roll == 2:
            return OpApplied("reverse", LabelledNull("9"))
        null = LabelledNull(str(rng.randrange(3)))
        return OpApplied("reverse", null) if roll == 3 else null

    return Instance.make(
        {"A": rows_a, "B": rows_b},
        {"m": {r: rng.choice(rows_a) for r in rows_a},
         "f": {r: rng.choice(rows_b) for r in rows_a},
         "n": {r: rng.choice(rows_b) for r in rows_b},
         "tag": {r: cell() for r in rows_a},
         "label": {r: cell() for r in rows_b}})


def _image(s: FqlSchema, i: Instance, rng, prefix: str) -> Instance:
    """i with its rows renamed in a random order and each null replaced by
    one of two nulls or by a constant, so that i maps onto the result."""
    values = {null.label: rng.choice([LabelledNull("5"), LabelledNull("6"), "a", "ab"])
              for null in i.nulls()}
    rename = {}
    for t in ("A", "B"):
        rows = list(i.rows(t))
        rng.shuffle(rows)
        rename[t] = {r: f"{prefix}{t}{k}" for k, r in enumerate(rows)}

    def cell(v):
        if isinstance(v, LabelledNull):
            return values[v.label]
        if isinstance(v, OpApplied):
            return s.builtins.apply(v.op, cell(v.arg))
        return v

    return Instance.make({t: rename[t].values() for t in rename}, {
        op: {rename[dom][r]: rename[cod][v] if cod in rename else cell(v)
             for r, v in i.functions[op].items()}
        for op, (dom, cod) in s.tables.items()})


def _check_homs_against_backtracking(trials: int) -> tuple[int, int, int]:
    """On sources of 5-12 rows, too many for `brute_force_homs`, with shared
    nulls, symbolic cells, a null only under `reverse`, empty carriers and
    (a third of the time) two interleaved parts, into a small random
    instance or two interleaved images of the source, `search_homs` yields
    the backtracking reference's (maps, binding) pairs in the same order.
    Gives the trials with several homomorphisms, with an empty carrier, and
    the homomorphisms that bind the null only under `reverse`."""
    from oracles import backtracking_homs

    s = _hom_oracle_schema()
    rng = random.Random(38)
    several = empty = under = 0
    for trial in range(trials):
        size = rng.randint(5, 12)
        if trial % 3 == 0:
            first = rng.randint(2, size - 2)
            i = _disjoint_union(s, [_large_oracle_instance(rng, "p", first),
                                    _large_oracle_instance(rng, "q", size - first)], rng)
        else:
            i = _large_oracle_instance(rng, "i", size)
        j = (_large_oracle_instance(rng, "j", rng.randint(2, 6)) if trial % 4 == 0
             else _disjoint_union(s, [_image(s, i, rng, "j"), _image(s, i, rng, "k")], rng))
        got = [({t: dict(m) for t, m in maps.items()}, dict(binding))
               for maps, binding in search_homs(s, i, j)]
        expected = [({t: dict(m) for t, m in maps.items()}, dict(binding))
                    for maps, binding in backtracking_homs(s, i, j)]
        assert got == expected
        several += len(got) > 1
        empty += not i.rows("A") or not j.rows("A")
        under += sum("9" in binding for _, binding in got)
    return several, empty, under


def test_hom_join_matches_the_backtracking_search():
    several, empty, under = _check_homs_against_backtracking(200)
    assert several > 30 and empty > 5 and under > 100


def test_hom_join_in_halves_matches_the_backtracking_search(monkeypatch):
    """The same, with every level of more than 3 tuples built from each half
    of the level before in turn, down to one tuple: the homomorphisms and
    their order do not change."""
    import qinl.schema

    monkeypatch.setattr(qinl.schema, "JOIN_CHUNK", 3)
    several, _, _ = _check_homs_against_backtracking(60)
    assert several > 10


def test_forced_rows_read_each_target_column_once(monkeypatch):
    """A chain r00 -> r01 -> ... -> r49 -> r49 whose head has a name and
    whose rows all have age 1, into 3,000 rows: j's rows are gone through
    once per probe dict (of `next` and of `name`) and once to keep the int
    ages (True == 1 is no match), and then only at the partial tuples.
    The work counted is the cells of j read and the positions evaluated
    (nested calls included).  Building the dicts or filtering the ages
    again for each of the 50 rows would take over 150,000."""
    import qinl.schema

    reads = [0]

    class Counted(dict):
        def __getitem__(self, key):
            reads[0] += 1
            return super().__getitem__(key)

    real = qinl.schema.eval_column

    def counted(s, i, columns, n, e):
        reads[0] += n
        return real(s, i, columns, n, e)

    monkeypatch.setattr(qinl.schema, "eval_column", counted)

    s = _string_schema({"A"}, {"next": ("A", "A"), "name": ("A", "String"),
                               "age": ("A", "Int")}, builtins=())
    n, length = 3000, 50
    ys = [f"y{k:04d}" for k in range(n)]
    j = Instance({"A": tuple(ys)}, {
        "next": Counted({y: ys[min(k + 1, n - 1)] for k, y in enumerate(ys)}),
        "name": Counted({y: f"n{k % 30}" for k, y in enumerate(ys)}),
        "age": Counted({y: True if k % 7 == 0 and k < n - 2 * length else 1
                        for k, y in enumerate(ys)})})
    rs = [f"r{k:02d}" for k in range(length)]
    i = Instance.make({"A": rs}, {
        "next": {r: rs[min(k + 1, length - 1)] for k, r in enumerate(rs)},
        "name": {r: LabelledNull(str(k)) if k else f"n{(n - 40) % 30}"
                 for k, r in enumerate(rs)},
        "age": {r: 1 for r in rs}})
    homs = list(search_homs(s, i, j))
    assert [maps["A"]["r00"] for maps, _ in homs] == [
        ys[k] for k in range(n - length, n) if k % 30 == (n - 40) % 30]
    assert reads[0] <= 40_000


# --------------------------------------------------------------------------
# adjunctions on hand-built cases (the bulk generated suite runs in
# acceptance)

def test_adjunctions_on_collapse_mapping():
    src = entity_schema({"A", "B"}, {})
    tgt = entity_schema({"C"}, {})
    mapping = SchemaMapping(src, tgt, {"A": "C", "B": "C"}, {})
    i = Instance.make({"A": ["a1", "a2"], "B": ["b1"]}, {})
    j = Instance.make({"C": ["c1", "c2"]}, {})
    pushed_free = sigma(mapping, i, fuel=16)
    pushed_limit = pi(mapping, i, fuel=8)
    pulled = delta(mapping, j)
    assert len(enumerate_homs(tgt, pushed_free, j)) == \
        len(enumerate_homs(src, i, pulled))
    assert len(enumerate_homs(src, pulled, i)) == \
        len(enumerate_homs(tgt, j, pushed_limit))


def test_adjunctions_along_fk_mapping():
    src = dag_schema()
    tgt = entity_schema({"P", "Q"}, {"g": ("P", "Q")})
    mapping = SchemaMapping(src, tgt, {"A": "P", "B": "Q"},
                            {"f": ("x", App("g", Var("x")))})
    i = dag_instance()
    j = Instance.make({"P": ["p1"], "Q": ["q1", "q2"]}, {"g": {"p1": "q2"}})
    pushed_free = sigma(mapping, i, fuel=16)
    pushed_limit = pi(mapping, i, fuel=8)
    pulled = delta(mapping, j)
    assert len(enumerate_homs(tgt, pushed_free, j)) == \
        len(enumerate_homs(src, i, pulled))
    assert len(enumerate_homs(src, pulled, i)) == \
        len(enumerate_homs(tgt, j, pushed_limit))


def test_results_satisfy_theories_for_proved_mappings():
    """delta/sigma/pi outputs of a fully proved mapping pass the
    satisfaction check on their schema."""
    idem = Equation(Context.of(("x", Base("E"))),
                    App("boss", App("boss", Var("x"))),
                    App("boss", Var("x")))
    s = entity_schema({"E"}, {"boss": ("E", "E")}, [idem])
    ident = identity_mapping(s)
    i = Instance.make({"E": ["u", "v"]}, {"boss": {"u": "v", "v": "v"}})
    assert check_instance(s, i).all_ok
    for result in (delta(ident, i), sigma(ident, i, fuel=16),
                   pi(ident, i, fuel=16)):
        assert check_instance(s, result).all_ok


def test_sigma_result_satisfies_non_identity_target():
    src = entity_schema({"A"}, {})
    idem = Equation(Context.of(("x", Base("E"))),
                    App("boss", App("boss", Var("x"))),
                    App("boss", Var("x")))
    tgt = entity_schema({"E"}, {"boss": ("E", "E")}, [idem])
    mapping = SchemaMapping(src, tgt, {"A": "E"}, {})
    i = Instance.make({"A": ["a1", "a2"]}, {})
    pushed = sigma(mapping, i, fuel=16)
    assert check_instance(tgt, pushed).all_ok
    assert len(pushed.rows("E")) == 4  # each seed grows one boss fixpoint


def _idem_schema(type_name: str, op: str):
    collapse = Equation(Context.of(("x", Base(type_name))),
                        App(op, App(op, Var("x"))), App(op, Var("x")))
    return entity_schema({type_name}, {op: (type_name, type_name)}, [collapse])


def _random_idem_instance(s, type_name, op, rng):
    rows = [f"{type_name.lower()}{k}" for k in range(rng.randint(0, 3))]
    if not rows:
        return Instance.make({type_name: []}, {op: {}})
    table = {r: rng.choice(rows) for r in rows}
    for r in rows:
        table[table[r]] = table[r]  # images must be fixpoints
    return Instance.make({type_name: rows}, {op: table})


def test_adjunctions_hold_under_collapsing_theories():
    """With idempotence axioms on both sides, sigma's chase and pi's chased
    representables both collapse terms; the hom counts must still match."""
    import random

    src = _idem_schema("A", "f")
    tgt = _idem_schema("U", "g")
    mapping = SchemaMapping(src, tgt, {"A": "U"},
                            {"f": ("x", App("g", Var("x")))})
    assert mapping.validate() == []
    rng = random.Random(9)
    completed = 0
    for _ in range(40):
        i = _random_idem_instance(src, "A", "f", rng)
        j = _random_idem_instance(tgt, "U", "g", rng)
        assert check_instance(src, i).all_ok
        assert check_instance(tgt, j).all_ok
        pushed_free = sigma(mapping, i, fuel=32)
        pushed_limit = pi(mapping, i, fuel=32)
        pulled = delta(mapping, j)
        assert len(enumerate_homs(tgt, pushed_free, j)) == \
            len(enumerate_homs(src, i, pulled))
        assert len(enumerate_homs(src, pulled, i)) == \
            len(enumerate_homs(tgt, j, pushed_limit))
        completed += 1
    assert completed == 40


def test_pi_excludes_families_with_conflicting_attribute_images():
    """Two source attribute operations sharing one target image determine
    the same limit component twice; rows where they disagree cannot extend
    to a limit element, mirroring the hom-count on the other side."""
    src_sig = Signature.of(
        {"A", "String"},
        {"u": (Base("A"), Base("String")), "v": (Base("A"), Base("String"))})
    src = FqlSchema(Theory.of(src_sig), frozenset({"A"}), frozenset({"String"}))
    tgt_sig = Signature.of({"U", "String"},
                           {"w": (Base("U"), Base("String"))})
    tgt = FqlSchema(Theory.of(tgt_sig), frozenset({"U"}), frozenset({"String"}))
    mapping = SchemaMapping(src, tgt, {"A": "U"},
                            {"u": ("x", App("w", Var("x"))),
                             "v": ("x", App("w", Var("x")))})
    assert mapping.validate() == []

    agreeing = Instance.make({"A": ["a"]},
                             {"u": {"a": "p"}, "v": {"a": "p"}})
    clashing = Instance.make({"A": ["a"]},
                             {"u": {"a": "p"}, "v": {"a": "q"}})
    assert len(pi(mapping, agreeing, fuel=8).rows("U")) == 1
    assert pi(mapping, clashing, fuel=8).rows("U") == ()

    j = Instance.make({"U": ["r"]}, {"w": {"r": "p"}})
    for i in (agreeing, clashing):
        assert len(enumerate_homs(src, delta(mapping, j), i)) == \
            len(enumerate_homs(tgt, j, pi(mapping, i, fuel=8)))


# --------------------------------------------------------------------------
# Migrations with nulls write models that read back

def test_migrations_with_nulls_write_models_that_read_back():
    """Every delta, sigma and pi output passes check_instance on its schema,
    and its text parses and elaborates back to an equal instance.  A chase
    over reverse of a null can diverge (FuelExhausted); sigma refuses a
    model that ties a null to a value no cell states (UnstatedNull), or an
    input whose constants the target equates (InconsistentConstants)."""
    rng = random.Random(5)
    written = {"delta": 0, "sigma": 0, "pi": 0}
    symbolic = with_nulls = 0
    for _ in range(400):
        schemas, rest = nulls_case(rng)
        elab = elaborate(parse(schemas + rest))
        assert not elab.diagnostics, schemas + rest
        s, t = elab.schemas["S"], elab.schemas["T"]
        mapping, i = elab.mappings["M"], elab.instances["I"]
        outputs = []
        for direction, migrate in (("sigma", sigma), ("pi", pi)):
            try:
                outputs.append((direction, t, "T", migrate(mapping, i, fuel=8)))
            except (FuelExhausted, UnstatedNull, InconsistentConstants) as exc:
                assert direction == "sigma" or isinstance(exc, FuelExhausted)
        for _, _, _, j in list(outputs):
            outputs.append(("delta", s, "S", delta(mapping, j)))
        for direction, schema, name, out in outputs:
            assert check_instance(schema, out).all_ok, (schemas + rest, direction)
            unit = SourceUnit((instance_to_decl("O", name, schema, out),))
            text = print_unit(unit)
            assert parse(text) == unit, text
            back = elaborate(parse(schemas + text))
            assert not back.diagnostics and back.instances["O"] == out, text
            written[direction] += 1
            cells = [c for table in out.functions.values() for c in table.values()]
            symbolic += any(isinstance(c, OpApplied) for c in cells)
            with_nulls += bool(out.nulls())
    assert min(written.values()) >= 30 and symbolic >= 10 and with_nulls >= 100
