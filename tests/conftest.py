from __future__ import annotations

import random

import pytest

from qinl.equality import Equation, Theory
from qinl.kernel import App, Base, Context, Signature, Var
from qinl.schema import FqlSchema, Instance


def company_schema() -> FqlSchema:
    sig = Signature.of(
        {"String", "Int", "Emp", "Dept"},
        {
            "length": (Base("String"), Base("Int")),
            "reverse": (Base("String"), Base("String")),
            "worksIn": (Base("Emp"), Base("Dept")),
            "manager": (Base("Emp"), Base("Emp")),
            "ename": (Base("Emp"), Base("String")),
        })
    x_str = Context.of(("x", Base("String")))
    x_emp = Context.of(("x", Base("Emp")))
    theory = Theory.of(sig, [
        Equation(x_str, App("length", Var("x")),
                 App("length", App("reverse", Var("x")))),
        Equation(x_str, Var("x"), App("reverse", App("reverse", Var("x")))),
        Equation(x_emp, App("worksIn", Var("x")),
                 App("worksIn", App("manager", Var("x")))),
    ])
    return FqlSchema(theory, frozenset({"Emp", "Dept"}),
                     frozenset({"String", "Int"}))


def staff_instance() -> Instance:
    return Instance.make(
        {"Emp": ["e1", "e2", "e3"], "Dept": ["d1", "d2"]},
        {
            "manager": {"e1": "e1", "e2": "e1", "e3": "e3"},
            "ename": {"e1": "abba", "e2": "bob", "e3": "cat"},
            "worksIn": {"e1": "d1", "e2": "d1", "e3": "d2"},
        })


def entity_schema(base_types: dict[str, None] | set[str],
                  ops: dict[str, tuple[str, str]],
                  equations=()) -> FqlSchema:
    """A schema with only entity types; ops maps name -> (dom, cod)."""
    sig = Signature.of(
        set(base_types),
        {name: (Base(dom), Base(cod)) for name, (dom, cod) in ops.items()})
    return FqlSchema(Theory.of(sig, equations), frozenset(base_types),
                     frozenset())


@pytest.fixture
def company():
    return company_schema()


@pytest.fixture
def staff():
    return staff_instance()


# --------------------------------------------------------------------------
# Migrations with nulls through builtin equations, as text

_NULL_TEMPLATES = ("forall s: String . length(reverse(s)) = length(s);",
                   "forall x: U . length(w(x)) = k(x);",
                   "forall x: U . n(x) = length(w(x));",
                   "forall x: U . w(x) = reverse(w(x));")
_TEXT_BUILTINS = "length : String -> Int, reverse : String -> String"


def nulls_case(rng: random.Random) -> tuple[str, str]:
    """Schemas S and T as text, then a mapping M : S -> T and an instance I
    on S, 30% of whose cells are nulls.  T states a random subset of the
    templates; S states the String identity when T does, so M is proved."""
    equations = [t for t in _NULL_TEMPLATES if rng.random() < 0.5]
    identity = _NULL_TEMPLATES[0] if _NULL_TEMPLATES[0] in equations else ""
    schemas = (
        "schema S = { entities A; attributes String, Int;\n"
        f"  operations u : A -> String, v : A -> Int, {_TEXT_BUILTINS};\n"
        f"  equations {identity} }}\n"
        "schema T = { entities U; attributes String, Int;\n"
        "  operations w : U -> String, w2 : U -> String, k : U -> Int, "
        f"n : U -> Int, {_TEXT_BUILTINS};\n"
        f"  equations {' '.join(equations)} }}\n")
    rows = [f"a{j}" for j in range(rng.randint(1, 4))]

    def table(values, labels):
        return ", ".join(
            f"{row} -> "
            + (f"?{rng.choice(labels)}" if rng.random() < 0.3 else rng.choice(values))
            for row in rows)

    u = rng.choice(["w(x)", "w2(x)", "reverse(w(x))"])
    v = rng.choice(["k(x)", "n(x)", "length(w(x))", "length(w2(x))"])
    strings = ['""', '"a"', '"ab"', '"aba"', '"abba"']
    rest = (f"mapping M : S -> T = {{ A -> U; u -> (x => {u}); v -> (x => {v}); }}\n"
            f"instance I : S = {{ A = {{ {', '.join(rows)} }}; "
            f"u = {{ {table(strings, 'pqr')} }}; "
            f"v = {{ {table(['0', '1', '2', '3'], 'ij')} }}; }}\n")
    return schemas, rest
