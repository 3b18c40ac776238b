"""Database schemas as equational theories with an entity/attribute split,
finite instances with labelled nulls, the one evaluator of terms and
set-calculus expressions (to cells, over a column of rows at once),
satisfaction checking, and the search for homomorphisms of instances."""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .equality import Theory
from .kernel import (
    App,
    Base,
    EngineError,
    Lit,
    Pair,
    Prod,
    Proj1,
    Proj2,
    Signature,
    Term,
    TypeExpr,
    UNIT,
    UnboundVariable,
    UnitTerm,
    UnknownBaseType,
    UnknownOperation,
    Var,
    format_literal,
    format_type,
    subterms,
)
from .nrc import Empty, EqTest, For, If, Singleton, UninterpretedOperation, Union, print_nrc


class PartialFunction(EngineError):
    def __init__(self, op: str, row: str):
        super().__init__(f"function table '{op}' has no entry for '{row}'")
        self.op = op
        self.row = row


class InvalidInstance(EngineError):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


# --------------------------------------------------------------------------
# Attribute values

@dataclass(frozen=True)
class LabelledNull:
    """An unknown attribute value created by the chase; equal only to itself."""

    label: str

    def __str__(self) -> str:
        return f"?{self.label}"


@dataclass(frozen=True)
class OpApplied:
    """A builtin operation applied to a value containing a labelled null;
    kept symbolic because the operation cannot compute on an unknown."""

    op: str
    arg: object

    def __str__(self) -> str:
        return f"{self.op}({render_cell(self.arg)})"


class _UnitCell:
    def __repr__(self) -> str:
        return "()"


UNIT_CELL = _UnitCell()


@dataclass(frozen=True)
class SetV:
    """The value of a set-calculus expression: its members, deduplicated
    and in `cell_key` order, so equal sets are equal tuples."""

    members: tuple


# A row id (str), a constant, a LabelledNull, an OpApplied, a pair (tuple),
# UNIT_CELL, or a set (SetV).
Cell = object


def make_set(values: Iterable[Cell]) -> SetV:
    unique = {cell_key(v): v for v in values}
    return SetV(tuple(unique[k] for k in sorted(unique)))


def render_cell(v: Cell) -> str:
    if v is UNIT_CELL:
        return "()"
    if isinstance(v, (LabelledNull, OpApplied)):
        return str(v)
    if isinstance(v, tuple):
        return f"({render_cell(v[0])}, {render_cell(v[1])})"
    if isinstance(v, (bool, int)):
        return format_literal(v)
    return str(v)  # row ids print bare; string constants are rendered by callers


def format_cell(v: Cell) -> str:
    """A cell as the text that reads back as it."""
    if isinstance(v, (str, int)):
        return format_literal(v)
    if isinstance(v, tuple):
        return f"({format_cell(v[0])}, {format_cell(v[1])})"
    if isinstance(v, SetV):
        return "{" + ", ".join(format_cell(m) for m in v.members) + "}"
    return str(v)  # unit, labelled nulls and symbolic cells


def cell_key(v: Cell) -> tuple:
    if isinstance(v, bool):
        return (0, v)
    if isinstance(v, int):
        return (1, v)
    if isinstance(v, str):
        return (2, v)
    if isinstance(v, LabelledNull):
        return (3, v.label)
    if isinstance(v, OpApplied):
        return (4, v.op, cell_key(v.arg))
    if isinstance(v, tuple):
        return (5, cell_key(v[0]), cell_key(v[1]))
    if isinstance(v, SetV):
        return (7, tuple(cell_key(m) for m in v.members))
    return (6,)


# --------------------------------------------------------------------------
# Builtin carriers and operations

class BuiltinOp(NamedTuple):
    """A builtin operation: the attribute types it runs between and its
    total function."""

    dom: str
    cod: str
    fn: Callable[[object], object]


@dataclass(frozen=True)
class BuiltinRegistry:
    """Carriers for attribute types and the type and total semantics of
    each builtin operation; also each carrier's finite sample space,
    canonically ordered, from which satisfaction checks draw values.  A
    schema may declare a builtin only at the type given here."""

    carriers: Mapping[str, type]
    ops: Mapping[str, BuiltinOp]
    sample_spaces: Mapping[str, tuple]

    def in_carrier(self, base: str, value: object) -> bool:
        """Whether a constant belongs to the carrier of an attribute type,
        with booleans kept apart from integers; never for a type with no
        carrier."""
        carrier = self.carriers.get(base)
        if carrier is None:
            return False
        if carrier is bool:
            return isinstance(value, bool)
        return isinstance(value, carrier) and not isinstance(value, bool)

    def apply(self, op: str, value: Cell) -> Cell:
        if op not in self.ops:
            raise UninterpretedOperation(op)
        if isinstance(value, (LabelledNull, OpApplied)):
            return OpApplied(op, value)
        return self.ops[op].fn(value)

    def schema(self) -> FqlSchema:
        """The schema of standalone set-calculus expressions: the carriers
        as attribute types and the builtins, no entity types."""
        sig = Signature.of(set(self.carriers), {
            name: (Base(op.dom), Base(op.cod)) for name, op in self.ops.items()})
        return FqlSchema(Theory.of(sig), frozenset(), frozenset(self.carriers), self)


_STRINGS = tuple("".join(p) for n in range(6)
                 for p in itertools.product("ab", repeat=n))


def default_builtins() -> BuiltinRegistry:
    return BuiltinRegistry(
        carriers={"String": str, "Int": int, "Bool": bool},
        ops={"length": BuiltinOp("String", "Int", len),
             "reverse": BuiltinOp("String", "String", lambda s: s[::-1])},
        sample_spaces={"String": _STRINGS, "Int": tuple(range(-50, 51)),
                       "Bool": (False, True)},
    )


# --------------------------------------------------------------------------
# Schemas

@dataclass(frozen=True)
class FqlSchema:
    """An equational theory whose base types are partitioned into entity
    types (finite, enumerable carriers) and attribute types (fixed builtin
    carriers).  Operations must run between base types; no operation may map
    an attribute type to an entity type."""

    theory: Theory
    entity_types: frozenset[str]
    attribute_types: frozenset[str]
    builtins: BuiltinRegistry = field(default_factory=default_builtins)

    @property
    def sig(self) -> Signature:
        return self.theory.sig

    @cached_property
    def tables(self) -> dict[str, tuple[str, str]]:
        """The operations stored as tables, those whose domain is an entity
        type, in name order, each with the names of its domain and
        codomain.  The others are builtins."""
        tables = {}
        for name, (dom, cod) in sorted(self.sig.operations.items()):
            if isinstance(dom, Base) and dom.name in self.entity_types:
                assert isinstance(cod, Base), "validate() rejects this schema"
                tables[name] = (dom.name, cod.name)
        return tables

    @cached_property
    def slot_order(self) -> list[str]:
        """The entity types with each foreign key's source before its
        target, ties and cycles broken by name.  A source row's key then
        picks the row its target takes, so targets are mostly forced
        before their turn."""
        sources: dict[str, set[str]] = {t: set() for t in self.entity_types}
        for dom, cod in self.tables.values():
            if cod in self.entity_types and cod != dom:
                sources[cod].add(dom)
        order: list[str] = []
        left = sorted(self.entity_types)
        while left:
            t = next((t for t in left if not sources[t] & set(left)), left[0])
            order.append(t)
            left.remove(t)
        return order

    def builtin_op_names(self) -> list[str]:
        return sorted(name for name in self.sig.operations if name not in self.tables)

    def builtin_ops(self) -> dict[str, Callable[[object], object]]:
        """The registered semantics of this schema's builtin operations."""
        return {name: self.builtins.ops[name].fn for name in self.builtin_op_names()
                if name in self.builtins.ops}

    def validate(self) -> list[str]:
        """Structural problems only; equation well-formedness is reported
        separately by check_theory so callers can locate each equation."""
        problems = []
        declared = self.sig.base_types
        for t in sorted(self.entity_types & self.builtins.carriers.keys()):
            problems.append(f"entity type '{t}' is a builtin attribute type")
        overlap = self.entity_types & self.attribute_types
        if overlap:
            problems.append(f"types declared both entity and attribute: {sorted(overlap)}")
        missing = declared - self.entity_types - self.attribute_types
        if missing:
            problems.append(f"base types not classified: {sorted(missing)}")
        extra = (self.entity_types | self.attribute_types) - declared
        if extra:
            problems.append(f"classified types not declared: {sorted(extra)}")
        for a in sorted(self.attribute_types):
            if a not in self.builtins.carriers:
                problems.append(f"attribute type '{a}' has no builtin carrier")
        for name in sorted(self.sig.operations):
            dom, cod = self.sig.operations[name]
            try:
                self.sig.check_type(Prod(dom, cod))
            except UnknownBaseType as exc:
                problems.append(f"operation '{name}': {exc}")
                continue
            if not isinstance(dom, Base) or not isinstance(cod, Base):
                problems.append(
                    f"operation '{name}' must run between base types, has "
                    f"{format_type(dom)} -> {format_type(cod)}")
                continue
            if dom.name in self.attribute_types and cod.name in self.entity_types:
                problems.append(
                    f"operation '{name}' maps attribute type {dom.name} "
                    f"to entity type {cod.name}")
            if dom.name not in self.attribute_types:
                continue
            registered = self.builtins.ops.get(name)
            if registered is None:
                problems.append(f"builtin operation '{name}' has no registered semantics")
            elif (dom.name, cod.name) != (registered.dom, registered.cod):
                problems.append(
                    f"builtin operation '{name}' is declared {dom.name} -> "
                    f"{cod.name}, but its registered type is "
                    f"{registered.dom} -> {registered.cod}")
        return problems


# --------------------------------------------------------------------------
# Instances

@dataclass(frozen=True)
class Instance:
    """Finite carriers for entity types plus total function tables for every
    operation with an entity domain.  Attribute cells hold builtin constants
    or labelled nulls; operations between attribute types are computed from
    the registry, not stored."""

    carriers: Mapping[str, tuple[str, ...]]
    functions: Mapping[str, Mapping[str, Cell]]

    @classmethod
    def make(cls, carriers: Mapping[str, Iterable[str]],
             functions: Mapping[str, Mapping[str, Cell]]) -> Instance:
        return cls(
            {t: tuple(sorted(set(rows))) for t, rows in carriers.items()},
            {op: dict(table) for op, table in functions.items()},
        )

    def rows(self, entity: str) -> tuple[str, ...]:
        return self.carriers.get(entity, ())

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self.carriers.values())

    def nulls(self) -> list[LabelledNull]:
        """The nulls of the cells, bare or under builtins, in label order."""
        seen = {null.label: null for table in self.functions.values()
                for null in map(null_under, table.values()) if null is not None}
        return [seen[label] for label in sorted(seen)]


def null_under(v: Cell) -> LabelledNull | None:
    """The labelled null a cell is computed from, bare or under builtins
    (`length(?0)`), or None for any other cell."""
    while isinstance(v, OpApplied):
        v = v.arg
    return v if isinstance(v, LabelledNull) else None


def validate_instance(s: FqlSchema, i: Instance) -> list[str]:
    """What keeps `i` from being an instance of `s`: set tests over columns, and
    the rows walked only to word the problems a test found."""
    problems = [f"no carrier for entity type '{t}'"
                for t in sorted(s.entity_types - i.carriers.keys())]
    problems += [f"carrier for non-entity type '{t}'"
                 for t in sorted(i.carriers.keys() - s.entity_types)]
    problems += [f"no function table for operation '{op}'"
                 for op in sorted(s.tables.keys() - i.functions.keys())]
    problems += [f"function table for unknown or builtin operation '{op}'"
                 for op in sorted(i.functions.keys() - s.tables.keys())]
    for op, (dom, cod) in s.tables.items():
        table = i.functions.get(op)
        if table is None:
            continue
        dom_rows = i.rows(dom)
        if table.keys() != set(dom_rows):
            problems += [f"partial function '{op}': no entry for '{row}'"
                         for row in dom_rows if row not in table]
            problems += [f"table '{op}' has entry for unknown row '{row}'"
                         for row in sorted(table.keys() - set(dom_rows))]
        if cod in s.entity_types:
            cod_rows = set(i.rows(cod))
            if not cod_rows.issuperset(table.values()):
                problems += [f"table '{op}' sends '{row}' outside the '{cod}' carrier: "
                             f"{render_cell(table[row])}"
                             for row in sorted(table) if table[row] not in cod_rows]
        elif not set(map(type, table.values())) <= {s.builtins.carriers.get(cod)}:
            for row in sorted(table):
                v = table[row]
                if isinstance(v, (LabelledNull, OpApplied)):
                    problem = unstated_builtin(s, op, row, v)
                    if problem is not None:
                        problems.append(f"symbolic cell {problem}")
                    continue
                if not s.builtins.in_carrier(cod, v):
                    problems.append(
                        f"ill-typed cell {op}({row}) = {render_cell(v)}: "
                        f"not a {cod}")
    return problems


def unstated_builtin(s: FqlSchema, op: str, row: str, v: Cell) -> str | None:
    """Why instance text of `s` cannot state `v` as the cell op(row), by
    `unstated_application` at each builtin of a symbolic cell.  None when
    it can, and for every cell that is not symbolic."""
    cod, inner = s.tables[op][1], v
    while isinstance(inner, OpApplied):
        problem = unstated_application(s, inner.op, cod)
        if problem is not None:
            return f"{op}({row}) = {render_cell(v)}: {problem}"
        cod, inner = s.sig.op_type(inner.op)[0].name, inner.arg
    return None


def unstated_application(s: FqlSchema, op: str, cod: str) -> str | None:
    """Why a symbolic cell of type `cod` cannot apply `op`: it applies only
    a builtin that `s` declares, at the type that builtin gives.  None when
    it can."""
    if op not in s.sig.operations or op in s.tables:
        return f"'{op}' is not a builtin operation of the schema"
    op_cod = s.sig.op_type(op)[1]
    if op_cod != Base(cod):
        return f"'{op}' gives {format_type(op_cod)}, not {cod}"
    return None


# --------------------------------------------------------------------------
# Term evaluation over an instance

def eval_column(s: FqlSchema, i: Instance, columns: Mapping[str, list[Cell]],
                n: int, e: Term) -> list[Cell]:
    """Evaluate a well-typed term or set-calculus expression at `n`
    positions, `columns` giving each variable's `n` values: a table lookup
    or a builtin runs over a whole column at once, a set construct one
    position at a time by `eval_term`.  A builtin applied to an unknown
    stays symbolic; a labelled null equals only itself."""
    if not n:
        return []
    if isinstance(e, Var):
        if e.name not in columns:
            raise UnboundVariable(e.name)
        return columns[e.name]
    if isinstance(e, Lit):
        return [e.value] * n
    if isinstance(e, UnitTerm):
        return [UNIT_CELL] * n
    if isinstance(e, Pair):
        return list(zip(eval_column(s, i, columns, n, e.fst),
                        eval_column(s, i, columns, n, e.snd)))
    if isinstance(e, (Proj1, Proj2)):
        k = 0 if isinstance(e, Proj1) else 1
        return [v[k] for v in eval_column(s, i, columns, n, e.of)]
    if isinstance(e, App):
        args = eval_column(s, i, columns, n, e.arg)
        if e.op in s.tables:
            table = i.functions.get(e.op, {})
            try:
                return [table[a] for a in args]
            except KeyError:
                missing = next(a for a in args if a not in table)
                raise PartialFunction(e.op, render_cell(missing)) from None
        if e.op not in s.sig.operations:
            raise UnknownOperation(e.op)
        if e.op not in s.builtins.ops:
            raise UninterpretedOperation(e.op)
        fn = s.builtins.ops[e.op].fn
        return [OpApplied(e.op, a) if isinstance(a, (LabelledNull, OpApplied))
                else fn(a) for a in args]
    if not isinstance(e, (Empty, Singleton, Union, If, EqTest, For)):
        raise EngineError(f"cannot evaluate term construct {e!r}")
    return [eval_term(s, i, {v: c[k] for v, c in columns.items()}, e)
            for k in range(n)]


def eval_term(s: FqlSchema, i: Instance, env: Mapping[str, Cell], e: Term) -> Cell:
    """`eval_column` at the one position `env` gives, where the set
    constructs are evaluated.  Conditions and `=` evaluate to True/False,
    and a condition that evaluates to an unknown raises EngineError."""
    if isinstance(e, Empty):
        return SetV(())
    if isinstance(e, Singleton):
        return SetV((eval_term(s, i, env, e.elem),))
    if isinstance(e, Union):
        return make_set(eval_term(s, i, env, e.left).members
                        + eval_term(s, i, env, e.right).members)
    if isinstance(e, If):
        cond = eval_term(s, i, env, e.cond)
        if not isinstance(cond, bool):
            raise EngineError(f"condition {print_nrc(e.cond)} is neither true nor "
                              f"false: {format_cell(cond)}")
        return eval_term(s, i, env, e.then if cond else e.els)
    if isinstance(e, EqTest):
        return eval_term(s, i, env, e.left) == eval_term(s, i, env, e.right)
    if isinstance(e, For):
        inner, collected = dict(env), []
        for member in eval_term(s, i, env, e.source).members:
            inner[e.var] = member
            collected += eval_term(s, i, inner, e.body).members
        return make_set(collected)
    return eval_column(s, i, {v: [c] for v, c in env.items()}, 1, e)[0]


# --------------------------------------------------------------------------
# Satisfaction checking

@dataclass(frozen=True)
class EquationCheck:
    equation: str
    status: str  # "satisfied" | "violated" | "sampled-only"
    witness: tuple[tuple[str, str], ...] | None = None
    sample_size: int | None = None


@dataclass(frozen=True)
class SatisfactionReport:
    checks: tuple[EquationCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.status != "violated" for c in self.checks)

    def violations(self) -> list[EquationCheck]:
        return [c for c in self.checks if c.status == "violated"]


CHECK_CHUNK = 4096  # combinations of an equation's variables evaluated at once


def check_instance(s: FqlSchema, i: Instance, *,
                   sample_size: int = 256, seed: int = 0) -> SatisfactionReport:
    """Check every schema equation against an instance.

    Entity-typed context variables are enumerated exhaustively over the
    carriers.  Attribute-typed variables range over the instance's active
    domain plus a seeded pseudo-random sample, and such equations report
    `sampled-only` rather than `satisfied`.  Each attribute type's domain is
    drawn once and shared by every variable of that type.  The witness is
    the first violation in product order, found CHECK_CHUNK at a time.
    """
    problems = validate_instance(s, i)
    if problems:
        raise InvalidInstance(problems)
    rng = random.Random(seed)
    attribute_domains: dict[str, list[Cell]] = {}

    def attribute_domain(base: str) -> list[Cell]:
        if base not in attribute_domains:
            attribute_domains[base] = _attribute_domain(
                s, i, base, rng, sample_size)
        return attribute_domains[base]

    checks = []
    for eq in s.theory.equations:
        domains = []
        sampled = False
        for _, t in eq.ctx:
            values, was_sampled = _type_domain(s, i, t, attribute_domain)
            sampled = sampled or was_sampled
            domains.append(values)
        names, witness = [var for var, _ in eq.ctx], None
        combos = itertools.product(*domains)
        while witness is None and (chunk := list(itertools.islice(combos, CHECK_CHUNK))):
            columns = dict(zip(names, map(list, zip(*chunk))))
            lhs = eval_column(s, i, columns, len(chunk), eq.lhs)
            rhs = eval_column(s, i, columns, len(chunk), eq.rhs)
            if lhs != rhs:
                k = next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                witness = tuple((var, render_cell(columns[var][k])) for var in sorted(columns))
        if witness is not None:
            checks.append(EquationCheck(eq.render(), "violated", witness=witness))
        elif sampled:
            checks.append(EquationCheck(
                eq.render(), "sampled-only", sample_size=sample_size))
        else:
            checks.append(EquationCheck(eq.render(), "satisfied"))
    return SatisfactionReport(tuple(checks))


def _type_domain(s: FqlSchema, i: Instance, t: TypeExpr,
                 attribute_domain: Callable[[str], list[Cell]],
                 ) -> tuple[list[Cell], bool]:
    if t == UNIT:
        return [UNIT_CELL], False
    if isinstance(t, Prod):
        left, ls = _type_domain(s, i, t.left, attribute_domain)
        right, rs = _type_domain(s, i, t.right, attribute_domain)
        return [(a, b) for a in left for b in right], ls or rs
    assert isinstance(t, Base)
    if t.name in s.entity_types:
        return list(i.rows(t.name)), False
    return attribute_domain(t.name), True


def _attribute_domain(s: FqlSchema, i: Instance, base: str,
                      rng: random.Random, sample_size: int) -> list[Cell]:
    """Active-domain constants of an attribute type, in `cell_key` order,
    then up to `sample_size` other values of its sample space, drawn without
    replacement.  Labelled nulls denote unknown-but-fixed values and are not
    quantified over."""
    active: dict[tuple, Cell] = {}

    def put(v: Cell) -> None:
        if not isinstance(v, (LabelledNull, OpApplied)):
            active.setdefault(cell_key(v), v)

    for op, (_, cod) in s.tables.items():
        if cod == base:
            for v in i.functions.get(op, {}).values():
                put(v)
    for eq in s.theory.equations:
        for side in (eq.lhs, eq.rhs):
            for sub in subterms(side):
                if isinstance(sub, Lit) and sub.base == base:
                    put(sub.value)
    fresh = [v for v in s.builtins.sample_spaces[base]
             if cell_key(v) not in active]
    return ([active[k] for k in sorted(active)]
            + rng.sample(fresh, min(sample_size, len(fresh))))


# --------------------------------------------------------------------------
# Conjunctive queries: comprehensions and homomorphisms

class TooLarge(EngineError):
    pass


class NodeBudget:
    """Work that several searches share, counted down in `left`: the
    tuples a join builds, a level at a time (the level that would pass it
    raises TooLarge before it is built), or the equation bindings a chase
    visits, one at a time.  A limit of None never runs out."""

    def __init__(self, limit: int | None):
        self.limit = limit
        self.left = math.inf if limit is None else limit


JOIN_CHUNK = 1 << 17  # the most tuples of one level that a join holds


def join(s: FqlSchema, i: Instance, variables: Sequence[tuple[str, Sequence[Cell]]],
         atoms: Iterable[tuple[Term, Term]], budget: NodeBudget,
         too_large: Callable[[int, int], str]) -> Iterator[tuple[dict[str, list[Cell]], int]]:
    """The tuples of the variables, each over its candidates, at which both
    sides of every atom are equal in `i` (a labelled null equals only
    itself), in lexicographic order, candidates in their given order:
    yielded in runs, each a column per variable and the run's length.

    One level of partial tuples per variable (Chandra and Merlin, STOC
    1977), each term evaluated over a whole level (Boncz et al., CIDR
    2005), each atom checked at the level of its latest variable.  An atom
    `t(new) = u(earlier)` picks the new variable's candidates from a dict
    of t's values, built once per candidate list and t, so a join along
    keys costs in proportion to its output (Yannakakis, VLDB 1981).  A
    variable named twice is visible from its last position on.  The level
    k of `size` tuples that would pass `budget` raises
    TooLarge(too_large(k, size)) before it is built; one of more than
    JOIN_CHUNK is built from each half of the tuples before it in turn,
    each taken through the later levels before the next.
    """
    last = {var: k for k, (var, _) in enumerate(variables)}
    # checks[k + 1] are the atoms first evaluable at level k (k = -1: none).
    checks: list[list[tuple[Term, Term]]] = [[] for _ in range(len(variables) + 1)]
    probes: list[tuple[Term, Term] | None] = [None] * len(variables)
    for lhs, rhs in atoms:
        nl, nr = ({sub.name for sub in subterms(side) if isinstance(sub, Var)}
                  for side in (lhs, rhs))
        pl = max(map(last.__getitem__, nl), default=-1)
        pr = max(map(last.__getitem__, nr), default=-1)
        k = max(pl, pr)
        for new, earlier, found, pn, pe in ((lhs, rhs, nl, pl, pr), (rhs, lhs, nr, pr, pl)):
            if pn == k > pe and probes[k] is None and len(found) == 1:
                probes[k] = (new, earlier)
                break
        else:
            checks[k + 1].append((lhs, rhs))
    # The probe dicts, by candidate list (alive in `variables` throughout)
    # and probed term, its one variable left out: f(x) and f(y) share one.
    indexes: dict[tuple, dict[Cell, list[Cell]]] = {}

    def hits(k: int, columns: dict[str, list[Cell]], n: int) -> list[Sequence[Cell]]:
        var, rows = variables[k]
        if probes[k] is None:
            return [rows] * n
        new, earlier = probes[k]
        key = (id(rows), *(sub.op if isinstance(sub, App) else sub
                           for sub in subterms(new) if not isinstance(sub, Var)))
        if key not in indexes:
            index = indexes[key] = {}
            for row, value in zip(rows, eval_column(s, i, {var: rows}, len(rows), new)):
                index.setdefault(value, []).append(row)
        return list(map(indexes[key].get, eval_column(s, i, columns, n, earlier),
                        itertools.repeat(())))

    def levels(k: int, columns: dict[str, list[Cell]], n: int,
               ) -> Iterator[tuple[dict[str, list[Cell]], int]]:
        for k in range(k, len(variables)):
            if k >= 0:
                if not n:
                    return
                found = hits(k, columns, n)
                size = sum(map(len, found))
                if size > budget.left:
                    raise TooLarge(too_large(k, size))
                if size > JOIN_CHUNK and n > 1:  # each half of the tuples to the end
                    for part in (range(n // 2), range(n // 2, n)):
                        yield from levels(k, _keep(columns, part), len(part))
                    return
                budget.left -= size
                if size != n or not all(found):  # else each tuple has one
                    columns = _keep(columns, [p for p, rows in enumerate(found) for _ in rows])
                columns[variables[k][0]] = list(itertools.chain.from_iterable(found))
                n = size
            for lhs, rhs in checks[k + 1]:
                same = list(map(operator.eq, eval_column(s, i, columns, n, lhs),
                                eval_column(s, i, columns, n, rhs)))
                if not all(same):
                    picks = list(itertools.compress(range(n), same))
                    columns, n = _keep(columns, picks), len(picks)
        if n:
            yield columns, n

    return levels(-1, {}, 1)


def _keep(columns: dict[str, list[Cell]], picks: Iterable[int]) -> dict[str, list[Cell]]:
    return {v: list(map(col.__getitem__, picks)) for v, col in columns.items()}


def _hom_components(s: FqlSchema, i: Instance, j: Instance,
                    ) -> tuple[list[tuple[list, list, dict[str, Term]]], dict[tuple[str, str], Var]]:
    """i's canonical query over j (`_hom_query`) split into the queries of
    i's connected components, in the order of their first rows (types
    sorted, then rows): each its variables, its atoms and the term that
    gives each of its nulls' values; with the variable of each row of i.

    i is the coproduct of its components, its rows joined by the atoms of
    its query that name them: a foreign-key cell, or a labelled null they
    share, also under a builtin.  So a homomorphism out of i is one out of
    each component (Spivak and Wisnesky, "Relational Foundations for
    Functorial Data Migration")."""
    variables, atoms, slots, value = _hom_query(s, i, j)
    parent = {var: var for var, _ in variables}

    def find(var: str) -> str:
        while parent[var] != var:
            parent[var] = var = parent[parent[var]]
        return var

    named = [[sub.name for side in atom for sub in subterms(side) if isinstance(sub, Var)]
             for atom in atoms]
    for names in named:
        for name in names[1:]:
            parent[find(name)] = find(names[0])
    parts: dict[str, tuple[list, list, dict[str, Term]]] = {}
    for t in sorted(s.entity_types):
        for r in i.rows(t):
            parts.setdefault(find(slots[t, r].name), ([], [], {}))
    for variable in variables:
        parts[find(variable[0])][0].append(variable)
    for atom, names in zip(atoms, named):
        parts[find(names[0])][1].append(atom)
    for label, term in value.items():  # x_r's cell, or the null's own variable
        parts[find(term.arg.name if isinstance(term, App) else term.name)][2][label] = term
    return list(parts.values()), slots


def _join_homs(s: FqlSchema, j: Instance, variables: Sequence[tuple[str, Sequence[Cell]]],
               atoms: Iterable[tuple[Term, Term]], budget: NodeBudget,
               ) -> Iterator[tuple[dict[str, list[Cell]], int]]:
    return join(s, j, variables, atoms, budget, lambda k, size: (
        f"homomorphism search exceeds {budget.limit} search nodes"))


def _hom_query(s: FqlSchema, i: Instance, j: Instance,
               ) -> tuple[list[tuple[str, Sequence[Cell]]], list[tuple[Term, Term]],
                          dict[tuple[str, str], Var], dict[str, Term]]:
    """i's canonical conjunctive query over j (Chandra and Merlin), for
    `join`: its variables, each over its candidates, and its atoms; with
    the variable of each row of i, and the term that gives each null's
    value.

    One variable x_r per row r of i, over j's rows of its type: a
    foreign-key cell f(r) = r' is the atom f(x_r) = x_r', a constant cell
    a(r) = c the atom a(x_r) = c, and each later cell of a null an atom
    against its first bare cell.  A null that occurs only under builtins is
    a variable over the unknowns under j's symbolic cells, so `reverse(?k)`
    matches `reverse(?5)`, never "ab"."""
    types = s.slot_order
    slots = {(t, r): Var(str(k)) for k, (t, r) in enumerate((t, r) for t in types for r in i.rows(t))}
    ops = {t: [(op, cod) for op, (dom, cod) in s.tables.items() if dom == t] for t in types}
    # j's rows of a type whose cells in the given columns have the given
    # Python types: True == 1, but a constant meets only cells of its type.
    typed: dict[tuple, Sequence[Cell]] = {(t,): j.rows(t) for t in types}
    variables: list[tuple[str, Sequence[Cell]]] = []
    atoms: list[tuple[Term, Term]] = []
    value: dict[str, Term] = {}  # each null's first bare cell, or its own variable
    later = []  # the other cells that hold a null
    for (t, r), x in slots.items():
        key: tuple = (t,)
        for op, cod in ops[t]:
            cell, at = i.functions[op][r], App(op, x)
            if cod in s.entity_types:
                atoms.append((slots[cod, cell], at))
            elif (null := null_under(cell)) is None:
                atoms.append((at, Lit(cod, cell)))
                if not isinstance(cell, str):
                    key += ((op, type(cell)),)
            elif cell is null and null.label not in value:
                value[null.label] = at
            else:
                later.append((at, cell, null))
        if key not in typed:
            typed[key] = [row for row in j.rows(t)
                          if all(type(j.functions[op][row]) is kind for op, kind in key[1:])]
        variables.append((x.name, typed[key]))
    for at, cell, null in later:
        if null.label not in value:  # it occurs only under builtins
            value[null.label] = Var(str(null))
            variables.append((str(null), _unknown_args(j)))
        atoms.append((at, _under(cell, value[null.label])))
    return variables, atoms, slots, value


def _under(cell: Cell, leaf: Term) -> Term:
    """The builtins above a symbolic cell's null, applied to `leaf`."""
    return App(cell.op, _under(cell.arg, leaf)) if isinstance(cell, OpApplied) else leaf


def _unknown_args(j: Instance) -> list[Cell]:
    """The unknowns that j's symbolic cells apply builtins to, each once."""
    found: dict[Cell, None] = {}
    for cell in itertools.chain.from_iterable(table.values() for table in j.functions.values()):
        while isinstance(cell, OpApplied) and isinstance(cell.arg, (LabelledNull, OpApplied)):
            found[(cell := cell.arg)] = None
    return list(found)
