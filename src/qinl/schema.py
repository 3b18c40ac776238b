"""Database schemas as equational theories with an entity/attribute split,
finite instances with labelled nulls, the one evaluator of terms and
set-calculus expressions (to cells, over a column of rows at once),
satisfaction checking, and the search for homomorphisms of instances."""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Iterator, Mapping
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
        seen = {}
        for op in sorted(self.functions):
            for row in sorted(self.functions[op]):
                null = null_under(self.functions[op][row])
                if null is not None:
                    seen.setdefault(null.label, null)
        return [seen[k] for k in sorted(seen)]


def null_under(v: Cell) -> LabelledNull | None:
    """The labelled null a cell is computed from, bare or under builtins
    (`length(?0)`), or None for any other cell."""
    while isinstance(v, OpApplied):
        v = v.arg
    return v if isinstance(v, LabelledNull) else None


def validate_instance(s: FqlSchema, i: Instance) -> list[str]:
    problems = []
    for t in sorted(s.entity_types):
        if t not in i.carriers:
            problems.append(f"no carrier for entity type '{t}'")
    for t in sorted(i.carriers):
        if t not in s.entity_types:
            problems.append(f"carrier for non-entity type '{t}'")
    for op in s.tables:
        if op not in i.functions:
            problems.append(f"no function table for operation '{op}'")
    for op in sorted(i.functions):
        if op not in s.tables:
            problems.append(f"function table for unknown or builtin operation '{op}'")
    for op, (dom, cod) in s.tables.items():
        if op not in i.functions:
            continue
        table = i.functions[op]
        dom_rows = i.rows(dom)
        for row in dom_rows:
            if row not in table:
                problems.append(f"partial function '{op}': no entry for '{row}'")
        dom_set = set(dom_rows)
        for row in sorted(table):
            if row not in dom_set:
                problems.append(f"table '{op}' has entry for unknown row '{row}'")
        if cod in s.entity_types:
            cod_rows = set(i.rows(cod))
            for row in sorted(table):
                if table[row] not in cod_rows:
                    problems.append(
                        f"table '{op}' sends '{row}' outside the "
                        f"'{cod}' carrier: {render_cell(table[row])}")
        else:
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
    """Why instance text of `s` cannot state `v` as the cell op(row): a
    symbolic cell applies only builtins `s` declares, each at the type it
    gives.  None when it can, and for every cell that is not symbolic."""
    cod, inner = Base(s.tables[op][1]), v
    while isinstance(inner, OpApplied):
        if inner.op not in s.sig.operations or inner.op in s.tables:
            problem = f"'{inner.op}' is not a builtin operation of the schema"
            break
        dom, op_cod = s.sig.op_type(inner.op)
        if op_cod != cod:
            problem = f"'{inner.op}' gives {format_type(op_cod)}, not {cod.name}"
            break
        cod, inner = dom, inner.arg
    else:
        return None
    return f"{op}({row}) = {render_cell(v)}: {problem}"


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
# Homomorphism search

class TooLarge(EngineError):
    pass


class NodeBudget:
    """Search nodes that hom searches share: once `limit` of them are
    visited in all, the search that tries one more raises TooLarge.  A
    limit of None never runs out."""

    def __init__(self, limit: int | None):
        self.limit = limit
        self.left = -1 if limit is None else limit  # -1 never reaches 0


def slot_order(s: FqlSchema) -> list[str]:
    """The entity types with each foreign key's source before its target,
    ties and cycles broken by name.  Assigning a source row forces the rows
    its keys point to, so targets are mostly filled before their turn."""
    sources: dict[str, set[str]] = {t: set() for t in s.entity_types}
    for dom, cod in s.tables.values():
        if cod in s.entity_types and cod != dom:
            sources[cod].add(dom)
    order: list[str] = []
    left = sorted(s.entity_types)
    while left:
        t = next((t for t in left if not sources[t] & set(left)), left[0])
        order.append(t)
        left.remove(t)
    return order


def search_homs(s: FqlSchema, i: Instance, j: Instance, *,
                budget: NodeBudget | None = None,
                ) -> Iterator[tuple[dict[str, dict[str, str]], dict[str, Cell]]]:
    """Yield every homomorphism from i to j as carrier maps plus the binding
    of i's labelled nulls, in lexicographic order of the images of i's rows
    with the types in `slot_order`, rows in i's order and candidates in j's
    order.  The yielded dicts are reused: copy them before the next step.

    A homomorphism commutes with every operation table and fixes builtin
    constants.  A null of i maps to one value of j at all its occurrences.
    Symbolic cells are matched last, by computing once their null is bound
    to a constant, or else structurally.

    The search backtracks over the rows of i.  Assigning a row forces the
    images of its foreign-key images and checks its other cells at once.
    Each row tried for a slot is a search node, spent from `budget`, which
    several searches may share; past it, TooLarge is raised.
    """
    types = slot_order(s)
    slots = [(t, r) for t in types for r in i.rows(t)]
    fks: dict[str, list[tuple[str, str]]] = {t: [] for t in types}
    attrs: dict[str, list[str]] = {t: [] for t in types}
    symbolic = []  # cells of i matched once all rows are assigned
    for op, (dom, cod) in s.tables.items():
        if cod in s.entity_types:
            fks[dom].append((op, cod))
            continue
        attrs[dom].append(op)
        symbolic += [(op, dom, r) for r in i.rows(dom)
                     if isinstance(i.functions[op][r], OpApplied)]
    maps: dict[str, dict[str, str]] = {t: {} for t in types}
    binding: dict[str, Cell] = {}

    def match(vi: Cell, vj: Cell, binding: dict[str, Cell], trail: list) -> bool:
        """Match a cell of i against one of j, binding i's nulls on first
        use (recorded on `trail`) and checking them afterwards."""
        if isinstance(vi, LabelledNull):
            if vi.label in binding:
                return binding[vi.label] == vj
            binding[vi.label] = vj
            trail.append((binding, vi.label))
            return True
        if isinstance(vi, OpApplied):
            ground = _ground(s, vi, binding)
            if ground is not None:
                return ground == vj
            return (isinstance(vj, OpApplied) and vi.op == vj.op
                    and match(vi.arg, vj.arg, binding, trail))
        return type(vi) is type(vj) and vi == vj

    def assign(t: str, r: str, r2: str, trail: list) -> bool:
        work = [(t, r, r2)]
        while work:
            t, r, r2 = work.pop()
            have = maps[t].get(r)
            if have is not None:
                if have != r2:
                    return False
                continue
            maps[t][r] = r2
            trail.append((maps[t], r))
            for op in attrs[t]:
                vi = i.functions[op][r]
                if not isinstance(vi, OpApplied) and not match(
                        vi, j.functions[op][r2], binding, trail):
                    return False
            work += [(cod, i.functions[op][r], j.functions[op][r2])
                     for op, cod in fks[t]]
        return True

    def undo(trail: list) -> None:
        for table, key in reversed(trail):
            del table[key]
        trail.clear()

    def complete() -> dict[str, Cell] | None:
        if not symbolic:
            return binding
        full = dict(binding)
        for op, t, r in symbolic:
            vj = j.functions[op][maps[t][r]]
            if not match(i.functions[op][r], vj, full, []):
                return None
        return full

    # Each frame is an open slot, its remaining candidates, and the trail
    # of the candidate currently assigned to it.
    if not slots:
        yield maps, binding
        return
    if budget is None:
        budget = NodeBudget(None)
    stack = [(0, iter(j.rows(slots[0][0])), [])]
    while stack:
        k, candidates, trail = stack[-1]
        undo(trail)
        t, r = slots[k]
        for r2 in candidates:
            if budget.left == 0:
                raise TooLarge(
                    f"homomorphism search exceeds {budget.limit} search nodes")
            budget.left -= 1
            if assign(t, r, r2, trail):
                break
            undo(trail)
        else:
            stack.pop()
            continue
        k += 1
        while k < len(slots) and slots[k][1] in maps[slots[k][0]]:
            k += 1  # already forced
        if k < len(slots):
            stack.append((k, iter(j.rows(slots[k][0])), []))
        else:
            full = complete()
            if full is not None:
                yield maps, full


def _ground(s: FqlSchema, v: Cell, binding: Mapping[str, Cell]) -> Cell | None:
    """The value of a cell once its nulls are replaced by their bindings, or
    None while one of them is unbound or bound to an unknown."""
    if isinstance(v, LabelledNull):
        bound = binding.get(v.label)
        if bound is None or isinstance(bound, (LabelledNull, OpApplied)):
            return None
        return bound
    if isinstance(v, OpApplied):
        arg = _ground(s, v.arg, binding)
        return None if arg is None else s.builtins.apply(v.op, arg)
    return v
