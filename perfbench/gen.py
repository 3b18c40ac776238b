"""Seeded input generation and engine-independent expectations.

Each workload is a list of `Case`s: one `.qinl` file, the CLI arguments that
run it, and an `Expect` computed here from the generator's own tables, never
by calling the engine.  Sizes come from continuous ranges, stratified so that
every seed covers each range evenly: the per-kind medians then stay put from
seed to seed while the exact inputs change.

Every workload has three command kinds, reported as `kind1`, `kind2` and
`kind3` (see DESIGN.md for what each one is on each workload).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

KINDS = ("kind1", "kind2", "kind3")
WORKLOADS = ("migrate", "read")


@dataclass(frozen=True)
class Expect:
    """What a correct run of one case prints.

    `code` is the exit code; None means "0 if every obligation was proved
    and no equation is violated, else 1" (obligations past the prover's
    reach may go either way).
    """

    code: int | None = 0
    verdicts: tuple[str, ...] = ()  # check: "proved" | "unknown" | "either"
    carriers: dict[str, int] = field(default_factory=dict)  # migrate
    stderr_has: str = ""  # migrate: the failure message for a chase past fuel
    values: tuple[str, ...] = ()  # query: rendered values, canonical order
    witnesses: tuple[dict, ...] = ()  # query: {"bindings", "value"} in scan order
    violation: str = ""  # check: the row named as the violation witness
    homs: int = -1  # homs: the closed-form count


@dataclass(frozen=True)
class Case:
    kind: str  # kind1 | kind2 | kind3
    label: str  # what the command is, e.g. "sigma-identity"
    name: str  # file stem, unique within a workload
    text: str  # the .qinl source
    command: str  # check | query | migrate | homs
    args: tuple[str, ...]  # arguments after the file path
    expect: Expect


def spread(rng: random.Random, lo: float, hi: float, count: int) -> list[int]:
    """`count` integers covering [lo, hi): one uniform draw per equal-width
    stratum, in seeded order."""
    width = (hi - lo) / max(1, count)
    values = [int(lo + (i + rng.random()) * width) for i in range(count)]
    rng.shuffle(values)
    return values


def _marked(rng: random.Random, count: int, share: float) -> set[int]:
    """A seeded set of round(count * share) positions out of range(count),
    at least one."""
    return set(rng.sample(range(count), min(count, max(1, round(count * share)))))


def _carrier(name: str, rows: list[str]) -> str:
    return f"  {name} = {{ {', '.join(rows)} }};\n"


def _table(name: str, pairs: list[tuple[str, str]]) -> str:
    return f"  {name} = {{ {', '.join(f'{a} -> {b}' for a, b in pairs)} }};\n"


# --------------------------------------------------------------------------
# Schemas and mappings shared by the generated files

_COMPANY_BODY = """  entities Emp, Dept;
  attributes String, Int;
  operations
    length : String -> Int,
    reverse : String -> String,
    worksIn : Emp -> Dept,
    manager : Emp -> Emp,
    ename : Emp -> String;
  equations
    forall x: String . length(x) = length(reverse(x));
    forall x: String . x = reverse(reverse(x));
    forall x: Emp . worksIn(x) = worksIn(manager(x));
"""
COMPANY = "schema company = {\n" + _COMPANY_BODY + "}\n"

COMPANY_IDENTITY = """mapping ident : company -> company = {
  Emp -> Emp;
  Dept -> Dept;
  worksIn -> (x => worksIn(x));
  manager -> (x => manager(x));
  ename -> (x => ename(x));
}
"""

# Equations that fail in the free company model, so a mapping that must
# preserve them can never be proved correct.
FALSE_EQUATIONS = (
    "forall x: Emp . manager(x) = x;",
    "forall x: Emp . manager(manager(x)) = manager(x);",
    "forall x: Emp . ename(manager(x)) = ename(x);",
)

MGMT = """schema mgmt = {
  entities Emp, Dept;
  attributes String;
  operations
    worksIn : Emp -> Dept,
    manager : Emp -> Emp,
    dname : Dept -> String;
  equations
    forall x: Emp . manager(manager(x)) = manager(x);
    forall x: Emp . worksIn(manager(x)) = worksIn(x);
}
mapping ident : mgmt -> mgmt = {
  Emp -> Emp;
  Dept -> Dept;
  worksIn -> (x => worksIn(x));
  manager -> (x => manager(x));
  dname -> (x => dname(x));
}
"""

ORG_PEOPLE = """schema org = {
  entities Emp, Dept;
  attributes String;
  operations
    worksIn : Emp -> Dept,
    dname : Dept -> String;
}
schema people = {
  entities Person, Unit;
  attributes String;
  operations
    unitOf : Person -> Unit,
    uname : Unit -> String;
}
mapping rename : org -> people = {
  Emp -> Person;
  Dept -> Unit;
  worksIn -> (x => unitOf(x));
  dname -> (x => uname(x));
}
"""

CHAIN = """schema points = {
  entities P;
}
schema chain = {
  entities E;
  operations
    next : E -> E;
}
mapping spread : points -> chain = {
  P -> E;
}
"""
CHAIN_FUEL = 24

GRAPH = """schema graph = {
  entities V;
  operations
    next : V -> V;
}
"""


# --------------------------------------------------------------------------
# Company-style tables

@dataclass(frozen=True)
class Company:
    """n employees in about n/8 departments.  Every employee's manager is
    the head of their department or themselves (heads manage themselves),
    so worksIn(x) = worksIn(manager(x)) and manager is idempotent."""

    emps: list[str]
    depts: list[str]
    works_in: dict[str, str]
    manager: dict[str, str]
    ename: dict[str, str]
    heads: dict[str, str]  # department -> its head


def company(rng: random.Random, n: int) -> Company:
    emps = [f"e{i}" for i in range(n)]
    depts = [f"d{i}" for i in range(max(1, n // 8))]
    works_in = {e: rng.choice(depts) for e in emps}
    heads: dict[str, str] = {}
    for e in emps:
        heads.setdefault(works_in[e], e)
    manager = {e: e if rng.random() < 0.3 else heads[works_in[e]] for e in emps}
    for e in heads.values():
        manager[e] = e
    ename = {e: "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
             for e in emps}
    return Company(emps, depts, works_in, manager, ename, heads)


def company_instance(c: Company, schema: str = "company",
                     attribute: str = "ename") -> str:
    text = f"instance inst : {schema} = {{\n"
    text += _carrier("Emp", c.emps) + _carrier("Dept", c.depts)
    text += _table("worksIn", [(e, c.works_in[e]) for e in c.emps])
    text += _table("manager", [(e, c.manager[e]) for e in c.emps])
    if attribute == "ename":
        text += _table("ename", [(e, f'"{c.ename[e]}"') for e in c.emps])
    else:
        text += _table("dname", [(d, f'"{d}name"') for d in c.depts])
    return text + "}\n"


def _flat(rng: random.Random, n: int, schema: str, rows: tuple[str, str],
          ops: tuple[str, str]) -> tuple[str, dict[str, int]]:
    """An instance of org or people: n rows, n/8 groups, one FK and one
    attribute on the groups."""
    kinds = ("Emp", "Dept") if schema == "org" else ("Person", "Unit")
    members = [f"{rows[0]}{i}" for i in range(n)]
    groups = [f"{rows[1]}{i}" for i in range(max(1, n // 8))]
    text = f"instance inst : {schema} = {{\n"
    text += _carrier(kinds[0], members) + _carrier(kinds[1], groups)
    text += _table(ops[0], [(m, rng.choice(groups)) for m in members])
    text += _table(ops[1], [(g, f'"{g}name"') for g in groups])
    return text + "}\n", {kinds[0]: len(members), kinds[1]: len(groups)}


# --------------------------------------------------------------------------
# migrate: sigma, pi and delta along identities and bijective renamings

def _migrate(index: int, kind: str, label: str, text: str, direction: str,
             mapping: str, expect: Expect, fuel: int | None = None) -> Case:
    args = (direction, mapping, "inst")
    if fuel is not None:
        args += ("--fuel", str(fuel))
    return Case(kind, label, f"m{index:03d}", text, "migrate", args, expect)


def migrate_cases(rng: random.Random, per_kind: int) -> list[Case]:
    """kind1 delta along the renaming (parse-bound read path), kind2 sigma
    (70% identity of company with equations, 24% renaming, 6% an
    unconstrained chain that must run out of fuel), kind3 pi (76% identity
    of mgmt, 24% renaming).  Identities and bijective renamings of a model
    keep every carrier's size."""
    cases: list[Case] = []

    for n in spread(rng, 120, 480, per_kind):
        text, sizes = _flat(rng, n, "people", ("p", "u"), ("unitOf", "uname"))
        carriers = {"Emp": sizes["Person"], "Dept": sizes["Unit"]}
        cases.append(_migrate(len(cases), "kind1", "delta-rename",
                              ORG_PEOPLE + text, "delta", "rename",
                              Expect(carriers=carriers)))

    chains = max(1, round(per_kind * 0.06))
    renames = round(per_kind * 0.24)
    identities = per_kind - chains - renames
    for n in spread(rng, 60, 220, identities):
        c = company(rng, n)
        cases.append(_migrate(
            len(cases), "kind2", "sigma-identity",
            COMPANY + COMPANY_IDENTITY + company_instance(c), "sigma", "ident",
            Expect(carriers={"Dept": len(c.depts), "Emp": len(c.emps)})))
    for n in spread(rng, 60, 220, renames):
        text, sizes = _flat(rng, n, "org", ("e", "d"), ("worksIn", "dname"))
        carriers = {"Person": sizes["Emp"], "Unit": sizes["Dept"]}
        cases.append(_migrate(len(cases), "kind2", "sigma-rename",
                              ORG_PEOPLE + text, "sigma", "rename",
                              Expect(carriers=carriers)))
    for m in spread(rng, 2, 9, chains):
        points = [f"q{i}" for i in range(m)]
        text = CHAIN + "instance inst : points = {\n" + _carrier("P", points) + "}\n"
        cases.append(_migrate(
            len(cases), "kind2", "sigma-chain", text, "sigma", "spread",
            Expect(code=1, stderr_has="chase did not saturate"),
            fuel=CHAIN_FUEL))

    renames = round(per_kind * 0.24)
    for n in spread(rng, 25, 60, per_kind - renames):
        c = company(rng, n)
        cases.append(_migrate(
            len(cases), "kind3", "pi-identity",
            MGMT + company_instance(c, "mgmt", "dname"), "pi", "ident",
            Expect(carriers={"Dept": len(c.depts), "Emp": len(c.emps)})))
    for n in spread(rng, 40, 160, renames):
        text, sizes = _flat(rng, n, "org", ("e", "d"), ("worksIn", "dname"))
        carriers = {"Person": sizes["Emp"], "Unit": sizes["Dept"]}
        cases.append(_migrate(len(cases), "kind3", "pi-rename",
                              ORG_PEOPLE + text, "pi", "rename",
                              Expect(carriers=carriers)))
    return cases


# --------------------------------------------------------------------------
# read: mapping proofs with instance checks, queries and hom counts

QUERIES = {
    1: "for e: Emp where manager(e) = e and reverse(ename(e)) = ename(e) "
       "return worksIn(e)",
    2: "for e: Emp, f: Emp where manager(e) = f and ename(e) = ename(f) "
       "return worksIn(f)",
    3: "for e: Emp, f: Emp, g: Emp where manager(e) = f and manager(f) = g "
       "and worksIn(g) = worksIn(e) return ename(g)",
}


def query_expect(c: Company, bindings: int) -> Expect:
    """Evaluate QUERIES[bindings] over the tables in plain Python.  Witnesses
    come in scan order: bindings vary lexicographically over sorted rows,
    and each where clause pins the later variables."""
    witnesses = []
    for e in sorted(c.emps):
        f = c.manager[e]
        if bindings == 1:
            if f == e and c.ename[e][::-1] == c.ename[e]:
                witnesses.append(({"e": e}, c.works_in[e]))
        elif bindings == 2:
            if c.ename[e] == c.ename[f]:
                witnesses.append(({"e": e, "f": f}, c.works_in[f]))
        else:
            g = c.manager[f]
            if c.works_in[g] == c.works_in[e]:
                witnesses.append(({"e": e, "f": f, "g": g}, c.ename[g]))
    values = tuple(sorted({value for _, value in witnesses}))
    return Expect(values=values, witnesses=tuple(
        {"bindings": b, "value": v} for b, v in witnesses))


def cycle_instance(name: str, lengths: tuple[int, ...], prefix: str) -> str:
    rows: list[str] = []
    edges: list[tuple[str, str]] = []
    for c, length in enumerate(lengths):
        ring = [f"{prefix}{c}x{j}" for j in range(length)]
        rows += ring
        edges += [(ring[j], ring[(j + 1) % length]) for j in range(length)]
    return f"instance {name} : graph = {{\n" + _carrier("V", rows) + \
        _table("next", edges) + "}\n"


def hom_count(source: tuple[int, ...], target: tuple[int, ...]) -> int:
    """C_a -> C_b has b homomorphisms when b divides a and none otherwise;
    a disjoint union of sources multiplies, a union of targets adds."""
    count = 1
    for a in source:
        count *= sum(b for b in target if a % b == 0)
    return count


def _cycle_shapes(total: int, longest: int = 6) -> list[tuple[int, ...]]:
    """Multisets of cycle lengths (non-increasing) that sum to `total`."""
    if total == 0:
        return [()]
    return [(first, *rest) for first in range(min(total, longest), 0, -1)
            for rest in _cycle_shapes(total - first, first)]


HOM_SPACE = (800, 10_000)


def hom_pairs() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (source, target) pair of cycle unions whose brute-force
    function space |J|^|I| lies in HOM_SPACE, sorted by that space."""
    pairs = []
    for i_rows in range(3, 7):
        for j_rows in range(2, 13):
            if not HOM_SPACE[0] <= j_rows ** i_rows <= HOM_SPACE[1]:
                continue
            for source in _cycle_shapes(i_rows):
                for target in _cycle_shapes(j_rows):
                    pairs.append((source, target))
    pairs.sort(key=lambda p: (sum(p[1]) ** sum(p[0]), p))
    return pairs


def _violate(rng: random.Random, c: Company) -> str:
    """Move one non-head employee under another department's head; nobody
    reports to a non-head, so they are the only violation witness."""
    worker = rng.choice(sorted(set(c.emps) - set(c.heads.values())))
    other = rng.choice(sorted(d for d in c.heads if d != c.works_in[worker]))
    c.manager[worker] = c.heads[other]
    return worker


def _check_case(index: int, k: int, within_reach: bool, false_eq: str | None,
                c: Company, violation: str) -> Case:
    """A company file with one instance and one mapping that sends manager
    to manager^k.  The String equations map to themselves, and
    worksIn(x) = worksIn(manager(x)) becomes worksIn(x) = worksIn(manager^k(x)),
    true by k rewrites."""
    text = COMPANY
    source = "company"
    if false_eq is not None:
        text += "schema claims = {\n" + _COMPANY_BODY + "    " + false_eq + "\n}\n"
        source = "claims"
    body = "x"
    for _ in range(k):
        body = f"manager({body})"
    text += (f"mapping deep : {source} -> company = {{\n"
             "  Emp -> Emp;\n  Dept -> Dept;\n"
             "  worksIn -> (x => worksIn(x));\n"
             f"  manager -> (x => {body});\n"
             "  ename -> (x => ename(x));\n}\n")
    text += company_instance(c)
    verdicts = ("proved", "proved", "proved" if within_reach else "either")
    if false_eq is not None:
        verdicts += ("unknown",)
    failing = false_eq is not None or bool(violation)
    code = int(failing) if within_reach else None
    label = "check-past-reach" if not within_reach else (
        "check-failing" if failing else "check")
    return Case("kind1", label, f"r{index:03d}", text, "check", (),
                Expect(code=code, verdicts=verdicts, violation=violation))


def read_cases(rng: random.Random, per_kind: int) -> list[Case]:
    """kind1 `check` of files holding a mapping proof and an instance, kind2
    `query` with one, two or three bindings, kind3 `homs` between unions of
    directed cycles.

    The proofs need k/2 rounds of the seed prover, so depths k in [6, 26)
    are within the default fuel of 32; one file in a hundred has k in
    [66, 70), past reach.  One file in ten claims a false equation, which
    must come back unknown, and one in eight has an injected violation."""
    cases: list[Case] = []

    past = max(1, per_kind // 100)
    depths = [(k, True) for k in spread(rng, 6, 26, per_kind - past)]
    depths += [(k, False) for k in spread(rng, 66, 70, past)]
    false_at = _marked(rng, per_kind, 0.1)
    violated = _marked(rng, per_kind, 1 / 8)
    for pos, n in enumerate(spread(rng, 30, 120, per_kind)):
        c = company(rng, n)
        k, reach = depths[pos]
        false_eq = rng.choice(FALSE_EQUATIONS) if pos in false_at else None
        violation = _violate(rng, c) if pos in violated else ""
        cases.append(_check_case(len(cases), k, reach, false_eq, c, violation))

    sizes = {1: (100, 400), 2: (20, 50), 3: (6, 13)}
    shares = {1: per_kind - 2 * (per_kind // 3), 2: per_kind // 3, 3: per_kind // 3}
    for bindings in (1, 2, 3):
        for n in spread(rng, *sizes[bindings], shares[bindings]):
            c = company(rng, n)
            text = COMPANY + company_instance(c) + \
                f"query q : company = {QUERIES[bindings]}\n"
            cases.append(Case("kind2", f"query-{bindings}", f"r{len(cases):03d}",
                              text, "query", ("q", "inst"),
                              query_expect(c, bindings)))

    pairs = hom_pairs()
    # `homs` prints every homomorphism it finds, so the pair with the most
    # of them sets the run's peak memory; it always runs, so that peak is
    # the same for every seed.
    most = max(range(len(pairs)), key=lambda k: hom_count(*pairs[k]))
    for stratum in range(per_kind):
        lo = stratum * len(pairs) // per_kind
        hi = max(lo + 1, (stratum + 1) * len(pairs) // per_kind)
        pick = most if lo <= most < hi else rng.randrange(lo, hi)
        source, target = pairs[pick]
        text = GRAPH + cycle_instance("src", source, "a") + \
            cycle_instance("dst", target, "b")
        cases.append(Case("kind3", "homs-cycles", f"r{len(cases):03d}", text,
                          "homs", ("src", "dst"),
                          Expect(homs=hom_count(source, target))))
    return cases


GENERATORS = {"migrate": migrate_cases, "read": read_cases}


def make_cases(workload: str, seed: int, per_kind: int) -> list[Case]:
    """All cases of a workload for a seed, in a seeded run order."""
    rng = random.Random(f"{workload}:{seed}")
    cases = GENERATORS[workload](rng, per_kind)
    rng.shuffle(cases)
    return cases
