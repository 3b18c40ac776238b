"""The benchmark's per-layer tracer still finds the engine methods it wraps
by name (`perfbench/layers.py`, imported read-only, as `digest.py` imports
`gen.py`): a renamed or bypassed one reads 0."""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import digest
from qinl import chase, mapping
from qinl.cli import main
from qinl.equality import Proved, decide_equal
from qinl.kernel import App, Context, Lit

from conftest import company_schema

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from layers import _ROUNDS, Tracer  # noqa: E402


def test_the_tracer_times_matching_rebuilds_enumeration_and_extraction(tmp_path):
    """`check` proves a mapping's equations, by rewriting, and fails to
    prove a false claim, which saturates; `migrate sigma` runs the chase.
    Between them they match, rebuild, enumerate and extract."""
    claim = tmp_path / "claim.qinl"
    claim.write_text(
        "schema s = { entities E; operations m : E -> E; equations forall x: E . m(x) = x; }\n"
        "schema t = { entities E; operations m : E -> E; }\n"
        "mapping M : s -> t = { E -> E; m -> (x => m(x)); }\n", encoding="utf-8")
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [tracer.run_command(main, argv) for argv in (
                ["check", str(ROOT / "fixtures" / "pairs.qinl")],
                ["check", str(claim)],
                ["migrate", str(ROOT / "fixtures" / "migration.qinl"), "sigma", "toPeople",
                 "orgData", "--out", str(tmp_path / "out.qinl")])]
    finally:
        tracer.uninstall()
    assert codes == [0, 1, 0]
    metrics = tracer.metrics()
    for name in ("equality.match_ms", "equality.rebuild_calls", "equality.enumerate_ms",
                 "equality.extract_ms"):
        assert metrics[name]["value"] > 0, name


def test_every_proof_headline_gives_its_round_count(monkeypatch, tmp_path):
    """The tracer reads the rounds of each `Proved` from its first trace
    line: every proof made by the fixture commands and by the seed-1 corpus
    of both workloads has one.  Rewriting makes them all; a goal with a
    literal, which saturation proves, has one too."""
    headlines = []

    def recording(*args, **kwargs):
        verdict = decide_equal(*args, **kwargs)
        if isinstance(verdict, Proved):
            headlines.append(verdict.trace[0])
        return verdict

    monkeypatch.setattr(mapping, "decide_equal", recording)
    monkeypatch.setattr(chase, "decide_equal", recording)
    monkeypatch.chdir(tmp_path)
    commands = []
    for line in digest.FIXTURE_COMMANDS.splitlines():
        command, name, *args = line.split()
        commands.append([command, str(ROOT / "fixtures" / name), *args])
    for workload in digest.gen.WORKLOADS:
        for case in digest.gen.make_cases(workload, 1, 100):
            Path(f"{case.name}.qinl").write_text(case.text, encoding="utf-8")
            commands.append([case.command, f"{case.name}.qinl", *case.args])
    for argv in commands:
        if argv[0] == "migrate":
            argv += ["--out", "out.qinl"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    assert len(headlines) >= 600
    assert all(" in 0 round(s) by rewriting both sides to " in line for line in headlines)
    company = company_schema()
    literal = decide_equal(company.theory, Context(),
                           App("length", App("reverse", Lit("String", "abc"))),
                           Lit("Int", 3), 8, company.builtin_ops())
    headlines.append(literal.trace[0])
    assert all(_ROUNDS.search(line) for line in headlines)
