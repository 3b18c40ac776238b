"""The benchmark's own tests: a small-size pass of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
PER_KIND = 4
PASSES = 2


@pytest.fixture(scope="module", params=gen.WORKLOADS)
def results(request):
    """An untraced and a traced small run of one workload."""
    workload = request.param
    plain = run.run(workload, 7, PER_KIND, PASSES, trace=False)
    traced = run.run(workload, 7, PER_KIND, PASSES, trace=True)
    spans = run.WORK / "spans" / f"{workload}-7.jsonl"
    return workload, plain, traced, [json.loads(line) for line in spans.open()]


def test_every_named_metric_is_printed_with_its_unit(results):
    _, plain, traced, _ = results
    for printed, declared in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        units = {name: m["unit"] for name, m in printed["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in declared}
        assert all(isinstance(m["value"], (int, float)) for m in printed["metrics"].values())
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_no_command_fails_on_this_engine(results):
    _, plain, traced, _ = results
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0
    assert plain["attempted"] == PASSES * 3 * PER_KIND
    assert traced["attempted"] == 2 * 3 * PER_KIND
    assert plain["metrics"]["correct_ratio"]["value"] == 1.0


def test_every_span_nests_inside_its_command(results):
    _, _, _, spans = results
    assert spans
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] == -1:
            assert span["name"] == "cli.main"
            continue
        parent = spans[span["parent"]]
        assert parent["command"] == span["command"]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    roots = [s for s in spans if s["name"] == "cli.main"]
    assert len(roots) == 3 * PER_KIND
    assert len({s["command"] for s in roots}) == len(roots)


def test_layers_run_where_the_workload_says(results):
    workload, _, traced, _ = results
    m = {name: v["value"] for name, v in traced["metrics"].items()}
    assert m["surface.parse_calls"] == 3 * PER_KIND
    if workload == "migrate":
        assert m["chase.calls"] > 0 and m["chase.fuel_exhausted"] >= 1
        assert m["migration.pi_decide_calls"] > 0
        assert m["query.eval_term_calls"] == m["migration.homs_space"] == 0
    else:
        assert m["equality.decide_equal_calls"] == m["mapping.obligations"] > 0
        assert m["equality.unknown"] >= 1 and m["chase.calls"] == 0
        assert m["migration.homs_space"] > 0 and m["query.witnesses"] > 0


def test_counts_repeat_exactly_between_traced_runs():
    first = run.run("read", 3, 2, 1, trace=True)["metrics"]
    second = run.run("read", 3, 2, 1, trace=True)["metrics"]
    for name, metric in first.items():
        if metric["unit"] != "ms" and not name.startswith("trace."):
            assert metric["value"] == second[name]["value"], name


def _wrong(case: gen.Case) -> gen.Case:
    """The same case with an expectation no correct engine can meet."""
    e = case.expect
    if case.command == "homs":
        e = dataclasses.replace(e, homs=e.homs + 1)
    elif case.command == "migrate" and e.carriers:
        e = dataclasses.replace(e, carriers={t: n + 1 for t, n in e.carriers.items()})
    elif case.command == "query":
        e = dataclasses.replace(e, values=e.values + ("no-such-value",))
    elif case.expect.verdicts:
        e = dataclasses.replace(e, verdicts=("unknown",) * len(e.verdicts))
    else:
        e = dataclasses.replace(e, code=1 - e.code)
    return dataclasses.replace(case, expect=e)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_a_wrong_expectation_is_counted_as_a_failure(workload):
    workdir = run.WORK / f"test-wrong-{workload}"
    cpu = run.QuietCpu()
    loop, _ = run.set_up(run.import_qinl(), cpu, workload, 5, 2, workdir)
    try:
        wrong = random.Random(0).randrange(len(loop.cases))
        loop.cases[wrong] = _wrong(loop.cases[wrong])
        loop.run_pass()
        loop.run_pass()
    finally:
        cpu.release()
        run.shutil.rmtree(workdir, ignore_errors=True)
    assert len(loop.failures) == 2
    assert all(f.startswith(loop.cases[wrong].name) for f in loop.failures)


def test_hom_count_closed_form():
    assert gen.hom_count((4,), (2, 2)) == 4
    assert gen.hom_count((2, 2), (2, 2)) == 16
    assert gen.hom_count((6,), (2, 3, 4)) == 5
    assert gen.hom_count((5,), (2, 3)) == 0
    assert all(800 <= sum(j) ** sum(i) <= 10_000 for i, j in gen.hom_pairs())


def test_inputs_depend_only_on_the_seed():
    for workload in gen.WORKLOADS:
        a = gen.make_cases(workload, 11, 3)
        assert a == gen.make_cases(workload, 11, 3)
        assert a != gen.make_cases(workload, 12, 3)
