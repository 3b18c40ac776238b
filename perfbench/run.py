"""The qinl benchmark: closed-loop CLI workloads with engine-independent checks.

    python3 perfbench/run.py --workload migrate|read --seed N \
        --seconds S --trace 0|1

One process, one client, no threads.  Each command is a real
`qinl.cli.main(argv)` call with `--format json` on a generated `.qinl` file,
timed alone; its exit code, stdout and `--out` file are checked against
expectations computed by `gen.py` without the engine, and against the bytes
of its other runs.  A run draws 100 inputs per command kind and makes one
pass over them per 8 s of `--seconds`; an input's time is the fastest of
its runs.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` the second pass is traced and the
metrics are the per-layer ones of `layers.py`.  The design and the
metric-to-workload predictions are in DESIGN.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
from gen import KINDS, WORKLOADS, Case, make_cases  # noqa: E402

PER_KIND = 100  # inputs per command kind, so p90 has ten samples beyond it
PASS_S = 8  # about one pass over 3 x PER_KIND inputs on a quiet CPU
DEADLINE_S = 150.0  # stop issuing commands after this, whatever the passes


def import_qinl():
    """Import the engine from this checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qinl" / "__init__.py").is_file():
        raise SystemExit(f"error: no qinl sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # Commands that pass no `--fuel` use the CLI's default, which QINL_FUEL
    # would override; the expectations assume the built-in default.
    os.environ.pop("QINL_FUEL", None)
    import qinl.cli

    if Path(qinl.cli.__file__).resolve().parent != src / "qinl":
        raise SystemExit(f"error: imported qinl from {qinl.cli.__file__}")
    return qinl.cli.main


# --------------------------------------------------------------------------
# Checking one command's outcome

def check_outcome(case: Case, code: int, stdout: str, stderr: str,
                  out_text: str | None) -> str | None:
    """Why the outcome is wrong, or None when it matches the expectation."""
    e = case.expect
    if case.command == "migrate" and e.code == 1:
        if code != 1 or e.stderr_has not in stderr:
            return f"expected exit 1 with '{e.stderr_has}', got {code}: {stderr!r}"
        return None
    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"stdout is not JSON (exit {code}): {stderr[-200:]!r}"
    if case.command == "check":
        decls = payload["report"]["declarations"]
        got = [p["verdict"] for d in decls if d["kind"] == "mapping"
               for p in d["preservation"]]
        if len(got) != len(e.verdicts) or any(
                want != "either" and want != verdict
                for want, verdict in zip(e.verdicts, got)):
            return f"verdicts {got}, expected {list(e.verdicts)}"
        statuses = {c["status"]: c.get("witness") for d in decls
                    if d["kind"] == "instance" for c in d["equations"]}
        if e.violation:
            if statuses.get("violated") != {"x": e.violation}:
                return f"expected a violation at x={e.violation}, got {statuses}"
        elif "violated" in statuses:
            return f"unexpected violation {statuses['violated']}"
        want_code = e.code
        if want_code is None:
            want_code = int("unknown" in got or bool(e.violation))
    elif case.command == "migrate":
        carriers = payload["result"]["carriers"]
        if carriers != e.carriers:
            return f"carriers {carriers}, expected {e.carriers}"
        if not out_text or not out_text.startswith("instance "):
            return "the --out file holds no instance"
        want_code = e.code
    elif case.command == "query":
        if tuple(payload["values"]) != e.values:
            return f"values {payload['values'][:5]}..., expected {list(e.values)[:5]}..."
        if tuple(payload["witnesses"]) != e.witnesses:
            return (f"{len(payload['witnesses'])} witnesses, expected "
                    f"{len(e.witnesses)} (or they differ)")
        want_code = e.code
    else:
        if payload["count"] != e.homs:
            return f"{payload['count']} homomorphisms, expected {e.homs}"
        want_code = e.code
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    return None


# --------------------------------------------------------------------------
# Running commands

def _probe_s() -> float:
    """Wall time of a fixed bit of dict work, best of two."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(3000):
            table[i % 97] = table.get(i % 97, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


class QuietCpu:
    """Keeps the benchmark on the quieter CPU of a shared host.

    Neighbours slow each CPU by about 1.6x, independently, for a fraction of
    a second to a few seconds at a time.  Before each command and each
    set-up, `settle` moves this process to the CPU where a fixed probe runs
    fastest.  It touches no process but the benchmark's own."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))

    def settle(self) -> None:
        if len(self.cpus) < 2:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = _probe_s()
        os.sched_setaffinity(0, {min(speed, key=speed.get)})

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


@dataclass
class Loop:
    """The state of one benchmark run: inputs, timings and failures."""

    main: object
    cases: list[Case]
    argv: list[list[str]]
    out_paths: list[Path | None]
    cpu: QuietCpu
    tracer: object = None
    times: dict[int, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[int, str] = field(default_factory=dict)
    started: float = field(default_factory=time.perf_counter)

    def run_one(self, index: int) -> float:
        """Run and check one command; returns its wall time."""
        case = self.cases[index]
        gc.collect()
        self.cpu.settle()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if self.tracer is None:
                    code = self.main(self.argv[index])
                else:
                    code = self.tracer.run_command(self.main, self.argv[index])
            except BaseException as exc:  # noqa: BLE001 - counted as a failure
                code = None
                err.write(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - t0
        self.attempted += 1
        self.times.setdefault(index, []).append(elapsed)
        out_path = self.out_paths[index]
        out_text = None
        if out_path is not None and out_path.exists():
            out_text = out_path.read_text(encoding="utf-8")
            out_path.unlink()
        if code is None:
            problem = f"exception escaped main: {err.getvalue()[-300:]}"
        else:
            problem = check_outcome(case, code, out.getvalue(), err.getvalue(), out_text)
        digest = hashlib.sha256(
            f"{code}\0{out.getvalue()}\0{out_text}".encode("utf-8")).hexdigest()
        if problem is None and self.digests.setdefault(index, digest) != digest:
            problem = "output bytes differ from an earlier run of the same input"
        if problem is not None:
            self.failures.append(f"{case.name} ({case.label}): {problem}")
        return elapsed

    def run_pass(self) -> float:
        """Run every input once, in order; returns the commands per second
        of command time.  Stops early past the run's deadline."""
        busy = 0.0
        done = 0
        for index in range(len(self.cases)):
            if time.perf_counter() - self.started > DEADLINE_S:
                break
            busy += self.run_one(index)
            done += 1
        return done / busy if busy else 0.0


def write_inputs(cases: list[Case], workdir: Path) -> tuple[list[list[str]], list[Path | None]]:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    argvs, outs = [], []
    for case in cases:
        path = workdir / f"{case.name}.qinl"
        path.write_text(case.text, encoding="utf-8")
        argv = [case.command, str(path), *case.args, "--format", "json"]
        out = None
        if case.command == "migrate":
            out = workdir / f"{case.name}.out.qinl"
            argv += ["--out", str(out)]
        argvs.append(argv)
        outs.append(out)
    return argvs, outs


def set_up(main, cpu: QuietCpu, workload: str, seed: int, per_kind: int,
           workdir: Path) -> tuple[Loop, float]:
    """Make and write the inputs with their expectations, and warm up on the
    smallest input of each kind.  Returns the loop and the time taken."""
    cpu.settle()
    t0 = time.perf_counter()
    cases = make_cases(workload, seed, per_kind)
    argv, outs = write_inputs(cases, workdir)
    smallest = [min((i for i, c in enumerate(cases) if c.kind == kind),
                    key=lambda i: len(cases[i].text)) for kind in KINDS]
    warm = Loop(main, [cases[i] for i in smallest], [argv[i] for i in smallest],
                [outs[i] for i in smallest], cpu)
    warm.run_pass()
    loop = Loop(main, cases, argv, outs, cpu)
    loop.failures += [f"warm-up {f}" for f in warm.failures]
    return loop, time.perf_counter() - t0


# --------------------------------------------------------------------------
# Metrics

def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def fastest_ms(loop: Loop, kind: str) -> list[float]:
    """Each input's fastest run, in ms.  On a shared host both CPUs are
    sometimes slow at once, for up to a few seconds; runs a pass apart
    rarely all meet such a spell."""
    return [min(loop.times[i]) * 1000 for i, case in enumerate(loop.cases)
            if case.kind == kind and i in loop.times]


def end_to_end(loop: Loop, setup_s: float) -> dict[str, dict]:
    fastest = [min(t) for t in loop.times.values()]
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(fastest) / sum(fastest), "unit": "1/s"},
        "correct_ratio": {"value": 1 - len(loop.failures) / loop.attempted,
                          "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    for kind in KINDS:
        ms = fastest_ms(loop, kind)
        metrics[f"{kind}_p50_ms"] = {"value": statistics.median(ms), "unit": "ms"}
        metrics[f"{kind}_p90_ms"] = {"value": percentile_90(ms), "unit": "ms"}
    return metrics


def describe(loop: Loop) -> list[str]:
    """Human-readable lines: each kind's commands, sample count and timings."""
    lines = []
    for kind in KINDS:
        labels = sorted({c.label for c in loop.cases if c.kind == kind})
        ms = fastest_ms(loop, kind)
        if len(ms) >= 2:
            lines.append(f"{kind} ({', '.join(labels)}): n={len(ms)} inputs "
                         f"p50={statistics.median(ms):.2f} ms "
                         f"p90={percentile_90(ms):.2f} ms")
    return lines


def run(workload: str, seed: int, per_kind: int, passes: int, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    Untraced, the run makes `passes` passes and repeats the set-up after
    each one, so the set-ups fall at different times of the run.  `setup_s` is the
    one-off import plus the median set-up.  Traced, the first pass is
    untraced and the second traced."""
    from layers import Tracer

    workdir = WORK / f"{workload}-{seed}"
    t0 = time.perf_counter()
    main = import_qinl()
    import_s = time.perf_counter() - t0
    cpu = QuietCpu()
    loop, setup = set_up(main, cpu, workload, seed, per_kind, workdir)
    setups = [setup]
    # Keep the inputs and expectations out of every later collection, so the
    # collection before each command costs the same on every workload.
    gc.collect()
    gc.freeze()
    try:
        if not trace:
            for _ in range(passes):
                loop.run_pass()
                again, setup = set_up(main, cpu, workload, seed, per_kind,
                                      workdir / "again")
                setups.append(setup)
                loop.failures += again.failures
            metrics = end_to_end(loop, import_s + statistics.median(setups))
        else:
            untraced_ops = loop.run_pass()
            tracer = Tracer()
            loop.tracer = tracer
            tracer.install()
            try:
                traced_ops = loop.run_pass()
            finally:
                tracer.uninstall()
            metrics = tracer.metrics()
            metrics["trace.ops_per_s"] = {"value": traced_ops, "unit": "1/s"}
            metrics["trace.untraced_ops_per_s"] = {"value": untraced_ops, "unit": "1/s"}
            tracer.write_spans(WORK / "spans" / f"{workload}-{seed}.jsonl")
    finally:
        gc.unfreeze()
        cpu.release()
        shutil.rmtree(workdir, ignore_errors=True)
    for line in describe(loop):
        print(line)
    for failure in loop.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {"correct": not loop.failures, "attempted": loop.attempted,
            "failed": len(loop.failures), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    passes = max(2, round(args.seconds / PASS_S))
    result = run(args.workload, args.seed, PER_KIND, passes, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
