"""Digests of the CLI's output over a fixed corpus, kept in `golden.json`.

    python tests/digest.py            # compare with tests/golden.json
    python tests/digest.py --update   # rewrite it, naming what changed

The corpus is every input that `perfbench/gen.py` makes at seed 1, for both
workloads, run as its command in `json` and in `table`; the fixture
commands of CI; and seeded one-character edits of the fixtures and of a
hundred of the seed-1 inputs, run through `check`, so that the message and
line:col of every kind of diagnostic are in it.  Each command runs
in-process, with its input written under a fixed relative name, since
outputs name their file.  A command's record is its exit code, stdout,
stderr and `--out` file; each (workload, kind, format, command) group keeps
one sha256 over its records, and one short digest per record, from which
`--update` names the first command of a group that changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SEED = 1
PER_KIND = 100

sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (read-only: makes the inputs and nothing else)

# The fixture commands of CI, with the output file at `out.qinl`.
FIXTURE_COMMANDS = """\
check company.qinl
check migration.qinl
check company_violation.qinl
check company_broken.qinl
check nulls.qinl
check pairs.qinl
query company.qinl palindromeDepts staff
homs migration.qinl twoNodes threeNodes
homs migration.qinl twoNodes threeNodes --list
migrate migration.qinl pi orgId orgData
migrate migration.qinl sigma toPeople orgData
migrate migration.qinl pi toPeople orgData
migrate migration.qinl delta toPeople orgData
migrate nulls.qinl delta lengths someWords
migrate nulls.qinl pi toPalindromes someDrafts
migrate nulls.qinl sigma toPalindromes someDrafts
migrate nulls.qinl delta lengthsBare someWords
migrate nulls.qinl pi toTwins someDrafts
homs nulls.qinl one two --list
homs nulls.qinl two one --list
migrate pairs.qinl sigma wrapped team
migrate pairs.qinl pi wrapped team
"""

# What a one-character edit inserts or puts in place of a character.
EDITS = list(" \n\t\r\"\\?{}()[],;:.*=->_aZ09é") + ["@", "²"]


def _run(argv: list[str]) -> str:
    """One command's record: exit code, stdout, stderr and `--out` file."""
    from qinl.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = ""
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        if path.exists():
            written = path.read_text(encoding="utf-8")
            path.unlink()
    return f"{code}\0{out.getvalue()}\0{err.getvalue()}\0{written}"


def _mutant(rng: random.Random, text: str) -> str:
    """`text` with one character inserted, deleted or replaced."""
    at = rng.randrange(len(text) + 1)
    how = rng.randrange(3)
    if how == 0 or at == len(text):
        return text[:at] + rng.choice(EDITS) + text[at:]
    if how == 1:
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice(EDITS) + text[at + 1:]


def commands() -> list[tuple[str, list[str], str | None]]:
    """Every command of the corpus: its group, its argv, and the text to
    write at its input's path first (None for a fixture)."""
    rng = random.Random(f"digest:{SEED}")
    runs: list[tuple[str, list[str], str | None]] = []
    sampled = []
    for workload in gen.WORKLOADS:
        cases = gen.make_cases(workload, SEED, PER_KIND)
        sampled += [(workload, case) for case in cases[::6]]
        for case in cases:
            path = f"{workload}/{case.name}.qinl"
            for fmt in ("json", "table"):
                argv = [case.command, path, *case.args, "--format", fmt]
                if case.command == "migrate":
                    argv += ["--out", "out.qinl"]
                runs.append((f"{workload}/{case.kind}/{fmt}/{case.command}",
                             argv, case.text))
    for line in FIXTURE_COMMANDS.splitlines():
        command, name, *args = line.split()
        for fmt in ("json", "table"):
            argv = [command, f"fixtures/{name}", *args]
            if "--format" not in args:
                argv += ["--format", fmt]
            if command == "migrate":
                argv += ["--out", "out.qinl"]
            runs.append((f"fixtures/-/{fmt}/{command}", argv, None))
    for path in sorted((ROOT / "fixtures").glob("*.qinl")):
        text = path.read_text(encoding="utf-8")
        for k in range(80):
            runs.append(("mutants/fixtures/table/check",
                         ["check", f"mutants/{path.stem}{k}.qinl"],
                         _mutant(rng, text)))
    for workload, case in sampled:
        for k in range(2):
            fmt = ("json", "table")[k]
            runs.append((f"mutants/{workload}/{fmt}/check",
                         ["check", f"mutants/{case.name}{k}.qinl", "--format", fmt],
                         _mutant(rng, case.text)))
    return runs


def compute() -> dict[str, dict]:
    """The digests of every group, run in a fresh directory."""
    groups: dict[str, list[str]] = {}
    here, fuel = os.getcwd(), os.environ.pop("QINL_FUEL", None)
    work = Path(tempfile.mkdtemp(prefix="qinl-digest-"))
    try:
        shutil.copytree(ROOT / "fixtures", work / "fixtures")
        for sub in (*gen.WORKLOADS, "mutants"):
            (work / sub).mkdir()
        os.chdir(work)
        for group, argv, text in commands():
            if text is not None:
                Path(argv[1]).write_text(text, encoding="utf-8")
            record = " ".join(argv) + "\0" + _run(argv)
            groups.setdefault(group, []).append(record)
    finally:
        os.chdir(here)
        if fuel is not None:
            os.environ["QINL_FUEL"] = fuel
        shutil.rmtree(work, ignore_errors=True)
    return {group: {"sha256": _sha("\1".join(records)),
                    "each": " ".join(_sha(r)[:8] for r in records)}
            for group, records in sorted(groups.items())}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def changes(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """One line per group that differs, naming its first changed command."""
    lines = []
    argvs = {}
    for group, argv, _ in commands():
        argvs.setdefault(group, []).append(" ".join(argv))
    for group in sorted(old.keys() | new.keys()):
        if group not in new or group not in old:
            lines.append(f"{group}: {'gone' if group in old else 'new'}")
        elif old[group]["sha256"] != new[group]["sha256"]:
            was, now = old[group]["each"].split(), new[group]["each"].split()
            first = next((k for k, (a, b) in enumerate(zip(was, now)) if a != b),
                         min(len(was), len(now)))
            what = argvs[group][first] if first < len(argvs[group]) else "the count"
            lines.append(f"{group}: first changed command: qinl {what}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {GOLDEN.name} with the digests computed now")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = compute()
    lines = changes(old, new)
    for line in lines:
        print(line)
    if args.update:
        GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(new)} groups to {GOLDEN}")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
