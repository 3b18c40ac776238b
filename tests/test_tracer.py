"""The benchmark's per-layer tracer still finds the engine methods it wraps
by name (`perfbench/layers.py`, imported read-only, as `digest.py` imports
`gen.py`): a renamed or bypassed one reads 0."""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from qinl.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from layers import Tracer  # noqa: E402


def test_the_tracer_times_matching_rebuilds_enumeration_and_extraction(tmp_path):
    """`check` proves a mapping's equations and `migrate sigma` runs the
    chase; between them they match, rebuild, enumerate and extract."""
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [tracer.run_command(main, argv) for argv in (
                ["check", str(ROOT / "fixtures" / "pairs.qinl")],
                ["migrate", str(ROOT / "fixtures" / "migration.qinl"), "sigma", "toPeople",
                 "orgData", "--out", str(tmp_path / "out.qinl")])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    metrics = tracer.metrics()
    for name in ("equality.match_ms", "equality.rebuild_calls", "equality.enumerate_ms",
                 "equality.extract_ms"):
        assert metrics[name]["value"] > 0, name
