"""The CLI's output over the corpus of `digest.py` keeps its bytes."""

from __future__ import annotations

import json

import digest


def test_outputs_match_the_committed_digests():
    golden = json.loads(digest.GOLDEN.read_text())
    changed = digest.changes(golden, digest.compute())
    assert not changed, "\n".join(
        changed + ["(`python tests/digest.py --update` rewrites tests/golden.json)"])
