"""The exit-code contract on any input: `parse` returns a unit or raises a
located ParseError, and `qinl check` exits 0, 1 or 2, never with any other
exception."""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qinl.cli import main
from qinl.surface import ParseError, SourceUnit, parse

FIXTURES = [path.read_text() for path in
            sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.qinl"))]

# Pieces of the surface syntax, a few bad characters among them.
PIECES = ["schema", "instance", "mapping", "query", "expr", "migrate", "for",
          "forall", "entities", "operations", "equations", "union", "Set",
          "{", "}", "(", ")", "[", "]", ",", ";", ":", ".", "*", "=", "->",
          "=>", " ", "\n", "\r\n", "\t", "-- c\n", "x", "E", "f", "1", "-2",
          "01", '"s"', '"\\q"', '"', "?0", "?", "@", "²", "é", "٣"]

CHARACTERS = st.characters(blacklist_categories=("Cs",))


@st.composite
def mutated_fixtures(draw) -> str:
    """A fixture with up to three edits: a few characters cut, and a piece
    of syntax or arbitrary text put in their place."""
    text = draw(st.sampled_from(FIXTURES))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        put = draw(st.one_of(st.sampled_from(PIECES), st.text(CHARACTERS, max_size=3)))
        text = text[:at] + put + text[at + cut:]
    return text


TEXTS = st.one_of(
    st.text(CHARACTERS, max_size=60),
    st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
    st.lists(st.sampled_from(PIECES), max_size=12).map(
        lambda pieces: "instance I : S = { E = { " + "".join(pieces) + " }; }"),
    mutated_fixtures())


def _within(text: str, line: int, col: int) -> bool:
    lines = text.split("\n")
    return 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1


@settings(max_examples=600, deadline=None, derandomize=True)
@given(TEXTS)
def test_parse_returns_a_unit_or_a_located_parse_error(text):
    try:
        unit = parse(text)
    except ParseError as exc:
        assert _within(text, exc.line, exc.col), (exc.line, exc.col)
        assert str(exc).startswith(f"{exc.line}:{exc.col}: ")
    else:
        assert isinstance(unit, SourceUnit)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TEXTS)
def test_check_exits_0_1_or_2_on_any_text(text):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input.qinl"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(path)])
        read = path.read_text(encoding="utf-8")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    for line, col in re.findall(rf"^{re.escape(str(path))}:(\d+):(\d+): error: ",
                                err.getvalue(), re.MULTILINE):
        assert _within(read, int(line), int(col)), (line, col)
