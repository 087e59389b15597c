"""The documentation gate (``tools/check_docs.py``) passes and catches removals.

The guide gates are one table, ``GUIDES``: per guide, the section headings
and symbols it must contain and the names it must cover that are enumerated
from code.  The tree must pass every gate, and in a copy of ``docs/``
deleting one required heading and one required symbol of a guide must be
reported for each of them, for the first requirement of each kind and for
the last (a name enumerated from code where the guide has one).
"""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_tool()


def test_tree_reports_no_problems():
    assert check_docs.check_docstrings() == []
    assert check_docs.check_links() == []
    assert check_docs.check_guides() == []


def test_every_guide_has_a_requirement():
    for guide in check_docs.GUIDES:
        needles, symbols = check_docs.requirements(guide)
        assert needles or symbols, guide.path


def _without_heading(text: str, needle: str) -> str:
    """*text* with every heading line that names *needle* deleted."""
    return "".join(
        line
        for line in text.splitlines(keepends=True)
        if not (
            check_docs._HEADING_RE.match(line)
            and check_docs.heading_matches(line, needle)
        )
    )


@pytest.mark.parametrize("pick", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize(
    "guide", check_docs.GUIDES, ids=[guide.path for guide in check_docs.GUIDES]
)
def test_removed_heading_and_symbol_are_reported(tmp_path, guide, pick):
    docs = tmp_path / "docs"
    shutil.copytree(check_docs.DOCS_DIR, docs)
    path = docs / guide.path
    text = path.read_text()
    needles, symbols = check_docs.requirements(guide)
    expected = []
    if needles:
        needle = needles[pick]
        text = _without_heading(text, needle)
        expected.append(f"docs/{guide.path}: no section heading names {needle!r}")
    if symbols:
        symbol = symbols[pick]
        text = text.replace(symbol, "")
        expected.append(f"docs/{guide.path}: {symbol} is never mentioned")
    path.write_text(text)
    problems = check_docs.check_guides(docs)
    assert [problem for problem in expected if problem not in problems] == []


def test_missing_guide_is_reported(tmp_path):
    docs = tmp_path / "docs"
    shutil.copytree(check_docs.DOCS_DIR, docs)
    (docs / "codesign.md").unlink()
    assert "docs/codesign.md: file missing" in check_docs.check_guides(docs)
