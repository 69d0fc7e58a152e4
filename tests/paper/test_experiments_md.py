"""EXPERIMENTS.md shows what tier-1 computes: every table, every cited test.

Each ``<!-- table: NAME -->`` block of the document must be, byte for byte,
the rendering of artifact ``NAME`` in ``experiments.py``; a failing block
prints the block the document should hold.  Every test the document cites by
node id must exist, and every section with a table must cite one.
"""

import ast
import re
from pathlib import Path

import pytest
from experiments import ARTIFACTS, render

DOCUMENT = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
BLOCK = re.compile(r"<!-- table: ([\w-]+) -->\n(.*?)<!-- end table -->\n", re.S)
CITED = re.compile(r"`(tests/[\w/]+\.py)::([\w:]+)`")


@pytest.fixture(scope="module")
def document() -> str:
    return DOCUMENT.read_text(encoding="utf-8")


def test_the_document_has_one_block_per_artifact_in_order(document):
    assert [name for name, _ in BLOCK.findall(document)] == list(ARTIFACTS)


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_the_committed_table_is_the_computed_one(document, name):
    expected = f"<!-- table: {name} -->\n{render(ARTIFACTS[name]())}<!-- end table -->\n"
    if expected not in document:
        pytest.fail(f"EXPERIMENTS.md should hold this block:\n{expected}", pytrace=False)


def _defines(path: Path, names: list) -> bool:
    """Whether ``path`` defines the nested class/function chain ``names``."""
    if not path.is_file():
        return False
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [node for node in body if getattr(node, "name", None) == name]
        if not found:
            return False
        body = getattr(found[0], "body", [])
    return True


def test_every_cited_test_exists_and_every_table_cites_one(document):
    root = DOCUMENT.parent
    cited = CITED.findall(document)
    missing = [
        f"{path}::{chain}" for path, chain in cited if not _defines(root / path, chain.split("::"))
    ]
    assert missing == []
    uncited = [
        section.splitlines()[0]
        for section in document.split("\n## ")
        if BLOCK.search(section) and not CITED.search(section)
    ]
    assert uncited == []
