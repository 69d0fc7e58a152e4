"""The committed documentation must pass the CI link checker."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
CHECKER = REPO_ROOT / "tools" / "check_doc_links.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_doc_links", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checker():
    return _load_checker()


class TestCommittedDocs:
    def test_all_relative_links_resolve(self, checker, capsys):
        assert checker.main([str(REPO_ROOT)]) == 0, capsys.readouterr().err

    def test_scan_covers_the_docs_tree(self, checker):
        scanned = {p.relative_to(REPO_ROOT).as_posix() for p in checker.iter_doc_files(REPO_ROOT)}
        assert "README.md" in scanned
        assert "DESIGN.md" in scanned
        assert "EXPERIMENTS.md" in scanned
        expected_pages = {
            "docs/architecture.md",
            "docs/kernel.md",
            "docs/campaign.md",
            "docs/traceio.md",
            "docs/explore-fuzz.md",
            "docs/live.md",
        }
        assert expected_pages <= scanned


    def test_no_retired_spellings(self):
        """README and docs/ name only entry points and options that exist."""
        retired = {
            "alias entry point": r"python -m repro\.(campaign|traceio|explore|live)\b(?!\.)",
            "trace record": r"repro trace record\b",
            "numpy kernel": r"kernel=\"numpy\"",
            "kernel env switch": r"REPRO_ZIGZAG_KERNEL",
            "JSONL result store": r"--store\s+\S*\.jsonl\b",
            "CCP.from_log": r"CCP\.from_log\b",
            "classic analysis tier": r"_classic_",
            "VectorClock": r"\bVectorClock\b",
            "builder tracking switch": r"track_dependency_vectors",
            "classic cross-check fixture": r"assert_view_matches_classic",
            "R-graph class": r"\bRollbackDependencyGraph\b",
            "R-graph module": r"\brollback_graph\b",
            "fuzz grid helper": r"\bfuzz_target_configs\b",
            "sweep program family knob": r"\bprogram_family\b",
        }
        pages = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
        found = [
            f"{page.relative_to(REPO_ROOT)}:{lineno}: {name}"
            for page in pages
            for lineno, line in enumerate(page.read_text(encoding="utf-8").splitlines(), 1)
            for name, pattern in retired.items()
            if re.search(pattern, line)
        ]
        assert not found, "\n".join(found)


class TestCheckerSemantics:
    def _write(self, root: Path, name: str, text: str) -> Path:
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return path

    def test_broken_relative_link_is_reported(self, checker, tmp_path):
        doc = self._write(tmp_path, "README.md", "see [missing](nope.md)\n")
        errors = checker.check_file(doc, tmp_path)
        assert len(errors) == 1
        assert "broken link" in errors[0]
        assert "nope.md" in errors[0]

    def test_resolving_link_and_externals_pass(self, checker, tmp_path):
        self._write(tmp_path, "docs/page.md", "# Page\n\n## A Section\n")
        doc = self._write(
            tmp_path,
            "README.md",
            "[ok](docs/page.md) [anchor](docs/page.md#a-section) "
            "[web](https://example.com) [frag](#local)\n",
        )
        assert checker.check_file(doc, tmp_path) == []

    def test_missing_anchor_is_reported(self, checker, tmp_path):
        self._write(tmp_path, "docs/page.md", "# Page\n")
        doc = self._write(tmp_path, "README.md", "[x](docs/page.md#absent)\n")
        errors = checker.check_file(doc, tmp_path)
        assert len(errors) == 1
        assert "missing anchor" in errors[0]

    def test_links_inside_code_fences_are_ignored(self, checker, tmp_path):
        doc = self._write(
            tmp_path,
            "README.md",
            "```\n[not a link](ghost.md)\n```\n",
        )
        assert checker.check_file(doc, tmp_path) == []

    def test_link_escaping_the_repo_is_reported(self, checker, tmp_path):
        doc = self._write(tmp_path, "README.md", "[up](../outside.md)\n")
        errors = checker.check_file(doc, tmp_path)
        assert len(errors) == 1
        assert "escapes repo" in errors[0]

    def test_main_exit_status_reflects_breakage(self, checker, tmp_path, capsys):
        self._write(tmp_path, "README.md", "[bad](gone.md)\n")
        assert checker.main([str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "gone.md" in captured.err
        assert "1 broken links" in captured.out


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
