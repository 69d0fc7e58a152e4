#!/usr/bin/env python3
"""Check that every relative link in the repo's documentation resolves.

Scans ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md``, ``CHANGES.md``,
``ROADMAP.md`` and every ``docs/*.md`` page for Markdown links and inline
``[text](target)`` references, and verifies that each relative target exists
on disk (relative to the file containing the link). External schemes (``http``, ``https``,
``mailto``) and pure in-page anchors (``#section``) are skipped; a fragment
on a relative link (``docs/kernel.md#perf``) is checked against the linked
file's headings.

Run from the repository root::

    python tools/check_doc_links.py

Exit status is 0 when every link resolves, 1 otherwise (each broken link is
reported as ``file:line: broken link 'target'``). CI runs this as the docs
link-check gate.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CHANGES.md", "ROADMAP.md")
DOC_DIRS = ("docs",)


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug for a Markdown heading."""
    text = heading.strip().lstrip("#").strip().lower()
    text = re.sub(r"[`*_]", "", text)
    text = re.sub(r"[^\w\s-]", "", text, flags=re.UNICODE)
    return re.sub(r"\s+", "-", text.strip())


def _anchors(path: Path) -> set[str]:
    anchors: set[str] = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            anchors.add(_slugify(line))
    return anchors


def iter_doc_files(root: Path) -> list[Path]:
    """Return the documentation files to scan, in deterministic order."""
    files = [root / name for name in DOC_FILES if (root / name).is_file()]
    for dirname in DOC_DIRS:
        files.extend(sorted((root / dirname).glob("**/*.md")))
    return files


def check_file(path: Path, root: Path) -> list[str]:
    """Return a list of broken-link error strings for one document."""
    errors: list[str] = []
    in_code = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            target_path, _, fragment = target.partition("#")
            resolved = (path.parent / target_path).resolve()
            try:
                resolved.relative_to(root.resolve())
            except ValueError:
                errors.append(
                    f"{path.relative_to(root)}:{lineno}: link escapes repo: {target!r}"
                )
                continue
            if not resolved.exists():
                errors.append(
                    f"{path.relative_to(root)}:{lineno}: broken link {target!r}"
                )
            elif fragment and resolved.suffix == ".md":
                if fragment not in _anchors(resolved):
                    errors.append(
                        f"{path.relative_to(root)}:{lineno}: "
                        f"missing anchor {target!r}"
                    )
    return errors


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    errors: list[str] = []
    checked = 0
    for doc in iter_doc_files(root):
        checked += 1
        errors.extend(check_file(doc, root))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {checked} files: {len(errors)} broken links")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
