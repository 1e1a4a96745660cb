"""Docs-consistency: the README documentation index covers docs/, and
the source paths the documents name exist.

Tier-1 runs this on every push (CI's ``test`` job).  A document that
ships without a row in the README index table is invisible to readers,
and a row pointing at a deleted file is worse — as is a module map
naming a deleted ``repro/...py`` file.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
README = (REPO_ROOT / "README.md").read_text()
DOCS_DIR = REPO_ROOT / "docs"
#: ``repro/a/b.py`` or ``repro/a/{b,c}.py`` (a brace set names several).
SOURCE_PATH = re.compile(r"repro/[A-Za-z0-9_/{},.-]*\.py")


def test_every_doc_is_indexed():
    missing = [path.name for path in sorted(DOCS_DIR.iterdir())
               if path.suffix == ".md"
               and f"docs/{path.name}" not in README]
    assert not missing, (
        f"README docs index omits docs/ file(s): {missing} — add a row "
        "to the Documentation table in README.md")


def test_no_dangling_doc_references():
    referenced = set(re.findall(r"docs/([A-Za-z0-9_.-]+\.md)", README))
    dangling = sorted(name for name in referenced
                     if not (DOCS_DIR / name).exists())
    assert not dangling, (
        f"README references missing docs/ file(s): {dangling}")


def _expand(path):
    """``repro/x/{a,b}.py`` -> ``[repro/x/a.py, repro/x/b.py]``."""
    match = re.search(r"\{([^{}]*)\}", path)
    if match is None:
        return [path]
    return [expanded for part in match.group(1).split(",")
            for expanded in _expand(path[:match.start()] + part
                                    + path[match.end():])]


def test_named_source_paths_exist():
    documents = [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md",
                 *sorted(DOCS_DIR.glob("*.md"))]
    named = {path for document in documents
             for raw in SOURCE_PATH.findall(document.read_text())
             for path in _expand(raw)}
    assert named, "no repro/...py paths found: is the pattern stale?"
    dangling = sorted(path for path in named
                      if not (REPO_ROOT / "src" / path).is_file())
    assert not dangling, (
        f"documents name missing source file(s): {dangling}")
