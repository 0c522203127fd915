"""Shared assertions of the doc-contract tests.

Reference docs (OBSERVABILITY, SERVER, DISTRIBUTED, DIAGNOSTICS, QUERY)
list a registry exhaustively: :func:`assert_documents_exactly`.  Narrative
docs (STORAGE, COMPILER) cite names in prose: every cited name must be
live and the namespace the doc owns must be covered.  Every prose document
(:func:`prose_docs`) that cites a test, harness or example file, or a
``make`` target, must cite one that exists.
"""

from __future__ import annotations

import pathlib
import re
from typing import Iterable

ROOT = pathlib.Path(__file__).parent.parent
_CITED_FILE = re.compile(r"`((?:tests|bench|examples)/[\w/]+\.\w+)`")
_CITED_MAKE_TARGET = re.compile(r"`make\s+([\w-]+)")
_MAKE_TARGET = re.compile(r"^([\w-]+):", re.MULTILINE)


def doc_path(name: str) -> pathlib.Path:
    return ROOT / "docs" / name


def doc_text(name: str) -> str:
    return doc_path(name).read_text()


def prose_docs() -> list[pathlib.Path]:
    """Every document whose file and ``make`` citations are checked."""
    top = ("README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")
    return [ROOT / name for name in top] + sorted((ROOT / "docs").glob("*.md"))


def assert_listed_once(documented: Iterable[str], doc: str) -> None:
    documented = list(documented)
    repeated = sorted({n for n in documented if documented.count(n) > 1})
    assert not repeated, f"docs/{doc} lists {repeated} more than once"


def assert_documents_exactly(
    documented: Iterable[str], live: Iterable[str], doc: str, registry: str
) -> None:
    """The documented names equal the live registry, none listed twice."""
    documented = list(documented)
    assert_listed_once(documented, doc)
    names, live = set(documented), set(live)
    assert names == live, (
        f"docs/{doc} and {registry} disagree: "
        f"undocumented={sorted(live - names)} stale={sorted(names - live)}"
    )


def assert_cited_names_live(cited: Iterable[str], live: set[str], doc: str) -> None:
    """Every name cited in prose resolves, exactly or as a timer-family
    prefix (``latency.reorg_step`` stands for its ``.count``/``.mean``/...)."""
    cited = set(cited)
    assert cited, f"docs/{doc} cites no names"
    for name in cited:
        resolves = name in live or any(m.startswith(name + ".") for m in live)
        assert resolves, f"docs/{doc} cites unknown name {name!r}"


def assert_namespace_documented(
    prefix: str, cited: Iterable[str], live: Iterable[str], doc: str
) -> None:
    owned = {m for m in live if m.startswith(prefix)}
    missing = owned - set(cited)
    assert not missing, f"{prefix}* missing from docs/{doc}: {sorted(missing)}"


def assert_cited_files_exist(doc: pathlib.Path) -> list[str]:
    """Every cited test / harness / example file exists; returns them."""
    cited = _CITED_FILE.findall(doc.read_text())
    for rel in cited:
        assert (ROOT / rel).exists(), f"{doc.name} cites missing file {rel}"
    return cited


def assert_cited_make_targets_exist(doc: pathlib.Path) -> None:
    targets = set(_MAKE_TARGET.findall((ROOT / "Makefile").read_text()))
    for target in _CITED_MAKE_TARGET.findall(doc.read_text()):
        assert target in targets, f"{doc.name} cites missing target `make {target}`"
