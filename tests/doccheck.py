"""Shared assertions of the doc-contract tests.

Reference docs (OBSERVABILITY, SERVER, DISTRIBUTED, DIAGNOSTICS, QUERY)
list a registry exhaustively: :func:`assert_documents_exactly`.  Narrative
docs (STORAGE, COMPILER) cite names in prose: every cited name must be
live, the namespace the doc owns must be covered, and every cited test or
benchmark file must exist.
"""

from __future__ import annotations

import pathlib
import re
from typing import Iterable

ROOT = pathlib.Path(__file__).parent.parent
_CITED_FILE = re.compile(r"`((?:tests|benchmarks)/[\w/]+\.(?:py|json))`")


def doc_path(name: str) -> pathlib.Path:
    return ROOT / "docs" / name


def doc_text(name: str) -> str:
    return doc_path(name).read_text()


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


def assert_cited_files_exist(doc: str) -> None:
    cited = _CITED_FILE.findall(doc_text(doc))
    assert cited, f"docs/{doc} cites no test or benchmark files"
    for rel in cited:
        assert (ROOT / rel).exists(), f"docs/{doc} cites missing file {rel}"
