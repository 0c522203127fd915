"""docs/COMPILER.md must stay truthful about the names it cites.

Follows the tests/storage/test_storage_docs.py pattern: COMPILER.md is
narrative, but every ``compile.*`` metric it mentions must exist, the
``compile`` namespace it owns must be covered completely, every cited
test/benchmark file must exist, and the tutorial example must actually
run.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stdout

from tests.doccheck import (
    assert_cited_files_exist,
    assert_cited_names_live,
    assert_namespace_documented,
    doc_path,
)

from repro.core.database import Database
from repro.workloads import sum_node_schema

DOC = doc_path("COMPILER.md")
METRIC_REF = re.compile(r"`(compile\.[a-z_]+)`")
CODE_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def live_metrics() -> set[str]:
    return set(Database(sum_node_schema()).metrics().flatten())


def test_every_cited_metric_is_live():
    assert_cited_names_live(
        METRIC_REF.findall(DOC.read_text()), live_metrics(), DOC.name
    )


def test_compile_namespace_fully_documented():
    assert_namespace_documented(
        "compile.", METRIC_REF.findall(DOC.read_text()), live_metrics(), DOC.name
    )


def test_cited_test_and_bench_files_exist():
    assert assert_cited_files_exist(DOC), f"{DOC.name} cites no test files"


def test_tutorial_example_runs():
    blocks = CODE_BLOCK.findall(DOC.read_text())
    tutorial = next(b for b in blocks if "compile_schema(" in b and "Database" in b)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(tutorial, str(DOC), "exec"), {})  # noqa: S102
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "2"  # rules_compiled
    assert lines[-2] == "7"  # the computed total
    assert lines[-1] == "1"  # plans_built
