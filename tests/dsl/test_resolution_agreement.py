"""The compiler and the analyzer agree on what resolves.

Both read :mod:`repro.dsl.resolve`; the compiler's sink raises at the first
problem, the analyzer's records every one.  So for any source,
``analyze_source`` reports a body-level resolution error **iff**
``compile_schema`` raises ``DslCompileError``, and the exception sits on the
first such diagnostic.  The seeds are the body-level cases of
``tests/analysis/fixtures/bad_names.cactis`` split out one per snippet, the
remaining resolution codes, and the loop-variable cases; the property runs
the same check over bodies from the round-trip generator.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_source
from repro.dsl import compile_schema
from repro.dsl.printer import format_body
from repro.errors import DslCompileError
from tests.dsl.test_roundtrip_property import body_strategies

BODY_CODES = {
    "CA101", "CA102", "CA103", "CA104", "CA105", "CA106",
    "CA113", "CA115", "CA305",
}  # fmt: skip

TEMPLATE = """
relationship link is
    weight : time from plug;
end relationship;
relationship hollow is
    up : integer from socket;
end relationship;

object class node is
  relationships
    inputs : link multi socket;
    output : link plug;
    single : link socket;
    mute   : hollow multi socket;
  attributes
    size  : integer;
    total : integer;
  rules
    total = {body};
{constraints}end object;
"""

LOOP = """begin
        acc : integer;
        {decl}
        for each d related to inputs do
            acc := acc + {read};
        end for;
        return acc;
    end"""

SEEDS = [
    # bad_names.cactis, one mistake per snippet
    pytest.param("speling + 1", "", "CA101", id="unknown-name"),
    pytest.param("conjure(size)", "", "CA102", id="unknown-function"),
    pytest.param("nowhere.weight", "", "CA103", id="unknown-port"),
    pytest.param("inputs.weight", "", "CA106", id="multi-used-singly"),
    pytest.param(
        "size", "  constraints\n    big : mystery > 10;\n", "CA101",
        id="unknown-name-in-constraint",
    ),
    # the remaining body-level codes
    pytest.param("single.wait", "", "CA104", id="unknown-received-value"),
    pytest.param(
        "begin for each d related to nowhere do void(d.weight); end for;"
        " return 0; end", "", "CA103", id="for-each-unknown-port",
    ),
    pytest.param(
        "begin for each d related to single do void(d.weight); end for;"
        " return 0; end", "", "CA105", id="for-each-single-port",
    ),
    pytest.param(
        "begin for each d related to mute do void(1); end for; return 0; end",
        "", "CA115", id="no-iteration-count",
    ),
    pytest.param(
        "begin\n        v : bogus;\n        return 0;\n    end",
        "", "CA113", id="unknown-local-variable-type",
    ),
    # loop variables
    pytest.param(
        LOOP.format(decl="", read="d"), "", "CA305", id="bare-loop-variable"
    ),
    pytest.param(
        LOOP.format(decl="d : integer;", read="d"), "", "CA305",
        id="loop-variable-shadows-a-local",
    ),
    # and what must stay clean
    pytest.param(
        LOOP.format(decl="d : integer;", read="d.weight"), "", None,
        id="shadowed-local-read-through-the-loop-variable",
    ),
    pytest.param("size + single.weight", "", None, id="clean-expression"),
]


def check_agreement(source: str, freeze: bool = True):
    """Assert the iff and the position; return the first body-level diagnostic."""
    found = [
        d
        for d in analyze_source(source, functions=("void",))
        if d.code in BODY_CODES
    ]
    # The resolver reports in source order, except that a missing iteration
    # count (CA115) is only known once the whole body has been read.
    first = min(
        found, key=lambda d: (d.code == "CA115", d.line, d.column), default=None
    )
    try:
        compile_schema(source, freeze=freeze)
    except DslCompileError as exc:
        assert first is not None, f"compiler alone rejects: {exc}"
        assert (exc.line, exc.column) == (first.line, first.column)
        assert first.message in str(exc)
    else:
        assert first is None, f"analyzer alone rejects: {first.render()}"
    return first


@pytest.mark.parametrize("body, constraints, code", SEEDS)
def test_compiler_and_analyzer_agree(body, constraints, code):
    first = check_agreement(TEMPLATE.format(body=body, constraints=constraints))
    assert (first.code if first else None) == code


# Mostly names the template declares, so a fair share of bodies resolve.
POOL = st.sampled_from(
    ["size", "total", "inputs", "single", "output", "mute", "weight", "up",
     "acc", "d", "e", "integer", "time", "max", "void", "TIME0", "ghost"]
)  # fmt: skip


@settings(max_examples=150, deadline=None)
@given(body_strategies(POOL)[1])
def test_agreement_on_generated_bodies(body):
    source = TEMPLATE.format(body=format_body(body, 2), constraints="")
    check_agreement(source, freeze=False)
