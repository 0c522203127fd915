"""Regression: no transmit-name re-parsing inside a wave (ISSUE 6 satellite).

The slot plan carries pre-split port/value names and precomputed
kind tags, so once a database is warm, neither
:func:`repro.core.slots.split_transmit_name` nor ``str.partition`` may run
during the mark or evaluation phase of a wave.  Enforced with a profile
hook that watches both the Python frames and the C-level ``partition``
calls while a full update -> mark -> demand -> evaluate cycle runs.
"""

from __future__ import annotations

import sys

from repro.core import slots
from repro.core.database import Database
from repro.dsl import compile_schema

SRC = """
relationship dep is total : integer from plug; end;
object class node is
  relationships
    inputs  : dep multi socket;
    outputs : dep multi plug;
  attributes
    weight : integer;
    total  : integer;
  rules
    total = begin
        acc : integer;
        acc := weight;
        for each src related to inputs do
            acc := acc + src.total;
        end for;
        return acc;
    end;
    outputs total = total;
end;
"""

_WATCHED_CODE = (
    slots.split_transmit_name.__code__,
    slots.is_transmit_name.__code__,
)


class _ParseWatcher:
    """Profile hook recording transmit-name parsing work."""

    def __init__(self) -> None:
        self.hits: list[str] = []

    def __call__(self, frame, event, arg):
        if event == "call" and frame.f_code in _WATCHED_CODE:
            self.hits.append(frame.f_code.co_name)
        elif event == "c_call" and getattr(arg, "__name__", "") == "partition":
            self.hits.append("str.partition")


def test_no_transmit_name_parsing_inside_a_wave():
    db = Database(compile_schema(SRC))
    nodes = [db.create("node", weight=n + 1) for n in range(8)]
    for up, dn in zip(nodes, nodes[1:]):
        db.connect(dn, "inputs", up, "outputs")
    # Warm up: plans built, every slot evaluated once.
    assert db.get_attr(nodes[-1], "total") == sum(range(1, 9))

    watcher = _ParseWatcher()
    sys.setprofile(watcher)
    try:
        # One full cycle: intrinsic update -> marking wave crossing seven
        # connections -> demand -> evaluation wave back up the chain.
        db.set_attr(nodes[0], "weight", 5)
        total = db.get_attr(nodes[-1], "total")
    finally:
        sys.setprofile(None)

    assert total == 4 + sum(range(1, 9))
    assert watcher.hits == [], (
        f"transmit-name parsing ran inside the wave: {watcher.hits}"
    )


def test_parsing_still_allowed_at_build_time():
    """The watcher itself works: plan *construction* does parse names."""
    db = Database(compile_schema(SRC))
    watcher = _ParseWatcher()
    sys.setprofile(watcher)
    try:
        db.create("node", weight=1)  # a shape's first instance builds its plan
    finally:
        sys.setprofile(None)
    assert "split_transmit_name" in watcher.hits
