"""Cycle detection over dependency graphs.

Cactis "does not support data cycles": the demand-driven evaluator raises
:class:`repro.errors.CycleError` when a slot transitively depends on itself.
These helpers detect cycles eagerly (schema/database validation, tests) and
extract a witness path for the error message.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.core.slots import Slot

_WHITE, _GRAY, _BLACK = 0, 1, 2


def find_cycle(
    seeds: Iterable[Slot],
    dependencies: Callable[[Slot], Sequence[Slot]],
) -> list[Slot] | None:
    """Find one dependency cycle reachable from ``seeds``.

    Runs an iterative three-colour depth-first search following
    ``dependencies`` edges.  Returns the cycle as a slot list (first slot
    repeated implicitly) or ``None``.
    """
    colour: dict[Slot, int] = {}
    parent: dict[Slot, Slot] = {}
    for seed in seeds:
        if colour.get(seed, _WHITE) != _WHITE:
            continue
        # Stack holds (slot, iterator-state index into its dependency list).
        stack: list[tuple[Slot, list[Slot], int]] = [
            (seed, list(dependencies(seed)), 0)
        ]
        colour[seed] = _GRAY
        while stack:
            slot, deps, index = stack.pop()
            if index < len(deps):
                stack.append((slot, deps, index + 1))
                nxt = deps[index]
                state = colour.get(nxt, _WHITE)
                if state == _GRAY:
                    return _extract_cycle(parent, slot, nxt)
                if state == _WHITE:
                    colour[nxt] = _GRAY
                    parent[nxt] = slot
                    stack.append((nxt, list(dependencies(nxt)), 0))
            else:
                colour[slot] = _BLACK
    return None


def _extract_cycle(parent: dict[Slot, Slot], tail: Slot, head: Slot) -> list[Slot]:
    """Reconstruct the cycle closed by the back edge ``tail -> head``."""
    path = [tail]
    current = tail
    while current != head:
        current = parent[current]
        path.append(current)
    path.reverse()
    return path


def graph_has_cycle(graph: Any) -> list[Slot] | None:
    """Check a whole dependency graph (anything with ``slots()`` and
    ``dependencies(slot)``); returns a witness cycle or None."""
    return find_cycle(list(graph.slots()), graph.dependencies)
