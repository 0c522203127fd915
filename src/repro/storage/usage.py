"""Usage statistics for self-adaptive behaviour.

Two kinds of counters drive the paper's adaptivity:

* **Instance access counts** and **relationship crossing counts** ("we keep
  a count of the total number of times each instance in the database is
  accessed, as well as the number of times we cross a relationship between
  instances in the process of attribute evaluation or marking out of date").
  The clustering reorganiser consumes these.
* **Decaying averages of I/O per relationship** ("we tag each relationship
  with a decaying average of the number of instances visited ... when the
  value transmitted across the relationship was requested in the past"),
  which give scheduling priorities.  Worst-case estimates computed at
  cluster time seed the averages and stand in where no observation exists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

DEFAULT_DECAY = 0.5


@dataclass(slots=True)
class DecayingAverage:
    """An exponentially decaying average ``avg <- decay*avg + (1-decay)*x``.

    ``seed`` is the worst-case estimate used before any observation arrives
    (and as the initial value of the average itself, per the paper: "a
    similar worst case statistic is used as an initial estimate for the
    dynamically changing decaying averages").
    """

    seed: float
    decay: float = DEFAULT_DECAY
    observations: int = 0
    value: float = field(init=False)

    def __post_init__(self) -> None:
        self.value = self.seed

    def observe(self, sample: float) -> float:
        self.value = self.decay * self.value + (1.0 - self.decay) * sample
        self.observations += 1
        return self.value


RelKey = tuple[int, str]  # (instance id, port name)


class UsageStats:
    """Access and crossing counters plus per-relationship I/O predictors."""

    def __init__(self, decay: float = DEFAULT_DECAY) -> None:
        self.decay = decay
        self.instance_accesses: Counter[int] = Counter()
        self.relationship_crossings: Counter[tuple[int, str]] = Counter()
        self._averages: dict[RelKey, DecayingAverage] = {}
        #: worst-case block-visit estimates per relationship, refreshed at
        #: cluster time; used for marking (which cannot observe a return
        #: trip) and to seed new averages.
        self.worst_case: dict[RelKey, float] = {}
        self.default_worst_case = 1.0

    # -- counters -------------------------------------------------------------

    def note_instance_access(self, iid: int) -> None:
        self.instance_accesses[iid] += 1

    def note_crossing(self, iid: int, port: str) -> None:
        self.relationship_crossings[(iid, port)] += 1

    def crossing_count(self, iid: int, port: str) -> int:
        return self.relationship_crossings[(iid, port)]

    def access_count(self, iid: int) -> int:
        return self.instance_accesses[iid]

    # -- predictors -------------------------------------------------------------

    def expected_io(self, iid: int, port: str) -> float:
        """Predicted disk I/O of requesting a value across this relationship."""
        avg = self._averages.get((iid, port))
        if avg is not None:
            return avg.value
        return self.worst_case.get((iid, port), self.default_worst_case)

    def worst_case_io(self, iid: int, port: str) -> float:
        """The cluster-time worst-case estimate (used while marking)."""
        return self.worst_case.get((iid, port), self.default_worst_case)

    def observe_io(self, iid: int, port: str, io_count: float) -> None:
        """Record observed I/O for a completed cross-relationship request."""
        key = (iid, port)
        avg = self._averages.get(key)
        if avg is None:
            seed = self.worst_case.get(key, self.default_worst_case)
            avg = DecayingAverage(seed=seed, decay=self.decay)
            self._averages[key] = avg
        avg.observe(io_count)

    def set_worst_case(self, iid: int, port: str, estimate: float) -> None:
        self.worst_case[(iid, port)] = estimate

    def forget_instance(
        self, iid: int, ports: Iterable[str], peer_keys: Iterable[RelKey] = ()
    ) -> None:
        """Drop all statistics mentioning a deleted instance.

        Every key is a ``(instance, port)`` pair, so only the instance's own
        ``ports`` (every port it could have carried) and ``peer_keys`` can
        name it: the cost is that many probes, not a scan of every tracked
        relationship.  ``peer_keys`` names the ``(peer, port)`` ends of the
        deleted instance's former connections; their crossing counts (and
        predictors) pointed *at* the deleted instance, so leaving them alive
        would weight clustering and scheduling decisions with ghost
        relationships.
        """
        self.instance_accesses.pop(iid, None)
        keys = [(iid, port) for port in ports]
        keys.extend(peer_keys)
        for key in keys:
            self.relationship_crossings.pop(key, None)
            self._averages.pop(key, None)
            self.worst_case.pop(key, None)

    def reseed_averages(self) -> None:
        """Drop decaying averages so predictions re-seed from ``worst_case``.

        Called at reorganisation time: observations accumulated against the
        previous layout would otherwise keep mispredicting I/O for whole
        epochs after the blocks they describe are gone.
        """
        self._averages.clear()

    def reset_counters(self) -> None:
        """Zero access/crossing counters (after a reorganisation epoch)."""
        self.instance_accesses.clear()
        self.relationship_crossings.clear()
