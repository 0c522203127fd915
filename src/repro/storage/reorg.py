"""Online incremental reorganisation.

:meth:`Database.reorganize` is a faithful but *stop-the-world* rendering of
the paper's Section 2.3 procedure: every block is torn down at once, the
whole buffer pool is dropped, and nothing else can run until the rewrite
finishes.  This module amortises the same rewrite into the running
workload, the viability condition dynamic OODB clustering surveys insist
on (see PAPERS.md):

* :meth:`ReorgDriver.start_epoch` *plans* the target layout by running
  :func:`~repro.storage.clustering.greedy_cluster` over a snapshot of the
  live usage counters -- the identical plan the offline path would install.
* Each :meth:`ReorgDriver.step` then moves **one target block's worth** of
  instances via :meth:`~repro.storage.manager.StorageManager.migrate_group`:
  dirty source frames are written back through the buffer pool, the
  placement map is updated atomically per step, and emptied source blocks
  are released.  Between steps the database serves queries against a
  *mixed* layout that is always correct -- every instance is placed exactly
  once at every instant.
* Steps are **journalled write-ahead** through the persistence layer (when
  one is attached): ``reorg_begin`` / ``reorg_step`` / ``reorg_end`` WAL
  records let crash recovery re-apply completed steps deterministically and
  abandon an interrupted epoch cleanly (see
  :mod:`repro.persistence.recovery`).
* Steps are **throttled** through the chunk scheduler's idle lane
  (:meth:`~repro.evaluation.scheduler.ChunkScheduler.set_background`):
  migration only runs once every queue of real work has drained, a bounded
  number of steps per drain, so concurrent sessions never wait behind the
  reorganiser and timestamp-ordering guarantees are untouched (migration
  performs no TO-checked reads or writes).

Applied over a quiescent database, the sum of the steps reaches exactly
the placement :meth:`~repro.storage.manager.StorageManager.apply_layout`
would have installed for the same plan -- the equivalence the property
tests in ``tests/storage/test_reorg_properties.py`` pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

from repro.errors import StorageError
from repro.obs.events import ReorgEpochEnd, ReorgEpochStart, ReorgStep
from repro.storage.clustering import greedy_cluster

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database


@dataclass
class ReorgStats:
    """Counters behind the ``reorg`` metrics section."""

    epochs_started: int = 0
    epochs_completed: int = 0
    epochs_abandoned: int = 0
    steps_run: int = 0
    instances_moved: int = 0
    instances_skipped: int = 0
    blocks_released: int = 0


class ReorgEpoch:
    """One planned epoch: the target groups plus a migration cursor."""

    def __init__(self, epoch_id: int, plan: list[list[int]]) -> None:
        self.epoch_id = epoch_id
        #: target layout, one group of instance ids per future block.
        self.plan = plan
        #: index of the next group to migrate.
        self.cursor = 0
        self.steps_run = 0
        self.completed = False
        self.abandoned = False

    @property
    def pending_steps(self) -> int:
        return len(self.plan) - self.cursor

    @property
    def finished(self) -> bool:
        return self.completed or self.abandoned


class ReorgDriver:
    """Runs online reorganisation epochs against one database."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self.stats = ReorgStats()
        self.epoch: ReorgEpoch | None = None
        self._epochs_planned = 0

    @property
    def active(self) -> bool:
        return self.epoch is not None

    # -- epoch lifecycle -----------------------------------------------------

    def start_epoch(self, steps_per_drain: int = 1) -> ReorgEpoch:
        """Plan a new epoch from the current usage counters and register it.

        The plan is a snapshot: usage accumulated after this call does not
        change the target layout (it feeds the *next* epoch).  Migration
        steps then run from the scheduler's idle lane, at most
        ``steps_per_drain`` per drain, or synchronously via :meth:`step` /
        :meth:`run_to_completion`.
        """
        db = self.db
        if self.active:
            raise StorageError(
                f"reorg epoch {self.epoch.epoch_id} is already active"
            )
        sizes = {iid: inst.record_size() for iid, inst in db._catalog.items()}
        plan = greedy_cluster(
            sizes,
            db.neighbors,
            db.usage,
            db.storage.disk.block_capacity,
            static_weights=db.static_cluster_weights(),
        )
        plan = [group for group in plan if group]
        self._epochs_planned += 1
        epoch = ReorgEpoch(self._epochs_planned, plan)
        self.epoch = epoch
        self.stats.epochs_started += 1
        if db.persistence is not None:
            db.persistence.log_reorg_begin(epoch.epoch_id, len(plan))
        hub = db.obs.hub
        if hub.active:
            hub.emit(
                ReorgEpochStart(
                    epoch=epoch.epoch_id,
                    steps_planned=len(plan),
                    instances=len(sizes),
                )
            )
        if not plan:
            self._finish(completed=True)
            return epoch
        db.engine.scheduler.set_background(
            self._background_step, budget=steps_per_drain
        )
        return epoch

    def step(self) -> bool:
        """Run one bounded migration step; True while more steps remain.

        The step is journalled *before* it is applied: on a crash between
        the append and the in-memory move, recovery re-runs the step from
        the log and reaches the same placement.
        """
        epoch = self.epoch
        if epoch is None:
            raise StorageError("no reorg epoch is active")
        db = self.db
        group = epoch.plan[epoch.cursor]
        if db.persistence is not None:
            db.persistence.log_reorg_step(epoch.epoch_id, epoch.cursor, group)
        started = perf_counter()
        __, moved, skipped, released = db.storage.migrate_group(
            group, lambda iid: db.instance(iid).record_size()
        )
        seconds = perf_counter() - started
        db.obs.timers["reorg_step"].record(seconds)
        epoch.cursor += 1
        epoch.steps_run += 1
        self.stats.steps_run += 1
        self.stats.instances_moved += moved
        self.stats.instances_skipped += skipped
        self.stats.blocks_released += released
        hub = db.obs.hub
        if hub.active:
            hub.emit(
                ReorgStep(
                    epoch=epoch.epoch_id,
                    step=epoch.cursor - 1,
                    moved=moved,
                    skipped=skipped,
                    blocks_released=released,
                    seconds=seconds,
                )
            )
        if epoch.cursor >= len(epoch.plan):
            self._finish(completed=True)
            return False
        return True

    def run_to_completion(self) -> int:
        """Drain the active epoch synchronously; returns steps run."""
        ran = 0
        while self.active:
            self.step()
            ran += 1
        return ran

    def abandon(self) -> None:
        """Close the active epoch without running its remaining steps.

        The layout stays mixed but correct; worst-case statistics are
        refreshed against it so predictions match what is actually on disk.
        Usage counters are *not* reset -- the aborted epoch consumed no
        adaptation signal.
        """
        if not self.active:
            raise StorageError("no reorg epoch is active")
        self._finish(completed=False)

    # -- internals -----------------------------------------------------------

    def _background_step(self) -> bool:
        """Idle-lane hook installed on the chunk scheduler."""
        if not self.active:
            return False
        return self.step()

    def _finish(self, completed: bool) -> None:
        db = self.db
        epoch = self.epoch
        assert epoch is not None
        self.epoch = None
        db.engine.scheduler.clear_background()
        if completed:
            epoch.completed = True
            self.stats.epochs_completed += 1
        else:
            epoch.abandoned = True
            self.stats.epochs_abandoned += 1
        if db.persistence is not None:
            db.persistence.log_reorg_end(epoch.epoch_id, completed)
        # Either way the layout changed under the statistics: refresh the
        # worst-case estimates (and re-seed the decaying averages) against
        # the blocks as they now stand.  Counters only reset when the epoch
        # actually delivered the adaptation the paper's cycle expects.
        db._refresh_usage_after_reorg(reset_counters=completed)
        hub = db.obs.hub
        if hub.active:
            hub.emit(
                ReorgEpochEnd(
                    epoch=epoch.epoch_id,
                    steps_run=epoch.steps_run,
                    completed=completed,
                )
            )
