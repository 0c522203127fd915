"""Typed events and the hub they flow through.

Every layer of the reproduction exposes first-class hook points that emit
one of the event types below through an :class:`EventHub`:

* the evaluation engine -- wave start/end, slot marked, slot evaluated,
  chunk run, fast-lane hit;
* the buffer pool -- block loaded, block evicted;
* timestamp concurrency control -- TO rejections;
* the transaction manager -- commit, abort;
* the persistence manager -- WAL append, WAL fsync, checkpoint, recovery.

The hub stamps each emitted event with the current *session* (set by the
multi-user scheduler around each interleaved step) and *transaction id*
(set by the transaction manager while a delta is active), so a consumer
can answer "what did this transaction cost end to end".

Emission is free when nobody listens: every hook point checks
``hub.active`` (a plain attribute maintained by subscribe/unsubscribe)
before even constructing the event object, so the hot paths of the engine
pay one attribute load and one branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Sequence

from repro.core.slots import Slot


@dataclass
class Event:
    """Base class: attribution stamped by the hub at emit time."""

    TYPE = "event"

    session: str | None = field(default=None, init=False)
    txn: int | None = field(default=None, init=False)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (slots become lists) for the trace writer."""
        payload: dict[str, Any] = {"type": self.TYPE}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, list):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            payload[f.name] = value
        return payload


@dataclass
class WaveStart(Event):
    """A propagation wave begins (engine phase 1)."""

    TYPE = "wave_start"

    kind: str = "intrinsic"  # "intrinsic" | "derived" | "batch"
    intrinsic_seeds: list[Slot] = field(default_factory=list)
    derived_seeds: list[Slot] = field(default_factory=list)


@dataclass
class WaveEnd(Event):
    """The matching wave finished; ``seconds`` is its wall-clock cost."""

    TYPE = "wave_end"

    kind: str = "intrinsic"
    seconds: float = 0.0


@dataclass
class SlotMarked(Event):
    """Phase 1 marked one slot out of date (first time this wave)."""

    TYPE = "slot_marked"

    slot: Slot = (0, "")
    crossing_port: str | None = None


@dataclass
class SlotEvaluated(Event):
    """Phase 2 ran a rule and stored the slot's new value."""

    TYPE = "slot_evaluated"

    slot: Slot = (0, "")
    value: Any = None
    unchanged: bool = False


@dataclass
class ChunkRun(Event):
    """The scheduler ran one unit of work that waited in the priced heap."""

    TYPE = "chunk_run"

    kind: str = ""  # "mark" | "request" | "collect" | "compute"
    slot: Slot = (0, "")


@dataclass
class FastLaneHit(Event):
    """The scheduler ran one unit of work first queued resident."""

    TYPE = "fast_lane_hit"

    kind: str = ""
    slot: Slot = (0, "")


@dataclass
class BlockLoaded(Event):
    """The buffer pool read a block from disk into a frame."""

    TYPE = "block_loaded"

    block_id: int = 0


@dataclass
class BlockEvicted(Event):
    """A block left the pool (LRU eviction, drop, or clear)."""

    TYPE = "block_evicted"

    block_id: int = 0
    dirty: bool = False
    reason: str = "lru"  # "lru" | "drop" | "clear"


@dataclass
class TORejection(Event):
    """Timestamp ordering rejected a read or write."""

    TYPE = "to_rejection"

    kind: str = "read"  # "read" | "write"
    iid: int = 0
    ts: int = 0
    conflict_ts: int = 0
    conflict_kind: str = "write"  # mark that caused the rejection


@dataclass
class TxnCommit(Event):
    """A transaction committed (explicit, autocommit, or session)."""

    TYPE = "txn_commit"

    txn_id: int = 0
    label: str = ""
    records: int = 0
    seconds: float = 0.0


@dataclass
class TxnAbort(Event):
    """A transaction rolled back."""

    TYPE = "txn_abort"

    txn_id: int = 0
    label: str = ""
    records: int = 0


@dataclass
class WalAppend(Event):
    """The WAL framed and wrote one durable record."""

    TYPE = "wal_append"

    seq: int = 0
    kind: str = "commit"  # payload type
    bytes: int = 0
    synced: bool = False


@dataclass
class WalFsync(Event):
    """The WAL fsynced its file (the durability hard cost)."""

    TYPE = "wal_fsync"

    seconds: float = 0.0


@dataclass
class Checkpoint(Event):
    """The WAL was folded into a fresh atomic image."""

    TYPE = "checkpoint"

    seq: int = 0


@dataclass
class Recovery(Event):
    """An opening recovery pass finished."""

    TYPE = "recovery"

    replayed: int = 0
    skipped: int = 0
    dropped: str | None = None
    seconds: float = 0.0


@dataclass
class ReorgEpochStart(Event):
    """An online reorganisation epoch planned its target layout."""

    TYPE = "reorg_epoch_start"

    epoch: int = 0
    steps_planned: int = 0
    instances: int = 0


@dataclass
class ReorgStep(Event):
    """One bounded migration step moved a target block's worth of instances."""

    TYPE = "reorg_step"

    epoch: int = 0
    step: int = 0
    moved: int = 0
    skipped: int = 0
    blocks_released: int = 0
    seconds: float = 0.0


@dataclass
class ReorgEpochEnd(Event):
    """The epoch finished (every step ran) or was abandoned."""

    TYPE = "reorg_epoch_end"

    epoch: int = 0
    steps_run: int = 0
    completed: bool = True


@dataclass
class FedBatchShipped(Event):
    """A federation change batch entered the producer site's outbox."""

    TYPE = "fed_batch_shipped"

    channel: str = ""  # "producer>consumer" site pair
    seq: int = 0  # per-channel batch sequence number
    values: int = 0  # changed values carried by the batch


@dataclass
class FedBatchApplied(Event):
    """A consumer site durably applied (or deduplicated) one batch."""

    TYPE = "fed_batch_applied"

    channel: str = ""
    seq: int = 0
    values: int = 0
    deduped: bool = False  # redelivery dropped by the applied high-water mark


@dataclass
class FedMigration(Event):
    """The placement layer moved one instance to another site."""

    TYPE = "fed_migration"

    iid: int = 0
    from_site: str = ""
    to_site: str = ""
    links_rewired: int = 0


@dataclass
class QueryPlanned(Event):
    """The query planner chose an access path for one execution."""

    TYPE = "query_planned"

    class_name: str = ""
    access_path: str = ""  # "scan" | "extent" | "index_eq" | "index_range" | "index_order"
    index_attr: str | None = None  # attribute of the chosen index, if any
    cost: float = 0.0  # planner's estimate for the chosen path
    scan_cost: float = 0.0  # what the naive scan was priced at
    degraded: bool = False  # an indexed plan fell back to the scan at run time


@dataclass
class IndexSweep(Event):
    """An index/extent refresh evaluated stale or pending derived slots."""

    TYPE = "index_sweep"

    kind: str = "attr"  # "attr" | "extent"
    name: str = ""  # "class.attr" for attr indexes, subtype name for extents
    stale: int = 0  # slots found in the engine's out-of-date set
    pending: int = 0  # covered slots never evaluated before this sweep


#: event type name -> class; the doc cross-check and trace tooling key off it.
EVENT_TYPES: dict[str, type[Event]] = {
    cls.TYPE: cls
    for cls in (
        WaveStart,
        WaveEnd,
        SlotMarked,
        SlotEvaluated,
        ChunkRun,
        FastLaneHit,
        BlockLoaded,
        BlockEvicted,
        TORejection,
        TxnCommit,
        TxnAbort,
        WalAppend,
        WalFsync,
        Checkpoint,
        Recovery,
        ReorgEpochStart,
        ReorgStep,
        ReorgEpochEnd,
        FedBatchShipped,
        FedBatchApplied,
        FedMigration,
        QueryPlanned,
        IndexSweep,
    )
}

Listener = Callable[[Event], None]


class EventHub:
    """Dispatches events to subscribers and stamps attribution context."""

    __slots__ = ("_subscribers", "active", "emitted", "session", "txn")

    def __init__(self) -> None:
        self._subscribers: list[Listener] = []
        #: kept in sync with the subscriber list; hook points check this
        #: single attribute before constructing an event.
        self.active = False
        #: events delivered to at least one subscriber.
        self.emitted = 0
        #: current multi-user session name (set by MultiUserScheduler).
        self.session: str | None = None
        #: current transaction id (set by TransactionManager).
        self.txn: int | None = None

    @property
    def subscribers(self) -> Sequence[Listener]:
        return tuple(self._subscribers)

    def subscribe(self, listener: Listener) -> Listener:
        """Register a listener; returns it for later :meth:`unsubscribe`."""
        self._subscribers.append(listener)
        self.active = True
        return listener

    def unsubscribe(self, listener: Listener) -> None:
        try:
            self._subscribers.remove(listener)
        except ValueError:
            pass
        self.active = bool(self._subscribers)

    def emit(self, event: Event) -> None:
        """Stamp attribution and deliver to every subscriber."""
        if not self.active:
            return
        event.session = self.session
        event.txn = self.txn
        self.emitted += 1
        for listener in tuple(self._subscribers):
            listener(event)
