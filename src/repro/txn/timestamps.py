"""Timestamp-ordering concurrency control.

The paper states that Cactis "uses a timestamping concurrency control
technique" without further detail; this module implements the classic basic
timestamp-ordering (TO) protocol at instance granularity:

* a transaction's timestamp is its transaction id, which the
  :class:`~repro.txn.transaction.TransactionManager`'s one allocator hands
  out at start (and afresh on each restart): unique and monotonically
  increasing, and shared with embedded work;
* a read of instance ``x`` by transaction ``T`` is rejected when
  ``ts(T) < write_ts(x)`` -- the value ``T`` should have seen was already
  overwritten by a younger transaction;
* a write of ``x`` by ``T`` is rejected when ``ts(T) < read_ts(x)`` or
  ``ts(T) < write_ts(x)`` -- a younger transaction has already observed or
  written a later state.

A rejection raises :class:`repro.errors.ConcurrencyAbort`; the caller rolls
back and restarts with a new timestamp (see
:class:`repro.txn.manager.MultiUserScheduler`).  CC applies to *primitive*
operations (the unit the paper's transactions are built from); derived
recomputation inherits the protection of the primitives that triggered it.
Writes become visible immediately and aborts undo them through the ordinary
rollback machinery -- a simplification over commit-time visibility that
preserves the protocol's ordering behaviour, which is what E7 measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConcurrencyAbort
from repro.obs.events import TORejection


@dataclass(slots=True)
class _Marks:
    read_ts: int = 0
    write_ts: int = 0
    #: highest read mark that can never be retracted: reads by untracked
    #: (batch) transactions, and tracked reads whose transaction reached a
    #: terminal outcome (commit/fail) -- see :meth:`TimestampManager.confirm_read`.
    stable_read_ts: int = 0
    #: in-doubt tracked readers, ts -> journalled read count; ``None``
    #: until the first tracked read so the batch hot path stays dict-free.
    readers: dict[int, int] | None = None


@dataclass
class CCStats:
    """Outcome counters for concurrency-control experiments."""

    reads_checked: int = 0
    writes_checked: int = 0
    read_rejections: int = 0
    write_rejections: int = 0
    transactions_started: int = 0
    transactions_committed: int = 0
    transactions_restarted: int = 0

    @property
    def abort_rate(self) -> float:
        total = self.read_rejections + self.write_rejections
        attempts = self.reads_checked + self.writes_checked
        return total / attempts if attempts else 0.0


class TimestampManager:
    """Enforces basic TO for timestamps it is given, and keeps the marks."""

    def __init__(self) -> None:
        self._marks: dict[int, _Marks] = {}
        self.stats = CCStats()
        #: optional :class:`repro.obs.EventHub` for TO-rejection events;
        #: attached by :class:`repro.txn.manager.MultiUserScheduler`.
        self.hub = None

    def _note_rejection(
        self, kind: str, iid: int, ts: int, conflict_ts: int, conflict_kind: str
    ) -> None:
        hub = self.hub
        if hub is not None and hub.active:
            hub.emit(
                TORejection(
                    kind=kind,
                    iid=iid,
                    ts=ts,
                    conflict_ts=conflict_ts,
                    conflict_kind=conflict_kind,
                )
            )

    def _marks_for(self, iid: int) -> _Marks:
        marks = self._marks.get(iid)
        if marks is None:
            marks = _Marks()
            self._marks[iid] = marks
        return marks

    def check_read(self, ts: int, iid: int, track: bool = False) -> int:
        """Validate and record a read of ``iid`` by a transaction at ``ts``.

        Returns the read mark the record carried *before* this check.  With
        ``track=True`` (a server-driven session that may be torn down
        mid-transaction) the reader is also entered into the record's
        in-doubt reader multiset, which is what lets :meth:`retract_read`
        restore the correct mark even when intermediate readers arrived
        after this one; the caller must balance every tracked check with
        exactly one :meth:`retract_read` or :meth:`confirm_read`.
        """
        marks = self._marks_for(iid)
        self.stats.reads_checked += 1
        if ts < marks.write_ts:
            self.stats.read_rejections += 1
            self._note_rejection("read", iid, ts, marks.write_ts, "write")
            raise ConcurrencyAbort(
                f"read of instance {iid} by ts {ts} rejected: "
                f"written at ts {marks.write_ts}"
            )
        previous = marks.read_ts
        if track:
            readers = marks.readers
            if readers is None:
                readers = marks.readers = {}
            readers[ts] = readers.get(ts, 0) + 1
        elif ts > marks.stable_read_ts:
            marks.stable_read_ts = ts
        if ts > marks.read_ts:
            marks.read_ts = ts
        return previous

    def check_write(self, ts: int, iid: int) -> int:
        """Validate and record a write of ``iid`` by a transaction at ``ts``.

        Returns the write mark the record carried *before* this check, so
        a caller performing check-then-act can hand it back to
        :meth:`retract_write` when the act itself fails to happen.
        """
        marks = self._marks_for(iid)
        self.stats.writes_checked += 1
        if ts < marks.read_ts:
            self.stats.write_rejections += 1
            self._note_rejection("write", iid, ts, marks.read_ts, "read")
            raise ConcurrencyAbort(
                f"write of instance {iid} by ts {ts} rejected: "
                f"read at ts {marks.read_ts}"
            )
        if ts < marks.write_ts:
            self.stats.write_rejections += 1
            self._note_rejection("write", iid, ts, marks.write_ts, "write")
            raise ConcurrencyAbort(
                f"write of instance {iid} by ts {ts} rejected: "
                f"written at ts {marks.write_ts}"
            )
        previous = marks.write_ts
        marks.write_ts = ts
        return previous

    def retract_write(self, ts: int, iid: int, previous_write_ts: int) -> None:
        """Undo a :meth:`check_write` whose write never happened.

        Restores the prior write mark, but only while the record still
        carries ``ts`` -- if a younger transaction has written since, its
        mark is the truth and must stand.
        """
        marks = self._marks.get(iid)
        if marks is not None and marks.write_ts == ts:
            marks.write_ts = previous_write_ts

    @staticmethod
    def _drop_reader(marks: _Marks, ts: int) -> bool:
        """Remove one in-doubt read at ``ts``; True if an entry existed."""
        readers = marks.readers
        if readers is None:
            return False
        count = readers.get(ts)
        if count is None:
            return False
        if count > 1:
            readers[ts] = count - 1
        else:
            del readers[ts]
        return True

    def retract_read(self, ts: int, iid: int, previous_read_ts: int) -> None:
        """Undo a tracked :meth:`check_read` whose transaction was torn down.

        Used when a server-driven session is cancelled (client disconnect)
        so its ghost read marks do not keep aborting older writers forever.
        The restored mark comes from the record's reader bookkeeping -- the
        stable floor plus the remaining in-doubt readers -- not from the
        journalled ``previous_read_ts``: the journalled value cannot see
        readers with intermediate timestamps that arrived *after* this
        check, and restoring it would let a write slide under a live
        intermediate read (a non-serializable schedule).  The journalled
        value only serves the legacy fallback for records that never saw a
        tracked read.
        """
        marks = self._marks.get(iid)
        if marks is None:
            return
        if marks.readers is None:
            # No tracked-read bookkeeping on this record: conservative
            # legacy behaviour, restore only while the mark is still ours.
            if marks.read_ts == ts:
                marks.read_ts = previous_read_ts
            return
        self._drop_reader(marks, ts)
        remaining = marks.readers
        marks.read_ts = max(
            marks.stable_read_ts, max(remaining) if remaining else 0
        )

    def confirm_read(self, ts: int, iid: int) -> None:
        """Seal a tracked :meth:`check_read` whose transaction terminated.

        The read can never be retracted after this (the transaction
        committed, or failed terminally -- where the conservative ghost
        mark is kept, matching untracked batch behaviour): it moves from
        the in-doubt reader multiset to the stable floor, so the record's
        bookkeeping stays bounded and later retractions by other
        transactions never lower the mark below it.
        """
        marks = self._marks.get(iid)
        if marks is None:
            return
        self._drop_reader(marks, ts)
        if ts > marks.stable_read_ts:
            marks.stable_read_ts = ts

    def note_start(self) -> None:
        self.stats.transactions_started += 1

    def note_commit(self) -> None:
        self.stats.transactions_committed += 1

    def note_restart(self) -> None:
        self.stats.transactions_restarted += 1

    def forget_instance(self, iid: int) -> None:
        """Drop marks for a deleted instance."""
        self._marks.pop(iid, None)
