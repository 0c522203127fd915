"""Span wrappers installed from outside the program (``--trace`` only).

:class:`Tracer.install` replaces the class-level public entry points in
:data:`POINTS` with timing wrappers.  A span stack gives parent/child:
every wrapper adds its duration to its parent's child time, so a point's
*self time* is its duration minus the part its child spans cover, and the
self times of all points plus the root spans' own self time add up to the
root spans exactly.  Hot points (``record=False``) only accumulate; the
others also keep a span record (name, start, end, parent, transaction id)
in memory, written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

#: Span records kept per process; accumulators are never capped.
MAX_SPAN_RECORDS = 50_000


def _points():
    """``(point, owner, attribute names, record)`` -- imported lazily so the
    module loads without the program on the path."""
    from repro.core.database import Database
    from repro.dsl.query import Query, QueryPlan
    from repro.evaluation.engine import IncrementalEngine
    from repro.index.manager import IndexManager
    from repro.persistence.wal import WriteAheadLog
    from repro.server.mux import SessionMultiplexer
    from repro.storage.manager import StorageManager
    from repro.txn.manager import MultiUserScheduler
    from repro.txn.transaction import TransactionManager
    from repro.txn.timestamps import TimestampManager

    return [
        (
            "core.primitive",
            Database,
            ("create", "delete", "connect", "disconnect", "set_attr", "get_attr"),
            True,
        ),
        (
            "evaluation.mark",
            IncrementalEngine,
            ("propagate_intrinsic_change", "invalidate_derived"),
            True,
        ),
        ("evaluation.eval", IncrementalEngine, ("demand", "evaluate_slots", "end_batch"), True),
        ("storage.busy", StorageManager, ("touch", "place", "resize", "remove"), False),
        (
            "index.maintain",
            IndexManager,
            (
                "note_create",
                "note_delete",
                "note_attr_written",
                "note_membership_written",
                "note_attach",
                "note_detach",
            ),
            False,
        ),
        ("index.sweep", IndexManager, ("refresh_attr_index", "refresh_extent"), True),
        ("dsl.query.plan", Query, ("plan",), True),
        ("dsl.query.exec", QueryPlan, ("execute",), True),
        ("txn.step", MultiUserScheduler, ("step",), True),
        ("txn.to_check", TimestampManager, ("check_read", "check_write"), False),
        ("txn.commit", TransactionManager, ("commit",), True),
        ("persistence.append", WriteAheadLog, ("append",), True),
        ("server.mux.submit", SessionMultiplexer, ("submit",), True),
        ("server.mux.step_batch", SessionMultiplexer, ("step_batch",), True),
    ]


class _OsShim:
    """The ``os`` the WAL module resolves, with a timed ``fsync``."""

    def __init__(self, real_os, fsync) -> None:
        self._real_os = real_os
        self.fsync = fsync

    def __getattr__(self, name):
        return getattr(self._real_os, name)


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: [sid, parent sid, point, start, end, txn id]
        self.spans: list[list] = []
        self.dropped_spans = 0
        self._stack: list[list] = []
        self._undo: list[tuple] = []
        # Per-transaction bookkeeping for server.mux.queue_wait: submit
        # time and the step time spent on the transaction's own slices.
        self._submitted: dict[str, float] = {}
        self._own_step_s: dict[str, float] = {}
        self.queue_wait_s = 0.0
        self.txns_done = 0

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, point: str, fn, record: bool, after=None):
        self.self_s.setdefault(point, 0.0)
        self.calls.setdefault(point, 0)
        stack, spans, self_s, calls = self._stack, self.spans, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # frame: [child seconds, span record or None]
            span = None
            if record:
                if len(spans) < MAX_SPAN_RECORDS:
                    parent = stack[-1][1] if stack else None
                    span = [len(spans), parent[0] if parent else None, point, 0.0, 0.0, None]
                    spans.append(span)
                else:
                    self.dropped_spans += 1
            frame = [0.0, span or (stack[-1][1] if stack else None)]
            stack.append(frame)
            started = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = perf_counter()
                stack.pop()
                elapsed = ended - started
                self_s[point] += elapsed - frame[0]
                calls[point] += 1
                if stack:
                    stack[-1][0] += elapsed
                if span is not None:
                    span[3], span[4] = started, ended
                if after is not None:
                    after(span, args, kwargs, result, started, ended)

        return wrapper

    def install(self) -> None:
        for point, owner, names, record in _points():
            for name in names:
                after = getattr(self, "_after_" + name, None)
                self._patch(owner, name, self._wrap(point, getattr(owner, name), record, after))
        # Module-level bindings: the server's encoder and the WAL's fsync.
        import repro.persistence.wal as wal
        import repro.server.server as server

        encode = self._wrap("server.protocol.encode", server.encode_frame, False)
        self._patch(server, "encode_frame", encode)
        fsync = self._wrap("persistence.fsync", wal.os.fsync, False)
        self._patch(wal, "os", _OsShim(wal.os, fsync))

    def _patch(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- transaction ids and queue wait (serving) ---------------------------------

    def _after_submit(self, span, args, kwargs, result, started, ended) -> None:
        name = kwargs.get("name") or (args[1] if len(args) > 1 else None)
        if span is not None:
            span[5] = name
        if result is not None:  # admitted
            self._submitted[name] = started
            self._own_step_s[name] = 0.0

    def _after_step(self, span, args, kwargs, state, started, ended) -> None:
        if state is None:
            return
        name = state.name
        if span is not None:
            span[5] = name
        if name not in self._submitted:
            return
        own = self._own_step_s[name] + (ended - started)
        if state.done:
            # Done within this slice: everything between submit and now
            # that was not one of its own slices was spent queued.
            self.queue_wait_s += ended - self._submitted.pop(name) - own
            del self._own_step_s[name]
            self.txns_done += 1
        else:
            self._own_step_s[name] = own

    # -- root spans (the harness's own calls) -----------------------------------

    def root(self, apply):
        """Wrap the harness's ``apply(index, item)``: each call is a root
        span (point ``harness.op``) whose transaction id is the op index."""

        def after(span, args, kwargs, result, started, ended) -> None:
            if span is not None:
                span[5] = args[0]

        return self._wrap("harness.op", apply, True, after)

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "queue_wait_s": self.queue_wait_s,
            "txns_done": self.txns_done,
        }

    def write(self, path: str) -> int:
        """Write the kept span records, one JSON object per line."""
        txn_of: dict[int, str] = {}
        with open(path, "w") as out:
            for sid, parent, point, started, ended, txn in self.spans:
                if txn is None and parent is not None:
                    txn = txn_of.get(parent)
                txn_of[sid] = txn
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": point,
                            "start": started,
                            "end": ended,
                            "txn": txn,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)


def delta(after: dict, before: dict) -> dict:
    """Accumulator difference between two :meth:`Tracer.snapshot` calls."""
    return {
        "self_s": {k: v - before["self_s"].get(k, 0.0) for k, v in after["self_s"].items()},
        "calls": {k: v - before["calls"].get(k, 0) for k, v in after["calls"].items()},
        "queue_wait_s": after["queue_wait_s"] - before["queue_wait_s"],
        "txns_done": after["txns_done"] - before["txns_done"],
    }
