"""The Cactis database facade.

Ties every substrate together and exposes the paper's primitives:

    "The Cactis primitives include operations for creating and deleting
    object type instances, establishing and breaking relationships between
    instances, defining predicates and subtypes, and primitives for
    retrieving and replacing attribute values.  These primitive actions are
    augmented by the meta-action *Undo*."

* **creating / deleting instances** -- :meth:`Database.create`,
  :meth:`Database.delete`;
* **establishing / breaking relationships** -- :meth:`Database.connect`,
  :meth:`Database.disconnect`;
* **retrieving / replacing attribute values** -- :meth:`Database.get_attr`,
  :meth:`Database.set_attr` (plus :meth:`Database.get_transmitted` for
  values sent across relationships);
* **Undo** -- :meth:`Database.undo`, with full transaction control via
  :meth:`Database.begin` / :meth:`Database.commit` / :meth:`Database.abort`
  and the :meth:`Database.transaction` context manager;
* predicates and subtypes live in the :class:`~repro.core.schema.Schema`,
  which may be extended dynamically (:meth:`Database.extend_schema`).

The Database is also the :class:`~repro.evaluation.host.EvaluationHost`: it
owns the slot plans the engine traverses, stores slot values, and fields
the constraint / subtype callbacks from the engine.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.compile.codegen import LOCAL, RECEIVED, SELF, compile_reader
from repro.core.instance import Connection, Instance
from repro.core.rules import (
    Constraint,
    Input,
    Local,
    Received,
    Rule,
    constraint_name_of,
    is_constraint_attr,
    is_subtype_attr,
    subtype_attr_name,
    subtype_name_of,
)
from repro.core.schema import AttributeDef, PortDef, Schema
from repro.core.slots import Slot, attr_slot, transmit_slot
from repro.core.subtypes import SubtypeManager
from repro.errors import (
    ConnectionError_,
    ConstraintViolation,
    CycleError,
    IntrinsicOnlyError,
    RuleEvaluationError,
    SchemaError,
    StorageError,
    TransactionAborted,
    UnknownAttributeError,
    UnknownInstanceError,
    UnknownRelationshipError,
)
from repro.evaluation.engine import IncrementalEngine
from repro.storage.clustering import greedy_cluster, worst_case_estimates
from repro.storage.manager import StorageManager
from repro.storage.reorg import ReorgDriver, ReorgEpoch
from repro.txn.log import (
    ConnectRecord,
    CreateRecord,
    DeleteRecord,
    DisconnectRecord,
    LogRecord,
    SetAttrRecord,
)
from repro.txn.transaction import TransactionManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.compile.slotplan import SlotPlan


#: distinguishes "attribute absent" from a stored None.
_MISSING = object()


def _value_width(value: Any) -> int:
    """One value's contribution to :meth:`Instance.record_size`.

    Must mirror the size model exactly: equal widths for the old and new
    value of one attribute imply an unchanged record size, which lets the
    write paths skip the full per-attribute resize recomputation.
    """
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (list, tuple)):
        return 8 * len(value)
    return 8


class Database:
    """An open Cactis database over a frozen schema."""

    def __init__(
        self,
        schema: Schema,
        block_capacity: int = 4096,
        pool_capacity: int = 8,
        engine_factory: Callable[["Database"], IncrementalEngine] | None = None,
    ) -> None:
        if not schema.frozen:
            schema.freeze()
        self.schema = schema
        # Observability root first: every substrate below references
        # ``self.obs.hub`` for its hook points.
        from repro.obs import Observability

        self.obs = Observability()
        self.storage = StorageManager(block_capacity, pool_capacity)
        self.storage.buffer.hub = self.obs.hub
        self.usage = self.storage.usage
        # Flattened slot plans (repro.compile.slotplan): the only place an
        # instance shape's structure lives, and the engine's only traversal
        # structure.  Must exist before the engine is built --
        # IncrementalEngine captures it at construction.
        from repro.compile.slotplan import SlotPlanCache
        from repro.graph.depgraph import DependencyView

        self.slot_plans = SlotPlanCache(self)
        #: the dependency graph: a stateless view of plans x connections
        #: (connect-time cycle rejection, ``could_change``).
        self.depgraph = DependencyView(self.slot_plans)
        # ``engine_factory`` is the seam through which a test substitutes a
        # reference engine (an :class:`IncrementalEngine` subclass, see
        # ``tests/references.py``); the default is the paper's engine.
        self.engine = (engine_factory or IncrementalEngine)(self)
        self.txn = TransactionManager(self)
        self.subtypes = SubtypeManager(self)
        self._catalog: dict[int, Instance] = {}
        # Secondary indexes + predicate-subtype extents (repro.index):
        # maintained from the _do_* primitives below so they roll back and
        # recover with the rest of the database state.
        from repro.index import IndexManager

        self.indexes = IndexManager(self)
        self._next_iid = 1
        self._unchecked_constraints: set[Slot] = set()
        self._in_recovery: set[Slot] = set()
        self._primitive_depth = 0
        #: attached by :class:`repro.persistence.manager.PersistenceManager`
        #: when the database was opened durably (:meth:`Database.open`).
        self.persistence = None
        #: callables invoked with the instance id after every completed
        #: :meth:`delete` -- the federation layer uses this to drop
        #: cross-site bookkeeping that names the deleted instance.
        self._delete_listeners: list[Callable[[int], None]] = []
        #: online incremental reorganisation driver (see repro.storage.reorg).
        self.reorg = ReorgDriver(self)
        self._register_metrics()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def metrics(self):
        """One unified snapshot over every substrate's counters.

        Returns a :class:`repro.obs.MetricsSnapshot` covering the engine,
        scheduler, concurrency control, buffer pool, disk, usage,
        transaction, and WAL counters plus the latency timers.  Snapshots
        subtract (``after - before``) to price a workload.
        """
        return self.obs.snapshot()

    def _register_metrics(self) -> None:
        """Register one provider per substrate with the metrics registry.

        Providers are late-binding closures over ``self``, so attaching
        persistence later is picked up.
        The ``cc`` and ``wal`` sections default to zeros and are overridden
        by :class:`~repro.txn.manager.MultiUserScheduler` and
        :class:`~repro.persistence.manager.PersistenceManager` when those
        components attach.
        """
        from dataclasses import fields as dc_fields

        from repro.evaluation.counters import EvalCounters
        from repro.txn.timestamps import CCStats

        def engine_metrics() -> dict:
            counters = self.engine.counters
            data = {
                f.name: getattr(counters, f.name) for f in dc_fields(EvalCounters)
            }
            data["out_of_date"] = len(self.engine.out_of_date)
            data["standing_demands"] = len(self.engine.standing_demands)
            return data

        def scheduler_metrics() -> dict:
            return {"background_executed": self.engine.scheduler.background_executed}

        def cc_metrics() -> dict:
            return {f.name: 0 for f in dc_fields(CCStats)}

        def buffer_metrics() -> dict:
            pool = self.storage.buffer
            stats = pool.stats
            return {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "dirty_writebacks": stats.dirty_writebacks,
                "drop_writebacks": stats.drop_writebacks,
                "resident": len(pool.resident_blocks()),
                "capacity": pool.capacity,
            }

        def disk_metrics() -> dict:
            disk = self.storage.disk
            return {
                "reads": disk.stats.reads,
                "writes": disk.stats.writes,
                "blocks_allocated": disk.stats.blocks_allocated,
                "blocks_recycled": disk.stats.blocks_recycled,
                "blocks_in_use": disk.block_count(),
            }

        def usage_metrics() -> dict:
            usage = self.usage
            return {
                "instance_accesses": sum(usage.instance_accesses.values()),
                "relationship_crossings": sum(
                    usage.relationship_crossings.values()
                ),
                "tracked_relationships": len(usage.worst_case),
            }

        def txn_metrics() -> dict:
            txn = self.txn
            return {
                "commits": txn.commits,
                "aborts": txn.aborts,
                "undos": txn.undos,
                "active": txn.in_transaction,
                "history_length": len(txn.history),
            }

        def wal_metrics() -> dict:
            return {
                "attached": False,
                "commits_logged": 0,
                "undos_logged": 0,
                "bytes_appended": 0,
                "checkpoints_taken": 0,
                "fsyncs": 0,
                "wal_bytes": 0,
                "recovery_replayed": 0,
                "recovery_skipped": 0,
                "reorg_records": 0,
                "fed_records": 0,
            }

        def reorg_metrics() -> dict:
            driver = self.reorg
            stats = driver.stats
            epoch = driver.epoch
            return {
                "epochs_started": stats.epochs_started,
                "epochs_completed": stats.epochs_completed,
                "epochs_abandoned": stats.epochs_abandoned,
                "steps_run": stats.steps_run,
                "instances_moved": stats.instances_moved,
                "instances_skipped": stats.instances_skipped,
                "blocks_released": stats.blocks_released,
                "reorg_writes": self.storage.reorg_writes,
                "active": driver.active,
                "pending_steps": epoch.pending_steps if epoch is not None else 0,
            }

        def compile_metrics() -> dict:
            stats = self.schema.compile_stats
            plans = self.slot_plans
            return {
                "rules_compiled": stats.get("rules_compiled", 0),
                "cache_hits": stats.get("cache_hits", 0),
                "code_objects": stats.get("code_objects", 0),
                "native_bodies": stats.get("native_bodies", 0),
                "compile_seconds": stats.get("compile_seconds", 0.0),
                "plans_built": plans.plans_built,
                "plan_instances": plans.instances_cached,
            }

        def index_metrics() -> dict:
            return self.indexes.metrics()

        self.obs.register("engine", engine_metrics)
        self.obs.register("index", index_metrics)
        self.obs.register("compile", compile_metrics)
        self.obs.register("scheduler", scheduler_metrics)
        self.obs.register("cc", cc_metrics)
        self.obs.register("buffer", buffer_metrics)
        self.obs.register("disk", disk_metrics)
        self.obs.register("usage", usage_metrics)
        self.obs.register("txn", txn_metrics)
        self.obs.register("wal", wal_metrics)
        self.obs.register("reorg", reorg_metrics)

    # ------------------------------------------------------------------
    # durable open / checkpoint / close
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        schema: Schema,
        *,
        sync: bool = True,
        injector: Any | None = None,
        **db_kwargs: Any,
    ) -> "Database":
        """Open (creating or recovering) a durable database at ``path``.

        ``path`` is a directory holding the write-ahead log and the latest
        checkpoint.  Every committed transaction is appended to the log
        (fsynced when ``sync`` is true) before ``commit`` returns; a
        process crash at any point loses at most the transaction whose
        append had not completed.  Reopening replays the checkpoint plus
        the WAL tail, dropping any torn or corrupt trailing record.

        ``injector`` is a :class:`repro.persistence.faults.FaultInjector`
        for crash testing; remaining keyword arguments go to the
        :class:`Database` constructor.
        """
        from repro.persistence.manager import PersistenceManager

        return PersistenceManager.open(
            path, schema, sync=sync, injector=injector, **db_kwargs
        )

    def checkpoint(self) -> int:
        """Fold the WAL into a fresh on-disk image and truncate the log."""
        if self.persistence is None:
            raise StorageError(
                "database has no persistence attached; use Database.open"
            )
        return self.persistence.checkpoint()

    def close(self) -> None:
        """Flush and close the durable log (no-op for in-memory databases)."""
        if self.persistence is not None:
            self.persistence.close()

    # ------------------------------------------------------------------
    # catalog access
    # ------------------------------------------------------------------

    def instance(self, iid: int) -> Instance:
        try:
            return self._catalog[iid]
        except KeyError:
            raise UnknownInstanceError(f"no instance with id {iid}") from None

    def exists(self, iid: int) -> bool:
        return iid in self._catalog

    def instance_ids(self) -> list[int]:
        return sorted(self._catalog)

    @property
    def next_instance_id(self) -> int:
        """The id the next successful :meth:`create` will allocate.

        Exposed so concurrency control can validate a creation *before*
        any mutation happens (check-then-act), and so recovery can keep
        the allocator ahead of replayed instances.
        """
        return self._next_iid

    def __len__(self) -> int:
        return len(self._catalog)

    # ------------------------------------------------------------------
    # effective structure (class + active predicate subtypes)
    # ------------------------------------------------------------------

    def _plan(self, iid: int) -> SlotPlan:
        """The instance's slot plan: rules, attribute defs, port defs."""
        plan = self.slot_plans.plan_of(iid)
        if plan is None:
            raise UnknownInstanceError(f"no instance with id {iid}")
        return plan

    def _port_def(self, iid: int, port: str) -> PortDef:
        plan = self._plan(iid)
        try:
            return plan.ports[port]
        except KeyError:
            raise UnknownRelationshipError(
                f"class {plan.class_name!r} has no relationship port {port!r}"
            ) from None

    def default_for_attr(self, attr: AttributeDef) -> Any:
        if attr.default is not None:
            return attr.default
        return self.schema.atoms.get(attr.atom).default

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    @contextmanager
    def _primitive(self) -> Iterator[None]:
        """Delimits one user-level primitive.

        On success at depth zero, an implicit (autocommit) transaction is
        committed.  A constraint violation raised by the propagation wave
        rolls back the *whole* enclosing transaction -- "whenever an
        attribute which is designated as testing a constraint evaluates to
        false, rollback of the current transaction is performed" -- and
        surfaces as :class:`TransactionAborted`.  Cycle and rule errors
        roll back the same way but re-raise their own type.
        """
        self._primitive_depth += 1
        try:
            yield
        except (ConstraintViolation, CycleError, RuleEvaluationError) as exc:
            self._primitive_depth -= 1
            if self._primitive_depth == 0:
                self.engine.reset_wave()
                if self.txn.in_transaction:
                    self.txn.abort()
                if isinstance(exc, ConstraintViolation):
                    raise TransactionAborted(str(exc)) from exc
            raise
        except BaseException:
            # Validation errors (unknown attribute, bad connection, ...)
            # raised before any mutation: unwind the depth so autocommit
            # keeps working, but leave transaction state alone.
            self._primitive_depth -= 1
            raise
        else:
            self._primitive_depth -= 1
            if self._primitive_depth == 0:
                self.txn.finish_autocommit()

    def create(self, class_name: str, **intrinsics: Any) -> int:
        """Create an instance of ``class_name`` with the given intrinsics.

        Unspecified intrinsic attributes take their declared (or atom-type)
        defaults.  Per the paper, creation "does not affect attribute
        evaluation until relationships are established"; constraints on the
        fresh instance are audited at commit.
        """
        with self._primitive():
            resolved = self.schema.resolved(class_name)
            raw = self.schema.classes[class_name]
            if raw.predicate is not None:
                raise SchemaError(
                    f"{class_name!r} is a predicate subtype; instances join it "
                    f"by satisfying its predicate, not by direct creation"
                )
            attrs: dict[str, Any] = {}
            for attr in resolved.attributes.values():
                if not attr.intrinsic:
                    continue
                if attr.name in intrinsics:
                    atom = self.schema.atoms.get(attr.atom)
                    attrs[attr.name] = atom.validate(intrinsics.pop(attr.name))
                else:
                    attrs[attr.name] = self.default_for_attr(attr)
            if intrinsics:
                raise UnknownAttributeError(
                    f"class {class_name!r} has no intrinsic attributes "
                    f"{sorted(intrinsics)}"
                )
            iid = self._next_iid
            self._next_iid += 1
            instance = Instance(iid, class_name)
            instance.attrs = attrs
            self._do_create(instance)
            self.txn.log(
                CreateRecord(iid=iid, class_name=class_name, intrinsics=dict(attrs))
            )
            return iid

    def _do_create(self, instance: Instance) -> None:
        iid = instance.iid
        self._catalog[iid] = instance
        self.storage.place(iid, instance.record_size())
        self.storage.touch(iid, dirty=True)
        for name in self._plan(iid).constraints:
            self._unchecked_constraints.add((iid, name))
        self.indexes.note_create(iid, instance)

    def _snapshot(self, iid: int) -> dict[str, Any]:
        """The instance's record plus its own out-of-date slot names (a
        restored instance must not serve values that were stale): what a
        delete logs for undo and what an image stores per instance."""
        snapshot = self.instance(iid).snapshot()
        stale = self.engine.out_of_date
        snapshot["out_of_date"] = [
            name for name in self._plan(iid).names if (iid, name) in stale
        ]
        return snapshot

    def _do_restore(self, snapshot: dict[str, Any]) -> None:
        """Reinstate an instance from :meth:`_snapshot` form (undo of a
        delete, an image record): connections verbatim, marks as taken."""
        self._do_create(Instance.from_snapshot(snapshot))
        for name in snapshot["out_of_date"]:
            self.engine.restore_mark((snapshot["iid"], name))

    def delete(self, iid: int) -> None:
        """Delete an instance: break all relationships, then remove it.

        "The primitive to delete an instance can be treated the same as
        breaking all relationships to the instance."
        """
        with self._primitive():
            instance = self.instance(iid)
            # Capture the far ends before they are disconnected: the peers'
            # crossing counters toward this instance must be forgotten too,
            # or the clusterer keeps weighing ghost relationships.
            peer_keys = [
                (conn.peer, conn.peer_port)
                for __, conn in instance.all_connections()
            ]
            for port, conn in list(instance.all_connections()):
                self.disconnect(iid, port, conn.peer, conn.peer_port)
            self.txn.log(DeleteRecord(snapshot=self._snapshot(iid)))
            self._do_delete(iid, peer_keys)
        for listener in tuple(self._delete_listeners):
            listener(iid)

    def add_delete_listener(self, listener: Callable[[int], None]) -> None:
        """Call ``listener(iid)`` after every completed :meth:`delete`.

        Listeners run outside the primitive (after the delete's own wave
        and autocommit), so they may issue further primitives.  They are
        not invoked for deletes replayed during recovery -- a recovering
        observer must rebuild from the recovered state instead.
        """
        self._delete_listeners.append(listener)

    def _do_delete(
        self, iid: int, peer_keys: list[tuple[int, str]] = ()
    ) -> None:
        instance = self.instance(iid)
        for name in {*instance.attrs, *self._plan(iid).rule_for}:
            slot = (iid, name)
            self.engine.forget_slot(slot)
            self._unchecked_constraints.discard(slot)
        self.storage.remove(iid)
        self.usage.forget_instance(
            iid, self._ports_ever(instance.class_name), peer_keys
        )
        self.slot_plans.invalidate_instance(iid)
        self.indexes.note_delete(iid, instance)
        del self._catalog[iid]

    def _ports_ever(self, class_name: str) -> set[str]:
        """Every port an instance of ``class_name`` can have carried.

        Its class's ports and those of every predicate subtype it may have
        joined (transitively): usage statistics are keyed by them.
        """
        ports: set[str] = set()
        seen = {class_name}
        todo = [class_name]
        while todo:
            resolved = self.schema.resolved(todo.pop())
            ports.update(resolved.ports)
            for sub in resolved.predicate_subtypes:
                if sub not in seen:
                    seen.add(sub)
                    todo.append(sub)
        return ports

    def connect(self, iid_a: int, port_a: str, iid_b: int, port_b: str) -> None:
        """Establish a relationship between two instances' ports."""
        with self._primitive():
            inst_a = self.instance(iid_a)
            inst_b = self.instance(iid_b)
            def_a = self._port_def(iid_a, port_a)
            def_b = self._port_def(iid_b, port_b)
            if def_a.rel_type != def_b.rel_type:
                raise ConnectionError_(
                    f"port {port_a!r} ({def_a.rel_type}) cannot connect to "
                    f"port {port_b!r} ({def_b.rel_type}): relationship types differ"
                )
            if def_a.end is def_b.end:
                raise ConnectionError_(
                    f"both ports are {def_a.end.value}s; a plug must connect "
                    f"to a socket"
                )
            if iid_a == iid_b and port_a == port_b:
                raise ConnectionError_(
                    f"cannot connect port {port_a!r} of instance {iid_a} to itself"
                )
            conn_ab = Connection(iid_b, port_b)
            if inst_a.is_connected(port_a, conn_ab):
                raise ConnectionError_(
                    f"instances {iid_a}.{port_a} and {iid_b}.{port_b} are "
                    f"already connected"
                )
            if not def_a.multi and inst_a.connections_on(port_a):
                raise ConnectionError_(
                    f"port {port_a!r} of instance {iid_a} is single-valued "
                    f"and already connected"
                )
            if not def_b.multi and inst_b.connections_on(port_b):
                raise ConnectionError_(
                    f"port {port_b!r} of instance {iid_b} is single-valued "
                    f"and already connected"
                )
            # Log before the propagation wave runs: a constraint vetoing the
            # connection must find the ConnectRecord in the undo log.
            self.txn.log(ConnectRecord(iid_a, port_a, iid_b, port_b))
            self._do_connect(iid_a, port_a, iid_b, port_b)

    def _do_connect(
        self,
        iid_a: int,
        port_a: str,
        iid_b: int,
        port_b: str,
        index_a: int | None = None,
        index_b: int | None = None,
    ) -> None:
        inst_a = self.instance(iid_a)
        inst_b = self.instance(iid_b)
        self.storage.touch(iid_a, dirty=True)
        self.storage.touch(iid_b, dirty=True)
        inst_a.add_connection(port_a, Connection(iid_b, port_b), index_a)
        inst_b.add_connection(port_b, Connection(iid_a, port_a), index_b)
        self.storage.resize(iid_a, inst_a.record_size())
        self.storage.resize(iid_b, inst_b.record_size())
        edges = self._connection_edges(iid_a, port_a, iid_b, port_b)
        # "Cactis does not support data cycles": reject a connection that
        # closes one.  The check walks dependents from each new edge's head
        # looking back at its tail -- cheap when the downstream region is
        # small (the common case while building a graph).  Raising here
        # unwinds the whole primitive via the undo log.
        for src, dst in edges:
            path = self._find_dependent_path(dst, src)
            if path is not None:
                raise CycleError(path + [dst])
        # "When a relationship is established, the second half of the
        # attribute evaluation algorithm is invoked" -- marking the affected
        # consumers triggers evaluation of important ones.
        if edges:
            self.engine.invalidate_derived([dst for __, dst in edges])

    def disconnect(self, iid_a: int, port_a: str, iid_b: int, port_b: str) -> None:
        """Break a relationship between two instances' ports."""
        with self._primitive():
            # Find the positions up front so the record can be logged before
            # the propagation wave (see connect for why).
            inst_a = self.instance(iid_a)
            inst_b = self.instance(iid_b)
            conns_a = inst_a.connections_on(port_a)
            conn_ab = Connection(iid_b, port_b)
            if conn_ab not in conns_a:
                raise ConnectionError_(
                    f"instance {iid_a}: port {port_a!r} is not connected to "
                    f"instance {iid_b} port {port_b!r}"
                )
            index_a = conns_a.index(conn_ab)
            index_b = inst_b.connections_on(port_b).index(Connection(iid_a, port_a))
            self.txn.log(
                DisconnectRecord(iid_a, port_a, iid_b, port_b, index_a, index_b)
            )
            self._do_disconnect(iid_a, port_a, iid_b, port_b)

    def _do_disconnect(
        self, iid_a: int, port_a: str, iid_b: int, port_b: str
    ) -> tuple[int, int]:
        inst_a = self.instance(iid_a)
        inst_b = self.instance(iid_b)
        edges = self._connection_edges(iid_a, port_a, iid_b, port_b)
        self.storage.touch(iid_a, dirty=True)
        self.storage.touch(iid_b, dirty=True)
        index_a = inst_a.remove_connection(port_a, Connection(iid_b, port_b))
        index_b = inst_b.remove_connection(port_b, Connection(iid_a, port_a))
        # "When a relationship is broken ... these attributes are marked out
        # of date just as if an intrinsic attribute had changed."
        if edges:
            self.engine.invalidate_derived([dst for __, dst in edges])
        return index_a, index_b

    def _connection_edges(
        self, iid_a: int, port_a: str, iid_b: int, port_b: str
    ) -> list[tuple[Slot, Slot]]:
        """The ``(producer, consumer)`` dependency edges one connection induces.

        Each end consumes what the other sends: per received input on the
        connected port, in rule-declaration order (the consumers seed the
        connect / disconnect wave, and seed order is buffer-pool order).
        """
        edges: list[tuple[Slot, Slot]] = []
        for consumer, c_port, producer, p_port in (
            (iid_a, port_a, iid_b, port_b),
            (iid_b, port_b, iid_a, port_a),
        ):
            for value, name in self._plan(consumer).port_receives.get(c_port, ()):
                edges.append(
                    (transmit_slot(producer, p_port, value), (consumer, name))
                )
        return edges

    def _find_dependent_path(self, start: Slot, goal: Slot) -> list[Slot] | None:
        """BFS over dependents from ``start`` to ``goal`` (cycle witness)."""
        if start == goal:
            return [start]
        parents: dict[Slot, Slot] = {start: start}
        frontier = [start]
        while frontier:
            next_frontier: list[Slot] = []
            for slot in frontier:
                for dep in self.depgraph.dependents(slot):
                    if dep in parents:
                        continue
                    parents[dep] = slot
                    if dep == goal:
                        path = [dep]
                        while path[-1] != start:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return path
                    next_frontier.append(dep)
            frontier = next_frontier
        return None

    def set_attr(self, iid: int, attr: str, value: Any) -> None:
        """Replace the value of an intrinsic attribute (a primitive update)."""
        with self._primitive():
            instance = self.instance(iid)
            attr_def = self._plan(iid).attributes.get(attr)
            if attr_def is None:
                raise UnknownAttributeError(
                    f"class {instance.class_name!r} has no attribute {attr!r}"
                )
            if attr_def.derived:
                raise IntrinsicOnlyError(
                    f"attribute {attr!r} is derived; only intrinsic attributes "
                    f"may be given new values directly"
                )
            value = self.schema.atoms.get(attr_def.atom).validate(value)
            old = instance.attrs.get(attr)
            if old == value and attr in instance.attrs:
                return  # no observable change, no log, no propagation
            self.txn.log(SetAttrRecord(iid, attr, old, value))
            self._do_set_attr(iid, attr, value)

    def _do_set_attr(self, iid: int, attr: str, value: Any) -> None:
        instance = self.instance(iid)
        self.storage.touch(iid, dirty=True)
        attrs = instance.attrs
        old = attrs.get(attr, _MISSING)
        attrs[attr] = value
        if old is _MISSING or _value_width(old) != _value_width(value):
            self.storage.resize(iid, instance.record_size())
        if attr in self.indexes.attr_names:
            self.indexes.note_attr_written(iid, attr, value, instance.class_name)
        self.engine.propagate_intrinsic_change(attr_slot(iid, attr))

    def get_attr(self, iid: int, attr: str) -> Any:
        """Retrieve an attribute value, evaluating it if out of date."""
        return self.engine.demand(self._readable_slot(iid, attr))

    def _readable_slot(self, iid: int, attr: str) -> Slot:
        """The slot ``get_attr`` reads; raises for an unknown instance or attribute."""
        instance = self.instance(iid)
        if attr not in self._plan(iid).attributes and not (
            is_constraint_attr(attr) or is_subtype_attr(attr)
        ):
            raise UnknownAttributeError(
                f"class {instance.class_name!r} has no attribute {attr!r}"
            )
        return attr_slot(iid, attr)

    def get_transmitted(self, iid: int, port: str, value: str) -> Any:
        """Retrieve a value the instance transmits across ``port``."""
        self._port_def(iid, port)  # validates the instance and the port
        slot = transmit_slot(iid, port, value)
        if self.rule_for(slot) is None:
            return self._flow_default(iid, port, value)
        return self.engine.demand(slot)

    def watch(self, iid: int, attr: str) -> None:
        """Register a standing demand: keep ``attr`` eagerly evaluated.

        The attribute is evaluated immediately (a watch is a query with a
        future), so from this point on it is maintained through every
        propagation wave until :meth:`unwatch`.  It is validated exactly as
        :meth:`get_attr` is, before anything is registered, so a failing
        watch leaves no standing demand behind.
        """
        slot = self._readable_slot(iid, attr)
        self.engine.register_demand(slot)
        self.engine.demand(slot)

    def unwatch(self, iid: int, attr: str) -> None:
        self.engine.unregister_demand(attr_slot(iid, attr))

    # ------------------------------------------------------------------
    # transactions / undo
    # ------------------------------------------------------------------

    def begin(self, label: str = "", batch: bool = False) -> int:
        """Open an explicit transaction.

        ``batch=True`` defers attribute propagation across the whole
        transaction into one coalesced wave at commit (see :meth:`batch`).
        """
        return self.txn.begin(label, batch=batch)

    def commit(self):
        return self.txn.commit()

    def abort(self) -> None:
        self.txn.abort()

    def undo(self):
        """The Undo meta-action: roll back the last committed transaction."""
        return self.txn.undo()

    @contextmanager
    def transaction(self, label: str = "", batch: bool = False) -> Iterator[None]:
        """Run a block as one transaction; aborts on exception."""
        self.begin(label, batch=batch)
        try:
            yield
        except BaseException:
            if self.txn.in_transaction:
                self.abort()
            raise
        else:
            self.commit()

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Coalesce many primitive updates into one propagation wave.

        Inside the block, :meth:`set_attr` / :meth:`connect` /
        :meth:`disconnect` buffer their change seeds instead of each
        launching a marking wave; at close, one wave marks from the union
        of the seeds (still cutting short at already-marked slots) and then
        evaluates the important slots -- so N updates to overlapping
        regions pay for the region once, generalising the paper's O(1)
        second-assignment property to arbitrary bulk updates.

        Reads inside the block stay exact: a :meth:`get_attr` flushes the
        deferred marking first, so it observes precisely the values
        per-update waves would have produced.  The block forms one
        (auto-committed or enclosing) transaction, and a constraint
        violation at close rolls the whole batch back, surfacing as
        :class:`TransactionAborted` just like an unbatched primitive.

        Batches nest; only the outermost close runs the wave.
        """
        with self._primitive():
            self.engine.begin_batch()
            try:
                yield
            except BaseException:
                self.engine.abandon_batch()
                if self._primitive_depth == 1 and self.txn.autocommit_pending:
                    # The block's writes opened an implicit transaction that
                    # will never reach its autocommit: roll it back, as
                    # :meth:`transaction` does for an explicit one.
                    self.engine.reset_wave()
                    self.txn.abort()
                raise
            else:
                self.engine.end_batch()

    def audit_constraints(self) -> None:
        """Evaluate every unverified constraint; raises on violation.

        Pending are the never-checked constraint slots and the engine's
        stale bucket of each constraint slot name; with none pending the
        audit builds nothing.
        """
        pending = self._unchecked_constraints
        for name, bucket in self.engine.stale_constraints:
            if bucket:
                pending = pending | {(iid, name) for iid in bucket}
        if not pending:
            return
        for slot in sorted(pending):
            if slot[0] not in self._catalog:
                self._unchecked_constraints.discard(slot)
                continue
            holds = self.engine.demand(slot)
            if not holds:
                raise ConstraintViolation(constraint_name_of(slot[1]), slot[0])

    def validate_schema(self, strict: bool = False):
        """Run the static analyzer over this database's schema.

        Returns the list of :class:`repro.analysis.Diagnostic` findings.
        With ``strict=True``, error-severity findings raise
        :class:`~repro.errors.SchemaError` instead of being returned --
        useful as an assertion after :meth:`extend_schema`.
        """
        from repro.analysis import analyze_schema, has_errors

        diagnostics = analyze_schema(self.schema)
        if strict and has_errors(diagnostics):
            rendered = [d.render() for d in diagnostics if d.is_error]
            raise SchemaError(
                "schema failed static analysis:\n  " + "\n  ".join(rendered)
            )
        return diagnostics

    # -- the one record interpreter (TransactionManager.replay) ---------------

    def apply(self, record: LogRecord, undo: bool = False) -> None:
        """Turn one log record into database state: its effect, or with
        ``undo`` its inverse.

        Abort, Undo, version checkout and crash recovery all land here, so
        each record kind has one interpreter for both directions.  A
        replayed create also keeps the id allocator ahead of its instance.
        """
        match record:
            case SetAttrRecord():
                value = record.old_value if undo else record.new_value
                self._do_set_attr(record.iid, record.attr, value)
            case CreateRecord():
                if undo:
                    self._do_delete(record.iid)
                else:
                    instance = Instance(record.iid, record.class_name)
                    instance.attrs = dict(record.intrinsics)
                    self._do_create(instance)
                    self._next_iid = max(self._next_iid, record.iid + 1)
            case DeleteRecord():
                if undo:
                    self._do_restore(record.snapshot)
                else:
                    self._do_delete(record.iid)
            case ConnectRecord():
                ends = (record.iid_a, record.port_a, record.iid_b, record.port_b)
                if undo:
                    self._do_disconnect(*ends)
                else:
                    self._do_connect(*ends)
            case DisconnectRecord():
                ends = (record.iid_a, record.port_a, record.iid_b, record.port_b)
                if undo:
                    self._do_connect(*ends, record.index_a, record.index_b)
                else:
                    self._do_disconnect(*ends)
            case _:  # pragma: no cover - exhaustive over LogRecord
                raise TypeError(f"unknown log record {record!r}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def instances_of(self, class_name: str, include_subtypes: bool = True) -> list[int]:
        """Instance ids belonging to a class (static or predicate-defined)."""
        raw = self.schema.classes.get(class_name)
        if raw is None:
            self.schema.resolved(class_name)  # raises UnknownTypeError
        assert raw is not None
        if raw.predicate is not None:
            return [
                iid for iid in self.instance_ids() if self.is_member(iid, class_name)
            ]
        result = []
        for iid in self.instance_ids():
            cls = self._catalog[iid].class_name
            if cls == class_name or (
                include_subtypes and self.schema.is_subclass(cls, class_name)
            ):
                result.append(iid)
        return result

    def is_member(self, iid: int, class_name: str) -> bool:
        """Type test covering static subclassing and predicate subtypes."""
        instance = self.instance(iid)
        raw = self.schema.classes.get(class_name)
        if raw is None:
            self.schema.resolved(class_name)
        assert raw is not None
        if raw.predicate is None:
            return self.schema.is_subclass(instance.class_name, class_name)
        if not self.schema.is_subclass(instance.class_name, raw.supertype or ""):
            return False
        return bool(self.engine.demand(attr_slot(iid, subtype_attr_name(class_name))))

    def where(
        self, class_name: str, predicate: Callable[["InstanceView"], bool]
    ) -> list[int]:
        """Instances of a class whose view satisfies ``predicate``."""
        return [
            iid
            for iid in self.instances_of(class_name)
            if predicate(InstanceView(self, iid))
        ]

    def select(self, class_name: str, predicate) -> list[int]:
        """Instances of a class satisfying a combinator predicate.

        ``predicate`` is a :class:`repro.core.predicates.Predicate`; its
        declared inputs are read for every candidate through
        :meth:`read_inputs` (see
        :meth:`~repro.core.predicates.Predicate.select`).
        """
        return predicate.select(self, self.instances_of(class_name))

    def view(self, iid: int) -> "InstanceView":
        return InstanceView(self, iid)

    # -- the query read path ---------------------------------------------------

    def read_inputs(
        self,
        iids: list[int],
        inputs: Sequence[Input],
        body: Callable[..., Any] | None = None,
        limit: int | None = None,
    ) -> list:
        """Read each candidate's values for ``inputs``: a query's read path.

        A query is one demand over many slots (section 2.2).  Each
        candidate's record is touched once and its clean values are read
        straight from the stored slots; only a slot that is out of date
        (or was never evaluated) at the moment of its read goes to the
        engine, which evaluates it at most once -- so a query evaluates
        exactly what reading every input through ``get_attr`` would, in
        the same order, without paying that call chain per input.
        ``Received`` values come through :meth:`get_transmitted`.  A read
        the direct path cannot resolve takes ``get_attr``'s checks, so
        errors are the same.  One demand is counted per slot served.

        With a ``body`` -- a positional predicate over one candidate's
        values, in ``inputs`` order -- the result is the candidates it
        holds for, and reading stops once ``limit`` of them match: the body
        runs on one candidate before the next is read.  Without one, the
        result is each candidate's values as a tuple.

        The loop is the reader :func:`~repro.compile.codegen.compile_reader`
        generates for the inputs' signature; a candidate it cannot read in
        place takes :meth:`_read_candidate`.
        """
        kinds = tuple(
            LOCAL if isinstance(decl, Local) else RECEIVED if isinstance(decl, Received) else SELF
            for decl in inputs
        )
        names = tuple(decl.attr for decl in inputs if isinstance(decl, Local))
        engine = self.engine
        engine.settle_marks()
        return compile_reader(kinds)(
            iids,
            names,
            inputs,
            body,
            limit,
            self._catalog.get,
            self.slot_plans.cached_plan,
            engine.out_of_date,
            engine.counters,
            *self.storage.frame_hit(),
            self.storage.touch,
            self._read_candidate,
        )

    def _read_candidate(self, iid: int, inputs: Sequence[Input]) -> list[Any]:
        """One candidate's values for ``inputs``, each slot as its own read.

        The reader's step for a candidate it cannot read in place.  Inputs
        are read in order: a clean ``Local`` slot straight from storage
        (the record is touched at the first one), a stale or missing one
        through :meth:`IncrementalEngine.demand`, ``Received`` values
        through :meth:`_received_input`, and an unreadable name raises what
        ``get_attr`` raises.
        """
        engine = self.engine
        instance = self._catalog.get(iid)
        if instance is None:
            self.instance(iid)  # raises UnknownInstanceError
        attributes = self.slot_plans.plan_of(iid).attributes
        attrs = instance.attrs
        touched = False
        row: list[Any] = []
        for decl in inputs:
            if isinstance(decl, Received):
                row.append(self._received_input(iid, instance, decl))
                continue
            if not isinstance(decl, Local):  # SelfRef
                row.append(iid)
                continue
            name = decl.attr
            if name not in attributes:
                self._readable_slot(iid, name)  # raises unless special
            value = attrs.get(name, _MISSING)
            if value is _MISSING or (iid, name) in engine.out_of_date:
                value = engine.demand((iid, name))
                # Evaluating it can flip a subtype; inside a batch the
                # flip's re-marking is deferred and must land before the
                # next direct read.
                engine.settle_marks()
            else:
                engine.counters.demands += 1
                if not touched:
                    self.storage.touch(iid)
                    touched = True
            row.append(value)
        return row

    def _received_input(self, iid: int, instance: Instance, decl: Received) -> Any:
        """A ``Received`` input: the list on a multi port, else one value.

        Each value comes through :meth:`get_transmitted` (a dangling single
        port reads the flow default), as the per-view reference reads it.
        """
        port_def = self._port_def(iid, decl.port)
        values = [
            self.get_transmitted(conn.peer, conn.peer_port, decl.value)
            for conn in instance.connections_on(decl.port)
        ]
        self.engine.settle_marks()  # see read_inputs
        if port_def.multi:
            return values
        return values[0] if values else self._flow_default(iid, decl.port, decl.value)

    # ------------------------------------------------------------------
    # schema extension / reorganisation
    # ------------------------------------------------------------------

    @contextmanager
    def extend_schema(self) -> Iterator[Schema]:
        """Dynamically extend the type structure (new tools!).

        Unfreezes the schema for the duration of the block and refreezes it
        on exit, revalidating everything and expiring structure caches.
        """
        self.schema.unfreeze()
        try:
            yield self.schema
        finally:
            self.schema.freeze()
            self.slot_plans.clear()
            self._reconcile_after_extension()
            # The extension may add/drop index declarations, classes, or
            # predicate subtypes: re-derive and rebuild from the catalog.
            self.indexes.sync()

    def _reconcile_after_extension(self) -> None:
        """Wire new/changed rules into existing instances after an extension.

        New intrinsic attributes get defaults, and every rule target
        (including predicate-subtype membership rules for a subtype added
        while instances exist) is invalidated so new and redefined
        computations take effect.  The important ones (constraints, subtype
        membership) evaluate immediately, flipping membership of
        pre-existing instances.
        """
        stale: list[Slot] = []
        for iid, instance in self._catalog.items():
            plan = self._plan(iid)
            for attr in plan.attributes.values():
                if attr.intrinsic and attr.name not in instance.attrs:
                    instance.attrs[attr.name] = self.default_for_attr(attr)
            for name in plan.constraints:
                if name not in instance.attrs:
                    self._unchecked_constraints.add((iid, name))
            stale.extend((iid, name) for name in plan.rule_for)
        if stale:
            self.engine.invalidate_derived(stale)

    def peers(self, iid: int, port: str) -> list[int]:
        """The instances connected on ``port``, in connection order."""
        return [conn.peer for conn in self.instance(iid).connections_on(port)]

    def neighbors(self, iid: int) -> list[tuple[str, int]]:
        """Connection oracle used by the clustering algorithm."""
        instance = self.instance(iid)
        return [
            (port, conn.peer) for port, conn in instance.all_connections()
        ]

    def static_cluster_weights(self) -> dict[tuple[int, str], float] | None:
        """Cold-start frontier priors for :func:`greedy_cluster`.

        Expands the static cost model's per-``(class, port)`` weights
        (``schema.analysis_facts.cost.port_weight`` -- op counts of the
        rules that cross each port) over the live connection table.  The
        clustering algorithm consults these only for edges with no
        observed crossing count, so a freshly-loaded database clusters by
        schema-derived importance instead of declaration order; ``None``
        when the freeze-time analysis failed or found no ports.
        """
        facts = getattr(self.schema, "analysis_facts", None)
        if facts is None or not facts.cost.port_weight:
            return None
        port_weight = facts.cost.port_weight
        out: dict[tuple[int, str], float] = {}
        for iid, instance in self._catalog.items():
            for port, __ in instance.all_connections():
                weight = port_weight.get((instance.class_name, port))
                if weight:
                    out[(iid, port)] = weight
        return out or None

    def reorganize(self) -> list[list[int]]:
        """Run the paper's greedy clustering and install the new layout.

        This is the *offline* (stop-the-world) path: every block is rebuilt
        at once and the buffer pool is dropped.  Also refreshes cluster-time
        worst-case statistics, re-seeds the decaying averages (observations
        against the old layout would otherwise keep mispredicting I/O), and
        resets the usage counters for the next adaptation epoch.  See
        :meth:`reorganize_online` for the incremental alternative.
        """
        if self.reorg.active:
            raise StorageError(
                "cannot run an offline reorganisation while an online "
                "epoch is active; finish or abandon it first"
            )
        sizes = {iid: inst.record_size() for iid, inst in self._catalog.items()}
        layout = greedy_cluster(
            sizes,
            self.neighbors,
            self.usage,
            self.storage.disk.block_capacity,
            static_weights=self.static_cluster_weights(),
        )
        self.storage.apply_layout(layout, lambda iid: sizes[iid])
        self._refresh_usage_after_reorg()
        return layout

    def reorganize_online(self, steps_per_drain: int = 1) -> ReorgEpoch:
        """Start an online reorganisation epoch (see repro.storage.reorg).

        Plans the same layout :meth:`reorganize` would install, then
        migrates it a block at a time from the chunk scheduler's idle lane
        (at most ``steps_per_drain`` steps per queue drain) so queries keep
        running against a mixed-but-correct layout.  Returns the epoch
        handle; drive it manually with ``db.reorg.step()`` /
        ``db.reorg.run_to_completion()`` or just keep working and let the
        idle lane finish it.
        """
        return self.reorg.start_epoch(steps_per_drain=steps_per_drain)

    def _refresh_usage_after_reorg(self, reset_counters: bool = True) -> None:
        """Re-align the usage statistics with the (newly changed) layout."""
        estimates = worst_case_estimates(
            self.instance_ids(), self.neighbors, self.storage.block_of
        )
        for (iid, port), estimate in estimates.items():
            self.usage.set_worst_case(iid, port, estimate)
        self.usage.reseed_averages()
        if reset_counters:
            self.usage.reset_counters()

    # ------------------------------------------------------------------
    # EvaluationHost implementation
    # ------------------------------------------------------------------

    def rule_for(self, slot: Slot) -> Rule | None:
        plan = self.slot_plans.plan_of(slot[0])
        return plan.rule_for.get(slot[1]) if plan is not None else None

    def _flow_default(self, iid: int, port: str, value: str) -> Any:
        """The dummy-instance value for a dangling (or rule-less) flow."""
        port_def = self._port_def(iid, port)
        rel = self.schema.relationship_type(port_def.rel_type)
        flow = rel.flow(value)
        if flow.default is not None:
            return flow.default
        return self.schema.atoms.get(flow.atom).default

    def read_slot_value(self, slot: Slot) -> Any:
        iid, name = slot
        instance = self.instance(iid)
        if name in instance.attrs:
            return instance.attrs[name]
        # A peer consumes a flow this class never computes: the flow
        # default stands in (dummy-instance semantics).  The plan holds it
        # for every flow of every port, so a dangling read stays free of
        # string parsing inside a wave.
        default = self.slot_plans.plan_of(iid).flow_defaults.get(name, _MISSING)
        if default is not _MISSING:
            return default
        raise UnknownAttributeError(
            f"instance {iid} has no stored value for slot {name!r}"
        )

    def write_slot_value(self, slot: Slot, value: Any) -> None:
        iid, name = slot
        instance = self.instance(iid)
        attrs = instance.attrs
        old = attrs.get(name, _MISSING)
        attrs[name] = value
        # Equal stored widths mean an identical record size, so the resize
        # (a full per-attribute size recomputation) is a provable no-op.
        if old is _MISSING or _value_width(old) != _value_width(value):
            self.storage.resize(iid, instance.record_size())
        # Index maintenance for derived writes: one set lookup when no
        # index or extent watches this slot name (cf. ``hub.active``).
        indexes = self.indexes
        if name in indexes.hot_names:
            if name in indexes.attr_names:
                indexes.note_attr_written(iid, name, value, instance.class_name)
            else:
                indexes.note_membership_written(iid, name)

    def has_slot_value(self, slot: Slot) -> bool:
        iid, name = slot
        instance = self._catalog.get(iid)
        return instance is not None and name in instance.attrs

    def handle_constraint_result(self, slot: Slot, holds: bool) -> None:
        if holds:
            self._unchecked_constraints.discard(slot)
            return
        if self.txn.rolling_back:
            # Restoring previously consistent state must not be vetoed.
            return
        iid, name = slot
        cname = constraint_name_of(name)
        constraint = self._constraint_def(iid, cname)
        if (
            constraint is not None
            and constraint.recovery is not None
            and slot not in self._in_recovery
        ):
            self._in_recovery.add(slot)
            try:
                constraint.recovery(self, iid)
                if bool(self.engine.demand(slot)):
                    self._unchecked_constraints.discard(slot)
                    return
            finally:
                self._in_recovery.discard(slot)
        raise ConstraintViolation(cname, iid)

    def _constraint_def(self, iid: int, cname: str) -> Constraint | None:
        instance = self._catalog.get(iid)
        if instance is None:
            return None
        for cls_name in (instance.class_name, *sorted(instance.active_subtypes)):
            for constraint in self.schema.resolved(cls_name).constraints:
                if constraint.name == cname:
                    return constraint
        return None

    def handle_subtype_result(self, slot: Slot, member: bool) -> None:
        iid, name = slot
        subtype = subtype_name_of(name)
        if member:
            self.subtypes.attach(iid, subtype)
        else:
            self.subtypes.detach(iid, subtype)

    def note_unchecked_constraint(self, slot: Slot) -> None:
        self._unchecked_constraints.add(slot)

    def forget_unchecked_constraint(self, slot: Slot) -> None:
        self._unchecked_constraints.discard(slot)


class InstanceView:
    """A light ergonomic wrapper: ``view["attr"]`` reads, ``view.set`` writes."""

    __slots__ = ("_db", "iid")

    def __init__(self, db: Database, iid: int) -> None:
        self._db = db
        self.iid = iid

    def __getitem__(self, attr: str) -> Any:
        return self._db.get_attr(self.iid, attr)

    def get(self, attr: str) -> Any:
        return self._db.get_attr(self.iid, attr)

    def set(self, attr: str, value: Any) -> None:
        self._db.set_attr(self.iid, attr, value)

    @property
    def class_name(self) -> str:
        return self._db.instance(self.iid).class_name

    @property
    def active_subtypes(self) -> set[str]:
        return set(self._db.instance(self.iid).active_subtypes)

    def connections(self, port: str) -> list[int]:
        return self._db.peers(self.iid, port)

    def __repr__(self) -> str:
        return f"InstanceView(iid={self.iid}, class={self.class_name!r})"
