"""Distributed Cactis (the Section 5 direction).

"We are in the process of constructing a distributed version of Cactis ...
It will be necessary to allow different users at different machines to
configure their own environments privately and share information."

This module implements that direction over the existing engine as an
N-site sharded federation.  Each *site* is an ordinary
:class:`~repro.core.database.Database` (its own schema, storage,
transactions, users).  Sites share information through **cross-site
relationships**: when a consumer on site B depends on a value transmitted
by a producer on site A, the federation

1. installs (once per schema) a *mirror* object class on B for the
   relationship type -- one intrinsic attribute per flow, plus transmit
   rules republishing them locally;
2. creates a mirror instance standing in for the remote producer and
   connects B's consumer to it, so B's dependency graph, incremental
   evaluation, laziness, and undo all work unchanged; and
3. on :meth:`Federation.sync`, diffs each linked producer's transmitted
   values against its mirrors and ships only the *changes*, grouped into
   one **batch per channel** (ordered producer->consumer site pair) with a
   per-channel monotonic sequence number.

Delivery semantics:

* **Atomic** -- a batch is applied on the consumer inside one batched
  transaction; a constraint violation mid-batch rolls the whole delivery
  back (the batch stays queued and is retried on the next pass), so a
  consumer site never observes a half-applied delivery.
* **Durable, at-least-once** -- on sites opened with ``Database.open``,
  shipping journals a ``fed_send`` record before delivery is attempted and
  a ``fed_ack`` after the consumer committed; recovery replays the outbox,
  so a crash between the two re-delivers rather than loses the batch.
* **Deduplicated** -- the consumer journals a ``fed_recv`` high-water mark
  inside no later than its delivery commit; a re-delivered batch whose
  sequence number is at or below the mark is acknowledged and dropped, so
  at-least-once shipping still applies each batch exactly once.

The result is the paper's sketch made concrete: private local databases,
explicit synchronisation points, and message traffic proportional to what
actually changed (measured by :class:`SyncReport`).  The placement layer
(:mod:`repro.distributed.placement`) migrates instances between sites so
hot cross-site neighborhoods co-locate; :meth:`Federation.migrate_instance`
is the primitive it builds on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.rules import Local, Rule, TransmitTarget
from repro.core.schema import AttributeDef, End, ObjectClass, PortDef, Schema
from repro.errors import CactisError, TransactionAborted
from repro.obs.events import FedBatchApplied, FedBatchShipped, FedMigration
from repro.obs.registry import MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database


class FederationError(CactisError):
    """Cross-site linking misuse (unknown sites, mismatched types...)."""


#: class-name prefix marking mirror classes (placement skips them).
MIRROR_PREFIX = "__mirror__"


def mirror_class_name(rel_type: str, end: End) -> str:
    """Name of the mirror class standing in for remote producers on ``end``."""
    return f"{MIRROR_PREFIX}{rel_type}__{end.value}"


def mirror_attr_name(flow_value: str) -> str:
    """Mirror intrinsic attribute caching one remote flow value."""
    return f"v_{flow_value}"


def channel_key(producer_site: str, consumer_site: str) -> str:
    """The durable name of one ordered delivery channel between two sites."""
    return f"{producer_site}>{consumer_site}"


def _mirror_class(rel_name: str, rel, producer_end: End) -> ObjectClass:
    """Build the mirror class for remote producers of one relationship end."""
    attributes = [
        AttributeDef("origin_site", "string"),
        AttributeDef("origin_instance", "integer"),
        AttributeDef("origin_port", "string"),
    ]
    rules = []
    for flow in rel.values_sent_by(producer_end):
        attributes.append(AttributeDef(mirror_attr_name(flow.value), flow.atom))
        rules.append(
            Rule(
                TransmitTarget("remote", flow.value),
                {"v": Local(mirror_attr_name(flow.value))},
                lambda v: v,
                name=f"mirror:{rel_name}:{flow.value}",
            )
        )
    return ObjectClass(
        mirror_class_name(rel_name, producer_end),
        attributes=attributes,
        ports=[PortDef("remote", rel_name, producer_end, multi=True)],
        rules=rules,
    )


def federated_schema(schema: Schema) -> Schema:
    """Pre-install every mirror class a federation could need into ``schema``.

    Linking adds mirror classes on demand through ``extend_schema``, which
    is fine for in-memory sites -- but a *durable* site recovers by
    replaying its WAL against the caller-provided schema, and a replayed
    mirror-instance create would not know its class.  Open durable consumer
    sites with ``Database.open(path, federated_schema(build_schema()))`` so
    the mirror classes exist before any record replays.

    Returns the schema, frozen, for call-site convenience.
    """
    if schema.frozen:
        schema.unfreeze()
    for rel_name, rel in schema.relationship_types.items():
        for end in (End.PLUG, End.SOCKET):
            if not rel.values_sent_by(end):
                continue
            if mirror_class_name(rel_name, end) in schema.classes:
                continue
            schema.add_class(_mirror_class(rel_name, rel, end))
    return schema.freeze()


@dataclass(frozen=True)
class CrossLink:
    """One cross-site dependency edge."""

    consumer_site: str
    consumer_iid: int
    consumer_port: str
    producer_site: str
    producer_iid: int
    producer_port: str
    mirror_iid: int


@dataclass
class FederationStats:
    """Federation-lifetime accounting behind :meth:`Federation.metrics`."""

    batches_shipped: int = 0
    batches_applied: int = 0
    batches_deduped: int = 0
    batches_failed: int = 0
    dangling_links_dropped: int = 0
    mirrors_collected: int = 0
    migrations: int = 0


@dataclass
class SyncReport:
    """Outcome of one federation synchronisation pass."""

    #: flow values examined against their mirrors during collection.
    values_checked: int = 0
    #: changed values durably applied on consumer sites this pass.
    messages_sent: int = 0
    #: change batches that entered a channel outbox this pass.
    batches_shipped: int = 0
    #: batches applied on their consumer site this pass.
    batches_applied: int = 0
    #: re-delivered batches dropped by the consumer's applied high-water mark.
    batches_deduped: int = 0
    #: deliveries rolled back (constraint violation); the batch stays queued.
    batches_failed: int = 0
    #: links whose producer no longer exists, recorded and dropped this pass.
    dangling_links: list[CrossLink] = field(default_factory=list)
    #: ``(channel, seq, reason)`` for each failed delivery this pass.
    failed_deliveries: list[tuple[str, int, str]] = field(default_factory=list)
    #: mirror key -> values applied into that mirror this pass.
    per_link: dict = field(default_factory=dict)

    @property
    def quiescent(self) -> bool:
        return (
            self.batches_shipped == 0
            and self.batches_applied == 0
            and self.batches_deduped == 0
            and self.batches_failed == 0
        )


class Federation:
    """A set of named sites with batched, sequenced cross-site delivery."""

    def __init__(self) -> None:
        self.sites: dict[str, "Database"] = {}
        self.links: list[CrossLink] = []
        #: (consumer site, producer site, producer iid, producer port) ->
        #: mirror instance id, so several consumers share one mirror.
        self._mirrors: dict[tuple[str, str, int, str], int] = {}
        #: channel -> {seq: [(mirror_iid, attr, value), ...]} awaiting ack.
        self._outbox: dict[str, dict[int, list]] = {}
        #: channel -> next batch sequence number to assign.
        self._next_seq: dict[str, int] = {}
        #: channel -> highest batch sequence applied on the consumer.
        self._applied: dict[str, int] = {}
        #: observed values-applied per cross-link (placement's edge weights).
        self.link_traffic: Counter[CrossLink] = Counter()
        self.stats = FederationStats()
        self.total_messages = 0
        self.sync_passes = 0

    # -- membership ------------------------------------------------------------

    def add_site(self, name: str, db: "Database") -> None:
        """Register a site; adopts any federation state the database carries.

        A recovered durable site re-derives its links and mirror registry
        from the mirror instances it holds, and merges the outbox /
        applied-sequence state its persistence manager replayed from the
        WAL -- so a federation rebuilt after a crash resumes in-flight
        deliveries instead of losing them.
        """
        if name in self.sites:
            raise FederationError(f"site {name!r} is already registered")
        if ">" in name:
            raise FederationError("site names may not contain '>'")
        self.sites[name] = db
        db.add_delete_listener(
            lambda iid, site=name: self._forget_instance(site, iid)
        )
        self._adopt_mirrors(name, db)
        self._merge_fed_state(name, db)

    def site(self, name: str) -> "Database":
        try:
            return self.sites[name]
        except KeyError:
            raise FederationError(f"unknown site {name!r}") from None

    def _adopt_mirrors(self, name: str, db: "Database") -> None:
        """Rebuild link/mirror bookkeeping from a site's mirror instances."""
        for iid in db.instance_ids():
            instance = db.instance(iid)
            if not instance.class_name.startswith(MIRROR_PREFIX):
                continue
            attrs = instance.attrs
            key = (
                name,
                attrs["origin_site"],
                attrs["origin_instance"],
                attrs["origin_port"],
            )
            self._mirrors.setdefault(key, iid)
            for conn in instance.connections_on("remote"):
                link = CrossLink(
                    name, conn.peer, conn.peer_port,
                    attrs["origin_site"], attrs["origin_instance"],
                    attrs["origin_port"], iid,
                )
                if link not in self.links:
                    self.links.append(link)

    def _merge_fed_state(self, name: str, db: "Database") -> None:
        """Fold a durable site's recovered delivery state into this run."""
        manager = getattr(db, "persistence", None)
        if manager is None or manager.fed.empty:
            return
        fed = manager.fed
        for channel, pending in fed.outbox.items():
            if channel.split(">", 1)[0] != name:
                continue
            queue = self._outbox.setdefault(channel, {})
            for seq, changes in pending.items():
                queue.setdefault(seq, [tuple(change) for change in changes])
        for channel, nxt in fed.next_seq.items():
            if channel.split(">", 1)[0] == name:
                self._next_seq[channel] = max(
                    self._next_seq.get(channel, 1), nxt
                )
        for channel, seq in fed.applied.items():
            if channel.split(">", 1)[1] == name:
                self._applied[channel] = max(self._applied.get(channel, 0), seq)

    def _forget_instance(self, site: str, iid: int) -> None:
        """Delete-listener hook: drop bookkeeping naming a gone instance.

        Consumer- and mirror-side references are pruned here; a *producer*
        deletion is deliberately left alone so the next :meth:`sync` can
        record the now-dangling link in its report before dropping it.
        """
        dead = [
            link
            for link in self.links
            if link.consumer_site == site
            and (link.consumer_iid == iid or link.mirror_iid == iid)
        ]
        for link in dead:
            self.links.remove(link)
            self.link_traffic.pop(link, None)
        for key, mirror_iid in list(self._mirrors.items()):
            if key[0] == site and mirror_iid == iid:
                del self._mirrors[key]

    # -- linking ------------------------------------------------------------

    def link(
        self,
        consumer_site: str,
        consumer_iid: int,
        consumer_port: str,
        producer_site: str,
        producer_iid: int,
        producer_port: str,
    ) -> CrossLink:
        """Make a consumer on one site depend on a producer on another."""
        if consumer_site == producer_site:
            raise FederationError(
                "both ends are on the same site; use an ordinary connect"
            )
        consumer_db = self.site(consumer_site)
        producer_db = self.site(producer_site)
        consumer_def = consumer_db._port_def(consumer_iid, consumer_port)
        producer_def = producer_db._port_def(producer_iid, producer_port)
        if consumer_def.rel_type != producer_def.rel_type:
            raise FederationError(
                f"relationship types differ: {consumer_def.rel_type!r} vs "
                f"{producer_def.rel_type!r}"
            )
        if consumer_def.end is producer_def.end:
            raise FederationError(
                "both ports are on the same end of the relationship type"
            )
        self._check_flows_agree(consumer_db, producer_db, consumer_def.rel_type)
        mirror_iid = self._mirror_for(
            consumer_site, producer_site, producer_iid, producer_port,
            consumer_db, producer_def.rel_type, producer_def.end,
        )
        consumer_db.connect(consumer_iid, consumer_port, mirror_iid, "remote")
        link = CrossLink(
            consumer_site, consumer_iid, consumer_port,
            producer_site, producer_iid, producer_port, mirror_iid,
        )
        self.links.append(link)
        return link

    def unlink(self, link: CrossLink) -> None:
        """Remove a cross-site dependency (the mirror stays, idle).

        An idle mirror ships nothing -- :meth:`sync` only collects for
        mirrors with at least one live link -- and :meth:`gc_mirrors`
        reclaims it once no consumer is connected.
        """
        if link not in self.links:
            raise FederationError("unknown cross-link")
        consumer_db = self.site(link.consumer_site)
        consumer_db.disconnect(
            link.consumer_iid, link.consumer_port, link.mirror_iid, "remote"
        )
        if link in self.links:  # the delete listener may have pruned it
            self.links.remove(link)
        self.link_traffic.pop(link, None)

    def _check_flows_agree(self, db_a, db_b, rel_type: str) -> None:
        flows_a = {
            (f.value, f.sent_by)
            for f in db_a.schema.relationship_type(rel_type).flows.values()
        }
        flows_b = {
            (f.value, f.sent_by)
            for f in db_b.schema.relationship_type(rel_type).flows.values()
        }
        if flows_a != flows_b:
            raise FederationError(
                f"sites disagree about relationship type {rel_type!r}"
            )

    def _mirror_for(
        self,
        consumer_site: str,
        producer_site: str,
        producer_iid: int,
        producer_port: str,
        consumer_db: "Database",
        rel_type: str,
        producer_end: End,
    ) -> int:
        key = (consumer_site, producer_site, producer_iid, producer_port)
        existing = self._mirrors.get(key)
        if existing is not None:
            return existing
        self._ensure_mirror_class(consumer_db, rel_type, producer_end)
        mirror_iid = consumer_db.create(
            mirror_class_name(rel_type, producer_end),
            origin_site=producer_site,
            origin_instance=producer_iid,
            origin_port=producer_port,
        )
        self._mirrors[key] = mirror_iid
        return mirror_iid

    def _ensure_mirror_class(
        self, db: "Database", rel_type: str, producer_end: End
    ) -> None:
        name = mirror_class_name(rel_type, producer_end)
        if name in db.schema.classes:
            return
        rel = db.schema.relationship_type(rel_type)
        with db.extend_schema() as schema:
            schema.add_class(_mirror_class(rel_type, rel, producer_end))

    # -- synchronisation ------------------------------------------------------

    def sync(self) -> SyncReport:
        """One synchronisation pass: collect change batches, then deliver.

        Collection diffs each live-linked mirror against its producer's
        current transmitted values and ships the changed ones as one batch
        per channel (journalled ``fed_send`` on durable producers).
        Delivery applies each pending batch atomically on its consumer in
        sequence order.  A write into a mirror is an ordinary intrinsic
        update on the consumer site, so the local incremental engine marks
        exactly the affected region.
        """
        report = SyncReport()
        self.sync_passes += 1
        self._collect(report)
        self._deliver(report)
        self.total_messages += report.messages_sent
        return report

    def _collect(self, report: SyncReport) -> None:
        # A producer deleted on its own site leaves its links dangling;
        # record them once and drop them instead of letting the lookup
        # raise out of the pass (consumers keep the last synced value).
        for link in list(self.links):
            producer_db = self.sites.get(link.producer_site)
            if producer_db is not None and not producer_db.exists(
                link.producer_iid
            ):
                report.dangling_links.append(link)
                self.links.remove(link)
                self.link_traffic.pop(link, None)
        self.stats.dangling_links_dropped += len(report.dangling_links)

        live: dict[tuple[str, str, int, str], list[CrossLink]] = {}
        for link in self.links:
            key = (
                link.consumer_site, link.producer_site,
                link.producer_iid, link.producer_port,
            )
            live.setdefault(key, []).append(link)

        # Channels with unacked batches skip collection this pass: their
        # mirrors still show pre-delivery values, so re-diffing would ship
        # the same changes twice.  Delivery below drains them first.
        blocked = {ch for ch, pending in self._outbox.items() if pending}
        batches: dict[str, list] = {}
        for key, mirror_iid in self._mirrors.items():
            links_here = live.get(key)
            if not links_here:
                continue  # idle mirror: every link was removed
            consumer_site, producer_site, producer_iid, producer_port = key
            channel = channel_key(producer_site, consumer_site)
            if channel in blocked:
                continue
            consumer_db = self.site(consumer_site)
            producer_db = self.site(producer_site)
            if not consumer_db.exists(mirror_iid):
                continue  # mirror deleted locally; skip
            port_def = consumer_db._port_def(mirror_iid, "remote")
            rel = consumer_db.schema.relationship_type(port_def.rel_type)
            for flow in rel.values_sent_by(port_def.end):
                report.values_checked += 1
                value = producer_db.get_transmitted(
                    producer_iid, producer_port, flow.value
                )
                attr = mirror_attr_name(flow.value)
                if consumer_db.get_attr(mirror_iid, attr) != value:
                    batches.setdefault(channel, []).append(
                        (mirror_iid, attr, value)
                    )

        for channel, changes in batches.items():
            producer_site = channel.split(">", 1)[0]
            producer_db = self.site(producer_site)
            seq = self._next_seq.get(channel, 1)
            self._next_seq[channel] = seq + 1
            manager = getattr(producer_db, "persistence", None)
            if manager is not None:
                manager.log_fed_send(channel, seq, changes)
            self._outbox.setdefault(channel, {})[seq] = changes
            report.batches_shipped += 1
            self.stats.batches_shipped += 1
            hub = producer_db.obs.hub
            if hub.active:
                hub.emit(
                    FedBatchShipped(
                        channel=channel, seq=seq, values=len(changes)
                    )
                )

    def _deliver(self, report: SyncReport) -> None:
        mirror_key_of = {
            (key[0], mirror_iid): key for key, mirror_iid in self._mirrors.items()
        }
        for channel in sorted(self._outbox):
            producer_site, consumer_site = channel.split(">", 1)
            producer_db = self.site(producer_site)
            consumer_db = self.site(consumer_site)
            for seq in sorted(self._outbox[channel]):
                changes = self._outbox[channel][seq]
                if seq <= self._applied.get(channel, 0):
                    # Redelivery of a batch the consumer durably applied
                    # (crash between apply and ack): acknowledge and drop.
                    self._ack(producer_db, channel, seq)
                    report.batches_deduped += 1
                    self.stats.batches_deduped += 1
                    self._emit_applied(
                        consumer_db, channel, seq, 0, deduped=True
                    )
                    continue
                try:
                    applied = self._apply_batch(
                        consumer_db, channel, seq, changes
                    )
                except TransactionAborted as exc:
                    report.batches_failed += 1
                    self.stats.batches_failed += 1
                    report.failed_deliveries.append((channel, seq, str(exc)))
                    break  # preserve order: later batches wait for this one
                self._applied[channel] = seq
                manager = getattr(consumer_db, "persistence", None)
                if manager is not None:
                    manager.log_fed_recv(channel, seq)
                self._ack(producer_db, channel, seq)
                report.batches_applied += 1
                self.stats.batches_applied += 1
                report.messages_sent += applied
                self._emit_applied(consumer_db, channel, seq, applied)
                for mirror_iid, __, __ in changes:
                    key = mirror_key_of.get((consumer_site, mirror_iid))
                    if key is None:
                        continue
                    report.per_link[key] = report.per_link.get(key, 0) + 1
                    for link in self.links:
                        if (
                            link.consumer_site,
                            link.producer_site,
                            link.producer_iid,
                            link.producer_port,
                        ) == key:
                            self.link_traffic[link] += 1

    def _apply_batch(
        self, consumer_db: "Database", channel: str, seq: int, changes: list
    ) -> int:
        """Apply one batch atomically; returns values written.

        The batched transaction coalesces every mirror write into one
        propagation wave, and a constraint violation at commit rolls the
        whole delivery back (surfacing as ``TransactionAborted``).
        """
        applied = 0
        with consumer_db.transaction(label=f"fed:{channel}:{seq}", batch=True):
            for mirror_iid, attr, value in changes:
                if not consumer_db.exists(mirror_iid):
                    continue  # mirror deleted after shipment
                consumer_db.set_attr(mirror_iid, attr, value)
                applied += 1
        return applied

    def _ack(self, producer_db: "Database", channel: str, seq: int) -> None:
        manager = getattr(producer_db, "persistence", None)
        if manager is not None:
            manager.log_fed_ack(channel, seq)
        pending = self._outbox.get(channel)
        if pending is not None:
            pending.pop(seq, None)
            if not pending:
                del self._outbox[channel]

    def _emit_applied(
        self,
        consumer_db: "Database",
        channel: str,
        seq: int,
        values: int,
        deduped: bool = False,
    ) -> None:
        hub = consumer_db.obs.hub
        if hub.active:
            hub.emit(
                FedBatchApplied(
                    channel=channel, seq=seq, values=values, deduped=deduped
                )
            )

    def sync_until_quiescent(self, max_passes: int = 16) -> int:
        """Repeat sync until no message moves (chained cross-site paths).

        Returns the number of passes executed.  A ring of cross-site
        dependencies that never stabilises raises, mirroring the single-
        site cycle prohibition.
        """
        for passes in range(1, max_passes + 1):
            if self.sync().quiescent:
                return passes
        raise FederationError(
            f"federation did not stabilise in {max_passes} passes; "
            f"is there a cross-site dependency cycle?"
        )

    # -- migration (the placement layer's primitive) ---------------------------

    def migrate_instance(self, from_site: str, iid: int, to_site: str) -> int:
        """Move one instance to another site, rewiring every relationship.

        Cross-links whose far end lives on ``to_site`` collapse into
        ordinary local connections (the payoff placement is after); local
        connections left behind become cross-links.  Mirror values on the
        new site start at flow defaults and repopulate on the next sync.
        The move is bracketed by ``fed_migrate`` journal records on a
        durable source site; the per-site creates, connects, and deletes
        are ordinary logged primitives, so each site recovers
        independently.  Returns the instance's id on the target site.
        """
        if from_site == to_site:
            raise FederationError("source and target site are the same")
        src = self.site(from_site)
        dst = self.site(to_site)
        instance = src.instance(iid)
        if instance.class_name.startswith(MIRROR_PREFIX):
            raise FederationError(
                "mirrors are delivery artifacts; they are not migrated"
            )
        manager = getattr(src, "persistence", None)
        if manager is not None:
            manager.log_fed_migrate("begin", iid, from_site, to_site)
        resolved = src.schema.resolved(instance.class_name)
        intrinsics = {
            a.name: instance.attrs[a.name]
            for a in resolved.attributes.values()
            if a.intrinsic and a.name in instance.attrs
        }
        new_iid = dst.create(instance.class_name, **intrinsics)
        rewired = 0
        for link in [
            l for l in self.links
            if l.producer_site == from_site and l.producer_iid == iid
        ]:
            self.unlink(link)
            if link.consumer_site == to_site:
                dst.connect(
                    link.consumer_iid, link.consumer_port,
                    new_iid, link.producer_port,
                )
            else:
                self.link(
                    link.consumer_site, link.consumer_iid, link.consumer_port,
                    to_site, new_iid, link.producer_port,
                )
            rewired += 1
        for link in [
            l for l in self.links
            if l.consumer_site == from_site and l.consumer_iid == iid
        ]:
            self.unlink(link)
            if link.producer_site == to_site:
                dst.connect(
                    new_iid, link.consumer_port,
                    link.producer_iid, link.producer_port,
                )
            else:
                self.link(
                    to_site, new_iid, link.consumer_port,
                    link.producer_site, link.producer_iid, link.producer_port,
                )
            rewired += 1
        for port, conn in list(src.instance(iid).all_connections()):
            src.disconnect(iid, port, conn.peer, conn.peer_port)
            if src.instance(conn.peer).class_name.startswith(MIRROR_PREFIX):
                continue  # an orphaned mirror edge; gc_mirrors reclaims it
            rewired += self._split_connection(
                from_site, conn.peer, conn.peer_port, to_site, new_iid, port
            )
        src.delete(iid)
        if manager is not None:
            manager.log_fed_migrate("end", iid, from_site, to_site)
        self.stats.migrations += 1
        hub = src.obs.hub
        if hub.active:
            hub.emit(
                FedMigration(
                    iid=iid, from_site=from_site, to_site=to_site,
                    links_rewired=rewired,
                )
            )
        return new_iid

    def _split_connection(
        self,
        site_a: str, iid_a: int, port_a: str,
        site_b: str, iid_b: int, port_b: str,
    ) -> int:
        """Turn a broken local connection into cross-links, one per
        direction that transmits values (or one for pure topology)."""
        db_a = self.site(site_a)
        def_a = db_a._port_def(iid_a, port_a)
        rel = db_a.schema.relationship_type(def_a.rel_type)
        end_a = def_a.end
        end_b = End.PLUG if end_a is End.SOCKET else End.SOCKET
        created = 0
        if rel.values_sent_by(end_b):  # b produces for a
            self.link(site_a, iid_a, port_a, site_b, iid_b, port_b)
            created += 1
        if rel.values_sent_by(end_a):  # a produces for b
            self.link(site_b, iid_b, port_b, site_a, iid_a, port_a)
            created += 1
        if not created:  # no flows either way: keep the topology one-way
            self.link(site_a, iid_a, port_a, site_b, iid_b, port_b)
            created += 1
        return created

    def gc_mirrors(self) -> int:
        """Delete mirrors with no live link and no connected consumer.

        A mirror whose links were dropped but whose consumers are still
        physically connected is left alone -- those consumers keep the last
        synced value by design (e.g. after a producer deletion).
        """
        live_keys = {
            (
                link.consumer_site, link.producer_site,
                link.producer_iid, link.producer_port,
            )
            for link in self.links
        }
        removed = 0
        for key, mirror_iid in list(self._mirrors.items()):
            if key in live_keys:
                continue
            consumer_db = self.site(key[0])
            if not consumer_db.exists(mirror_iid):
                del self._mirrors[key]
                continue
            if consumer_db.instance(mirror_iid).connections_on("remote"):
                continue
            consumer_db.delete(mirror_iid)  # listener drops the registry entry
            removed += 1
        self.stats.mirrors_collected += removed
        return removed

    # -- observability ---------------------------------------------------------

    def metrics(self) -> MetricsSnapshot:
        """Federation-level counters as a diff-able snapshot.

        Per-site engine/WAL/buffer counters live on each site's own
        ``Database.metrics()``; this section covers only the cross-site
        layer (documented in docs/DISTRIBUTED.md).
        """
        return MetricsSnapshot(
            {
                "federation": {
                    "sites": len(self.sites),
                    "links": len(self.links),
                    "mirrors": len(self._mirrors),
                    "sync_passes": self.sync_passes,
                    "total_messages": self.total_messages,
                    "batches_shipped": self.stats.batches_shipped,
                    "batches_applied": self.stats.batches_applied,
                    "batches_deduped": self.stats.batches_deduped,
                    "batches_failed": self.stats.batches_failed,
                    "dangling_links_dropped": self.stats.dangling_links_dropped,
                    "mirrors_collected": self.stats.mirrors_collected,
                    "migrations": self.stats.migrations,
                    "outbox_pending": sum(
                        len(pending) for pending in self._outbox.values()
                    ),
                }
            }
        )
