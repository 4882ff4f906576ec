"""Management-data storage: indexed history, datasets and the storage agent.

The classifier grid's output lands here: parsed records are persisted
(paying the Table 1 "Storing" cost on the storage host), indexed by
(device, metric) into a history that level-2 analyses consult as
*baselines*, and grouped into *datasets* of *clusters* ready for
distribution to analyzer containers.

:class:`StorageAgent` exposes the store over ACL for analyzers on other
hosts; fetch messages are sized so an analyzer's network ledger matches
Table 1's inference network cost (see :class:`~repro.core.costs.CostModel`).
"""

import itertools

from repro.agents.acl import ACLMessage, MessageTemplate, Performative
from repro.agents.agent import Agent
from repro.agents.behaviours import CyclicBehaviour
from repro.core.costs import DEFAULT_COST_MODEL, TaskKind


class ManagementDataStore:
    """Record persistence + history index + dataset registry on one host."""

    def __init__(self, host, cost_model=None):
        self.host = host
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self._history = {}   # (device, metric, instance) -> [(time, value)]
        self._datasets = {}  # dataset_id -> {cluster_key: [records]}
        self.records_stored = 0
        self.fetches_served = 0
        #: The :class:`~repro.core.replication.ReplicationService` that
        #: ships every persisted batch to this store's replica, or None.
        self.replication = None

    # -- persistence (process generators charging Table 1 costs) ----------

    def store_records(self, records, dataset_id=None, cluster_of=None):
        """Persist records (process generator charging STORE per record).

        Args:
            records: iterable of parsed :class:`ManagementRecord`.
            dataset_id: when given, records are also grouped into that
                dataset under ``cluster_of(record)`` keys.
            cluster_of: callable record -> cluster key (defaults to the
                record's metric group).
        """
        records = list(records)
        if not records:
            return 0
        store_cost = self.cost_model.store_cost()
        if cluster_of is None:
            cluster_of = lambda record: record.group
        for record in records:
            if store_cost.cpu:
                yield self.host.cpu.use(store_cost.cpu, label="store")
            if store_cost.disk:
                yield self.host.disk.use(store_cost.disk, label="store")
            self._index(record)
            if dataset_id is not None:
                clusters = self._datasets.setdefault(dataset_id, {})
                clusters.setdefault(cluster_of(record), []).append(record)
            self.records_stored += 1
        if self.replication is not None:
            self.replication.ship(self, records, dataset_id)
        return len(records)

    def _index(self, record):
        for sample in record.samples:
            if not isinstance(sample.value, (int, float)):
                continue
            key = (sample.device, sample.metric, sample.instance)
            self._history.setdefault(key, []).append((sample.time, sample.value))

    # -- dataset access -----------------------------------------------------

    def dataset_ids(self):
        return sorted(self._datasets)

    def clusters_of(self, dataset_id):
        return sorted(self._datasets.get(dataset_id, ()))

    def fetch_cluster(self, dataset_id, cluster):
        """Records of one cluster (no cost here; agents charge transfers)."""
        self.fetches_served += 1
        return list(self._datasets.get(dataset_id, {}).get(cluster, ()))

    def dataset_size(self, dataset_id):
        clusters = self._datasets.get(dataset_id, {})
        return sum(len(records) for records in clusters.values())

    def drop_dataset(self, dataset_id):
        self._datasets.pop(dataset_id, None)

    # -- history / baselines ---------------------------------------------------

    def history(self, device, metric, instance=None):
        return list(self._history.get((device, metric, instance), ()))

    def baseline(self, device, metric, instance=None, exclude_after=None):
        """Mean/max baseline for a series, or None when no history.

        ``exclude_after`` drops observations newer than the given time so a
        level-2 analysis can compare "now" against "before".
        """
        points = self._history.get((device, metric, instance))
        if not points:
            return None
        values = [
            value for time, value in points
            if exclude_after is None or time <= exclude_after
        ]
        if not values:
            return None
        return {
            "device": device,
            "metric": metric,
            "instance": instance,
            "mean": sum(values) / len(values),
            "maximum": max(values),
            "count": len(values),
        }

    def baselines_for_records(self, records, exclude_after=None):
        """Baselines for every (device, metric, instance) in ``records``."""
        seen = set()
        baselines = []
        for record in records:
            for sample in record.samples:
                key = (sample.device, sample.metric, sample.instance)
                if key in seen:
                    continue
                seen.add(key)
                baseline = self.baseline(*key, exclude_after=exclude_after)
                if baseline is not None:
                    baselines.append(baseline)
        return baselines

    def summary(self):
        return {
            "records_stored": self.records_stored,
            "series": len(self._history),
            "datasets": len(self._datasets),
            "fetches_served": self.fetches_served,
        }

    # -- shard rebalance (consistent-hash grid) -----------------------------

    def devices_held(self):
        """Device names with any data (history or dataset records) here."""
        devices = {key[0] for key in self._history}
        for clusters in self._datasets.values():
            for records in clusters.values():
                devices.update(record.device for record in records)
        return devices

    def extract_device_data(self, devices):
        """Copy out everything owned by ``devices`` for a shard transfer.

        Returns ``(history, datasets)`` where history maps series key ->
        point list and datasets maps dataset_id -> {cluster: [records]}.
        Nothing is removed here: the no-silent-loss rebalance protocol is
        copy, wait for the destination's CONFIRM, then
        :meth:`drop_device_data` -- an unconfirmed transfer leaves the
        source copy authoritative.
        """
        devices = set(devices)
        history = {
            key: list(points) for key, points in self._history.items()
            if key[0] in devices
        }
        datasets = {}
        for dataset_id, clusters in self._datasets.items():
            for cluster, records in clusters.items():
                moved = [r for r in records if r.device in devices]
                if moved:
                    datasets.setdefault(dataset_id, {})[cluster] = moved
        return history, datasets

    def absorb_migration(self, history, datasets):
        """Merge a shard transfer in; returns items absorbed (points+records)."""
        absorbed = 0
        for key, points in history.items():
            series = self._history.setdefault(key, [])
            series.extend(points)
            series.sort()  # interleave with any locally collected points
            absorbed += len(points)
        for dataset_id, clusters in datasets.items():
            local = self._datasets.setdefault(dataset_id, {})
            for cluster, records in clusters.items():
                local.setdefault(cluster, []).extend(records)
                absorbed += len(records)
                self.records_stored += len(records)
        return absorbed

    def drop_device_data(self, devices):
        """Remove data owned by ``devices`` (post-CONFIRM side of a move)."""
        devices = set(devices)
        dropped = 0
        for key in [key for key in self._history if key[0] in devices]:
            dropped += len(self._history.pop(key))
        for dataset_id in list(self._datasets):
            clusters = self._datasets[dataset_id]
            for cluster in list(clusters):
                records = clusters[cluster]
                kept = [r for r in records if r.device not in devices]
                removed = len(records) - len(kept)
                if removed:
                    dropped += removed
                    self.records_stored -= removed
                    if kept:
                        clusters[cluster] = kept
                    else:
                        del clusters[cluster]
            if not clusters:
                del self._datasets[dataset_id]
        return dropped

    def __repr__(self):
        return "ManagementDataStore(@%s, records=%d)" % (
            self.host.name, self.records_stored,
        )


class StorageAgent(Agent):
    """Serves a :class:`ManagementDataStore` over ACL.

    Understood QUERY_REF operations (content dicts):

    * ``{"op": "fetch-cluster", "dataset": ..., "cluster": ...}`` --
      replies INFORM with ``{"records": [...], "baselines": [...]}``,
      reply sized ``fetch_reply_size`` per record.
    * ``{"op": "fetch-summary", "dataset": ...}`` -- replies INFORM with
      the per-device problem-relevant summary for cross-inference, sized
      ``cross_reply_size``.

    REQUEST operations:

    * ``{"op": "store-batch", "records": [...], "dataset": ...}`` --
      persists records, replies CONFIRM.
    * ``{"op": "replicate", "records": [...], "dataset": ...}`` -- persists
      a replicated batch without a reply (one-way; the reliable channel,
      when installed, acks the wire message).
    * ``{"op": "migrate-in", "history": ..., "datasets": ...}`` -- absorbs
      a shard-rebalance transfer (see :meth:`migrate_devices`), replies
      CONFIRM with the absorbed item count.
    """

    def __init__(self, name, store):
        super().__init__(name)
        self.store = store
        self.queries_answered = 0
        self.migrations_out = 0
        self.items_migrated_out = 0
        self.items_migrated_in = 0
        self._migration_seq = itertools.count(1)

    @property
    def cost_model(self):
        return self.store.cost_model

    def setup(self):
        agent = self

        class Serve(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.QUERY_REF))
                if message is not None:
                    yield from agent._answer_query(message)

        class StoreBatches(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(MessageTemplate(
                    performative=Performative.REQUEST))
                if message is not None:
                    yield from agent._store_batch(message)

        self.add_behaviour(Serve("serve-queries"))
        self.add_behaviour(StoreBatches("store-batches"))

    # -- handlers -----------------------------------------------------------

    def _answer_query(self, message):
        content = message.content
        operation = content.get("op")
        if operation == "fetch-cluster":
            records = self.store.fetch_cluster(content["dataset"], content["cluster"])
            # Baselines describe history *before* the batch under analysis;
            # including the batch itself would dilute every trend/surge
            # comparison toward 1.0.
            cutoff = None
            if records:
                cutoff = min(record.collected_at for record in records) - 1e-9
            baselines = self.store.baselines_for_records(
                records, exclude_after=cutoff)
            small_read = 0.5 * max(1, len(records))
            yield self.host.disk.use(small_read, label="fetch")
            self.queries_answered += 1
            # Fetch replies ride the reliable channel (when installed): a
            # lost reply is indistinguishable from a slow one to the
            # analyzer, and the retry it triggers re-reads the store.
            self.reply_to(
                message, Performative.INFORM,
                content={"records": records, "baselines": baselines},
                size_units=self.cost_model.fetch_reply_size * max(1, len(records)),
                reliable=True,
            )
        elif operation == "fetch-summary":
            dataset_id = content["dataset"]
            summary = {
                "dataset": dataset_id,
                "record_count": self.store.dataset_size(dataset_id),
                "clusters": self.store.clusters_of(dataset_id),
                "store": self.store.summary(),
            }
            yield self.host.disk.use(1.0, label="fetch")
            self.queries_answered += 1
            self.reply_to(
                message, Performative.INFORM, content=summary,
                size_units=self.cost_model.cross_reply_size,
                reliable=True,
            )
        else:
            self.reply_to(
                message, Performative.NOT_UNDERSTOOD,
                content={"reason": "unknown op %r" % operation},
            )

    def _store_batch(self, message):
        content = message.content
        operation = content.get("op")
        if operation == "migrate-in":
            absorbed = self.store.absorb_migration(
                content["history"], content["datasets"],
            )
            self.items_migrated_in += absorbed
            if absorbed:
                yield self.host.disk.use(
                    0.5 * absorbed, label="rebalance",
                )
            # The CONFIRM authorizes the source to drop its copy; it rides
            # the reliable channel (when installed) because losing it would
            # strand the data on the old owner, not lose it.
            self.reply_to(
                message, Performative.CONFIRM,
                content={"absorbed": absorbed}, reliable=True,
            )
            return
        if operation not in ("store-batch", "replicate"):
            self.reply_to(
                message, Performative.NOT_UNDERSTOOD,
                content={"reason": "unknown op"},
            )
            return
        records = content["records"]
        stored = yield from self.store.store_records(
            records, dataset_id=content.get("dataset"),
            cluster_of=content.get("cluster_of"),
        )
        if operation == "store-batch":
            self.reply_to(
                message, Performative.CONFIRM, content={"stored": stored},
            )

    # -- shard rebalance ----------------------------------------------------

    def migrate_devices(self, devices, target_agent_name, timeout=60.0):
        """Transfer this store's data for ``devices`` to another shard.

        Process generator implementing the copy -> CONFIRM -> drop
        protocol: the local copy is only removed after the destination
        confirms absorption, so a lost transfer (or a dead destination)
        degrades to data staying on the old owner -- never to silent
        loss.  Returns the number of items moved (0 when nothing was
        owned or the destination never confirmed).
        """
        history, datasets = self.store.extract_device_data(devices)
        items = sum(len(points) for points in history.values()) + sum(
            len(records)
            for clusters in datasets.values()
            for records in clusters.values()
        )
        if items == 0:
            return 0
        conversation = "migrate-%s-%d" % (self.name, next(self._migration_seq))
        yield self.host.disk.use(0.5 * items, label="rebalance")
        self.send_reliable(ACLMessage(
            Performative.REQUEST,
            sender=self.name,
            receiver=target_agent_name,
            content={"op": "migrate-in", "history": history,
                     "datasets": datasets},
            conversation_id=conversation,
            size_units=0.5 * items,
        ))
        reply = yield from self.receive(
            MessageTemplate(performative=Performative.CONFIRM,
                            conversation_id=conversation),
            timeout=timeout,
        )
        if reply is None:
            return 0  # unconfirmed: keep our copy (no silent loss)
        self.store.drop_device_data(devices)
        self.migrations_out += 1
        self.items_migrated_out += items
        return items

