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

from repro.agents.acl import MessageTemplate, Performative
from repro.agents.agent import Agent
from repro.agents.behaviours import CyclicBehaviour
from repro.core.costs import DEFAULT_COST_MODEL, TaskKind

#: The attributes that name a series, in the order of its history key.
SERIES_KEY = ("device", "metric", "instance")


def series_filter(admit):
    """The test a series key must pass to get a baseline, or None when
    every series gets one.

    ``admit`` is what :meth:`~repro.rules.engine.InferenceEngine.admits`
    returns for ``"baseline"``: None (every baseline passes the gate) or
    ``{attr: literals}``, of which a baseline needs one.  A literal on an
    attribute outside :data:`SERIES_KEY` cannot be tested on the key, so
    it also builds every series.
    """
    if admit is None or not admit.keys() <= set(SERIES_KEY):
        return None
    tests = [(SERIES_KEY.index(attr), literals)
             for attr, literals in admit.items()]

    def admitted(key):
        for index, literals in tests:
            if key[index] in literals:
                return True
        return False

    return admitted


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
            cluster_of: callable record -> cluster key; required with
                ``dataset_id`` (the writing classifier's strategy).
        """
        records = list(records)
        if not records:
            return 0
        store_cost = self.cost_model.store_cost()
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
        device, time = record.device, record.collected_at
        for metric, instance, value in record.values:
            if not isinstance(value, (int, float)):
                continue
            self._history.setdefault((device, metric, instance), []).append(
                (time, value))

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

    def baselines_for_records(self, records, exclude_after=None, admit=None):
        """Baselines for every (device, metric, instance) in ``records``.

        ``admit`` (the gate's literals, see :func:`series_filter`) builds
        only the series it admits; None builds every series.  Series keep
        the order of their first value.
        """
        admitted = series_filter(admit)
        seen = set()
        baselines = []
        for record in records:
            device = record.device
            for metric, instance, _ in record.values:
                key = (device, metric, instance)
                if key in seen:
                    continue
                seen.add(key)
                if admitted is not None and not admitted(key):
                    continue
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

    def __repr__(self):
        return "ManagementDataStore(@%s, records=%d)" % (
            self.host.name, self.records_stored,
        )


class StorageAgent(Agent):
    """Serves a :class:`ManagementDataStore` over ACL.

    Understood QUERY_REF operations (content dicts):

    * ``{"op": "fetch-cluster", "dataset": ..., "cluster": ...}`` --
      replies INFORM with ``{"records": [...], "baselines": [...]}``,
      reply sized ``fetch_reply_size`` per record.  An optional
      ``"admit_baselines"`` (the analyzer's alpha-gate literals over the
      series key) limits the baselines to the series the rules can read;
      without it every series of the cluster gets one.
    * ``{"op": "fetch-summary", "dataset": ...}`` -- replies INFORM with
      the per-device problem-relevant summary for cross-inference, sized
      ``cross_reply_size``.

    REQUEST operation:

    * ``{"op": "replicate", "records": [...], "dataset": ...,
      "cluster_of": ...}`` -- persists a replicated batch under the
      primary's clusters, without a reply (one-way; the reliable channel,
      when installed, acks the wire message).
    """

    def __init__(self, name, store):
        super().__init__(name)
        self.store = store
        self.queries_answered = 0

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
                records, exclude_after=cutoff,
                admit=content.get("admit_baselines"))
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
        if content.get("op") != "replicate":
            self.reply_to(
                message, Performative.NOT_UNDERSTOOD,
                content={"reason": "unknown op"},
            )
            return
        yield from self.store.store_records(
            content["records"], dataset_id=content.get("dataset"),
            cluster_of=content["cluster_of"],
        )
