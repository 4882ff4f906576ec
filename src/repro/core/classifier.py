"""The Classifier Grid (CLG).

"The classification grid carries out the task of classifying and storing
this information in a more organized and easy-to-retrieve form [...] it is
clear that the classifier grid performs parsing, classification, indexing
and storing data tasks" (section 3.2).

A classifier agent receives collected batches, finishes parsing when
records arrive raw (centralized shipping), clusters them so "the analysis
tasks can be easily distributed" without loss of meaning, persists them
into the co-located :class:`~repro.core.storage.ManagementDataStore`
(paying the Table 1 Storing cost), and notifies the processor grid with a
FIPA ACL ``data-ready`` message once a dataset closes.
"""

from repro.agents.acl import ACLMessage, MessageTemplate, Performative
from repro.agents.agent import Agent
from repro.agents.behaviours import CyclicBehaviour
from repro.agents.ontology import DATA_READY
from repro.core.costs import DEFAULT_COST_MODEL, TaskKind

#: CPU units charged per record for classification/indexing proper (on top
#: of the Table 1 Storing cost, which covers persistence).  Documented
#: estimate; the paper folds classification into the storing task.
CLASSIFY_CPU_PER_RECORD = 1.0


def cluster_by_group(record):
    """Default clustering: by metric group (Figure 3's X / Y / W split)."""
    return record.group


def cluster_by_device(record):
    return "device:" + record.device


def cluster_by_site(record):
    return "site:" + (record.site or "unknown")


CLUSTER_STRATEGIES = {
    "by-group": cluster_by_group,
    "by-device": cluster_by_device,
    "by-site": cluster_by_site,
}


class ClassifierAgent(Agent):
    """Parses, classifies, indexes, stores; then notifies the PG.

    Args:
        name: agent name.
        store: the co-located data store (storage cost lands on its host,
            which must be this agent's host).
        processor_name: the processor-grid root agent to notify.
        cost_model: Table 1 cost model.
        cluster_strategy: one of :data:`CLUSTER_STRATEGIES` or a callable.
        dataset_threshold: close the open dataset and notify once it holds
            this many records (None = only on flush timeout).
        flush_timeout: close a non-empty dataset after this much quiet time.
        external_flush: when True, the classify loop blocks indefinitely on
            its mailbox and *never* wakes just to check staleness; some
            external watchdog (the sharded deployment uses one
            :class:`~repro.agents.behaviours.MultiplexedTickerBehaviour`
            for all shard classifiers) must call :meth:`_flush_if_stale`
            periodically.  Coalescing the per-classifier wakeups this way
            keeps idle shard lanes completely activation-free.
    """

    def __init__(
        self,
        name,
        store,
        processor_name,
        cost_model=None,
        cluster_strategy="by-group",
        dataset_threshold=None,
        flush_timeout=5.0,
        external_flush=False,
    ):
        super().__init__(name)
        self.store = store
        self.processor_name = processor_name
        self.cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        if callable(cluster_strategy):
            self.cluster_of = cluster_strategy
        else:
            try:
                self.cluster_of = CLUSTER_STRATEGIES[cluster_strategy]
            except KeyError:
                raise ValueError(
                    "unknown cluster strategy %r (known: %s)"
                    % (cluster_strategy, ", ".join(sorted(CLUSTER_STRATEGIES)))
                ) from None
        self.dataset_threshold = dataset_threshold
        self.flush_timeout = flush_timeout
        self.external_flush = bool(external_flush)
        self.records_classified = 0
        self.datasets_published = 0
        self._open_dataset = None
        self._open_count = 0
        self._open_cluster_counts = {}
        self._last_arrival = 0.0
        # True while a batch is mid-classification (blocked on cpu/disk).
        # An external flush watchdog runs in its own process and could
        # otherwise close the dataset the in-flight batch already chose,
        # stranding its records in a published dataset.
        self._classifying = False
        # last seen (time, value) per counter series, for rate derivation
        self._counter_state = {}
        # classify spans feeding the open dataset: [(trace_id, span_id)]
        self._open_contributors = []

    def setup(self):
        if self.store.host is not self.host:
            raise RuntimeError(
                "classifier %s must be co-located with its store (agent on %s, "
                "store on %s)" % (self.name, self.host.name, self.store.host.name)
            )
        agent = self

        class Classify(CyclicBehaviour):
            def step(self):
                message = yield from self.receive(
                    MessageTemplate(performative=Performative.INFORM,
                                    ontology="collected-batch"),
                    timeout=None if agent.external_flush else agent.flush_timeout,
                )
                if message is None:
                    agent._flush_if_stale()
                    return
                agent._classifying = True
                try:
                    yield from agent._classify_batch(
                        message.content["records"], message=message,
                    )
                finally:
                    agent._classifying = False

        self.add_behaviour(Classify("classify"))

    # -- pipeline ---------------------------------------------------------

    def _classify_batch(self, records, message=None):
        span = None
        telemetry = self.telemetry
        if telemetry is not None and message is not None \
                and message.trace_context is not None:
            # The batch made it across the wire: close its ship span and
            # open the classify leg underneath it.
            recorder = telemetry.recorder
            trace_id, ship_id = message.trace_context
            recorder.end(ship_id)
            span = recorder.start(
                "classify", trace_id, parent=ship_id, grid="classifier",
                host=self.host.name, agent=self.name, records=len(records),
            )
        parsed_records = []
        parse_costs = self.cost_model.parse_costs
        for record in records:
            if not record.parsed:
                parse_cost = parse_costs[record.request_type]
                if parse_cost.cpu:
                    yield self.cpu.use(parse_cost.cpu, label=TaskKind.PARSE)
                record = record.parse(self.cost_model.parsed_record_size)
            yield self.cpu.use(CLASSIFY_CPU_PER_RECORD, label="classify")
            self._derive_rates(record)
            parsed_records.append(record)
        if self._open_dataset is None:
            self._open_dataset = self.sim.next_id("ds")
            self._open_count = 0
            self._open_cluster_counts = {}
        dataset_id = self._open_dataset
        yield from self.store.store_records(
            parsed_records, dataset_id=dataset_id, cluster_of=self.cluster_of,
        )
        for record in parsed_records:
            cluster = self.cluster_of(record)
            self._open_cluster_counts[cluster] = (
                self._open_cluster_counts.get(cluster, 0) + 1
            )
        self._open_count += len(parsed_records)
        self.records_classified += len(parsed_records)
        self._last_arrival = self.sim.now
        if span is not None:
            telemetry.recorder.end(span, dataset=dataset_id)
            self._open_contributors.append((span.trace_id, span.span_id))
        if (
            self.dataset_threshold is not None
            and self._open_count >= self.dataset_threshold
        ):
            self._publish()

    #: cumulative counter metrics converted to per-second rates.
    COUNTER_METRICS = {
        "if_in_octets": "if_in_rate",
        "if_out_octets": "if_out_rate",
    }

    def _derive_rates(self, record):
        """Turn cumulative counters into rate samples.

        SNMP interface counters only ever grow; threshold/surge analysis
        needs per-second rates, so the classifier derives them from
        successive observations (and re-seeds on counter wrap/reset).
        """
        from repro.core.records import Sample

        derived = []
        for sample in record.samples:
            rate_metric = self.COUNTER_METRICS.get(sample.metric)
            if rate_metric is None or not isinstance(sample.value, (int, float)):
                continue
            key = (sample.device, sample.metric, sample.instance)
            previous = self._counter_state.get(key)
            self._counter_state[key] = (sample.time, sample.value)
            if previous is None:
                continue
            prev_time, prev_value = previous
            if sample.time <= prev_time or sample.value < prev_value:
                continue  # stale or wrapped counter: just re-seed
            rate = (sample.value - prev_value) / (sample.time - prev_time)
            derived.append(Sample(
                device=sample.device, site=sample.site, group=sample.group,
                metric=rate_metric, value=rate, time=sample.time,
                instance=sample.instance,
            ))
        record.samples.extend(derived)

    def _flush_if_stale(self):
        if (
            not self._classifying
            and self._open_dataset is not None
            and self._open_count > 0
            and self.sim.now - self._last_arrival >= self.flush_timeout
        ):
            self._publish()

    def _publish(self):
        """Close the open dataset and notify the processor grid (Figure 2)."""
        content = DATA_READY.make(
            dataset=self._open_dataset,
            record_count=self._open_count,
            clusters=sorted(self._open_cluster_counts),
            cluster_sizes=dict(self._open_cluster_counts),
            storage_host=self.store.host.name,
        )
        # Notify fan-out rides the batched MTS lane (aggregate transfer
        # when several notifies leave for the same host in one instant);
        # a lost DATA_READY would orphan the whole dataset, so it goes
        # through the reliable channel when one is installed.
        message = ACLMessage(
            Performative.INFORM,
            sender=self.name,
            receiver=self.processor_name,
            content=dict(content),
            ontology=DATA_READY.name,
            size_units=self.cost_model.notify_size,
        )
        telemetry = self.telemetry
        if telemetry is not None and self._open_contributors:
            # Merge point: many classified batches close into one dataset.
            # The notify span takes the first contributor as its parent and
            # links the rest, so every batch's chain flows through it.
            recorder = telemetry.recorder
            first_trace, first_span = self._open_contributors[0]
            notify = recorder.start(
                "notify", first_trace, parent=first_span, grid="classifier",
                host=self.host.name, agent=self.name,
                dataset=self._open_dataset, records=self._open_count,
            )
            if notify is not None:
                recorder.link(notify, self._open_contributors[1:])
                message.trace_context = (first_trace, notify.span_id)
        self.send_batch_reliable([message])
        self.datasets_published += 1
        self._open_dataset = None
        self._open_count = 0
        self._open_cluster_counts = {}
        self._open_contributors = []

    def __repr__(self):
        return "ClassifierAgent(%r, classified=%d, published=%d)" % (
            self.name, self.records_classified, self.datasets_published,
        )
