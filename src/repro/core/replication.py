"""Storage replication: one replica per shard.

The paper's future work: "Improving the efficacy of forms of storage,
replication, indexing and recuperation of management data by agent grids."

Every shard's :class:`~repro.core.storage.ManagementDataStore` mirrors
its own writes onto a replica store on another host: each batch travels
from the shard's classifier, which wrote it and shares the primary's
host, as a real message (NIC cost at both ends)
and is re-stored on the replica (its Storing cost applies there too --
replication is not free).  Analyzers fail over to a shard's replica from
their one fetch ladder (:meth:`~repro.core.processor.AnalyzerAgent._fetch`).
"""

from repro.agents.acl import ACLMessage, Performative
from repro.core.storage import ManagementDataStore, StorageAgent


class ReplicationService:
    """Mirrors every shard's store onto a replica host.

    Args:
        system: a built :class:`~repro.core.system.GridManagementSystem`
            (provides platform/transport, stores and analyzers).
        replica_hosts: one host per entry of ``system.stores``, in shard
            order (created by the caller); none may be its primary's host.
        lag: seconds between the primary write and the replica shipping
            (asynchronous replication; 0 = ship immediately).

    Raises ValueError when the ladder's replica attempt would outlive the
    job (the spec's own ladder rule, one attempt longer).
    """

    def __init__(self, system, replica_hosts, lag=0.5):
        replica_hosts = list(replica_hosts)
        if len(replica_hosts) != len(system.stores):
            raise ValueError("%d replica hosts for %d stores" % (
                len(replica_hosts), len(system.stores)))
        for store, host in zip(system.stores, replica_hosts):
            if host is store.host:
                raise ValueError(
                    "replica host %s is its primary's host" % host.name)
        spec = system.spec
        if spec.fetch_timeout * (spec.fetch_retries + 2) >= spec.job_timeout:
            raise ValueError(
                "fetch_timeout (%g) x %d attempts (with the replica) must "
                "stay below job_timeout (%g)" % (
                    spec.fetch_timeout, spec.fetch_retries + 2,
                    spec.job_timeout))
        self.platform = system.platform
        self.sim = system.sim
        self.lag = lag
        self.replica_stores = []
        self._lanes = {}  # primary store -> (sender name, replica name)
        replicas = {}     # primary storage agent name -> replica name
        for index, (store, primary, classifier, host) in enumerate(zip(
                system.stores, system.storage_agents, system.classifiers,
                replica_hosts)):
            replica_store = ManagementDataStore(host, system.cost_model)
            replica = StorageAgent("storage@" + host.name, replica_store)
            lane = "" if index == 0 else "-s%d" % index
            self.platform.create_container(
                "replica-container" + lane, host, services=("storage",),
            ).deploy(replica)
            store.replication = self
            self.replica_stores.append(replica_store)
            self._lanes[store] = (classifier.name, replica.name)
            replicas[primary.name] = replica.name
        for analyzer in system.analyzers:
            analyzer.replicas.update(replicas)
        self.batches_replicated = 0
        self.records_replicated = 0

    def ship(self, store, records, dataset_id):
        """Mirror a batch ``store`` just persisted, ``lag`` seconds on."""
        self.sim.schedule(self.lag, self._send_batch,
                          (store, records, dataset_id))

    def _send_batch(self, store, records, dataset_id):
        if not store.host.up:
            return  # primary died before shipping; batch is lost (async)
        sender, replica = self._lanes[store]
        # One-way: the replica stores without replying.  Batches ride the
        # reliable channel when installed: a lost mirror write would
        # silently diverge the replica.
        self.platform.send_reliable(ACLMessage(
            Performative.REQUEST,
            sender=sender,
            receiver=replica,
            content={"op": "replicate", "records": records,
                     "dataset": dataset_id},
            ontology="replication",
            size_units=sum(record.size_units for record in records),
        ))
        self.batches_replicated += 1
        self.records_replicated += len(records)

    def __repr__(self):
        return "ReplicationService(batches=%d, records=%d)" % (
            self.batches_replicated, self.records_replicated)
