"""Content ontologies for ACL conversations.

The paper leans on FIPA ontologies twice: the common representation of
collected data (section 3.1, "XML and ontologies") and the
container-resource-profile ontology used at registration time (Figure 4).
We model an ontology as a named schema: a set of required fields with type
predicates.  Content objects are plain dicts validated against the schema,
which keeps them serializable: the same content ships to a local agent
or, through a site gateway, to a peer site.
"""


class OntologyError(ValueError):
    """Content does not conform to its declared ontology."""


class Ontology:
    """A named content schema.

    Args:
        name: ontology identifier carried in the ACL ``ontology`` slot.
        fields: mapping of field name -> type or tuple of types; a value of
            ``None`` means "any".
        optional: field names that may be absent.
    """

    def __init__(self, name, fields, optional=()):
        self.name = name
        self.fields = dict(fields)
        self.optional = frozenset(optional)
        unknown = self.optional - set(self.fields)
        if unknown:
            raise ValueError("optional fields not in schema: %s" % sorted(unknown))

    def validate(self, content):
        """Raise :class:`OntologyError` unless ``content`` conforms."""
        if not isinstance(content, dict):
            raise OntologyError(
                "%s content must be a dict, got %s" % (self.name, type(content).__name__)
            )
        for field, expected in self.fields.items():
            if field not in content:
                if field in self.optional:
                    continue
                raise OntologyError("%s content missing field %r" % (self.name, field))
            if expected is None:
                continue
            if not isinstance(content[field], expected):
                raise OntologyError(
                    "%s field %r: expected %s, got %s"
                    % (self.name, field, expected, type(content[field]).__name__)
                )
        extra = set(content) - set(self.fields)
        if extra:
            raise OntologyError(
                "%s content has unknown fields %s" % (self.name, sorted(extra))
            )
        return content

    def make(self, **content):
        """Build validated content."""
        return self.validate(content)

    def __repr__(self):
        return "Ontology(%r)" % self.name


#: Container profile registration (Figure 4): the container tells the grid
#: root what resource it runs on and which services it can provide.
CONTAINER_PROFILE = Ontology(
    "container-profile",
    fields={
        "container": str,
        "host": str,
        "cpu_capacity": (int, float),
        "disk_capacity": (int, float),
        "services": (list, tuple),
        "knowledge": (list, tuple),
    },
    optional=("knowledge",),
)

#: Notification that classified data awaits analysis (CLG -> PG, Figure 2).
DATA_READY = Ontology(
    "data-ready",
    fields={
        "dataset": str,
        "record_count": int,
        "clusters": (list, tuple),
        "cluster_sizes": dict,
        "storage_host": str,
    },
    optional=("cluster_sizes",),
)

#: Analysis job assignment (PG root -> container, Figure 3).  Level-3
#: (cross) jobs additionally carry the level-1/2 problems to correlate
#: and ``shards`` -- the (storage_host, dataset) pairs of their scope's
#: members, so the analyzer fetches every member's summary before
#: correlating.
ANALYSIS_JOB = Ontology(
    "analysis-job",
    fields={
        "job_id": str,
        "dataset": str,
        "cluster": str,
        "record_count": int,
        "level": int,
        "storage_host": str,
        "problems": (list, tuple),
        "shards": (list, tuple),
    },
    optional=("problems", "shards"),
)

#: Analysis outcome (container -> PG root).
ANALYSIS_RESULT = Ontology(
    "analysis-result",
    fields={
        "job_id": str,
        "findings": (list, tuple),
        "records_analyzed": int,
    },
)

#: Liveness beacon (analyzer container -> PG root).  The root's failure
#: detector marks a container suspect when beacons stop and evicts it --
#: settling and re-dispatching its jobs -- well before the Reaper's
#: job-timeout would fire (see DESIGN.md section 5.2).
HEARTBEAT = Ontology(
    "heartbeat",
    fields={
        "container": str,
        "agent": str,
        "sent_at": (int, float),
    },
)

#: Contract-net call for proposals over an analysis job.
JOB_CFP = Ontology(
    "job-cfp",
    fields={
        "job_id": str,
        "cluster": str,
        "record_count": int,
        "required_service": str,
    },
)

#: Contract-net proposal: the container's bid.
JOB_PROPOSAL = Ontology(
    "job-proposal",
    fields={
        "job_id": str,
        "container": str,
        "estimated_completion": (int, float),
        "queue_length": int,
    },
)

#: Report/alert shipped to the interface grid.
MANAGEMENT_REPORT = Ontology(
    "management-report",
    fields={
        "report_id": str,
        "kind": str,
        "findings": (list, tuple),
        "generated_at": (int, float),
        "dataset": str,
        "records_analyzed": int,
        "report": None,
    },
    optional=("dataset", "records_analyzed", "report"),
)

#: Inter-site liveness beacon (gateway -> peer gateway).  Piggybacks the
#: sending site's processor-grid capacity advertisement (analyzer count
#: and outstanding jobs) so a saturated peer can pick a forwarding target
#: without extra round trips.  ``probe`` marks the capped-backoff beacons
#: sent toward a partitioned peer while reconnecting.
SITE_HEARTBEAT = Ontology(
    "site-heartbeat",
    fields={
        "site": str,
        "sent_at": (int, float),
        "analyzers": int,
        "outstanding": int,
        "probe": bool,
        "health": str,
    },
    optional=("probe", "health"),
)

#: An analysis job shipped across the site boundary because the origin
#: site's processor grid is saturated.  ``job`` is the ANALYSIS_JOB
#: content verbatim; ``forward_hops`` caps relaying (a forwarded job is
#: never forwarded again).
FORWARDED_JOB = Ontology(
    "forwarded-job",
    fields={
        "job": dict,
        "origin_site": str,
        "origin_gateway": str,
        "forward_hops": int,
    },
)

#: The result of a forwarded job travelling back to the origin gateway.
FORWARDED_RESULT = Ontology(
    "forwarded-result",
    fields={
        "result": dict,
        "origin_site": str,
        "executed_by": str,
    },
)

#: Peer-to-peer liveness digest (analyzer <-> analyzer / grid root).
#: ``digest`` maps member name -> ``[status, incarnation, last_heard]``
#: (the SWIM-style suspicion view; see :mod:`repro.core.gossip`).
#: ``kind`` selects the exchange: ``"digest"`` (periodic push),
#: ``"ping"`` (direct probe of a suspect), ``"ping-req"`` (ask a third
#: peer to probe ``subject`` indirectly) and ``"ack"`` (probe answer,
#: digest attached so the answer doubles as an anti-entropy round).
GOSSIP = Ontology(
    "gossip",
    fields={
        "kind": str,
        "origin": str,
        "digest": dict,
        "sent_at": (int, float),
        "subject": str,
    },
    optional=("digest", "subject"),
)

#: Degradation notice (gateway -> local interface): a peer site changed
#: link state, so its devices are now offline (partitioned) or back
#: online (healed).  Never silently stale: the interface exposes this via
#: ``device_status()`` / ``stale_findings()``.
SITE_STATUS = Ontology(
    "site-status",
    fields={
        "site": str,
        "status": str,
        "devices": (list, tuple),
        "at": (int, float),
    },
)

REGISTRY = {
    ontology.name: ontology
    for ontology in (
        CONTAINER_PROFILE, DATA_READY, ANALYSIS_JOB, ANALYSIS_RESULT,
        HEARTBEAT, JOB_CFP, JOB_PROPOSAL, MANAGEMENT_REPORT, GOSSIP,
        SITE_HEARTBEAT, FORWARDED_JOB, FORWARDED_RESULT, SITE_STATUS,
    )
}


def lookup(name):
    """Find a registered ontology by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown ontology %r (known: %s)" % (name, ", ".join(sorted(REGISTRY)))
        ) from None
