"""Job-placement policies for the processor grid root.

Section 3.5 of the paper gives three placement principles: distribute to
containers *with the knowledge* to process the data, to containers *with
computational capacity*, and to containers that are *idle*.  Each principle
is a policy here, plus a naive round-robin baseline and a negotiation-backed
policy (FIPA contract-net), so the ablation bench (X2) can compare them.

A policy sees:

* the job: required service, cluster (knowledge area), record count and
  the estimated CPU units it will consume;
* the candidate profiles: fresh
  :class:`~repro.agents.container.ResourceProfile` snapshots of the
  containers registered with the root (the paper's "request the current
  profile of the resources").

It returns the chosen profile (or None when no candidate qualifies).
"""


class PlacementJob:
    """What the root knows about a job when placing it."""

    def __init__(self, job_id, cluster, record_count, cpu_units,
                 required_service="analysis"):
        self.job_id = job_id
        self.cluster = cluster
        self.record_count = record_count
        self.cpu_units = cpu_units
        self.required_service = required_service

    def __repr__(self):
        return "PlacementJob(%s, cluster=%s, records=%d)" % (
            self.job_id, self.cluster, self.record_count,
        )


class PlacementPolicy:
    """Base class; subclasses implement :meth:`choose`."""

    name = "abstract"
    #: When True, :meth:`choose` returns the *candidate list* and the root
    #: must run contract-net negotiation to award the job.
    needs_negotiation = False

    def choose(self, job, profiles):
        raise NotImplementedError

    def _qualified(self, job, profiles):
        """Candidates offering the required service."""
        return [
            profile for profile in profiles
            if profile.offers(job.required_service)
        ]

    def __repr__(self):
        return "%s()" % type(self).__name__


class RoundRobinPolicy(PlacementPolicy):
    """Naive baseline: rotate through qualified containers."""

    name = "round-robin"

    def __init__(self):
        self._next_index = 0

    def choose(self, job, profiles):
        candidates = self._qualified(job, profiles)
        if not candidates:
            return None
        choice = candidates[self._next_index % len(candidates)]
        self._next_index += 1
        return choice


class IdleFirstPolicy(PlacementPolicy):
    """The paper's "using resources that are idle" principle.

    Prefers idle containers; among equals, the shortest CPU queue wins,
    then container name for determinism.
    """

    name = "idle-first"

    def choose(self, job, profiles):
        candidates = self._qualified(job, profiles)
        if not candidates:
            return None
        return min(candidates, key=lambda profile: (
            not profile.idle,
            profile.cpu_queue_length,
            profile.busy_agents,
            profile.container_name,
        ))


class CapacityWeightedPolicy(PlacementPolicy):
    """The paper's "resources that have computational capacity" principle.

    Scores candidates by estimated completion time: queued work plus this
    job, divided by CPU capacity.  Queue length is used as a proxy for
    queued units (the profile does not expose exact units).
    """

    name = "capacity"

    #: Assumed CPU units per already-queued request when estimating backlog.
    QUEUED_UNIT_ESTIMATE = 20.0

    def estimate_completion(self, job, profile):
        backlog = profile.cpu_queue_length * self.QUEUED_UNIT_ESTIMATE
        return (backlog + job.cpu_units) / profile.cpu_capacity

    def choose(self, job, profiles):
        candidates = self._qualified(job, profiles)
        if not candidates:
            return None
        return min(candidates, key=lambda profile: (
            self.estimate_completion(job, profile),
            profile.container_name,
        ))


class KnowledgeFirstPolicy(PlacementPolicy):
    """The paper's "containers with knowledge to process it" principle.

    Filters to containers whose knowledge areas cover the job's cluster
    (containers advertising no knowledge are treated as generalists), then
    falls back to capacity weighting among them.
    """

    name = "knowledge"

    def __init__(self):
        self._tiebreak = CapacityWeightedPolicy()

    def choose(self, job, profiles):
        candidates = self._qualified(job, profiles)
        knowing = [
            profile for profile in candidates if profile.knows(job.cluster)
        ]
        pool = knowing if knowing else candidates
        if not pool:
            return None
        return min(pool, key=lambda profile: (
            self._tiebreak.estimate_completion(job, profile),
            profile.container_name,
        ))


class NegotiatedPolicy(PlacementPolicy):
    """Marker policy: placement happens via contract-net negotiation.

    The root does not pick from profiles directly; it runs the
    :class:`~repro.core.negotiation.ContractNetInitiator` against the
    qualified candidates and awards the job to the best bidder.  This class
    only narrows the candidate set (service + knowledge filter).
    """

    name = "negotiated"
    needs_negotiation = True

    def choose(self, job, profiles):
        candidates = self._qualified(job, profiles)
        knowing = [
            profile for profile in candidates if profile.knows(job.cluster)
        ]
        pool = knowing if knowing else candidates
        return pool or None  # the root negotiates among these


_POLICIES = {
    policy.name: policy
    for policy in (
        RoundRobinPolicy, IdleFirstPolicy, CapacityWeightedPolicy,
        KnowledgeFirstPolicy, NegotiatedPolicy,
    )
}


def make_policy(name):
    """Instantiate a policy by name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise KeyError("unknown policy %r (known: %s)" % (
            name, ", ".join(sorted(_POLICIES)))) from None


def policy_names():
    return sorted(_POLICIES)
