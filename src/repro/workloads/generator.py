"""Collection-workload generation.

A workload is a set of :class:`~repro.core.records.CollectionGoal` objects.
:class:`RequestMix` describes *how many* requests of each type to issue;
:class:`WorkloadGenerator` turns a mix plus a device population into goals,
either deterministic (evenly spread, as the paper's evaluation) or
stochastic (periodic monitoring with random phase, diurnal load).
"""

from repro.core.records import CollectionGoal
from repro.simkernel.rng import RngStream


class RequestMix:
    """How many requests of each type a scenario issues.

    The paper's evaluation mix is 10/10/10.
    """

    def __init__(self, type_a=10, type_b=10, type_c=10):
        if min(type_a, type_b, type_c) < 0:
            raise ValueError("request counts must be >= 0")
        self.counts = {"A": type_a, "B": type_b, "C": type_c}

    @property
    def total(self):
        return sum(self.counts.values())

    def scaled(self, factor):
        """The mix with every count multiplied (rounded) by ``factor``."""
        return RequestMix(*(max(0, round(self.counts[t] * factor))
                            for t in ("A", "B", "C")))

    def __getitem__(self, request_type):
        return self.counts[request_type]

    def __repr__(self):
        return "RequestMix(A=%d, B=%d, C=%d)" % (
            self.counts["A"], self.counts["B"], self.counts["C"],
        )


def goals_for_mix(mix, device_names, interval=1.0, stagger=0.1):
    """Deterministic goals: request *i* of each type polls device ``i mod n``.

    This is the paper-evaluation layout (the same one
    ``GridManagementSystem.make_paper_goals`` builds), exposed standalone
    for baseline and sweep drivers.
    """
    if not device_names:
        raise ValueError("need at least one device")
    device_names = sorted(device_names)
    goals = []
    for type_index, request_type in enumerate(("A", "B", "C")):
        for poll_index in range(mix[request_type]):
            goals.append(CollectionGoal(
                device_names[poll_index % len(device_names)],
                request_type,
                count=1,
                interval=interval,
                start_after=stagger * (poll_index * 3 + type_index),
            ))
    return goals


class WorkloadGenerator:
    """Stochastic workload generation for monitoring-style scenarios."""

    def __init__(self, seed=0, stream_name="workload"):
        self.rng = RngStream(seed, stream_name)

    def periodic_goals(self, device_names, polls_per_device, interval,
                       types=("A", "B", "C")):
        """Continuous monitoring: every device polled repeatedly per type."""
        goals = []
        for device_name in sorted(device_names):
            for type_index, request_type in enumerate(types):
                goals.append(CollectionGoal(
                    device_name,
                    request_type,
                    count=polls_per_device,
                    interval=interval,
                    start_after=self.rng.uniform(0, interval)
                    + 0.01 * type_index,
                ))
        return goals

    def diurnal_goals(self, mix, device_names, day_length,
                      peak_fraction=0.7, peak_start=0.25, peak_end=0.75,
                      spike_multiplier=1.0, spike_start=0.5,
                      spike_length=0.05):
        """A day/night pattern: most requests land in the busy window.

        Args:
            mix: total requests per type over the whole day.
            device_names: polled devices (round-robin per type).
            day_length: simulated seconds in one day.
            peak_fraction: share of requests inside the peak window.
            peak_start / peak_end: peak window as fractions of the day.
            spike_multiplier: flash-crowd factor.  1.0 (default) is the
                plain diurnal curve; above 1.0, ``(multiplier - 1) x``
                the mix's per-type count of *extra* requests lands
                uniformly inside the spike window -- traffic through
                that window is roughly ``spike_multiplier`` times the
                baseline.  The capacity-study knob for 10-100x crowds.
            spike_start / spike_length: spike window as fractions of the
                day (only consulted when ``spike_multiplier > 1``).

        Off-peak requests spread uniformly over the remaining hours.
        Useful for capacity studies: the grid must absorb the peak without
        provisioning for it all day.  At the default multiplier the spike
        branch draws **zero** RNG samples, so pre-existing diurnal runs
        replay byte-identically.
        """
        if day_length <= 0:
            raise ValueError("day_length must be positive")
        if not 0.0 <= peak_fraction <= 1.0:
            raise ValueError("peak_fraction must be within [0, 1]")
        if not 0.0 <= peak_start < peak_end <= 1.0:
            raise ValueError("peak window fractions out of order")
        if spike_multiplier < 1.0:
            raise ValueError("spike_multiplier must be >= 1")
        if spike_multiplier > 1.0:
            if not 0.0 <= spike_start < spike_start + spike_length <= 1.0:
                raise ValueError("spike window out of range")
        device_names = sorted(device_names)
        goals = []
        for request_type in ("A", "B", "C"):
            count = mix[request_type]
            peak_count = round(count * peak_fraction)
            for index in range(count):
                if index < peak_count:
                    start = self.rng.uniform(
                        peak_start * day_length, peak_end * day_length)
                else:
                    # uniform over the two off-peak segments
                    off = self.rng.uniform(
                        0, day_length * (1 - (peak_end - peak_start)))
                    start = off if off < peak_start * day_length else \
                        off + (peak_end - peak_start) * day_length
                goals.append(CollectionGoal(
                    device_names[index % len(device_names)],
                    request_type,
                    count=1,
                    interval=1.0,
                    start_after=start,
                ))
            if spike_multiplier > 1.0:
                extra = round(count * (spike_multiplier - 1.0))
                for index in range(extra):
                    start = self.rng.uniform(
                        spike_start * day_length,
                        (spike_start + spike_length) * day_length)
                    goals.append(CollectionGoal(
                        device_names[index % len(device_names)],
                        request_type,
                        count=1,
                        interval=1.0,
                        start_after=start,
                    ))
        goals.sort(key=lambda goal: goal.start_after)
        return goals
