"""X8 -- Site federation: integrated grid vs the siloed Figure 5 baseline.

Paper, section 4: in the baseline "there's no relation among different
sites.  There is no integration in this information; and no high level
analysis can be carried out", and "in a system where there is management of
several networks, shared knowledge is an important advantage".  The bench
runs the identical two-site workload (one overloaded device per site) on
both federation modes and shows only the integrated grid produces the
cross-site incident.

X9 (WAN tolerance) rides along: the integrated runs repeat under a 100x
worse WAN, asserting the same findings emerge ("agents are tolerable to
the latency that can exist in communication in systems of this load").
"""

from repro.core.federation import (
    INTEGRATED,
    SILOED,
    FederatedManagementSystem,
    FederatedTopologySpec,
    SiteSpec,
)
from repro.evaluation.tables import format_table
from repro.network.topology import LinkSpec

from conftest import emit

POLLS = 6


def _spec(mode, wan=None):
    return FederatedTopologySpec(
        sites=[
            SiteSpec.simple("site1", device_count=2, collector_count=1,
                            analyzer_count=1),
            SiteSpec.simple("site2", device_count=2, collector_count=1,
                            analyzer_count=1),
        ],
        mode=mode,
        seed=31,
        dataset_threshold=6,
        wan=wan,
    )


def _run(mode, wan=None):
    system = FederatedManagementSystem(_spec(mode, wan))
    system.devices["site1-dev1"].inject_fault("cpu_runaway")
    system.devices["site2-dev1"].inject_fault("cpu_runaway")
    system.assign_site_goals(system.make_site_goals(polls_per_type=POLLS))
    total = 2 * POLLS * 3
    completed = system.run_until_records(total, timeout=4000)
    kinds = sorted({finding.kind for finding in system.all_findings()})
    return {
        "mode": mode,
        "completed": completed,
        "records": system.records_analyzed(),
        "finished_at": system.sim.now,
        "kinds": kinds,
        "cross_site": "multi-site-overload" in kinds,
        "reports": sum(len(i.reports) for i in system.interfaces()),
    }


def test_federation(once):
    def run_all():
        integrated = _run(INTEGRATED)
        siloed = _run(SILOED)
        slow_wan = _run(INTEGRATED, wan=LinkSpec(latency=1.0, bandwidth=100.0))
        return integrated, siloed, slow_wan

    integrated, siloed, slow_wan = once(run_all)
    emit("federation", format_table(
        ("deployment", "records", "cross-site incident", "findings"),
        [
            ("integrated grid", integrated["records"],
             integrated["cross_site"], ", ".join(integrated["kinds"])),
            ("siloed (Figure 5)", siloed["records"],
             siloed["cross_site"], ", ".join(siloed["kinds"])),
            ("integrated, 100x WAN", slow_wan["records"],
             slow_wan["cross_site"], ", ".join(slow_wan["kinds"])),
        ],
        title="X8/X9: two sites, one overloaded device each",
    ))
    assert integrated["completed"] and siloed["completed"]
    # same telemetry everywhere...
    assert integrated["records"] == siloed["records"]
    # ...but only integration produces the cross-site correlation
    assert integrated["cross_site"]
    assert not siloed["cross_site"]
    # both still catch the local symptoms
    assert "high-cpu" in integrated["kinds"]
    assert "high-cpu" in siloed["kinds"]
    # X9: latency tolerance -- findings survive a far worse WAN
    assert slow_wan["completed"]
    assert slow_wan["cross_site"]
    assert slow_wan["records"] == integrated["records"]
