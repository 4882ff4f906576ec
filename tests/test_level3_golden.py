"""The level-3 contract: what every cross job correlates over.

``benchmarks/golden/level3.json`` pins four runs in which level 3 sees
problems (the end-to-end workloads correlate empty problem sets):

- ``sharded-1`` / ``sharded-3``: the sharding tests' grid on one and on
  three classifier/storage shards, ``cpu_runaway`` on dev1 and dev2.  The
  3-shard run closes some scopes by barrier and some by window.
- ``integrated-window-120`` / ``integrated-window-0``: the federation
  tests' two-site integrated grid, ``cpu_runaway`` on each site's dev1,
  with and without the cross-dataset window.

For each level-3 dispatch it pins the sim time, the primary dataset, the
sorted problems shipped, and the (storage host, dataset) summaries the
analyzer fetched for that job.  For each report it pins the dataset,
``generated_at``, ``records_analyzed`` and every finding's kind,
severity, device, site and level.  Dataset ids come from a process-wide
counter, so they are renumbered from 1 in order of creation.

Regenerate after a deliberate behaviour change (and explain every
changed byte) with::

    PYTHONPATH=src python -m tests.test_level3_golden
"""

import json
import os
import re

import pytest

from repro.agents.ontology import ANALYSIS_JOB
from repro.core.federation import INTEGRATED, FederatedManagementSystem
from repro.core.system import GridManagementSystem
from tests.test_core_sharding import _sharded_spec
from tests.test_federation import run_federated, two_site_spec

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "golden",
    "level3.json")

_DATASET = re.compile(r"^ds-(\d+)$")
_JOB = re.compile(r"^(job-\d+)")


def _sharded(shards):
    system = GridManagementSystem(_sharded_spec(shards))
    system.devices["dev1"].inject_fault("cpu_runaway")
    system.devices["dev2"].inject_fault("cpu_runaway")

    def run():
        system.assign_goals(system.make_paper_goals(polls_per_type=4))
        assert system.run_until_records(12, timeout=4000)

    return system.root, system.analyzers, system.interface, run


def _integrated(cross_window):
    system = FederatedManagementSystem(
        two_site_spec(INTEGRATED, cross_window=cross_window))
    system.devices["site1-dev1"].inject_fault("cpu_runaway")
    system.devices["site2-dev1"].inject_fault("cpu_runaway")
    analyzers = [analyzer for grid in system.sites.values()
                 for analyzer in grid.analyzers]

    def run():
        assert run_federated(system)

    return system.global_root, analyzers, system.global_interface, run


SCENARIOS = {
    "sharded-1": lambda: _sharded(1),
    "sharded-3": lambda: _sharded(3),
    "integrated-window-120": lambda: _integrated(120.0),
    "integrated-window-0": lambda: _integrated(0.0),
}


def _tap_root(root, dispatches):
    """Record every level-3 ANALYSIS_JOB the root sends."""
    send = root.send

    def tapped(message):
        content = message.content
        if (message.ontology == ANALYSIS_JOB.name
                and content.get("level", 0) >= 3):
            dispatches.append((root.sim.now, dict(content)))
        return send(message)

    root.send = tapped


def _tap_analyzer(analyzer, fetched):
    """Record every summary fetch an analyzer starts, by job id."""
    fetch = analyzer._fetch

    def tapped(storage_agent, storage_query, *args, **kwargs):
        if storage_query.get("op") == "fetch-summary":
            job_id = _JOB.match(kwargs["conversation_tag"]).group(1)
            fetched.setdefault(job_id, []).append(
                (storage_agent.split("@", 1)[1], storage_query["dataset"]))
        return fetch(storage_agent, storage_query, *args, **kwargs)

    analyzer._fetch = tapped


def level3_record(name):
    """Run one scenario; its cross jobs and reports as plain JSON data."""
    root, analyzers, interface, run = SCENARIOS[name]()
    dispatches, fetched = [], {}
    _tap_root(root, dispatches)
    for analyzer in analyzers:
        _tap_analyzer(analyzer, fetched)
    run()

    seen = set()
    for _, content in dispatches:
        seen.add(content["dataset"])
    for pairs in fetched.values():
        seen.update(dataset for _, dataset in pairs)
    for report in interface.reports:
        seen.add(report.dataset_id)
    numbered = sorted(int(_DATASET.match(dataset).group(1))
                      for dataset in seen if _DATASET.match(dataset))
    renumber = {"ds-%d" % number: "ds-%d" % index
                for index, number in enumerate(numbered, 1)}

    def label(dataset):
        return renumber.get(dataset, dataset)

    return {
        "cross_jobs": [
            {
                "at": at,
                "primary": label(content["dataset"]),
                "problems": sorted(
                    content.get("problems", ()),
                    key=lambda problem: json.dumps(problem, sort_keys=True)),
                "summaries": [
                    [host, label(dataset)]
                    for host, dataset in fetched.get(content["job_id"], ())
                ],
            }
            for at, content in dispatches
        ],
        "reports": [
            {
                "dataset": label(report.dataset_id),
                "generated_at": report.generated_at,
                "records_analyzed": report.records_analyzed,
                "findings": [
                    [finding.kind, finding.severity, finding.device,
                     finding.site, finding.level]
                    for finding in report.findings
                ],
            }
            for report in interface.reports
        ],
    }


def _canonical(record):
    return json.loads(json.dumps(record, sort_keys=True))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_level3_matches_golden(name):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert _canonical(level3_record(name)) == golden[name]


def test_golden_exercises_level3():
    """Every scenario ships problems to level 3; three of them correlate."""
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    for name in SCENARIOS:
        jobs = golden[name]["cross_jobs"]
        assert jobs and sum(len(job["problems"]) for job in jobs) > 0
        assert all(job["summaries"] for job in jobs)
    level3 = {
        name: sum(finding[4] >= 3
                  for report in golden[name]["reports"]
                  for finding in report["findings"])
        for name in SCENARIOS
    }
    assert level3["integrated-window-0"] == 0
    assert all(level3[name] > 0 for name in SCENARIOS
               if name != "integrated-window-0")


if __name__ == "__main__":
    records = {name: level3_record(name) for name in sorted(SCENARIOS)}
    with open(GOLDEN_PATH, "w") as handle:
        handle.write(json.dumps(records, indent=2, sort_keys=True) + "\n")
    for name, record in records.items():
        print(name, "cross jobs %d, problems %d" % (
            len(record["cross_jobs"]),
            sum(len(job["problems"]) for job in record["cross_jobs"])))
    print("wrote", os.path.normpath(GOLDEN_PATH))
