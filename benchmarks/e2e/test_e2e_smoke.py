"""Smoke test of the end-to-end benchmark at 5% scale (about 15 s).

Run it with::

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
WORKLOADS = ("bulk_analysis", "fine_datasets", "eager_fleet", "chaos_ops")


def bench(tmp_path, name, *args):
    out = tmp_path / (name + ".json")
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "0.05",
         "--rounds", "1", "--out", str(out)] + list(args),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=120, cwd=ROOT)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    last = json.loads(completed.stdout.splitlines()[-1])
    assert last["correct"] is True
    with open(str(out)) as handle:
        return json.load(handle)


def simulated(result):
    """Workload -> (simulated end-to-end metrics, counters)."""
    return {name: ({metric: entry["value"]
                    for metric, entry in cell["end_to_end"].items()
                    if entry.get("exact")}, cell["counters"])
            for name, cell in result["workloads"].items()}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("e2e")
    return (bench(tmp_path, "traced", "--seed", "7"),
            bench(tmp_path, "again", "--seed", "7", "--trace", "0"),
            bench(tmp_path, "other", "--seed", "8", "--trace", "0"))


def test_every_contract_metric_is_emitted_with_its_unit(runs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    result = runs[0]
    assert sorted(result["workloads"]) == sorted(WORKLOADS)
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for name, cell in result["workloads"].items():
        assert cell["checks"] == []
        for part in ("end_to_end", "per_layer"):
            for entry in contract[part]:
                emitted = cell[part][entry["name"]]
                assert emitted["unit"] == entry["unit"], (name, entry)
                assert isinstance(emitted["value"], (int, float))
    assert result["attempted"] > 0
    assert result["failed"] == 0


def test_simulated_metrics_repeat_for_a_seed_and_move_with_it(runs):
    traced, again, other = (simulated(result) for result in runs)
    assert len(traced["chaos_ops"][0]) == 6
    assert traced == again
    # At 5% scale eager_fleet has 6 polls on 16 collectors: no poll waits
    # for another, so its simulated timing does not depend on the seed.
    for name in ("bulk_analysis", "fine_datasets", "chaos_ops"):
        assert traced[name][0] != other[name][0], name
