"""The federation contract: ``repro-sim federation --json`` payloads.

``benchmarks/golden/federation.json`` holds the JSON payload of three
runs at the default seed -- integrated, siloed, and mesh with site2
partitioned mid-run.  Every field (utilization per host, records,
finding kinds, forwarding counters, link states) must repeat exactly.

Regenerate after a deliberate behaviour change (and explain every
changed byte) with::

    PYTHONPATH=src python tests/test_federation_golden.py
"""

import json
import os

import pytest

from repro import cli

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "golden",
    "federation.json")

RUNS = {
    "integrated": ["--mode", "integrated"],
    "siloed": ["--mode", "siloed"],
    "mesh-partition-site2": ["--mode", "mesh", "--partition", "site2"],
}


def federation_payload(arguments, path):
    assert cli.main(["federation"] + arguments + ["--json", str(path)]) == 0
    with open(str(path)) as handle:
        return json.load(handle)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_federation_payload_matches_golden(run, tmp_path, capsys):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    payload = federation_payload(RUNS[run], tmp_path / "federation.json")
    capsys.readouterr()
    assert payload == golden[run]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    payloads = {}
    with tempfile.TemporaryDirectory() as directory:
        for name, arguments in sorted(RUNS.items()):
            with contextlib.redirect_stdout(io.StringIO()):
                payloads[name] = federation_payload(
                    arguments, os.path.join(directory, name + ".json"))
    with open(GOLDEN_PATH, "w") as handle:
        handle.write(json.dumps(payloads, indent=2, sort_keys=True) + "\n")
    print("wrote", os.path.normpath(GOLDEN_PATH))
