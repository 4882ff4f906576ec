"""Device MIBs: one shared template per device shape, device state on first read.

``benchmarks/golden/device_walks.jsonl`` holds the full GETNEXT walk of one
seeded device per profile at t=0, t=90 and t=180, one JSON line
``[profile, t, OID, name, value]`` per object read.
It must stay byte-identical: how a MIB is built is not allowed to move a
value.  Regenerate after a deliberate behaviour change (and explain every
changed byte) with::

    PYTHONPATH=src python tests/test_snmp_mib_templates.py
"""

import json
import os
import tracemalloc

import pytest

from repro.network.topology import Network
from repro.network.transport import Transport
from repro.simkernel.simulator import Simulator
from repro.snmp.device import DeviceProfile, ManagedDevice, PROFILES
from repro.snmp.engine import SnmpEngine, SnmpError
from repro.snmp.manager import SnmpClient
from repro.snmp.mib import MibObject, MibTemplate, std
from repro.snmp.oids import OID

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "golden",
    "device_walks.jsonl")

#: Simulated times of the golden walks: the first read, then two more
#: 90 s apart.
WALK_TIMES = (0.0, 90.0, 180.0)

#: Bytes that building one unread device may allocate.  Measured with
#: tracemalloc over 2,000 server devices, hosts built beforehand, on
#: Python 3.11: 4,395 B per device when each seeds its RNG stream and
#: names its processes at construction, 768 B when neither happens
#: before the first read.
UNREAD_DEVICE_BYTES = 2000


def _walk(mib):
    """Every (OID, name, value) of ``mib`` by GETNEXT from the root."""
    rows = []
    obj = mib.get_next(OID("0"))
    while obj is not None:
        rows.append([str(obj.oid), obj.name, obj.read()])
        obj = mib.get_next(obj.oid)
    return rows


def device_walks():
    """The golden rows: each profile's walks at ``WALK_TIMES``."""
    sim = Simulator(seed=42)
    network = Network(sim)
    devices = {
        name: ManagedDevice(
            sim, network.add_host("%s-1" % name, "site1", role="device"),
            profile=name, tick=0.5)
        for name in sorted(PROFILES)
    }
    rows = []
    for when in WALK_TIMES:
        sim.run(until=when)
        for name, device in devices.items():
            device.catch_up()
            rows += [[name, when] + row for row in _walk(device.mib)]
    return rows


def _golden_text(rows):
    return "".join(json.dumps(row) + "\n" for row in rows)


def _fleet(count=2, profile="server", seed=3):
    sim = Simulator(seed=seed)
    network = Network(sim)
    devices = [
        ManagedDevice(sim, network.add_host("dev%d" % index, "site1",
                                            role="device"), profile=profile)
        for index in range(1, count + 1)
    ]
    return sim, network, devices


class TestGoldenWalks:
    def test_walks_match_the_golden_byte_for_byte(self):
        with open(GOLDEN_PATH) as handle:
            golden = handle.read()
        assert _golden_text(device_walks()) == golden


class TestTemplates:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_devices_of_one_shape_share_every_template_object(self, profile):
        _, _, (first, second) = _fleet(profile=profile)
        assert first.mib is not second.mib
        oids = first.mib.oids()
        assert oids == second.mib.oids()
        assert all(first.mib.get(oid).entry is second.mib.get(oid).entry
                   for oid in oids)
        assert [obj.read() for obj in first.mib.walk(std.SYS_NAME)] == \
            ["dev1"]
        assert [obj.read() for obj in second.mib.walk(std.SYS_NAME)] == \
            ["dev2"]

    def test_a_read_constructs_no_mib_object(self, monkeypatch):
        sim, _, (first, second) = _fleet(profile="router")
        _walk(first.mib)  # the router template exists from here on
        built = []
        original = MibObject.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(MibObject, "__init__", counting)
        sim.run(until=30.0)
        for device in (first, second):
            device.catch_up()
            _walk(device.mib)
            for oid in device.mib.oids():
                device.mib.get(oid).read()
        assert built == []

    def test_a_shape_gets_its_own_template(self):
        sim, network, (server,) = _fleet(count=1)
        router = ManagedDevice(
            sim, network.add_host("r1", "site1", role="device"),
            profile="router")
        assert len(server.mib) != len(router.mib)
        assert server.mib.get(std.IF_IN_OCTETS_AT[8]) is None
        assert router.mib.get(std.IF_IN_OCTETS_AT[8]) is not None

    def test_interface_down_does_not_leak_to_a_sibling(self):
        sim, _, (first, second) = _fleet(profile="switch")
        status = std.IF_OPER_STATUS_AT[3]
        first.inject_fault("interface_down", interface=2)
        assert first.mib.get(status).read() == 2
        assert second.mib.get(status).read() == 1
        sim.run(until=20.0)
        for device in (first, second):
            device.catch_up()
        assert first.mib.get(status).read() == 2
        assert second.mib.get(status).read() == 1
        assert first.if_in_octets[2] == 0 < second.if_in_octets[2]

    def test_sysdescr_and_dsktotal_follow_a_profile_swap(self):
        _, _, (first, second) = _fleet(profile="router")
        hot = DeviceProfile("router-hot", interface_count=8, process_slots=2,
                            disk_total_kb=12345)
        first.profile = hot
        assert first.mib.get(std.SYS_DESCR).read() == \
            "repro router-hot device"
        assert first.mib.get(std.DISK_TOTAL).read() == 12345
        assert second.mib.get(std.SYS_DESCR).read() == "repro router device"
        assert second.mib.get(std.DISK_TOTAL).read() == \
            PROFILES["router"].disk_total_kb

    def test_process_names_are_computed_at_read(self):
        _, _, (device,) = _fleet(count=1)
        assert [obj.read() for obj in device.mib.walk(std.PROC_TABLE)] == [
            "proc-dev1-%d" % slot
            for slot in range(PROFILES["server"].process_slots)]

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_set_on_every_device_oid_is_not_writable(self, profile):
        sim = Simulator(seed=5)
        network = Network(sim)
        transport = Transport(network)
        manager = network.add_host("mgr", "site1", role="manager")
        devices = [
            ManagedDevice(sim, network.add_host(name, "site1", role="device"),
                          profile=profile)
            for name in ("dev1", "dev2")]
        for device in devices:
            SnmpEngine(device, transport)
        # one PDU SETs every OID: the device CPU needs a while for it
        client = SnmpClient(manager, transport, timeout=100.0)
        oids = devices[0].mib.oids()
        before = [_walk(device.mib) for device in devices]

        def proc():
            response = yield from client.set(
                "dev1", {oid: 7 for oid in oids})
            return response

        process = sim.spawn(proc())
        sim.run(until=200.0)
        varbinds = process.result.varbinds
        assert [varbind.oid for varbind in varbinds] == oids
        assert all(varbind.error == SnmpError.NOT_WRITABLE
                   for varbind in varbinds)
        # the SET wrote nothing on either device (the metrics move with
        # time, so compare the objects that time does not move)
        static = ("sysDescr", "sysName", "dskTotal", "ifNumber", "hrSWRunName")

        def settled(rows):
            return [row for row in rows if row[1].split(".")[0] in static]

        after = [_walk(device.mib) for device in devices]
        assert [settled(rows) for rows in after] == \
            [settled(rows) for rows in before]
        with pytest.raises(PermissionError):
            devices[0].mib.get(std.SYS_NAME).write("evil")
        assert devices[1].mib.get(std.SYS_NAME).read() == "dev2"

    def test_a_template_with_a_writable_object_is_refused(self):
        with pytest.raises(ValueError, match="writable"):
            MibTemplate([
                MibObject("1.1", "a", lambda subject: 1),
                MibObject("1.2", "b", lambda subject: 2, writable=True),
            ])

    def test_a_template_refuses_duplicate_oids(self):
        with pytest.raises(ValueError, match="duplicate"):
            MibTemplate([MibObject("1.1", "a", lambda subject: 1),
                         MibObject("1.1", "b", lambda subject: 2)])

    def test_a_bound_mib_refuses_registration(self):
        _, _, (first, second) = _fleet()
        with pytest.raises(ValueError):
            first.mib.register_scalar("9.9", "extra", 1)
        assert "9.9" not in second.mib
        assert "9.9" not in first.mib


class TestLazyDeviceState:
    def test_an_unread_device_creates_no_stream(self):
        sim = Simulator(seed=8)
        network = Network(sim)
        created = []
        stream = sim.rng
        sim.rng = lambda name: created.append(name) or stream(name)
        devices = [
            ManagedDevice(sim, network.add_host("dev%d" % index, "site1",
                                                role="device"))
            for index in range(3)]
        sim.run(until=10.0)
        assert created == []
        devices[1].catch_up()
        sim.run(until=20.0)
        devices[1].catch_up()
        assert set(created) == {"device/dev1"}

    def test_read_order_does_not_change_values(self):
        def read(order):
            sim, _, devices = _fleet(count=2, profile="router", seed=17)
            values = {}
            for when in (5.0, 65.0):
                sim.run(until=when)
                for index in order:
                    devices[index].catch_up()
                    values.setdefault(index, []).append(
                        _walk(devices[index].mib))
            return values

        assert read((0, 1)) == read((1, 0))

    def test_unread_devices_stay_small(self):
        count = 2000
        sim = Simulator(seed=9)
        network = Network(sim)
        hosts = [network.add_host("dev%d" % index, "site1", role="device")
                 for index in range(count)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            devices = [ManagedDevice(sim, host) for host in hosts]
            used = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(devices) == count
        assert used / count < UNREAD_DEVICE_BYTES, (
            "%.0f bytes per unread device" % (used / count))


class TestProfileResolution:
    def test_an_unknown_profile_name_is_a_value_error(self):
        sim = Simulator(seed=1)
        host = Network(sim).add_host("dev1", "site1", role="device")
        with pytest.raises(ValueError, match="router, server, switch"):
            ManagedDevice(sim, host, profile="bogus")

    def test_the_setter_takes_a_profile_name(self):
        _, _, (device,) = _fleet(count=1, profile="router")
        hot = DeviceProfile("router", interface_count=8, process_slots=2)
        device.profile = hot
        device.profile = "router"
        assert device.profile is PROFILES["router"]
        with pytest.raises(ValueError, match="router, server, switch"):
            device.profile = "bogus"
        with pytest.raises(ValueError, match="interfaces"):
            device.profile = "server"
        assert device.profile is PROFILES["router"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        handle.write(_golden_text(device_walks()))
    print("wrote", os.path.normpath(GOLDEN_PATH))
