"""A device nobody polls costs nothing to build.

A host builds its CPU, disk and NIC resources when they are first read, a
resource its label ledger at its first booking, a device starts on one
shared "no faults" flags object and takes flags of its own before its first
fault change, and every collector of a deployment reads one device-shape
table.  These tests bound what an unread device allocates and check that
none of the shared or deferred state leaks between devices or changes what
a reader sees.
"""

import tracemalloc

import pytest

from repro.core.records import CollectionGoal
from repro.core.system import GridManagementSystem, GridTopologySpec
from repro.evaluation.accounting import UtilizationReport
from repro.evaluation.tables import format_number
from repro.network.topology import Network
from repro.network.transport import Transport
from repro.simkernel.resources import Resource, ResourceKind
from repro.simkernel.simulator import Simulator
from repro.snmp.device import ManagedDevice
from repro.snmp.engine import SnmpEngine

#: Bytes that building one whole unread server device (its host, the
#: ManagedDevice and its SnmpEngine, as the deployment builder makes them)
#: may allocate.  Measured with tracemalloc over 2,000 devices on Python
#: 3.9 to 3.13: 2,049-2,854 B when the host built three resources, each
#: with its own label ledger, and each device its own fault flags;
#: 1,390-1,445 B with only the ledgers and flags deferred; 934-989 B with
#: the resources deferred too.
UNREAD_WHOLE_DEVICE_BYTES = 1200

FAULT_KINDS = ("cpu_runaway", "memory_leak", "disk_filling", "interface_down")


def _devices(count, profile="server", seed=5):
    sim = Simulator(seed=seed)
    network = Network(sim)
    transport = Transport(network)
    devices = []
    for index in range(count):
        host = network.add_host("dev%d" % index, "site1", role="device")
        device = ManagedDevice(sim, host, profile=profile)
        SnmpEngine(device, transport)
        devices.append(device)
    return sim, devices


def _active_faults(device):
    faults = device.faults
    active = {kind for kind in FAULT_KINDS[:3] if getattr(faults, kind)}
    if faults.down_interfaces:
        active.add("interface_down")
    return active


class TestUnreadDeviceCost:
    def test_whole_unread_devices_stay_small(self):
        count = 2000
        sim = Simulator(seed=9)
        network = Network(sim)
        transport = Transport(network)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            engines = []
            for index in range(count):
                host = network.add_host("dev%d" % index, "site1",
                                        role="device")
                device = ManagedDevice(sim, host, profile="server")
                engines.append(SnmpEngine(device, transport))
            used = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(engines) == count
        assert used / count < UNREAD_WHOLE_DEVICE_BYTES, (
            "%.0f bytes per unread device" % (used / count))

    def test_resources_are_built_on_first_read_with_the_given_capacity(self):
        sim = Simulator(seed=1)
        host = Network(sim).add_host("h", "site1", cpu_capacity=4,
                                     disk_capacity=6.5, net_capacity=9)
        assert (host.cpu_capacity, host.disk_capacity,
                host.net_capacity) == (4.0, 6.5, 9.0)
        cpu = host.cpu
        assert cpu is host.cpu is host.resource(ResourceKind.CPU)
        assert (cpu.name, cpu.kind, cpu.capacity, cpu.owner) == (
            "cpu", ResourceKind.CPU, 4.0, host)
        assert host.resources() == (cpu, host.nic, host.disk)
        assert [r.capacity for r in host.resources()] == [4.0, 9.0, 6.5]
        assert host.resource(ResourceKind.DISK) is host.disk
        with pytest.raises(AttributeError):
            host.gpu

    def test_a_bad_capacity_is_refused_when_the_host_is_built(self):
        network = Network(Simulator(seed=1))
        with pytest.raises(ValueError, match="capacity must be positive"):
            network.add_host("h", "site1", disk_capacity=0)


class TestSharedFaultFlags:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_a_fault_stays_on_its_device(self, kind):
        sim, (faulted, sibling) = _devices(2)
        sim.run(until=5.0)
        faulted.inject_fault(kind, interface=1)
        assert _active_faults(faulted) == {kind}
        assert _active_faults(sibling) == set()
        assert faulted.faults is not sibling.faults
        _, (fresh,) = _devices(1, seed=6)
        assert _active_faults(fresh) == set()
        assert fresh.faults is sibling.faults

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_clearing_a_fault_never_set_leaves_the_shared_flags(self, kind):
        _, (cleared, untouched) = _devices(2)
        shared = untouched.faults
        cleared.clear_fault(kind, interface=0)
        assert untouched.faults is shared
        assert (shared.cpu_runaway, shared.memory_leak, shared.disk_filling,
                shared.down_interfaces) == (False, False, False, frozenset())

    def test_a_refused_fault_change_keeps_the_shared_flags(self):
        _, (device, sibling) = _devices(2)
        for kind, interface in (("bogus", None), ("interface_down", 7),
                                ("interface_down", None)):
            with pytest.raises(ValueError):
                device.inject_fault(kind, interface)
        assert device.faults is sibling.faults


class TestDeferredLedger:
    def test_an_untouched_resource_snapshots_like_an_eager_one(self):
        sim = Simulator(seed=1)
        host = Network(sim).add_host("h", "site1", disk_capacity=3)
        sim.run(until=12.0)
        assert host.disk.snapshot() == {
            "name": "h.disk",
            "kind": ResourceKind.DISK,
            "capacity": 3.0,
            "busy_time": 0.0,
            "total_units": 0.0,
            "completed_requests": 0,
            "units_by_label": {},
        }

    def test_units_by_label_is_one_mapping_that_shows_later_bookings(self):
        sim = Simulator(seed=1)
        cpu = Resource(sim, "cpu", ResourceKind.CPU, 10.0)
        ledger = cpu.units_by_label
        assert ledger == {}
        assert ledger["anything"] == 0  # still a Counter
        cpu.charge(4.0, label="rx")
        cpu.reserve(10.0, label="tx")

        def worker():
            yield cpu.use(5.0, label="parse")

        sim.schedule(2.0, lambda: sim.spawn(worker()))
        sim.run()
        assert cpu.units_by_label is ledger
        assert dict(ledger) == {"rx": 4.0, "tx": 10.0, "parse": 5.0}

    def test_each_booking_site_allocates_the_ledger(self):
        sim = Simulator(seed=1)
        charged, reserved, served = (
            Resource(sim, name, ResourceKind.CPU, 10.0)
            for name in ("charged", "reserved", "served"))
        charged.charge(1.0, label="a")
        reserved.reserve(2.0, label="b")

        def worker():
            yield served.use(3.0, label="c")

        sim.spawn(worker())
        sim.run()
        assert [r.snapshot()["units_by_label"]
                for r in (charged, reserved, served)] == [
                    {"a": 1.0}, {"b": 2.0}, {"c": 3.0}]

    def test_an_untouched_host_reports_three_zero_rows(self):
        sim = Simulator(seed=1)
        network = Network(sim)
        idle = network.add_host("idle", "site1", role="analysis")
        busy = network.add_host("busy", "site1", role="analysis")
        busy.cpu.charge(5.0, label="work")
        sim.run(until=10.0)
        report = UtilizationReport.from_hosts("r", [idle, busy], horizon=10.0)
        row = report.host("idle")
        zeros = {ResourceKind.CPU: 0.0, ResourceKind.NET: 0.0,
                 ResourceKind.DISK: 0.0}
        assert row.units == zeros
        assert row.busy_time == zeros
        assert report.as_rows()[report.host_names().index("idle")] == (
            "idle", "analysis", format_number(0.0), format_number(0.0),
            format_number(0.0), "0.0%")
        assert report.host("busy").cpu_units == 5.0


class TestOneShapeTable:
    def test_every_collector_reads_one_table(self):
        system = GridManagementSystem(GridTopologySpec.paper_figure6c(
            seed=3, shards=2))
        tables = {id(collector.device_specs)
                  for collector in system.collectors}
        assert len(system.collectors) == 3 and len(tables) == 1
        assert system.collectors[0].device_specs == {
            "dev1": (2, 6), "dev2": (8, 2), "dev3": (2, 6)}

    def test_a_device_missing_from_the_table_is_polled_as_two_by_three(self):
        system = GridManagementSystem(GridTopologySpec.paper_figure6c(seed=3))
        host = system.network.add_host("stray", "site1", role="device")
        SnmpEngine(ManagedDevice(system.sim, host, profile="router"),
                   system.transport)
        collector = system.collectors[0]
        assert "stray" not in collector.device_specs
        records = {}

        def poll(device):
            records[device] = yield from collector.poll_once(
                CollectionGoal(device, "C"))

        for device in ("stray", "dev2"):  # both routers: 8 interfaces
            system.sim.spawn(poll(device))
        system.sim.run(until=30.0)
        interfaces = {
            device: sorted({instance for _, instance, _ in record.values})
            for device, record in records.items()}
        assert interfaces == {"stray": [1, 2], "dev2": list(range(1, 9))}
