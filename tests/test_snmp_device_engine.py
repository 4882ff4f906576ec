"""Unit tests for managed devices, the SNMP engine and the client."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.topology import Network
from repro.network.transport import Transport
from repro.simkernel.simulator import Simulator
from repro.snmp.device import DeviceProfile, ManagedDevice, PROFILES
from repro.snmp.engine import PduType, SnmpEngine, SnmpError
from repro.snmp.manager import SnmpClient, SnmpTimeout
from repro.snmp.mib import std
from repro.snmp.traps import TrapSink


def advance(device):
    """One dynamics tick: the per-tick reference for ``catch_up``."""
    profile = device.profile
    if device.faults.cpu_runaway:
        device.cpu_load = device.rng.bounded_gauss(97.0, 2.0, 90.0, 100.0)
    else:
        device.cpu_load = device.rng.bounded_gauss(
            profile.cpu_mean, profile.cpu_sigma, 0.0, 100.0
        )
    device.load_avg = max(
        0.0, device.cpu_load / 25.0 + device.rng.gauss(0, 0.1))
    if device.faults.memory_leak:
        device.mem_available_kb = max(
            0, int(device.mem_available_kb - profile.mem_total_kb * 0.02)
        )
    else:
        device.mem_available_kb = int(device.rng.bounded_gauss(
            profile.mem_total_kb * 0.6,
            profile.mem_total_kb * 0.1,
            profile.mem_total_kb * 0.2,
            profile.mem_total_kb * 0.95,
        ))
    if device.faults.disk_filling:
        device.disk_free_kb = max(
            0, int(device.disk_free_kb - profile.disk_total_kb * 0.03)
        )
    device.proc_count = max(
        1, int(device.proc_count + device.rng.randint(-3, 3)))
    for index in range(profile.interface_count):
        if index in device.faults.down_interfaces:
            continue
        delta = device.rng.bounded_gauss(
            profile.traffic_rate * device.tick,
            profile.traffic_rate * device.tick * 0.3,
            0.0,
            profile.traffic_rate * device.tick * 3.0,
        )
        device.if_in_octets[index] += int(delta)
        device.if_out_octets[index] += int(delta * device.rng.uniform(0.5, 1.0))


class PerTickDevice(ManagedDevice):
    """Replays missed ticks one :func:`advance` at a time (the oracle)."""

    def catch_up(self):
        target = int((self.sim.now - self.started_at) / self.tick)
        while self._ticks_done < target:
            self._ticks_done += 1
            advance(self)


def _device(device_class=ManagedDevice, profile="server", tick=1.0):
    sim = Simulator(seed=11)
    host = Network(sim).add_host("dev1", "site1", role="device")
    return sim, device_class(sim, host, profile=profile, tick=tick)


def _state(device):
    return (
        device._ticks_done, device.cpu_load, device.load_avg,
        device.mem_available_kb, device.disk_free_kb, device.proc_count,
        list(device.if_in_octets), list(device.if_out_octets),
        device.rng._random.getstate(),
    )


def _hot(profile, base, scale):
    """``base``'s dynamics scaled by ``scale``, on ``profile``'s MIB shape."""
    return DeviceProfile(
        "%s-x%g" % (base.name, scale),
        interface_count=profile.interface_count,
        process_slots=profile.process_slots,
        cpu_mean=base.cpu_mean, cpu_sigma=base.cpu_sigma,
        mem_total_kb=int(base.mem_total_kb * scale),
        disk_total_kb=int(base.disk_total_kb * scale),
        traffic_rate=base.traffic_rate * scale,
    )


_FAULT_KINDS = ("cpu_runaway", "memory_leak", "disk_filling", "interface_down")

_STEPS = st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=4.0),
    st.one_of(
        st.just(("read",)),
        st.tuples(st.sampled_from(("inject", "clear")),
                  st.sampled_from(_FAULT_KINDS), st.integers(0, 23)),
        st.tuples(st.just("swap"), st.sampled_from(sorted(PROFILES)),
                  st.sampled_from((0.5, 1.0, 6.0))),
    ),
), max_size=12)


@pytest.fixture
def stack():
    sim = Simulator(seed=5)
    network = Network(sim)
    manager_host = network.add_host("mgr", "site1", role="manager")
    device_host = network.add_host("dev1", "site1", role="device")
    transport = Transport(network)
    device = ManagedDevice(sim, device_host, profile="server", tick=0.5)
    engine = SnmpEngine(device, transport)
    client = SnmpClient(manager_host, transport, timeout=5.0)
    return sim, network, transport, device, engine, client


class TestDevice:
    def test_profiles_shape_the_mib(self, stack):
        sim, network, transport, device, engine, client = stack
        assert device.mib.get(std.IF_IN_OCTETS.child(2)) is not None
        router_host = network.add_host("r1", "site1", role="device")
        router = ManagedDevice(sim, router_host, profile="router")
        assert router.mib.get(std.IF_IN_OCTETS.child(8)) is not None
        assert device.mib.get(std.IF_IN_OCTETS.child(8)) is None

    def test_dynamics_evolve_metrics(self, stack):
        sim, _, _, device, _, _ = stack
        before = list(device.if_in_octets)
        sim.run(until=5.0)
        device.catch_up()
        assert device.if_in_octets != before
        assert 0 <= device.cpu_load <= 100

    def test_cpu_runaway_fault(self, stack):
        sim, _, _, device, _, _ = stack
        device.inject_fault("cpu_runaway")
        sim.run(until=3.0)
        device.catch_up()
        assert device.cpu_load >= 90.0
        device.clear_fault("cpu_runaway")
        sim.run(until=10.0)
        device.catch_up()
        assert device.cpu_load < 90.0

    def test_disk_filling_fault_drains_disk(self, stack):
        sim, _, _, device, _, _ = stack
        before = device.disk_free_kb
        device.inject_fault("disk_filling")
        sim.run(until=10.0)
        device.catch_up()
        assert device.disk_free_kb < before

    def test_interface_down_fault_changes_oper_status(self, stack):
        sim, _, _, device, _, _ = stack
        status_oid = std.IF_OPER_STATUS.child(1)
        assert device.mib.get(status_oid).read() == 1
        device.inject_fault("interface_down", interface=0)
        assert device.mib.get(status_oid).read() == 2
        device.clear_fault("interface_down", interface=0)
        assert device.mib.get(status_oid).read() == 1

    def test_profile_swap_applies_from_now_on(self):
        # Reading after a mid-run swap must not replay the ticks before
        # the swap at the new rate.
        sim, swapped = _device(profile="router", tick=0.5)
        ref_sim, reference = _device(profile="router", tick=0.5)
        hot = _hot(swapped.profile, swapped.profile, 6.0)
        sim.run(until=5.0)
        ref_sim.run(until=5.0)
        reference.catch_up()
        swapped.profile = hot
        reference.profile = hot
        sim.run(until=10.0)
        ref_sim.run(until=10.0)
        swapped.catch_up()
        reference.catch_up()
        assert _state(swapped) == _state(reference)

    @settings(max_examples=300, deadline=None)
    @given(profile=st.sampled_from(sorted(PROFILES)),
           tick=st.sampled_from((0.1, 0.25, 0.5, 1.0, 2.5)),
           steps=_STEPS)
    # The octet counters sum every tick, so one read after thousands of
    # ticks also checks the rarely taken clamp branches.
    @example(profile="server", tick=0.5, steps=[(1500.0, ("read",))])
    @example(profile="router", tick=0.5, steps=[(1500.0, ("read",))])
    @example(profile="switch", tick=0.5, steps=[(1500.0, ("read",))])
    def test_replay_equals_per_tick_dynamics(self, profile, tick, steps):
        sim, device = _device(profile=profile, tick=tick)
        oracle_sim, oracle = _device(PerTickDevice, profile=profile, tick=tick)
        for delay, action in steps:
            for each_sim in (sim, oracle_sim):
                each_sim.run(until=each_sim.now + delay)
            # The oracle catches up before every action on its own, so a
            # change the device forgets to catch up for shows as a diff.
            oracle.catch_up()
            for each in (device, oracle):
                if action[0] == "read":
                    each.catch_up()
                elif action[0] == "swap":
                    each.profile = _hot(
                        each.profile, PROFILES[action[1]], action[2])
                else:
                    kind, interface = action[1], action[2]
                    interface %= each.profile.interface_count
                    if action[0] == "inject":
                        each.inject_fault(kind, interface=interface)
                    else:
                        each.clear_fault(kind, interface=interface)
            assert _state(device) == _state(oracle)

    def test_invalid_fault_kinds_rejected(self, stack):
        _, _, _, device, _, _ = stack
        with pytest.raises(ValueError):
            device.inject_fault("gremlins")
        with pytest.raises(ValueError):
            device.inject_fault("interface_down")  # missing index
        with pytest.raises(ValueError):
            device.inject_fault("interface_down", interface=99)


class TestEngineAndClient:
    def _run(self, sim, generator):
        process = sim.spawn(generator)
        sim.run(until=60.0)
        return process

    def test_get_returns_values(self, stack):
        sim, _, _, device, _, client = stack

        def proc():
            response = yield from client.get(
                "dev1", [std.CPU_LOAD, std.SYS_NAME])
            return response

        process = self._run(sim, proc())
        response = process.result
        assert response.ok
        values = {vb.name: vb.value for vb in response.varbinds}
        assert values["sysName"] == "dev1"
        assert 0 <= values["ssCpuBusy"] <= 100

    def test_get_unknown_oid_flags_error(self, stack):
        sim, _, _, _, _, client = stack

        def proc():
            response = yield from client.get("dev1", ["9.9.9.9"])
            return response

        response = self._run(sim, proc()).result
        assert not response.ok
        assert response.varbinds[0].error == SnmpError.NO_SUCH_OBJECT

    def test_getnext_and_walk(self, stack):
        sim, _, _, device, _, client = stack

        def proc():
            walked = yield from client.walk("dev1", std.PROC_TABLE)
            return walked

        walked = self._run(sim, proc()).result
        assert len(walked) == device.profile.process_slots
        assert all(vb.value.startswith("proc-dev1") for vb in walked)

    def test_getbulk_repeats(self, stack):
        sim, _, _, _, _, client = stack

        def proc():
            response = yield from client.get_bulk(
                "dev1", [std.SYS_DESCR], max_repetitions=3)
            return response

        response = self._run(sim, proc()).result
        assert len(response.varbinds) == 3

    def test_set_rejected_on_readonly(self, stack):
        sim, _, _, _, _, client = stack

        def proc():
            response = yield from client.set("dev1", {std.CPU_LOAD: 5})
            return response

        response = self._run(sim, proc()).result
        assert response.varbinds[0].error == SnmpError.NOT_WRITABLE

    def test_timeout_when_device_down(self, stack):
        sim, network, _, _, _, client = stack
        network.host("dev1").fail()

        def proc():
            try:
                yield from client.get("dev1", [std.CPU_LOAD])
            except SnmpTimeout:
                return "timeout"
            return "answered"

        assert self._run(sim, proc()).result == "timeout"
        assert client.timeouts == 1

    def test_poll_charges_device_cpu_and_both_nics(self, stack):
        sim, network, _, device, engine, client = stack

        def proc():
            yield from client.get(
                "dev1", [std.CPU_LOAD],
                request_size_units=0.5, response_size_units=4.5,
            )

        self._run(sim, proc())
        assert device.host.cpu.units_by_label["snmp-agent"] > 0
        assert network.host("mgr").nic.total_units == pytest.approx(5.0)
        assert engine.pdus_handled == 1


class TestTraps:
    def test_trap_reaches_subscribers(self, stack):
        sim, network, transport, device, _, _ = stack
        sink = TrapSink(network.host("mgr"), transport)
        got = []
        sink.subscribe(got.append)
        trap = sink.emit_from(device, "linkDown", {"interface": 1}, "critical")
        sim.run(until=5.0)
        assert got == [trap]
        assert sink.received == [trap]
        assert trap.raised_at is not None
        assert trap.device_name == "dev1"
