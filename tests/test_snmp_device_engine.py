"""Unit tests for managed devices, the SNMP engine and the client."""

from math import sqrt
from statistics import fmean, pvariance

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
    """Replays missed ticks one :func:`advance` at a time: the reference
    distribution that a read samples from."""

    def catch_up(self):
        target = int((self.sim.now - self.started_at) / self.tick)
        while self._ticks_done < target:
            self._ticks_done += 1
            advance(self)


def _device(device_class=ManagedDevice, profile="server", tick=1.0, seed=11):
    sim = Simulator(seed=seed)
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
        st.just(("draw",)),
        st.tuples(st.sampled_from(("inject", "clear")),
                  st.sampled_from(_FAULT_KINDS), st.integers(0, 23)),
        st.tuples(st.just("swap"), st.sampled_from(sorted(PROFILES)),
                  st.sampled_from((0.5, 1.0, 6.0))),
    ),
), max_size=12)


#: Gaps, in ticks, between two reads in the distributional test.
GAPS = (1, 3, 50, 1500)
#: Fields drawn fresh each tick (cpu, load, mem), the closed forms (disk)
#: and the procs walk are compared up to this gap; beyond it only the
#: octet counters, which pool a sample per live interface.  The walk is
#: matched in moments only while it stays clear of its floor at 1.
SCALAR_GAP_LIMIT = 50
SCALARS = ("cpu", "load", "mem", "disk", "procs")
COUNTERS = ("in", "out")
#: Oracle ticks per gap for the scalar gaps (the oracle replays each
#: one); the fewest samples behind any statistic; reads of the model.
ORACLE_TICKS = 1200
MIN_SAMPLES = 30
MODEL_READS = 400
#: A statistic of the read-time model may differ from the oracle's by at
#: most this many standard errors of the difference.
TOLERANCE = 5.0


def _regime(device, faulty):
    """Put ``device`` in the fault regime: every kind, interface 0 down."""
    if faulty:
        for kind in ("cpu_runaway", "memory_leak", "disk_filling"):
            device.inject_fault(kind)
        device.inject_fault("interface_down", interface=0)


def _reads(device_class, profile, faulty, gap, reads, seed):
    """Samples of ``reads`` reads ``gap`` ticks apart, by field.

    Each read starts from the same procs, mem and disk, so the walk,
    the leak and the fill are sampled over exactly ``gap`` ticks; the
    counters give one (in, out) delta per live interface.
    """
    sim, device = _device(device_class, profile=profile, seed=seed)
    _regime(device, faulty)
    start = device.proc_count, device.mem_available_kb, device.disk_free_kb
    live = [index for index in range(device.profile.interface_count)
            if index not in device.faults.down_interfaces]
    samples = {field: [] for field in SCALARS + COUNTERS}
    for _ in range(reads):
        device.proc_count, device.mem_available_kb, device.disk_free_kb = \
            start
        before = list(device.if_in_octets), list(device.if_out_octets)
        sim.run(until=sim.now + gap * device.tick)
        device.catch_up()
        samples["cpu"].append(device.cpu_load)
        samples["load"].append(device.load_avg)
        samples["mem"].append(device.mem_available_kb)
        samples["disk"].append(device.disk_free_kb)
        samples["procs"].append(device.proc_count - start[0])
        for index in live:
            samples["in"].append(device.if_in_octets[index] - before[0][index])
            samples["out"].append(
                device.if_out_octets[index] - before[1][index])
    return samples


def _cross_products(oracle, model):
    """Per-sample (in - mean)(out - mean) of both sides, pooled means."""
    mean_in = fmean(oracle["in"] + model["in"])
    mean_out = fmean(oracle["out"] + model["out"])
    return tuple(
        [(a - mean_in) * (b - mean_out) for a, b in zip(side["in"], side["out"])]
        for side in (oracle, model))


def _assert_matches(label, oracle, model):
    """The two sample means agree within ``TOLERANCE`` standard errors
    (exactly, when neither side varies)."""
    error = sqrt(pvariance(oracle) / len(oracle)
                 + pvariance(model) / len(model))
    gap = abs(fmean(oracle) - fmean(model))
    assert gap <= TOLERANCE * error, (
        "%s: oracle %.6g (%d samples), read-time %.6g (%d samples), "
        "%.1f standard errors apart" % (
            label, fmean(oracle), len(oracle), fmean(model), len(model),
            gap / error if error else float("inf")))


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

    @pytest.mark.parametrize("faulty", [False, True],
                             ids=["healthy", "faulty"])
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_read_time_marginals_match_the_per_tick_oracle(
            self, profile, faulty):
        for n in GAPS:
            live = PROFILES[profile].interface_count - faulty
            if n <= SCALAR_GAP_LIMIT:
                fields = SCALARS + COUNTERS
                reads = max(MIN_SAMPLES, ORACLE_TICKS // n)
            else:
                fields = COUNTERS
                reads = -(-MIN_SAMPLES // live)
            oracle = _reads(PerTickDevice, profile, faulty, n, reads,
                            seed=1000 + n)
            model = _reads(ManagedDevice, profile, faulty, n,
                           max(reads, MODEL_READS), seed=2000 + n)
            label = "%s %s n=%d " % (
                profile, "faulty" if faulty else "healthy", n)
            for field in fields:
                _assert_matches(label + field + " mean",
                                oracle[field], model[field])
                center = fmean(oracle[field] + model[field])
                _assert_matches(label + field + " variance",
                                [(x - center) ** 2 for x in oracle[field]],
                                [(x - center) ** 2 for x in model[field]])
            _assert_matches(label + "in/out covariance",
                            *_cross_products(oracle, model))

    @pytest.mark.parametrize("scale", [1.0, 0.37, 6.0, 0.011])
    def test_leak_and_fill_are_the_n_fold_per_tick_update(self, scale):
        sim, device = _device(profile="server")
        _, oracle = _device(PerTickDevice, profile="server")
        for each in (device, oracle):
            each.profile = _hot(each.profile, PROFILES["server"], scale)
            each.inject_fault("memory_leak")
            each.inject_fault("disk_filling")
        start = device.mem_available_kb + 7, device.disk_free_kb + 3
        oracle.mem_available_kb, oracle.disk_free_kb = start
        expected = [start]
        for _ in range(2000):
            advance(oracle)
            expected.append((oracle.mem_available_kb, oracle.disk_free_kb))
        for n, after in enumerate(expected):
            device.mem_available_kb, device.disk_free_kb = start
            sim.run(until=sim.now + n)
            device.catch_up()
            assert (device.mem_available_kb, device.disk_free_kb) == after

    @pytest.mark.parametrize("faulty", [False, True])
    def test_a_read_costs_the_same_draws_after_any_gap(self, faulty):
        states = []
        for ticks in (5, 500000):
            sim, device = _device(profile="router")
            _regime(device, faulty)
            sim.run(until=float(ticks))
            device.catch_up()
            assert device._ticks_done == ticks
            states.append(device.rng._random.getstate())
        assert states[0] == states[1]

    @settings(max_examples=300, deadline=None)
    @given(profile=st.sampled_from(sorted(PROFILES)),
           tick=st.sampled_from((0.1, 0.25, 0.5, 1.0, 2.5)),
           steps=_STEPS)
    # One read after thousands of ticks: the aggregate draws are widest.
    @example(profile="server", tick=0.5, steps=[(1500.0, ("read",))])
    @example(profile="router", tick=0.5, steps=[(1500.0, ("read",))])
    @example(profile="switch", tick=0.5, steps=[(1500.0, ("read",))])
    def test_reads_keep_the_state_invariants(self, profile, tick, steps):
        sim, device = _device(profile=profile, tick=tick)
        for delay, action in steps:
            sim.run(until=sim.now + delay)
            ticks = device._ticks_done
            runaway = device.faults.cpu_runaway
            counters = list(device.if_in_octets), list(device.if_out_octets)
            # Every action catches up first, under the flags it found.
            if action[0] == "read":
                device.catch_up()
            elif action[0] == "draw":
                device.catch_up()
                device.rng.gauss(0, 1)
                device.rng.random()
            elif action[0] == "swap":
                device.profile = _hot(
                    device.profile, PROFILES[action[1]], action[2])
            else:
                kind, interface = action[1], action[2]
                interface %= device.profile.interface_count
                if action[0] == "inject":
                    device.inject_fault(kind, interface=interface)
                else:
                    device.clear_fault(kind, interface=interface)
            for now, before in zip(
                    (device.if_in_octets, device.if_out_octets), counters):
                assert all(a >= b for a, b in zip(now, before))
            low, high = (90.0, 100.0) if runaway else (0.0, 100.0)
            if device._ticks_done == ticks:
                low = 0.0
            assert low <= device.cpu_load <= high
            assert device.load_avg >= 0.0
            assert device.mem_available_kb >= 0
            assert device.disk_free_kb >= 0
            assert device.proc_count >= 1
            state = _state(device)
            device.catch_up()
            assert _state(device) == state

    def test_invalid_fault_kinds_rejected(self, stack):
        _, _, _, device, _, _ = stack
        with pytest.raises(ValueError):
            device.inject_fault("gremlins")
        with pytest.raises(ValueError):
            device.inject_fault("interface_down")  # missing index
        with pytest.raises(ValueError):
            device.inject_fault("interface_down", interface=99)

    def test_clear_fault_checks_the_interface_index(self, stack):
        _, _, _, device, _, _ = stack
        device.inject_fault("interface_down", interface=1)
        with pytest.raises(ValueError):
            device.clear_fault("interface_down")  # missing index
        with pytest.raises(ValueError):
            device.clear_fault("interface_down", interface=99)
        assert device.faults.down_interfaces == {1}

    @pytest.mark.parametrize("read_first", [True, False])
    def test_profile_swap_must_keep_the_mib_shape(self, read_first):
        sim, device = _device(profile="server", tick=0.5)
        sim.run(until=3.0)
        if read_first:
            device.catch_up()
        with pytest.raises(ValueError):
            device.profile = PROFILES["router"]
        assert device.profile is PROFILES["server"]
        sim.run(until=6.0)
        device.catch_up()
        assert len(device.if_in_octets) == len(device.mib.walk(
            std.IF_IN_OCTETS)) == PROFILES["server"].interface_count

    def test_profile_scalars_follow_the_current_profile(self):
        _, device = _device(profile="router", tick=0.5)
        assert device.mib.get(std.SYS_DESCR).read() == "repro router device"
        device.profile = _hot(device.profile, PROFILES["switch"], 2.0)
        assert device.mib.get(std.SYS_DESCR).read() == \
            "repro switch-x2 device"
        assert device.mib.get(std.DISK_TOTAL).read() == \
            PROFILES["switch"].disk_total_kb * 2


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
