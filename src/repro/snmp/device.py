"""Managed network devices with stochastic metric dynamics.

A :class:`ManagedDevice` wraps a simulated :class:`~repro.network.topology.Host`
(role ``"device"``) and populates a MIB with callables that read its
state.  The state evolves in fixed ticks that are replayed on demand, when
the device is read, so devices nobody polls cost no simulation work.
Fault injection (used by the fault-management example and benches) switches
the dynamics into degraded regimes that the stock analysis rules detect.
"""

from repro.snmp.mib import MibObject, MibTree, std


class DeviceProfile:
    """Static parameters for a class of device.

    Args:
        name: profile name ("server", "router", "switch").
        interface_count: interfaces exposed in the MIB.
        process_slots: process-table entries exposed.
        cpu_mean / cpu_sigma: steady-state CPU-percent dynamics.
        mem_total_kb / disk_total_kb: capacities.
        traffic_rate: mean octets per second per interface.
    """

    def __init__(
        self,
        name,
        interface_count=2,
        process_slots=3,
        cpu_mean=35.0,
        cpu_sigma=10.0,
        mem_total_kb=1024 * 1024,
        disk_total_kb=8 * 1024 * 1024,
        traffic_rate=20000.0,
    ):
        self.name = name
        self.interface_count = interface_count
        self.process_slots = process_slots
        self.cpu_mean = cpu_mean
        self.cpu_sigma = cpu_sigma
        self.mem_total_kb = mem_total_kb
        self.disk_total_kb = disk_total_kb
        self.traffic_rate = traffic_rate

    def __repr__(self):
        return "DeviceProfile(%r)" % self.name


PROFILES = {
    "server": DeviceProfile(
        "server", interface_count=2, process_slots=6, cpu_mean=40.0,
        cpu_sigma=12.0, traffic_rate=30000.0,
    ),
    "router": DeviceProfile(
        "router", interface_count=8, process_slots=2, cpu_mean=25.0,
        cpu_sigma=8.0, traffic_rate=120000.0,
    ),
    "switch": DeviceProfile(
        "switch", interface_count=24, process_slots=1, cpu_mean=10.0,
        cpu_sigma=4.0, traffic_rate=250000.0,
    ),
}


class _Faults:
    """Active fault flags for a device."""

    def __init__(self):
        self.cpu_runaway = False
        self.memory_leak = False
        self.disk_filling = False
        self.down_interfaces = set()

    def any_active(self):
        return (
            self.cpu_runaway
            or self.memory_leak
            or self.disk_filling
            or bool(self.down_interfaces)
        )


class ManagedDevice:
    """A device whose MIB reflects stochastically evolving metrics.

    Dynamics advance in ticks of ``tick`` seconds, but nothing runs in the
    background: the device spawns no process and schedules no kernel
    events.  The state attributes (``cpu_load``, ``if_in_octets``, ...)
    hold the values as of the last :meth:`catch_up`, which replays every
    tick missed since then.  Every SNMP read, fault change and profile
    swap catches up first, so an observer sees the values of a device
    that had ticked all along, while an idle device costs nothing.

    Args:
        sim: the simulator.
        host: the device's host in the topology (provides identity; device
            metric values are *modelled state*, not derived from the host's
            simulated resources).
        profile: a :class:`DeviceProfile` or profile name.
        tick: seconds between dynamics updates.
    """

    def __init__(self, sim, host, profile="server", tick=1.0):
        if isinstance(profile, str):
            profile = PROFILES[profile]
        self.sim = sim
        self.host = host
        self._profile = profile
        self.tick = tick
        self.rng = sim.rng("device/" + host.name)
        self.faults = _Faults()
        self.started_at = sim.now
        self._ticks_done = 0
        self._mib = None  # built on first read

        # State as of the last catch_up()
        self.cpu_load = profile.cpu_mean
        self.load_avg = profile.cpu_mean / 25.0
        self.mem_available_kb = int(profile.mem_total_kb * 0.6)
        self.disk_free_kb = int(profile.disk_total_kb * 0.5)
        self.proc_count = 40 + profile.process_slots * 10
        self.if_in_octets = [0] * profile.interface_count
        self.if_out_octets = [0] * profile.interface_count
        self.process_names = [
            "proc-%s-%d" % (host.name, index)
            for index in range(profile.process_slots)
        ]

    @property
    def profile(self):
        return self._profile

    @profile.setter
    def profile(self, profile):
        # A swap (e.g. rerouted traffic multiplying the rate) applies from
        # now on: the ticks before it replay under the old profile.
        self.catch_up()
        self._profile = profile

    # -- MIB ---------------------------------------------------------------

    @property
    def mib(self):
        mib = self._mib
        if mib is None:
            mib = self._mib = MibTree()
            self._populate_mib()
        return mib

    def _populate_mib(self):
        mib = self._mib
        mib.register_scalar(
            std.SYS_DESCR, "sysDescr",
            "repro %s device" % self.profile.name,
        )
        mib.register_scalar(
            std.SYS_UPTIME, "sysUpTime",
            lambda: int((self.sim.now - self.started_at) * 100), units="ticks",
        )
        mib.register_scalar(std.SYS_NAME, "sysName", self.host.name, writable=False)
        mib.register_scalar(
            std.CPU_LOAD, "ssCpuBusy", lambda: round(self.cpu_load, 1),
            units="percent",
        )
        mib.register_scalar(
            std.MEM_AVAIL, "memAvailReal", lambda: self.mem_available_kb, units="kB",
        )
        mib.register_scalar(
            std.LOAD_AVG_1MIN, "laLoad1", lambda: round(self.load_avg, 2),
        )
        mib.register_scalar(
            std.DISK_FREE, "dskAvail", lambda: self.disk_free_kb, units="kB",
        )
        mib.register_scalar(
            std.DISK_TOTAL, "dskTotal", self.profile.disk_total_kb, units="kB",
        )
        mib.register_scalar(
            std.PROC_COUNT, "hrSystemProcesses", lambda: self.proc_count,
        )
        mib.register_scalar(
            std.IF_COUNT, "ifNumber", self.profile.interface_count,
        )
        for index in range(1, self.profile.interface_count + 1):
            mib.register(MibObject(
                std.IF_IN_OCTETS.child(index), "ifInOctets.%d" % index,
                self._octet_reader(self.if_in_octets, index - 1), units="octets",
            ))
            mib.register(MibObject(
                std.IF_OUT_OCTETS.child(index), "ifOutOctets.%d" % index,
                self._octet_reader(self.if_out_octets, index - 1), units="octets",
            ))
            mib.register(MibObject(
                std.IF_OPER_STATUS.child(index), "ifOperStatus.%d" % index,
                self._status_reader(index),
            ))
        for slot, name in enumerate(self.process_names, start=1):
            mib.register_scalar(
                std.PROC_TABLE.child(slot), "hrSWRunName.%d" % slot, name,
            )

    def _octet_reader(self, counters, index):
        return lambda: counters[index]

    def _status_reader(self, if_index):
        # MIB interface indices are 1-based; fault indices are 0-based.
        return lambda: 2 if (if_index - 1) in self.faults.down_interfaces else 1

    # -- dynamics -----------------------------------------------------------

    def catch_up(self):
        """Replay every tick missed up to ``sim.now``, in one loop.

        Each tick draws from the device's private RNG stream in a fixed
        order, so the values are those of a device updated every tick.
        The fault flags and the profile are read once per call: both only
        change through :meth:`inject_fault`, :meth:`clear_fault` and the
        ``profile`` setter, which catch up first.
        """
        target = int((self.sim.now - self.started_at) / self.tick)
        missed = target - self._ticks_done
        if missed <= 0:
            return
        self._ticks_done = target
        profile = self._profile
        faults = self.faults
        # Draw from the stream's generator directly: the RngStream
        # wrappers would add a call per draw to the hottest loop.
        draws = self.rng._random
        gauss = draws.gauss
        randint = draws.randint
        uniform = draws.uniform

        if faults.cpu_runaway:
            cpu_mu, cpu_sigma, cpu_low, cpu_high = 97.0, 2.0, 90.0, 100.0
        else:
            cpu_mu, cpu_sigma = profile.cpu_mean, profile.cpu_sigma
            cpu_low, cpu_high = 0.0, 100.0
        leaking = faults.memory_leak
        mem_total = profile.mem_total_kb
        leak = mem_total * 0.02
        mem_mu, mem_sigma = mem_total * 0.6, mem_total * 0.1
        mem_low, mem_high = mem_total * 0.2, mem_total * 0.95
        filling = faults.disk_filling
        fill = profile.disk_total_kb * 0.03
        rate = profile.traffic_rate * self.tick
        rate_sigma, rate_high = rate * 0.3, rate * 3.0
        live = [
            index for index in range(profile.interface_count)
            if index not in faults.down_interfaces
        ]
        in_octets = self.if_in_octets
        out_octets = self.if_out_octets
        mem = self.mem_available_kb
        disk = self.disk_free_kb
        procs = self.proc_count

        for _ in range(missed):
            cpu = min(cpu_high, max(cpu_low, gauss(cpu_mu, cpu_sigma)))
            load = max(0.0, cpu / 25.0 + gauss(0, 0.1))
            if leaking:
                mem = max(0, int(mem - leak))
            else:
                mem = int(min(mem_high, max(mem_low, gauss(mem_mu, mem_sigma))))
            if filling:
                disk = max(0, int(disk - fill))
            procs = max(1, procs + randint(-3, 3))
            for index in live:
                delta = min(rate_high, max(0.0, gauss(rate, rate_sigma)))
                in_octets[index] += int(delta)
                out_octets[index] += int(delta * uniform(0.5, 1.0))

        self.cpu_load = cpu
        self.load_avg = load
        self.mem_available_kb = mem
        self.disk_free_kb = disk
        self.proc_count = procs

    # -- fault injection -------------------------------------------------

    def inject_fault(self, kind, interface=None):
        """Switch a metric into a degraded regime.

        ``kind`` is one of ``"cpu_runaway"``, ``"memory_leak"``,
        ``"disk_filling"``, ``"interface_down"`` (needs ``interface``).
        """
        self.catch_up()  # regime switches apply from a caught-up state
        if kind == "cpu_runaway":
            self.faults.cpu_runaway = True
        elif kind == "memory_leak":
            self.faults.memory_leak = True
        elif kind == "disk_filling":
            self.faults.disk_filling = True
        elif kind == "interface_down":
            if interface is None:
                raise ValueError("interface_down needs an interface index")
            if not 0 <= interface < self.profile.interface_count:
                raise ValueError("interface %r out of range" % interface)
            self.faults.down_interfaces.add(interface)
        else:
            raise ValueError("unknown fault kind %r" % kind)

    def clear_fault(self, kind, interface=None):
        """Return a metric to its healthy regime."""
        self.catch_up()
        if kind == "cpu_runaway":
            self.faults.cpu_runaway = False
        elif kind == "memory_leak":
            self.faults.memory_leak = False
            self.mem_available_kb = int(self.profile.mem_total_kb * 0.6)
        elif kind == "disk_filling":
            self.faults.disk_filling = False
            self.disk_free_kb = int(self.profile.disk_total_kb * 0.5)
        elif kind == "interface_down":
            self.faults.down_interfaces.discard(interface)
        else:
            raise ValueError("unknown fault kind %r" % kind)

    @property
    def name(self):
        return self.host.name

    def __repr__(self):
        return "ManagedDevice(%r, profile=%r)" % (self.name, self.profile.name)
