"""Managed network devices with stochastic metric dynamics.

A :class:`ManagedDevice` wraps a simulated :class:`~repro.network.topology.Host`
(role ``"device"``).  Its MIB is the template of its shape bound to it.
The state evolves in fixed ticks that are sampled on demand, when the
device is read, so devices nobody polls cost no simulation work and hold
no RNG stream, MIB or fault flags of their own.  Fault injection (used by
the fault-management example and benches) switches the dynamics into
degraded regimes that the stock analysis rules detect.
"""

from functools import lru_cache
from math import ceil, sqrt

from repro.snmp.mib import MibObject, MibTemplate, std


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


def resolve_profile(profile):
    """``profile`` itself, or the :data:`PROFILES` entry it names."""
    if isinstance(profile, DeviceProfile):
        return profile
    if isinstance(profile, str) and profile in PROFILES:
        return PROFILES[profile]
    raise ValueError("unknown device profile %r (known: %s)" % (
        profile, ", ".join(sorted(PROFILES))))


#: (OID, name, units, reader) of the scalars every device MIB holds.
_SCALARS = (
    (std.SYS_DESCR, "sysDescr", "", lambda d: "repro %s device" % d._profile.name),
    (std.SYS_UPTIME, "sysUpTime", "ticks",
     lambda d: int((d.sim.now - d.started_at) * 100)),
    (std.SYS_NAME, "sysName", "", lambda d: d.host.name),
    (std.CPU_LOAD, "ssCpuBusy", "percent", lambda d: round(d.cpu_load, 1)),
    (std.MEM_AVAIL, "memAvailReal", "kB", lambda d: d.mem_available_kb),
    (std.LOAD_AVG_1MIN, "laLoad1", "", lambda d: round(d.load_avg, 2)),
    (std.DISK_FREE, "dskAvail", "kB", lambda d: d.disk_free_kb),
    (std.DISK_TOTAL, "dskTotal", "kB", lambda d: d._profile.disk_total_kb),
    (std.PROC_COUNT, "hrSystemProcesses", "", lambda d: d.proc_count),
)


@lru_cache(maxsize=None)
def _mib_template(interface_count, process_slots):
    """The MIB every device of this shape shares, built on first use.  Each
    reader takes the device; table rows are 1-based in the MIB, 0-based in
    the device state."""
    rows = list(_SCALARS)
    rows.append((std.IF_COUNT, "ifNumber", "", lambda d: interface_count))
    for i in range(interface_count):
        rows += [
            (std.IF_IN_OCTETS_AT[i + 1], "ifInOctets.%d" % (i + 1), "octets",
             lambda d, i=i: d.if_in_octets[i]),
            (std.IF_OUT_OCTETS_AT[i + 1], "ifOutOctets.%d" % (i + 1), "octets",
             lambda d, i=i: d.if_out_octets[i]),
            (std.IF_OPER_STATUS_AT[i + 1], "ifOperStatus.%d" % (i + 1), "",
             lambda d, i=i: 2 if i in d.faults.down_interfaces else 1),
        ]
    for i in range(process_slots):
        rows.append((std.PROC_TABLE_AT[i + 1], "hrSWRunName.%d" % (i + 1), "",
                     lambda d, i=i: "proc-%s-%d" % (d.host.name, i)))
    return MibTemplate(MibObject(oid, name, reader, units=units)
                       for oid, name, units, reader in rows)


class _Faults:
    """Active fault flags for a device."""

    __slots__ = ("cpu_runaway", "memory_leak", "disk_filling",
                 "down_interfaces")

    def __init__(self, down_interfaces):
        self.cpu_runaway = False
        self.memory_leak = False
        self.disk_filling = False
        self.down_interfaces = down_interfaces


#: The flags of every device that was never faulted, shared and never
#: written: a device switches to flags of its own before its first fault
#: change (the frozenset makes a stray ``add`` raise).
_NO_FAULTS = _Faults(frozenset())


class ManagedDevice:
    """A device whose MIB reflects stochastically evolving metrics.

    Dynamics advance in ticks of ``tick`` seconds, but nothing runs in the
    background: the device spawns no process and schedules no kernel
    events.  The state attributes (``cpu_load``, ``if_in_octets``, ...)
    hold the values as of the last :meth:`catch_up`, which samples them
    from the distribution after the ticks missed since then.  Every SNMP
    read, fault change and profile swap catches up first, so an observer
    sees the values of a device that had ticked all along, while an idle
    device costs nothing and a read costs the same after any gap.

    Args:
        sim: the simulator.
        host: the device's host in the topology (provides identity; device
            metric values are *modelled state*, not derived from the host's
            simulated resources).
        profile: a :class:`DeviceProfile` or profile name.
        tick: seconds between dynamics updates.
    """

    __slots__ = ("sim", "host", "_profile", "tick", "faults", "started_at",
                 "_ticks_done", "_mib", "cpu_load", "load_avg",
                 "mem_available_kb", "disk_free_kb", "proc_count",
                 "if_in_octets", "if_out_octets")

    def __init__(self, sim, host, profile="server", tick=1.0):
        profile = resolve_profile(profile)
        self.sim = sim
        self.host = host
        self._profile = profile
        self.tick = tick
        self.faults = _NO_FAULTS
        self.started_at = sim.now
        self._ticks_done = 0
        self._mib = None  # bound on first read

        # State as of the last catch_up()
        self.cpu_load = profile.cpu_mean
        self.load_avg = profile.cpu_mean / 25.0
        self.mem_available_kb = int(profile.mem_total_kb * 0.6)
        self.disk_free_kb = int(profile.disk_total_kb * 0.5)
        self.proc_count = 40 + profile.process_slots * 10
        self.if_in_octets = [0] * profile.interface_count
        self.if_out_octets = [0] * profile.interface_count

    @property
    def rng(self):
        """The device's own stream, created on first use.  It is seeded from
        (master seed, name), so its draws do not depend on when that is."""
        return self.sim.rng("device/" + self.host.name)

    @property
    def profile(self):
        return self._profile

    @profile.setter
    def profile(self, profile):
        # A swap (e.g. rerouted traffic multiplying the rate) applies from
        # now on: the ticks before it are sampled under the old profile.  The
        # counters and the MIB keep the shape they were built with.
        profile, current = resolve_profile(profile), self._profile
        if (profile.interface_count, profile.process_slots) != (
                current.interface_count, current.process_slots):
            raise ValueError(
                "profile %r has %d interfaces and %d process slots; %s needs "
                "%d and %d" % (profile.name, profile.interface_count,
                               profile.process_slots, self.name,
                               current.interface_count, current.process_slots))
        self.catch_up()
        self._profile = profile

    @property
    def mib(self):
        if self._mib is None:
            self._mib = _mib_template(self._profile.interface_count,
                                      self._profile.process_slots).bind(self)
        return self._mib

    # -- dynamics -----------------------------------------------------------

    def catch_up(self):
        """Bring the state up to ``sim.now`` with a fixed number of draws.

        Nothing observes a device between two reads, so a read samples
        each field from the tick model's distribution after the ticks
        missed since the last read instead of replaying them:

        * ``cpu``, ``load`` and a non-leaking ``mem`` are redrawn every
          tick, so only the last tick's draw survives; one draw has
          exactly its distribution;
        * a leak or a fill takes ``ceil(step)`` per tick until the floor
          at 0 (``int(m - step)`` of an integer ``m``), a closed form;
        * the octet counters and the ``procs`` walk add an aggregate
          normal with the summed ticks' means, variances and in/out
          covariance, clipped so counters never decrease.

        The fault flags and the profile are constant over the missed
        span: both only change through :meth:`inject_fault`,
        :meth:`clear_fault` and the ``profile`` setter, which catch up
        first.  All draws come from the device's own stream.
        """
        target = int((self.sim.now - self.started_at) / self.tick)
        missed = target - self._ticks_done
        if missed <= 0:
            return
        self._ticks_done = target
        profile = self._profile
        faults = self.faults
        rng = self.rng
        gauss = rng.gauss

        if faults.cpu_runaway:
            self.cpu_load = rng.bounded_gauss(97.0, 2.0, 90.0, 100.0)
        else:
            self.cpu_load = rng.bounded_gauss(
                profile.cpu_mean, profile.cpu_sigma, 0.0, 100.0)
        self.load_avg = max(0.0, self.cpu_load / 25.0 + gauss(0, 0.1))
        mem_total = profile.mem_total_kb
        if faults.memory_leak:
            self.mem_available_kb = max(
                0, self.mem_available_kb - missed * ceil(mem_total * 0.02))
        else:
            self.mem_available_kb = int(rng.bounded_gauss(
                mem_total * 0.6, mem_total * 0.1,
                mem_total * 0.2, mem_total * 0.95))
        if faults.disk_filling:
            self.disk_free_kb = max(0, self.disk_free_kb - missed * ceil(
                profile.disk_total_kb * 0.03))
        # randint(-3, 3) has variance 4 per tick; the walk is matched while
        # it stays clear of its floor at 1.
        self.proc_count = max(
            1, self.proc_count + round(gauss(0, 2.0 * sqrt(missed))))
        # One tick adds d = clamp(N(r, 0.3r), 0, 3r) in and d * U(0.5, 1)
        # out: Var d = 0.09 r^2, E[du] = 0.75 r, Var du = 0.0733 r^2 and
        # Cov(d, du) = 0.0675 r^2.  Two normals give n ticks' sums those
        # variances and that covariance: 0.225 = 0.0675 / 0.3 and
        # 0.1507 = sqrt(0.0733 - 0.225^2).
        rate = profile.traffic_rate * self.tick
        mean = missed * rate
        spread = sqrt(missed) * rate
        down = faults.down_interfaces
        in_octets = self.if_in_octets
        out_octets = self.if_out_octets
        for index in range(profile.interface_count):
            if index in down:
                continue
            z1 = gauss(0.0, 1.0)
            z2 = gauss(0.0, 1.0)
            in_octets[index] += max(0, int(mean + spread * 0.3 * z1))
            out_octets[index] += max(0, int(
                0.75 * mean + spread * (0.225 * z1 + 0.1507 * z2)))

    # -- fault injection -------------------------------------------------

    def inject_fault(self, kind, interface=None):
        """Switch a metric into a degraded regime.

        ``kind`` is one of ``"cpu_runaway"``, ``"memory_leak"``,
        ``"disk_filling"``, ``"interface_down"`` (needs ``interface``).
        """
        self._switch_fault(kind, interface, True)

    def clear_fault(self, kind, interface=None):
        """Return a metric to its healthy regime."""
        self._switch_fault(kind, interface, False)
        if kind == "memory_leak":
            self.mem_available_kb = int(self._profile.mem_total_kb * 0.6)
        elif kind == "disk_filling":
            self.disk_free_kb = int(self._profile.disk_total_kb * 0.5)

    def _switch_fault(self, kind, interface, active):
        self.catch_up()  # regime switches apply from a caught-up state
        if kind in ("cpu_runaway", "memory_leak", "disk_filling"):
            setattr(self._own_faults(), kind, active)
        elif kind == "interface_down":
            self.check_interface(interface)
            down = self._own_faults().down_interfaces
            if active:
                down.add(interface)
            else:
                down.discard(interface)
        else:
            raise ValueError("unknown fault kind %r" % kind)

    def _own_faults(self):
        """The device's own flags, split off the shared ones on first use."""
        if self.faults is _NO_FAULTS:
            self.faults = _Faults(set())
        return self.faults

    def check_interface(self, interface):
        """Raise ValueError unless ``interface`` is a valid 0-based index."""
        if interface is None:
            raise ValueError("interface_down needs an interface index")
        count = self._profile.interface_count
        if not 0 <= interface < count:
            raise ValueError("interface %r out of range for %s (%d interfaces)"
                             % (interface, self.name, count))

    @property
    def name(self):
        return self.host.name

    def __repr__(self):
        return "ManagedDevice(%r, profile=%r)" % (self.name, self.profile.name)
