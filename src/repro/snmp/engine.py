"""Device-side SNMP engine: answers GET / GETNEXT / GETBULK / SET.

The engine binds the ``"snmp"`` port on the device's host.  Handling a PDU
charges the device's CPU a small per-varbind cost (devices are cheap to
poll; the *management-side* costs come from the paper's Table 1 and are
charged by the collectors).  Responses travel back over the simulated
network to the requester's reply port.
"""

from repro.network.transport import DeliveryError, Message
from repro.snmp.oids import as_oid


class PduType:
    GET = "get"
    GETNEXT = "getnext"
    GETBULK = "getbulk"
    SET = "set"

    ALL = (GET, GETNEXT, GETBULK, SET)


class SnmpError:
    """Per-varbind error markers (subset of RFC 3416 semantics)."""

    NO_SUCH_OBJECT = "noSuchObject"
    END_OF_MIB = "endOfMibView"
    NOT_WRITABLE = "notWritable"
    BAD_VALUE = "badValue"


class VarBind:
    """An (oid, value) pair, optionally carrying an error marker."""

    __slots__ = ("oid", "value", "name", "error")

    def __init__(self, oid, value=None, name="", error=None):
        self.oid = as_oid(oid)
        self.value = value
        self.name = name
        self.error = error

    @property
    def ok(self):
        return self.error is None

    def __repr__(self):
        if self.error:
            return "VarBind(%s!%s)" % (self.oid, self.error)
        return "VarBind(%s=%r)" % (self.oid, self.value)


class SnmpRequest:
    """A request PDU.

    Args:
        pdu_type: one of :class:`PduType`.
        varbinds: list of :class:`VarBind` (values used only for SET).
        request_id: correlation id chosen by the client.
        reply_to: :class:`~repro.network.addressing.Address` for the response.
        max_repetitions: GETBULK repetition count.
        response_size_units: wire size of the response message; the client
            derives this from the management cost model so network ledgers
            match Table 1.
    """

    def __init__(
        self,
        pdu_type,
        varbinds,
        request_id,
        reply_to,
        max_repetitions=10,
        response_size_units=None,
    ):
        if pdu_type not in PduType.ALL:
            raise ValueError("unknown PDU type %r" % pdu_type)
        self.pdu_type = pdu_type
        self.varbinds = list(varbinds)
        self.request_id = request_id
        self.reply_to = reply_to
        self.max_repetitions = max_repetitions
        self.response_size_units = response_size_units

    def __repr__(self):
        return "SnmpRequest(%s, id=%s, n=%d)" % (
            self.pdu_type, self.request_id, len(self.varbinds),
        )


class SnmpResponse:
    """A response PDU mirroring the request id."""

    def __init__(self, request_id, varbinds, device_name):
        self.request_id = request_id
        self.varbinds = list(varbinds)
        self.device_name = device_name

    @property
    def ok(self):
        return all(varbind.ok for varbind in self.varbinds)

    def __repr__(self):
        return "SnmpResponse(id=%s, n=%d, ok=%s)" % (
            self.request_id, len(self.varbinds), self.ok,
        )


class SnmpEngine:
    """Binds a device's MIB to the network.

    Args:
        device: the :class:`~repro.snmp.device.ManagedDevice` served.
        transport: the network transport.
        cpu_cost_per_varbind: device CPU units charged per varbind handled.
        port: port name to bind (default ``"snmp"``).
    """

    PORT = "snmp"

    def __init__(self, device, transport, cpu_cost_per_varbind=0.2, port=PORT):
        self.device = device
        self.transport = transport
        self.sim = device.sim
        self.cpu_cost_per_varbind = cpu_cost_per_varbind
        self.port = port
        self.pdus_handled = 0
        device.host.bind(port, self._on_message)

    def _on_message(self, message):
        request = message.payload
        if not isinstance(request, SnmpRequest):
            return  # ignore junk traffic
        self.sim.spawn(
            self._handle(request),
            name="snmp@%s#%s" % (self.device.name, request.request_id),
        )

    def _handle(self, request):
        cpu_units = self.cpu_cost_per_varbind * max(1, len(request.varbinds))
        yield self.device.host.cpu.use(cpu_units, label="snmp-agent")
        # Replay the dynamics ticks missed since the device was last read,
        # so the response sees its values as of now.
        self.device.catch_up()
        varbinds = self._evaluate(request)
        self.pdus_handled += 1
        size = request.response_size_units
        if size is None:
            size = 0.5 * len(varbinds)
        response = Message(
            sender=self.transport.address(self.device.host.name, self.port),
            dest=request.reply_to,
            payload=SnmpResponse(request.request_id, varbinds, self.device.name),
            size_units=size,
            protocol="snmp",
        )
        try:
            yield from self.transport.send_and_wait(response)
        except DeliveryError:
            pass  # UDP semantics: a lost response is the client's problem

    def _evaluate(self, request):
        mib = self.device.mib
        results = []
        if request.pdu_type == PduType.GET:
            for varbind in request.varbinds:
                obj = mib.get(varbind.oid)
                if obj is None:
                    results.append(VarBind(varbind.oid, error=SnmpError.NO_SUCH_OBJECT))
                else:
                    results.append(VarBind(obj.oid, obj.read(), obj.name))
        elif request.pdu_type == PduType.GETNEXT:
            for varbind in request.varbinds:
                obj = mib.get_next(varbind.oid)
                if obj is None:
                    results.append(VarBind(varbind.oid, error=SnmpError.END_OF_MIB))
                else:
                    results.append(VarBind(obj.oid, obj.read(), obj.name))
        elif request.pdu_type == PduType.GETBULK:
            for varbind in request.varbinds:
                cursor = varbind.oid
                for _ in range(request.max_repetitions):
                    obj = mib.get_next(cursor)
                    if obj is None:
                        results.append(VarBind(cursor, error=SnmpError.END_OF_MIB))
                        break
                    results.append(VarBind(obj.oid, obj.read(), obj.name))
                    cursor = obj.oid
        elif request.pdu_type == PduType.SET:
            for varbind in request.varbinds:
                obj = mib.get(varbind.oid)
                if obj is None:
                    results.append(VarBind(varbind.oid, error=SnmpError.NO_SUCH_OBJECT))
                    continue
                try:
                    obj.write(varbind.value)
                except PermissionError:
                    results.append(VarBind(varbind.oid, error=SnmpError.NOT_WRITABLE))
                else:
                    results.append(VarBind(obj.oid, obj.read(), obj.name))
        return results

    def __repr__(self):
        return "SnmpEngine(%s, handled=%d)" % (self.device.name, self.pdus_handled)
