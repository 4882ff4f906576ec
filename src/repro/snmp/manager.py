"""Manager-side SNMP client.

A :class:`SnmpClient` lives on a management host (a collector agent's
container host or the centralized manager) and issues request PDUs to
device engines, correlating responses by request id.  All calls are
*process generators*: use ``yield from client.get(...)`` inside a
simulation process.
"""

import itertools

from repro.network.transport import Message
from repro.snmp.engine import PduType, SnmpRequest, VarBind


class SnmpTimeout(Exception):
    """No response arrived within the timeout."""

    def __init__(self, device_name, request_id):
        super().__init__("SNMP timeout polling %s (request %s)" % (
            device_name, request_id))
        self.device_name = device_name
        self.request_id = request_id


class _Timeout:
    """Internal sentinel delivered when the timer beats the response."""

    __slots__ = ()


_TIMEOUT = _Timeout()


class SnmpClient:
    """Issues SNMP PDUs from a management host.

    Args:
        host: the host the client runs on (its NIC pays send costs).
        transport: the network transport.
        timeout: seconds to wait for each response.
        client_id: distinguishes multiple clients on one host.
    """

    _ids = itertools.count(1)

    def __init__(self, host, transport, timeout=5.0, client_id=None):
        self.host = host
        self.transport = transport
        self.sim = host.sim
        self.timeout = timeout
        if client_id is None:
            client_id = "snmpc%d" % next(SnmpClient._ids)
        self.port = "snmp-reply/" + client_id
        self.reply_address = transport.address(host.name, self.port)
        self._request_ids = itertools.count(1)
        self._pending = {}
        self.requests_sent = 0
        self.timeouts = 0
        host.bind(self.port, self._on_reply)

    def _on_reply(self, message):
        response = message.payload
        pending = self._pending.pop(response.request_id, None)
        if pending is not None:
            event, timer = pending
            timer.cancel()
            event.trigger(response)

    def _expire(self, request_id):
        pending = self._pending.pop(request_id, None)
        if pending is not None:
            pending[0].trigger(_TIMEOUT)

    def request(
        self,
        device_name,
        pdu_type,
        varbinds,
        request_size_units=None,
        response_size_units=None,
        max_repetitions=10,
    ):
        """Send one PDU and wait for its response (process generator).

        Returns the :class:`~repro.snmp.engine.SnmpResponse`; raises
        :class:`SnmpTimeout` if the device never answers (down host, etc.).
        """
        request_id = "%s-%d" % (self.port, next(self._request_ids))
        request = SnmpRequest(
            pdu_type,
            varbinds,
            request_id,
            self.reply_address,
            max_repetitions=max_repetitions,
            response_size_units=response_size_units,
        )
        if request_size_units is None:
            request_size_units = 0.2 * max(1, len(request.varbinds))
        message = Message(
            sender=self.reply_address,
            dest=self.transport.address(device_name, "snmp"),
            payload=request,
            size_units=request_size_units,
            protocol="snmp",
        )
        event = self.sim.event("snmp-pending/" + request_id)
        timer = self.sim.schedule(self.timeout, self._expire, (request_id,))
        self._pending[request_id] = (event, timer)
        self.requests_sent += 1
        self.transport.post(message)  # delivery failures surface as timeout
        outcome = yield event
        if isinstance(outcome, _Timeout):
            self.timeouts += 1
            raise SnmpTimeout(device_name, request_id)
        return outcome

    def get(self, device_name, oids, **kwargs):
        """GET a list of scalar OIDs (process generator)."""
        varbinds = [VarBind(oid) for oid in oids]
        response = yield from self.request(device_name, PduType.GET, varbinds, **kwargs)
        return response

    def get_next(self, device_name, oids, **kwargs):
        varbinds = [VarBind(oid) for oid in oids]
        response = yield from self.request(
            device_name, PduType.GETNEXT, varbinds, **kwargs)
        return response

    def get_bulk(self, device_name, oids, max_repetitions=10, **kwargs):
        varbinds = [VarBind(oid) for oid in oids]
        response = yield from self.request(
            device_name, PduType.GETBULK, varbinds,
            max_repetitions=max_repetitions, **kwargs)
        return response

    def set(self, device_name, assignments, **kwargs):
        """SET ``{oid: value}`` assignments (process generator)."""
        varbinds = [VarBind(oid, value) for oid, value in assignments.items()]
        response = yield from self.request(device_name, PduType.SET, varbinds, **kwargs)
        return response

    def walk(self, device_name, prefix, max_steps=256, **kwargs):
        """Walk a subtree via repeated GETNEXT (process generator).

        Returns the list of in-subtree varbinds.
        """
        from repro.snmp.oids import OID

        prefix = OID(prefix)
        cursor = prefix
        collected = []
        for _ in range(max_steps):
            response = yield from self.get_next(device_name, [cursor], **kwargs)
            varbind = response.varbinds[0]
            if not varbind.ok or not prefix.is_prefix_of(varbind.oid):
                break
            collected.append(varbind)
            cursor = varbind.oid
        return collected

    def get_table(self, device_name, column_prefixes, max_steps=256,
                  **kwargs):
        """Walk several table columns and assemble rows by index.

        Args:
            device_name: device to query.
            column_prefixes: mapping of column name -> OID prefix (the
                per-row index is whatever follows the prefix).

        Returns ``{index_tuple: {column_name: value}}``; rows missing a
        column simply lack that key (sparse tables are normal in SNMP).
        """
        from repro.snmp.oids import OID

        rows = {}
        for column_name, prefix in column_prefixes.items():
            prefix = OID(prefix)
            varbinds = yield from self.walk(
                device_name, prefix, max_steps=max_steps, **kwargs)
            for varbind in varbinds:
                index = varbind.oid.parts[len(prefix.parts):]
                rows.setdefault(index, {})[column_name] = varbind.value
        return rows

    def __repr__(self):
        return "SnmpClient(%s, sent=%d, timeouts=%d)" % (
            self.host.name, self.requests_sent, self.timeouts,
        )
