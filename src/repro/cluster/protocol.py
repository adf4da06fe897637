"""The cluster wire protocol: length-prefixed, versioned frames over TCP.

Every message between a :class:`~repro.cluster.coordinator
.ClusterCoordinator` and a :mod:`repro.cluster.worker` daemon is one
*frame*:

.. code-block:: text

    +-------+---------+-----+----------------+----------------------+
    | magic | version | pad | payload length | pickled (type, body) |
    | 4B    | 1B      | 3B  | 4B big-endian  | <length> bytes       |
    +-------+---------+-----+----------------+----------------------+

The header is fixed (:data:`FRAME_HEADER`), the body is a pickled
``(message_type, payload)`` pair.  The version byte rides in *every*
frame, so a coordinator talking to a daemon built from a different
checkout fails immediately with a :class:`ProtocolError` naming both
versions instead of corrupting a run — and the :data:`HELLO` handshake
re-checks it explicitly before any spec bytes move.

Two error families matter to callers:

* :class:`TransportError` — the connection died (worker crashed, host
  unreachable).  The coordinator treats this as *worker loss*: the job in
  flight is requeued onto a surviving worker.
* :class:`ProtocolError` — the bytes are wrong (magic/version mismatch,
  oversized frame).  Deterministic, never requeued.

Payloads are pickled, which is only safe between mutually trusted hosts
— the same trust model as the multiprocessing workers this subsystem
scales out.  Run daemons on machines you control, on networks you
control.

Message vocabulary (``payload`` keys in parentheses):

=================  ==========================================================
:data:`HELLO`      handshake (``version``) → :data:`WELCOME` (``pid``)
:data:`PING`       liveness probe → :data:`PONG` (``active``, cache sizes)
:data:`LOAD_PROGRAM`  ship program spec bytes (``key``, ``blob``) → ``OK``
:data:`LOAD_NETWORK`  ship network spec bytes (``key``, ``program_key``,
                   ``blob``) → ``OK``, or :data:`ERROR` with
                   ``missing="program"`` if the referenced program spec is
                   not cached worker-side
:data:`RUN_SHARD`  execute one shard batch (``network_key``, ``ports``,
                   ``variables``, ``state``, ``batch``, and — since v2 —
                   an optional ``replica`` spec naming the state-compute
                   replicated variables, their merge kinds, and the
                   parent's merge epoch; replica seeds ride in ``state``)
                   → :data:`RESULT` (``records``, ``links``, ``state``,
                   and ``replica_log``: the per-variable update log
                   diffed against the shipped seed, ``None`` when no
                   replica spec was sent) or :data:`ERROR`
                   (``missing="network"`` if the spec was evicted).
                   Since v4, ``batch`` and ``records`` are lane-wire
                   bytes (:func:`repro.dataplane.network.encode_batch`,
                   :func:`repro.dataplane.network.encode_records`):
                   schema rows, never pickled packet objects
:data:`RUN_OBS`    evaluate one OBS mirror batch (``blob``) →
                   :data:`RESULT` (``state``, ``outputs``)
:data:`CHAOS`      fault injection for tests (``mode``) → ``OK``
:data:`SHUTDOWN`   graceful daemon exit → :data:`BYE`
=================  ==========================================================
"""

from __future__ import annotations

import pickle
import struct

from repro.lang.errors import DataPlaneError
from repro.obs.metrics import counter

#: Protocol version — bump on any frame or message change.
#: v2: RUN_SHARD carries an optional state-compute ``replica`` spec and
#: RESULT returns the matching ``replica_log`` (see the table above).
#: v3: RUN_SHARD carries an optional ``telemetry`` dict (``trace``: the
#: coordinator's span context to parent worker spans under, and
#: ``postcard_every``: the packet-sampling stride) and RESULT returns
#: the matching ``spans`` and ``postcards`` lists recorded while the
#: shard ran (absent/None when no telemetry was sent).
#: v4: RUN_SHARD ``batch`` and RESULT ``records`` are lane-wire bytes —
#: a field-name schema table plus one value row per packet — instead of
#: pickled Packet and DeliveryRecord objects.
PROTOCOL_VERSION = 4

#: Frame/byte counters by direction ("sent"/"received") — every frame
#: either side moves is counted here, including heartbeats.
_FRAMES_TOTAL = counter(
    "snap_cluster_frames_total", "Cluster wire frames moved, by direction"
)
_BYTES_TOTAL = counter(
    "snap_cluster_bytes_total",
    "Cluster wire payload bytes moved, by direction",
)

#: Frame magic ("SNAP cluster wire").
FRAME_MAGIC = b"SNCW"

#: Refuse frames beyond this size: a corrupt length prefix must fail
#: fast, not allocate gigabytes.
MAX_FRAME_BYTES = 1 << 30

#: magic, version, 3 pad bytes, payload length.
FRAME_HEADER = struct.Struct("!4sBxxxI")

# -- message types ------------------------------------------------------------

HELLO = "hello"
WELCOME = "welcome"
PING = "ping"
PONG = "pong"
LOAD_PROGRAM = "load_program"
LOAD_NETWORK = "load_network"
OK = "ok"
RUN_SHARD = "run_shard"
RUN_OBS = "run_obs"
RESULT = "result"
ERROR = "error"
CHAOS = "chaos"
SHUTDOWN = "shutdown"
BYE = "bye"


class ClusterError(DataPlaneError):
    """Base class for cluster-runtime failures."""


class ProtocolError(ClusterError):
    """The peer sent bytes this protocol version cannot accept."""


class TransportError(ClusterError):
    """The connection died mid-conversation (worker loss)."""


def send_message(sock, message_type: str, payload=None) -> int:
    """Send one frame; returns the payload size in bytes (for stats)."""
    body = pickle.dumps(
        (message_type, payload), protocol=pickle.HIGHEST_PROTOCOL
    )
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(body)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    header = FRAME_HEADER.pack(FRAME_MAGIC, PROTOCOL_VERSION, len(body))
    try:
        sock.sendall(header + body)
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from exc
    _FRAMES_TOTAL.labels(direction="sent").inc()
    _BYTES_TOTAL.labels(direction="sent").inc(len(body))
    return len(body)


def _recv_exact(sock, count: int) -> bytes:
    chunks = []
    while count:
        try:
            chunk = sock.recv(min(count, 1 << 20))
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from exc
        if not chunk:
            raise TransportError("connection closed by peer")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_message(sock):
    """Receive one frame; returns ``(message_type, payload)``."""
    magic, version, length = FRAME_HEADER.unpack(
        _recv_exact(sock, FRAME_HEADER.size)
    )
    if magic != FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing a {length}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    message_type, payload = pickle.loads(_recv_exact(sock, length))
    _FRAMES_TOTAL.labels(direction="received").inc()
    _BYTES_TOTAL.labels(direction="received").inc(length)
    return message_type, payload
