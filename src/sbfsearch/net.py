"""Framed binary client/server protocol.

Frame layout (all integers big-endian):

    magic    4 bytes  "SBF1"
    type     1 byte
    length   4 bytes  payload byte count
    payload  `length` bytes

Handshake (plaintext payloads):

    0x10 HELLO      role(1) || client ephemeral public key(32)
    0x11 HELLO_ACK  server ephemeral public key(32) || role echo(1) ||
                    confirmation tag(32) = HMAC(channel key, transcript)

Both sides derive a 128-bit channel key via X25519 + HKDF over the
handshake transcript; the confirmation tag makes transcript tampering
abort the session immediately. Every later payload is a transport
envelope under the channel key whose plaintext starts with a one-byte
correlation id copied into the response:

    0x01 UPLOAD      corr || upload packet         -> 0x02 ACK corr || buffers(4)
    0x03 SEARCH_LOC  corr || zone || n(2) || n*pos(4)
                                                   -> 0x05 RESULT
    0x06 REMOVE      corr || zone || handle(16) || rbf_len(4) || sparse rbf ||
                     flag(1) [|| packet]           -> 0x07 ACK corr || pruned(4)
    0x08 ERROR       corr || code(2) || utf-8 message

RESULT payload: corr || count(4) || count * (handle(16) || ct_len(4) || ct).
The REMOVE flag is 0 (no replacement) or 1 (a replacement upload packet
follows). A body cut short, left with bytes over, or with any other flag
gets E_MALFORMED, as does any other message type (0x04 included); the
client raises WireError on a malformed reply.
A sparse filter or position list holds at most q*r positions (a record's
load); a larger count is refused with E_MALFORMED before it is decoded.
Only an owner session may UPLOAD or REMOVE: an agent session's UPLOAD or
REMOVE gets E_BAD_REQUEST before its body is parsed, and the session
goes on.

The server serves one or more zone stores and never holds the agents'
private key, so it can route and intersect sealed records but not read
them. It runs every connection from one selector loop on one thread,
with non-blocking sockets: no thread per connection and no socket
timeout. A connection's first frame must be a HELLO of 33 bytes; any
other header closes the connection before its body is read, as does a
later one longer than any valid request under the server's params. The
client is synchronous, one round trip per operation.
"""

from __future__ import annotations

import errno
import hmac as hmac_mod
import hashlib
import logging
import math
import selectors
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .analysis import sparse_filter_bound_bytes
from .crypto import (HANDLE_BYTES, TRANSPORT_OVERHEAD_BYTES, CryptoError, Reader, SealedRecord, hkdf_sha256,
                     hmac_digest, max_sealed_bytes, unwrap_transport, wrap_transport)
from .filters import BitFilter
from .index import RemovalRequest, UploadPacket
from .store import BufferOverflow, DuplicateHandle, StorageBloomFilter, StoreError, UnknownHandle, ZoneMismatch

log = logging.getLogger(__name__)

MAGIC = b"SBF1"
MAX_PAYLOAD = 1 << 26
_HEADER = struct.Struct(">BI")  # type, payload length; after the magic

T_UPLOAD = 0x01
T_UPLOAD_ACK = 0x02
T_SEARCH_LOC = 0x03
T_RESULT = 0x05
T_REMOVE = 0x06
T_REMOVE_ACK = 0x07
T_ERROR = 0x08
T_HELLO = 0x10
T_HELLO_ACK = 0x11

ROLE_OWNER = 0x01
ROLE_AGENT = 0x02

E_ZONE_UNKNOWN = 0x0001
E_OVERFLOW = 0x0002
E_MALFORMED = 0x0003
E_DUPLICATE_HANDLE = 0x0004
E_UNKNOWN_HANDLE = 0x0005
E_BAD_REQUEST = 0x0006


class WireError(Exception):
    """Transport-level failure: bad frame, closed socket, handshake abort."""


class ServerError(Exception):
    """Error frame returned by the server."""

    def __init__(self, code: int, message: str):
        super().__init__(f"server error {code:#06x}: {message}")
        self.code = code
        self.message = message


def _frame(ftype: int, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise WireError("payload exceeds frame limit")
    return MAGIC + _HEADER.pack(ftype, len(payload)) + payload


def send_frame(sock: socket.socket, ftype: int, payload: bytes) -> None:
    sock.sendall(_frame(ftype, payload))


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    ftype, length = _parse_header(_recv_exact(sock, 9), 0)
    return ftype, _recv_exact(sock, length)


def _parse_header(buf: bytes | bytearray, start: int) -> tuple[int, int]:
    """The type and payload length of the 9-byte frame header at `start`."""
    if buf[start : start + 4] != MAGIC:
        raise WireError("bad frame magic")
    ftype, length = _HEADER.unpack_from(buf, start + 4)
    if length > MAX_PAYLOAD:
        raise WireError("frame length exceeds limit")
    return ftype, length


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise WireError("connection closed mid-frame")
        buf.extend(chunk)
    return bytes(buf)


def _derive_channel_key(shared: bytes, transcript: bytes) -> bytes:
    return hkdf_sha256(shared, b"sbfsearch session" + hashlib.sha256(transcript).digest())


def _confirmation(key: bytes, transcript: bytes) -> bytes:
    return hmac_digest(key, b"confirm" + transcript)


@dataclass
class Session:
    """An established channel: its key, the AEAD object built from it once
    at the handshake for every later message, and the peer's role."""

    channel_key: bytes
    role: int
    aead: AESGCM = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.aead = AESGCM(self.channel_key)


def client_handshake(sock: socket.socket, role: int) -> Session:
    eph = X25519PrivateKey.generate()
    client_pub = eph.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    hello = bytes([role]) + client_pub
    send_frame(sock, T_HELLO, hello)
    ftype, payload = recv_frame(sock)
    if ftype != T_HELLO_ACK or len(payload) != 32 + 1 + 32:
        raise WireError("handshake rejected")
    server_pub, role_echo, conf = payload[:32], payload[32], payload[33:]
    if role_echo != role:
        raise WireError("handshake role mismatch")
    shared = eph.exchange(X25519PublicKey.from_public_bytes(server_pub))
    transcript = hello + payload[:33]
    key = _derive_channel_key(shared, transcript)
    if not hmac_mod.compare_digest(conf, _confirmation(key, transcript)):
        raise WireError("handshake confirmation failed; transcript tampered")
    return Session(channel_key=key, role=role)


def server_hello(ftype: int, payload: bytes) -> tuple[Session, bytes]:
    """The server's handshake step on the first frame of a connection:
    the session and the HELLO_ACK payload that answers it."""
    if ftype != T_HELLO or len(payload) != 1 + 32:
        raise WireError("expected hello")
    role, client_pub = payload[0], payload[1:]
    if role not in (ROLE_OWNER, ROLE_AGENT):
        raise WireError("unknown session role")
    eph = X25519PrivateKey.generate()
    server_pub = eph.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    shared = eph.exchange(X25519PublicKey.from_public_bytes(client_pub))
    transcript = payload + server_pub + bytes([role])
    key = _derive_channel_key(shared, transcript)
    return Session(channel_key=key, role=role), server_pub + bytes([role]) + _confirmation(key, transcript)


def server_handshake(sock: socket.socket) -> Session:
    """The server's side of the handshake on a blocking socket."""
    session, ack = server_hello(*recv_frame(sock))
    send_frame(sock, T_HELLO_ACK, ack)
    return session


# --- server -----------------------------------------------------------------

IDLE_TIMEOUT_S = 0.5
ACCEPT_RETRY_S = 1.0  # as asyncio's ACCEPT_RETRY_DELAY
# accept errors that leave the connection queued: the listener stays readable
_ACCEPT_EXHAUSTED = frozenset({errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM})
_RECV_BYTES = 1 << 16
_OWNER_ONLY = frozenset({ROLE_OWNER})
_ANY_ROLE = frozenset({ROLE_OWNER, ROLE_AGENT})


class _Connection:
    """One peer of the server loop: its session once the handshake is
    done, the bytes received but not yet cut into whole frames, and the
    reply bytes the socket has not yet taken."""

    __slots__ = ("sock", "session", "inbuf", "outbuf")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.session: Session | None = None
        self.inbuf = bytearray()
        self.outbuf: bytes | memoryview = b""

    @property
    def waiting(self) -> bool:
        """The server waits on the peer: no HELLO yet, a frame cut short,
        or a reply unsent. Only then does the idle timeout run."""
        return self.session is None or bool(self.inbuf) or bool(self.outbuf)


class NetServer:
    """Serves one or more zone stores, all under one `params`, from one selector
    loop, which `start()` runs on its own thread and `shutdown()` stops
    after the request in hand. Sockets are non-blocking; each connection's
    input is cut into whole frames, answered in order, and a reply the
    socket cannot take at once is flushed when it becomes writable, with
    reading paused meanwhile. A peer whose first frame is not a 33-byte
    HELLO is dropped at that frame's header. A peer that is silent before
    HELLO, stalls mid-frame or stops taking a reply for IDLE_TIMEOUT_S is
    dropped; an idle session between frames is kept, but not one that
    announces a frame over `max_request` bytes. When accept runs out of
    file descriptors or memory, the listener rests for ACCEPT_RETRY_S, so
    the loop does not spin on a connection it cannot take. Requests run one
    at a time, so a store never sees two at once."""

    def __init__(self, stores: dict[bytes, StorageBloomFilter], host: str = "127.0.0.1", port: int = 0):
        # refused before any socket is opened: no stores, two params, a store filed under
        # another zone's key (each store checked its own zone's width when it was made)
        params = {store.params for store in stores.values()}
        if len(params) != 1:
            raise StoreError("zone stores under different params" if params else "no zone stores to serve")
        (p,) = params
        if bad := [zone.hex() for zone, store in stores.items() if zone != store.zone]:
            raise StoreError(f"zone(s) {', '.join(bad)} filed with another zone's store")
        self.stores, self.params = stores, p
        # the longest valid request: correlation id and envelope around a SEARCH_LOC of q*r
        # positions or a REMOVE whose pruning filter and replacement UPLOAD each hold q*r
        # positions, its sealed record at tau; at small tau and m the SEARCH_LOC is the longer
        sparse = sparse_filter_bound_bytes(p.max_positions, p.m)
        upload = p.n_bytes + HANDLE_BYTES + 4 + max_sealed_bytes(p.tau_bits) + 4 + sparse
        self.max_request = 1 + TRANSPORT_OVERHEAD_BYTES + max(p.n_bytes + 2 + 4 * p.max_positions,
                                                             p.n_bytes + HANDLE_BYTES + 4 + sparse + 1 + upload)
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, self._accept)
        self._selector.register(self._wake_r, selectors.EVENT_READ, self._drain_wakeups)
        # connections the server waits on, by deadline: each is set to now plus
        # IDLE_TIMEOUT_S and moved to the end, so the first entry expires first
        self._deadlines: dict[_Connection, float] = {}
        self._accept_resume = math.inf  # when a resting listener is watched again
        self._loop_thread: threading.Thread | None = None
        self._stopping = False

    def start(self) -> None:
        self._loop_thread = threading.Thread(target=self._run, name="sbfsearch-server", daemon=True)
        self._loop_thread.start()

    def shutdown(self) -> None:
        """Stop serving: return once the loop has finished the request in
        hand and closed the listener and every connection. Before `start()`
        close the sockets here; a second call closes nothing more."""
        if not self._stopping:
            self._stopping = True
            if self._loop_thread is None:
                self._close_all()
                return
            try:
                self._wake_w.send(b"\0")
            except OSError:  # the loop ended on an error and closed it
                pass
        if self._loop_thread is not None:
            self._loop_thread.join()

    def _run(self) -> None:
        deadlines = self._deadlines
        try:
            while not self._stopping:
                # wait for traffic, or until the first deadline: a peer waited
                # on, or the listener resting
                wake = min(next(iter(deadlines.values()), math.inf), self._accept_resume)
                timeout = None if wake == math.inf else max(0.0, wake - time.monotonic())
                for key, _ in self._selector.select(timeout):
                    if isinstance(key.data, _Connection):
                        self._on_event(key.data)
                    else:
                        key.data()
                if timeout is not None:
                    self._expire()
        finally:
            self._close_all()

    def _close_all(self) -> None:
        self._listener.close()  # registered or resting
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()
        self._wake_w.close()

    def _expire(self) -> None:
        if self._accept_resume <= time.monotonic():
            self._accept_resume = math.inf
            self._selector.register(self._listener, selectors.EVENT_READ, self._accept)
        while self._deadlines:
            conn, deadline = next(iter(self._deadlines.items()))
            if deadline > time.monotonic():
                return
            self._close(conn)

    def _drain_wakeups(self) -> None:
        try:
            self._wake_r.recv(64)
        except BlockingIOError:
            pass

    def _accept(self) -> None:
        """One connection per event: the selector reports the listener
        again while more are pending."""
        try:
            sock, _ = self._listener.accept()
        except BlockingIOError:
            return
        except OSError as exc:
            if exc.errno not in _ACCEPT_EXHAUSTED:
                log.exception("accept failed")
                return
            log.error("accept failed (%s); not accepting for %.1f s", exc, ACCEPT_RETRY_S)
            self._selector.unregister(self._listener)
            self._accept_resume = time.monotonic() + ACCEPT_RETRY_S
            return
        sock.setblocking(False)
        conn = _Connection(sock)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        self._deadlines[conn] = time.monotonic() + IDLE_TIMEOUT_S

    def _close(self, conn: _Connection) -> None:
        self._deadlines.pop(conn, None)
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def _on_event(self, conn: _Connection) -> None:
        try:
            if conn.outbuf:
                self._flush(conn)
            else:
                data = conn.sock.recv(_RECV_BYTES)
                if not data:
                    raise WireError("connection closed")
                conn.inbuf += data
                self._answer_frames(conn)
        except BlockingIOError:  # woken with nothing to do
            pass
        except (WireError, OSError):
            self._close(conn)
            return
        except Exception:  # a bug must not take the other connections down
            log.exception("closing a connection after an unexpected error")
            self._close(conn)
            return
        self._deadlines.pop(conn, None)
        if conn.waiting:
            self._deadlines[conn] = time.monotonic() + IDLE_TIMEOUT_S

    def _flush(self, conn: _Connection) -> None:
        sent = conn.sock.send(conn.outbuf)
        conn.outbuf = conn.outbuf[sent:]
        if not conn.outbuf:
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
            self._answer_frames(conn)  # frames that arrived with the last read

    def _answer_frames(self, conn: _Connection) -> None:
        """Answer each whole frame in the input buffer, in order, until a
        reply is left unsent."""
        buf, start = conn.inbuf, 0
        while not conn.outbuf and len(buf) - start >= 9:
            ftype, length = _parse_header(buf, start)
            # a frame that is not a HELLO first, or is longer than any request, is refused unread
            if length > self.max_request or conn.session is None and (ftype != T_HELLO or length != 1 + 32):
                raise WireError("frame refused at its header")
            end = start + 9 + length
            if len(buf) < end:
                break
            payload = bytes(buf[start + 9 : end])
            start = end
            if conn.session is None:
                try:
                    conn.session, ack = server_hello(ftype, payload)
                except (CryptoError, ValueError) as exc:
                    raise WireError(f"handshake failed: {exc}") from exc
                self._send(conn, _frame(T_HELLO_ACK, ack))
            else:
                self._send(conn, self._dispatch(conn.session, ftype, payload))
        del buf[:start]

    def _send(self, conn: _Connection, frame: bytes) -> None:
        try:
            sent = conn.sock.send(frame)
        except BlockingIOError:
            sent = 0
        if sent < len(frame):
            conn.outbuf = memoryview(frame)[sent:]
            self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)

    def _dispatch(self, session: Session, ftype: int, payload: bytes) -> bytes:
        """The reply frame to one request frame of an established session."""
        try:
            plain = unwrap_transport(session.aead, payload)
        except CryptoError:
            return self._reply_error(session, 0, E_MALFORMED, "cannot decrypt request")
        if not plain:
            return self._reply_error(session, 0, E_MALFORMED, "empty request body")
        corr, body = plain[0], plain[1:]
        entry = self._HANDLERS.get(ftype)
        if entry is None:
            return self._reply_error(session, corr, E_MALFORMED, f"unknown message type {ftype:#04x}")
        handler, roles = entry
        if session.role not in roles:
            return self._reply_error(session, corr, E_BAD_REQUEST,
                                     f"message type {ftype:#04x} is not allowed for this role")
        try:
            rtype, reply = handler(self, body)
        except BufferOverflow as exc:
            return self._reply_error(session, corr, E_OVERFLOW, f"buffer {exc.buffer_index} at capacity")
        except DuplicateHandle as exc:
            return self._reply_error(session, corr, E_DUPLICATE_HANDLE, str(exc))
        except UnknownHandle as exc:
            return self._reply_error(session, corr, E_UNKNOWN_HANDLE, str(exc))
        except ZoneMismatch as exc:
            return self._reply_error(session, corr, E_ZONE_UNKNOWN, str(exc))
        except (StoreError, CryptoError, ValueError) as exc:
            return self._reply_error(session, corr, E_MALFORMED, f"malformed request: {exc}")
        return self._reply(session, rtype, corr, reply)

    def _store_for(self, zone: bytes) -> StorageBloomFilter:
        store = self.stores.get(zone)
        if store is None:
            raise ZoneMismatch(f"ZONE_UNKNOWN {zone.hex()}")
        return store

    def _handle_upload(self, body: bytes) -> tuple[int, bytes]:
        packet = UploadPacket.from_bytes(body, self.params.n_bytes)
        return T_UPLOAD_ACK, struct.pack(">I", self._store_for(packet.zone).ingest(packet))

    def _handle_search_loc(self, body: bytes) -> tuple[int, bytes]:
        rd = Reader(body, ValueError)
        store = self._store_for(rd.take(self.params.n_bytes))
        count = rd.u16()
        if count > store.params.max_positions:
            raise ValueError(f"search of {count} positions exceeds bound {store.params.max_positions}")
        positions = list(struct.unpack(f">{count}I", rd.take(4 * count)))
        rd.done()
        return T_RESULT, _result_body(store.search_positions(positions).matches)

    def _handle_remove(self, body: bytes) -> tuple[int, bytes]:
        rd = Reader(body, ValueError)
        store = self._store_for(rd.take(self.params.n_bytes))
        handle = rd.take(HANDLE_BYTES)
        sparse = rd.take(rd.u32())
        flag = rd.u8()
        if flag not in (0, 1):
            raise ValueError(f"remove flag {flag} is neither 0 nor 1")
        replacement = UploadPacket.from_bytes(rd.rest(), self.params.n_bytes) if flag else None
        rd.done()
        rbf = BitFilter.decompress(sparse, store.params.m, store.params.max_positions)
        req = RemovalRequest(zone=store.zone, rbf_prime=rbf, handle=handle, replacement=replacement)
        return T_REMOVE_ACK, struct.pack(">I", store.remove(req))

    _HANDLERS = {T_UPLOAD: (_handle_upload, _OWNER_ONLY), T_SEARCH_LOC: (_handle_search_loc, _ANY_ROLE),
                 T_REMOVE: (_handle_remove, _OWNER_ONLY)}

    def _reply(self, session: Session, ftype: int, corr: int, body: bytes) -> bytes:
        return _frame(ftype, wrap_transport(session.aead, bytes([corr]) + body))

    def _reply_error(self, session: Session, corr: int, code: int, message: str) -> bytes:
        return self._reply(session, T_ERROR, corr, struct.pack(">H", code) + message.encode("utf-8"))


def _result_body(matches: list[SealedRecord]) -> bytes:
    return struct.pack(">I", len(matches)) + b"".join(rec.to_bytes() for rec in matches)


# --- client -----------------------------------------------------------------

class NetClient:
    """Synchronous one-round-trip-per-operation client."""

    def __init__(self, host: str, port: int, role: int):
        self._sock = socket.create_connection((host, port))
        try:
            self._session = client_handshake(self._sock, role)
        except BaseException:
            self._sock.close()
            raise
        self._corr = 0

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _round_trip(self, ftype: int, body: bytes, expect: int) -> Reader:
        """Send one request; return a reader over the reply's body."""
        self._corr = (self._corr + 1) % 256
        send_frame(self._sock, ftype, wrap_transport(self._session.aead, bytes([self._corr]) + body))
        rtype, payload = recv_frame(self._sock)
        rd = Reader(unwrap_transport(self._session.aead, payload), WireError)
        if rd.u8() != self._corr:
            raise WireError("response correlation mismatch")
        if rtype == T_ERROR:
            raise ServerError(rd.u16(), rd.rest().decode("utf-8", "replace"))
        if rtype != expect:
            raise WireError(f"unexpected response type {rtype:#04x}")
        return rd

    def upload(self, packet: UploadPacket) -> int:
        return self._parse_count(self._round_trip(T_UPLOAD, packet.to_bytes(), T_UPLOAD_ACK))

    def search_location(self, zone: bytes, positions: list[int]) -> list[SealedRecord]:
        body = zone + struct.pack(">H", len(positions)) + struct.pack(f">{len(positions)}I", *positions)
        return self._parse_result(self._round_trip(T_SEARCH_LOC, body, T_RESULT))

    def search_conjunctive(self, zone: bytes, query: BitFilter) -> list[SealedRecord]:
        return self.search_location(zone, query.positions())

    def remove(self, req: RemovalRequest) -> int:
        sparse = req.rbf_prime.compress()
        body = req.zone + req.handle + struct.pack(">I", len(sparse)) + sparse
        if req.replacement is not None:
            body += b"\x01" + req.replacement.to_bytes()
        else:
            body += b"\x00"
        return self._parse_count(self._round_trip(T_REMOVE, body, T_REMOVE_ACK))

    @staticmethod
    def _parse_result(rd: Reader) -> list[SealedRecord]:
        records = [SealedRecord.read(rd) for _ in range(rd.u32())]
        rd.done()
        return records

    @staticmethod
    def _parse_count(rd: Reader) -> int:
        count = rd.u32()
        rd.done()
        return count
