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
    0x04 SEARCH_BF   corr || zone || sparse filter -> 0x05 RESULT
    0x06 REMOVE      corr || zone || handle(16) || rbf_len(4) || sparse rbf ||
                     flag(1) [|| packet]           -> 0x07 ACK corr || pruned(4)
    0x08 ERROR       corr || code(2) || utf-8 message

RESULT payload: corr || count(4) || count * (handle(16) || ct_len(4) || ct).
The REMOVE flag is 0 (no replacement) or 1 (a replacement upload packet
follows). A body cut short, left with bytes over, or with any other flag
gets E_MALFORMED; the client raises WireError on a malformed reply.
A sparse filter or position list holds at most q*r positions (a record's
load); a larger count is refused with E_MALFORMED before it is decoded.
The server serves one or more zone stores and never holds the agents'
private key, so it can route and intersect sealed records but not read
them.
"""

from __future__ import annotations

import hmac as hmac_mod
import hashlib
import socket
import struct
import threading
from dataclasses import dataclass
from random import Random

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .crypto import (HANDLE_BYTES, CryptoError, Reader, SealedRecord, TransportEnvelope, hkdf_sha256,
                     hmac_digest, rand_bytes, unwrap_transport, wrap_transport)
from .filters import BitFilter
from .index import RemovalRequest, UploadPacket
from .store import BufferOverflow, DuplicateHandle, StorageBloomFilter, StoreError, UnknownHandle, ZoneMismatch

MAGIC = b"SBF1"
MAX_PAYLOAD = 1 << 26

T_UPLOAD = 0x01
T_UPLOAD_ACK = 0x02
T_SEARCH_LOC = 0x03
T_SEARCH_BF = 0x04
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
E_INTERNAL = 0x0007


class WireError(Exception):
    """Transport-level failure: bad frame, closed socket, handshake abort."""


class _IdleTimeout(Exception):
    """A timed socket saw no traffic at a frame boundary; not an error."""


class ServerError(Exception):
    """Error frame returned by the server."""

    def __init__(self, code: int, message: str):
        super().__init__(f"server error {code:#06x}: {message}")
        self.code = code
        self.message = message


def send_frame(sock: socket.socket, ftype: int, payload: bytes) -> None:
    if len(payload) > MAX_PAYLOAD:
        raise WireError("payload exceeds frame limit")
    sock.sendall(MAGIC + struct.pack(">BI", ftype, len(payload)) + payload)


def recv_frame(sock: socket.socket, idle_ok: bool = False) -> tuple[int, bytes]:
    header = _recv_exact(sock, 9, idle_ok=idle_ok)
    if header[:4] != MAGIC:
        raise WireError("bad frame magic")
    ftype, length = struct.unpack(">BI", header[4:])
    if length > MAX_PAYLOAD:
        raise WireError("frame length exceeds limit")
    return ftype, _recv_exact(sock, length)


def _recv_exact(sock: socket.socket, n: int, idle_ok: bool = False) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except TimeoutError:
            if idle_ok and not buf:
                raise _IdleTimeout() from None
            raise WireError("timed out mid-frame") from None
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
    channel_key: bytes
    role: int


def client_handshake(sock: socket.socket, role: int, rng: Random | None = None) -> Session:
    eph = X25519PrivateKey.from_private_bytes(rand_bytes(rng, 32))
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


def server_handshake(sock: socket.socket, rng: Random | None = None) -> Session:
    ftype, payload = recv_frame(sock)
    if ftype != T_HELLO or len(payload) != 1 + 32:
        raise WireError("expected hello")
    role, client_pub = payload[0], payload[1:]
    if role not in (ROLE_OWNER, ROLE_AGENT):
        raise WireError("unknown session role")
    eph = X25519PrivateKey.from_private_bytes(rand_bytes(rng, 32))
    server_pub = eph.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    shared = eph.exchange(X25519PublicKey.from_public_bytes(client_pub))
    transcript = payload + server_pub + bytes([role])
    key = _derive_channel_key(shared, transcript)
    send_frame(sock, T_HELLO_ACK, server_pub + bytes([role]) + _confirmation(key, transcript))
    return Session(channel_key=key, role=role)


# --- server -----------------------------------------------------------------

class NetServer:
    """Serves one or more zone stores. One thread per connection; store
    mutations serialize per zone through the stores' own locks."""

    def __init__(self, stores: dict[bytes, StorageBloomFilter], host: str = "127.0.0.1", port: int = 0):
        self.stores = stores
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()
        self._threads: list[threading.Thread] = []
        self._shutdown = threading.Event()
        self._accept_thread: threading.Thread | None = None

    def zone_width(self) -> int:
        if not self.stores:
            raise WireError("server has no zone stores")
        return len(next(iter(self.stores)))

    def start(self) -> None:
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def serve_forever(self) -> None:
        self.start()
        try:
            while not self._shutdown.wait(0.2):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2)
        for t in self._threads:
            t.join(timeout=2)

    def _accept_loop(self) -> None:
        self._listener.settimeout(0.2)
        while not self._shutdown.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            self._threads = [t for t in self._threads if t.is_alive()]
            t = threading.Thread(target=self._serve_connection, args=(conn,), daemon=True)
            # listed before it runs, so a client that has finished its handshake sees it listed
            self._threads.append(t)
            t.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            conn.settimeout(0.5)
            try:
                session = server_handshake(conn)
            except (_IdleTimeout, WireError, CryptoError, ValueError):
                return
            while not self._shutdown.is_set():
                try:
                    ftype, payload = recv_frame(conn, idle_ok=True)
                except _IdleTimeout:
                    continue
                except WireError:
                    return
                try:
                    self._dispatch(conn, session, ftype, payload)
                except (WireError, OSError):
                    return

    def _dispatch(self, conn: socket.socket, session: Session, ftype: int, payload: bytes) -> None:
        try:
            plain = unwrap_transport(session.channel_key, TransportEnvelope.from_bytes(payload))
        except CryptoError:
            self._reply_error(conn, session, 0, E_MALFORMED, "cannot decrypt request")
            return
        if not plain:
            self._reply_error(conn, session, 0, E_MALFORMED, "empty request body")
            return
        corr, body = plain[0], plain[1:]
        handler = self._HANDLERS.get(ftype)
        if handler is None:
            self._reply_error(conn, session, corr, E_MALFORMED, f"unknown message type {ftype:#04x}")
            return
        try:
            rtype, reply = handler(self, body)
        except BufferOverflow as exc:
            self._reply_error(conn, session, corr, E_OVERFLOW, f"buffer {exc.buffer_index} at capacity")
        except DuplicateHandle as exc:
            self._reply_error(conn, session, corr, E_DUPLICATE_HANDLE, str(exc))
        except UnknownHandle as exc:
            self._reply_error(conn, session, corr, E_UNKNOWN_HANDLE, str(exc))
        except ZoneMismatch as exc:
            self._reply_error(conn, session, corr, E_ZONE_UNKNOWN, str(exc))
        except (StoreError, CryptoError, ValueError) as exc:
            self._reply_error(conn, session, corr, E_MALFORMED, f"malformed request: {exc}")
        else:
            self._reply(conn, session, rtype, corr, reply)

    def _store_for(self, zone: bytes) -> StorageBloomFilter:
        store = self.stores.get(zone)
        if store is None:
            raise ZoneMismatch(f"ZONE_UNKNOWN {zone.hex()}")
        return store

    def _handle_upload(self, body: bytes) -> tuple[int, bytes]:
        packet = UploadPacket.from_bytes(body, self.zone_width())
        return T_UPLOAD_ACK, struct.pack(">I", self._store_for(packet.zone).ingest(packet))

    def _handle_search_loc(self, body: bytes) -> tuple[int, bytes]:
        rd = Reader(body, ValueError)
        store = self._store_for(rd.take(self.zone_width()))
        count = rd.u16()
        if count > store.params.max_positions:
            raise ValueError(f"search of {count} positions exceeds bound {store.params.max_positions}")
        positions = list(struct.unpack(f">{count}I", rd.take(4 * count)))
        rd.done()
        return T_RESULT, _result_body(store.search_positions(positions).matches)

    def _handle_search_bf(self, body: bytes) -> tuple[int, bytes]:
        rd = Reader(body, ValueError)
        store = self._store_for(rd.take(self.zone_width()))
        query = BitFilter.decompress(rd.rest(), store.params.m, store.params.max_positions)
        return T_RESULT, _result_body(store.search_filter(query).matches)

    def _handle_remove(self, body: bytes) -> tuple[int, bytes]:
        rd = Reader(body, ValueError)
        store = self._store_for(rd.take(self.zone_width()))
        handle = rd.take(HANDLE_BYTES)
        sparse = rd.take(rd.u32())
        flag = rd.u8()
        if flag not in (0, 1):
            raise ValueError(f"remove flag {flag} is neither 0 nor 1")
        replacement = UploadPacket.from_bytes(rd.rest(), len(store.zone)) if flag else None
        rd.done()
        rbf = BitFilter.decompress(sparse, store.params.m, store.params.max_positions)
        req = RemovalRequest(zone=store.zone, rbf_prime=rbf, handle=handle, replacement=replacement)
        return T_REMOVE_ACK, struct.pack(">I", store.remove(req))

    _HANDLERS = {T_UPLOAD: _handle_upload, T_SEARCH_LOC: _handle_search_loc,
                 T_SEARCH_BF: _handle_search_bf, T_REMOVE: _handle_remove}

    def _reply(self, conn, session: Session, ftype: int, corr: int, body: bytes) -> None:
        env = wrap_transport(session.channel_key, bytes([corr]) + body)
        send_frame(conn, ftype, env.to_bytes())

    def _reply_error(self, conn, session, corr: int, code: int, message: str) -> None:
        self._reply(conn, session, T_ERROR, corr, struct.pack(">H", code) + message.encode("utf-8"))


def _result_body(matches: list[SealedRecord]) -> bytes:
    parts = [struct.pack(">I", len(matches))]
    for rec in matches:
        parts.append(rec.handle + struct.pack(">I", len(rec.ciphertext)) + rec.ciphertext)
    return b"".join(parts)


# --- client -----------------------------------------------------------------

class NetClient:
    """Synchronous one-round-trip-per-operation client."""

    def __init__(self, host: str, port: int, role: int = ROLE_OWNER, rng: Random | None = None):
        self._sock = socket.create_connection((host, port))
        try:
            self._session = client_handshake(self._sock, role, rng)
        except BaseException:
            self._sock.close()
            raise
        self._rng = rng
        self._corr = 0

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def channel_key(self) -> bytes:
        return self._session.channel_key

    def _round_trip(self, ftype: int, body: bytes, expect: int) -> Reader:
        """Send one request; return a reader over the reply's body."""
        self._corr = (self._corr + 1) % 256
        env = wrap_transport(self._session.channel_key, bytes([self._corr]) + body, self._rng)
        send_frame(self._sock, ftype, env.to_bytes())
        rtype, payload = recv_frame(self._sock)
        rd = Reader(unwrap_transport(self._session.channel_key, TransportEnvelope.from_bytes(payload)), WireError)
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
        return self._parse_result(self._round_trip(T_SEARCH_BF, zone + query.compress(), T_RESULT))

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
        records = [SealedRecord(handle=rd.take(HANDLE_BYTES), ciphertext=rd.take(rd.u32()))
                   for _ in range(rd.u32())]
        rd.done()
        return records

    @staticmethod
    def _parse_count(rd: Reader) -> int:
        count = rd.u32()
        rd.done()
        return count
