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
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .crypto import CryptoError, SealedRecord, TransportEnvelope, rand_bytes, unwrap_transport, wrap_transport
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
    return HKDF(algorithm=SHA256(), length=16, salt=None,
                info=b"sbfsearch session" + hashlib.sha256(transcript).digest()).derive(shared)


def _confirmation(key: bytes, transcript: bytes) -> bytes:
    return hmac_mod.new(key, b"confirm" + transcript, hashlib.sha256).digest()


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
            t.start()
            self._threads.append(t)

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
        try:
            if ftype == T_UPLOAD:
                self._handle_upload(conn, session, corr, body)
            elif ftype == T_SEARCH_LOC:
                self._handle_search_loc(conn, session, corr, body)
            elif ftype == T_SEARCH_BF:
                self._handle_search_bf(conn, session, corr, body)
            elif ftype == T_REMOVE:
                self._handle_remove(conn, session, corr, body)
            else:
                self._reply_error(conn, session, corr, E_MALFORMED, f"unknown message type {ftype:#04x}")
        except BufferOverflow as exc:
            self._reply_error(conn, session, corr, E_OVERFLOW, f"buffer {exc.buffer_index} at capacity")
        except DuplicateHandle as exc:
            self._reply_error(conn, session, corr, E_DUPLICATE_HANDLE, str(exc))
        except UnknownHandle as exc:
            self._reply_error(conn, session, corr, E_UNKNOWN_HANDLE, str(exc))
        except ZoneMismatch as exc:
            self._reply_error(conn, session, corr, E_ZONE_UNKNOWN, str(exc))
        except (StoreError, CryptoError, ValueError, struct.error, IndexError) as exc:
            self._reply_error(conn, session, corr, E_MALFORMED, f"malformed request: {exc}")

    def _store_for(self, zone: bytes) -> StorageBloomFilter:
        store = self.stores.get(zone)
        if store is None:
            raise ZoneMismatch(f"ZONE_UNKNOWN {zone.hex()}")
        return store

    def _handle_upload(self, conn, session, corr, body):
        packet = UploadPacket.from_bytes(body, self.zone_width())
        written = self._store_for(packet.zone).ingest(packet)
        self._reply(conn, session, T_UPLOAD_ACK, corr, struct.pack(">I", written))

    def _handle_search_loc(self, conn, session, corr, body):
        width = self.zone_width()
        zone = body[:width]
        (count,) = struct.unpack_from(">H", body, width)
        positions = list(struct.unpack_from(f">{count}I", body, width + 2))
        if len(body) != width + 2 + 4 * count:
            raise ValueError("search payload length mismatch")
        result = self._store_for(zone).search_positions(positions)
        self._reply_result(conn, session, corr, result.matches)

    def _handle_search_bf(self, conn, session, corr, body):
        width = self.zone_width()
        zone, sparse = body[:width], body[width:]
        store = self._store_for(zone)
        query = BitFilter.decompress(sparse, store.params.m)
        result = store.search_filter(query)
        self._reply_result(conn, session, corr, result.matches)

    def _handle_remove(self, conn, session, corr, body):
        width = self.zone_width()
        off = 0
        zone = body[off : off + width]; off += width
        handle = body[off : off + 16]; off += 16
        (rbf_len,) = struct.unpack_from(">I", body, off); off += 4
        sparse = body[off : off + rbf_len]; off += rbf_len
        flag = body[off]; off += 1
        store = self._store_for(zone)
        replacement = UploadPacket.from_bytes(body[off:], width) if flag else None
        if not flag and off != len(body):
            raise ValueError("remove payload length mismatch")
        rbf = BitFilter.decompress(sparse, store.params.m)
        req = RemovalRequest(zone=zone, rbf_prime=rbf, handle=handle, replacement=replacement)
        pruned = store.remove(req)
        self._reply(conn, session, T_REMOVE_ACK, corr, struct.pack(">I", pruned))

    def _reply(self, conn, session: Session, ftype: int, corr: int, body: bytes) -> None:
        env = wrap_transport(session.channel_key, bytes([corr]) + body)
        send_frame(conn, ftype, env.to_bytes())

    def _reply_result(self, conn, session, corr: int, matches: list[SealedRecord]) -> None:
        parts = [struct.pack(">I", len(matches))]
        for rec in matches:
            parts.append(rec.handle + struct.pack(">I", len(rec.ciphertext)) + rec.ciphertext)
        self._reply(conn, session, T_RESULT, corr, b"".join(parts))

    def _reply_error(self, conn, session, corr: int, code: int, message: str) -> None:
        self._reply(conn, session, T_ERROR, corr, struct.pack(">H", code) + message.encode("utf-8"))


# --- client -----------------------------------------------------------------

class NetClient:
    """Synchronous one-round-trip-per-operation client."""

    def __init__(self, host: str, port: int, role: int = ROLE_OWNER, rng: Random | None = None):
        self._sock = socket.create_connection((host, port))
        self._session = client_handshake(self._sock, role, rng)
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

    def _round_trip(self, ftype: int, body: bytes, expect: int) -> bytes:
        self._corr = (self._corr + 1) % 256
        env = wrap_transport(self._session.channel_key, bytes([self._corr]) + body, self._rng)
        send_frame(self._sock, ftype, env.to_bytes())
        rtype, payload = recv_frame(self._sock)
        plain = unwrap_transport(self._session.channel_key, TransportEnvelope.from_bytes(payload))
        if not plain or plain[0] != self._corr:
            raise WireError("response correlation mismatch")
        if rtype == T_ERROR:
            (code,) = struct.unpack_from(">H", plain, 1)
            raise ServerError(code, plain[3:].decode("utf-8", "replace"))
        if rtype != expect:
            raise WireError(f"unexpected response type {rtype:#04x}")
        return plain[1:]

    def upload(self, packet: UploadPacket) -> int:
        body = self._round_trip(T_UPLOAD, packet.to_bytes(), T_UPLOAD_ACK)
        return struct.unpack(">I", body)[0]

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
        return struct.unpack(">I", self._round_trip(T_REMOVE, body, T_REMOVE_ACK))[0]

    @staticmethod
    def _parse_result(body: bytes) -> list[SealedRecord]:
        (count,) = struct.unpack_from(">I", body, 0)
        off = 4
        records = []
        for _ in range(count):
            handle = body[off : off + 16]; off += 16
            (ct_len,) = struct.unpack_from(">I", body, off); off += 4
            records.append(SealedRecord(handle=handle, ciphertext=body[off : off + ct_len]))
            off += ct_len
        if off != len(body):
            raise WireError("result payload length mismatch")
        return records
