"""Cryptographic envelope: keyed PRF, record sealing, transport wrapping,
and the sparse filter codec.

Primitive choices (sizes matter for the communication accounting):

- PRF: HMAC over SHA-256/384/512, output truncated to s bits. Keys are
  s/8-byte strings; PRF outputs double as keys for the next derivation
  stage. s is at most 512 bits (`SystemParams` refuses more), so a key
  never exceeds the hash's block size. `hmac_prf` computes the PRF and
  `check_prf_key` checks its key. `index`, their caller, memoises the two
  points of its key schedule that repeat, keyword subkeys and (w, g)
  positions, and counts in `prf_calls` the evaluations each of those
  calls stands for, hit or miss.
- HMAC and HKDF: `hmac_digest` is RFC 2104 and `hkdf_sha256` is RFC 5869
  (SHA-256, zero salt, one expand block), both computed on `hashlib`.
  Their output is byte-identical to `hmac` and to `cryptography`'s HKDF;
  they avoid the OpenSSL HMAC context that `hmac` sets up on every call.
- Record sealing: hybrid public-key encryption. X25519 ephemeral key
  agreement, HKDF-SHA256, AES-128-GCM over the serialized record.
  Overhead per record: 32-byte ephemeral public key + 12-byte nonce +
  16-byte tag = 60 bytes (480 bits). One asymmetric operation per record
  sealed. Opening, and the store, refuse an ephemeral key that
  `canonical_x25519` rejects, so a record has one encoding that opens.
  Opening keeps the opened records of the last 4096 (agent private key,
  ciphertext, n) triples, so an agent re-opening a record it saw
  recently pays one lookup. A hit needs the exact ciphertext bytes an
  earlier open verified under the same key, and a failed open is never
  kept. The memo holds plaintext, but nothing its holder could not
  already read: the key and the ciphertext open the same record, the
  server stores that ciphertext and every search returns it. Full, it
  holds 2.9 MB (711 B per entry) when the caller still holds the
  ciphertexts, 3.9 MB when it holds their only reference (tracemalloc,
  records with 2-6 attributes at n = 160). A process that opens each
  record once, such as one `sbfsearch search`, gains nothing from it.
- Transport wrapping: AES-128-GCM under a per-session channel key, whose
  AEAD object the session builds once. An envelope is the 12-byte random
  nonce, then the ciphertext with its 16-byte tag: 28 bytes (224 bits)
  of overhead.
- Sparse filter codec: a 4-byte count c, then each set position in
  w = position_width(m) bits, ascending, then zero bits to the byte. It
  is plain integer work, so the network path never loads numpy. Decoding
  reads the body as one integer and spreads its w-bit fields out to
  lanes of 8, 16, 32 or 64 bits, the narrowest that holds w, in
  ceil(log2 c) mask-and-shift stages (SWAR; Warren, *Hacker's Delight*,
  2nd ed., section 7-5): stage j moves every field whose index, counted
  from the last position, has bit j set, by 2^j * (lane - w) bits. One
  `array` conversion then gives the positions; encoding runs the stages
  in reverse. Each stage is four C-level integer operations over c
  lanes. Callers bound c by q*r, so a params set fixes the most stages
  at ceil(log2(q*r)) and the work is linear in the count; the masks are
  kept per (w, lane, stages). The decoder refuses a count above the
  caller's bound before decoding, so a hostile header costs O(1), and
  refuses a nonzero pad bit, so each filter has one encoding.
- Reader: every parser that walks offsets (meta records, upload packets,
  snapshots, key files, wire bodies) reads through one bounds-checked
  `Reader`, which raises the caller's own error class on a short read or
  on bytes left over.
- Tokens: free-text keywords/locations map to n-bit tokens via SHA-256
  truncated to n bits. This canonicalizes the vocabulary; it is not a
  security boundary.

Key generation and record sealing accept an optional random.Random; the
default draws from the OS. Only the seeded experiments in `sim`, the
benchmark and the tests pass one: no command that makes keys, blinding
elements or sealed records takes a seed. The channel's ephemeral keys
and nonces never come from a caller's generator: they always draw from
the OS.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import secrets
import sys
from array import array
from dataclasses import dataclass
from random import Random

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)

HANDLE_BYTES = 16
SEAL_OVERHEAD_BYTES = 32 + 12 + 16   # ephemeral pub + nonce + tag
TRANSPORT_OVERHEAD_BYTES = 12 + 16   # nonce + tag


class CryptoError(Exception):
    """Sealing, opening, or codec failure."""


class PrfCallCounter:
    """Process-wide PRF invocation counter, used to assert the scheme's
    computation accounting in tests. Not synchronized; diagnostic only."""

    def __init__(self) -> None:
        self.count = 0


prf_calls = PrfCallCounter()


_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def hmac_digest(key: bytes, message: bytes, hash_fn=hashlib.sha256, block_size: int = 64) -> bytes:
    """HMAC (RFC 2104) of `message` under `key` with a hashlib constructor
    and its block size in bytes. Keys longer than a block are refused; no
    key in this package is."""
    if len(key) > block_size:
        raise CryptoError(f"HMAC key of {len(key)} bytes exceeds the {block_size}-byte block")
    key = key.ljust(block_size, b"\0")
    inner = hash_fn(key.translate(_IPAD) + message).digest()
    return hash_fn(key.translate(_OPAD) + inner).digest()


def hkdf_sha256(secret: bytes, info: bytes) -> bytes:
    """A 128-bit key by HKDF-SHA256 (RFC 5869) with no salt, so an all-zero
    one, and one expand block: HMAC(HMAC(0^32, secret), info || 0x01)[:16]."""
    return hmac_digest(hmac_digest(bytes(32), secret), info + b"\x01")[:16]


def _hash_for_width(s_bits: int):
    """The HMAC hash whose output covers s bits, with its block size."""
    if s_bits <= 256:
        return hashlib.sha256, 64
    if s_bits <= 384:
        return hashlib.sha384, 128
    if s_bits <= 512:
        return hashlib.sha512, 128
    raise CryptoError(f"no standard HMAC hash covers s_bits={s_bits} (max 512)")


def check_prf_key(key: bytes, s_bits: int) -> None:
    if len(key) != s_bits // 8:
        raise CryptoError(f"PRF key must be {s_bits // 8} bytes, got {len(key)}")


def hmac_prf(key: bytes, message: bytes, s_bits: int) -> bytes:
    """Keyed PRF: HMAC truncated to s bits, deterministic in (key,
    message). It neither checks the key nor counts: its caller checks with
    `check_prf_key` and counts in `prf_calls`. A `bytearray` or
    `memoryview` key gives the output of the same bytes."""
    return hmac_digest(bytes(key), message, *_hash_for_width(s_bits))[: s_bits // 8]


def rand_bytes(rng: Random | None, k: int) -> bytes:
    return secrets.token_bytes(k) if rng is None else rng.getrandbits(k * 8).to_bytes(k, "big")


def token_from_text(text: str, n_bits: int) -> bytes:
    """Canonicalize a free-text keyword/location into an n-bit token."""
    return _truncate_bits(hashlib.sha256(text.encode("utf-8")).digest(), n_bits)


def random_token(rng: Random | None, n_bits: int) -> bytes:
    return _truncate_bits(rand_bytes(rng, (n_bits + 7) // 8), n_bits)


def _truncate_bits(data: bytes, n_bits: int) -> bytes:
    n_bytes = (n_bits + 7) // 8
    out = bytearray(data[:n_bytes])
    spare = n_bytes * 8 - n_bits
    if spare:
        out[0] &= 0xFF >> spare
    return bytes(out)


# --- meta record -----------------------------------------------------------

@dataclass(frozen=True)
class MetaInfo:
    """One user's sealed payload: pseudonym, health attribute tokens, the
    external server holding the full record, its memory index, and
    emergency info tokens. All fields are n-bit tokens."""

    user_pseudonym: bytes
    health_attrs: tuple[bytes, ...]
    server_id: bytes
    memory_index: bytes
    emergency_info: tuple[bytes, ...]

    def token_width(self) -> int:
        return len(self.user_pseudonym)

    def to_bytes(self) -> bytes:
        """Ordered concatenation pseudonym || attrs || server || index ||
        emergency, with a one-byte count prefix before each list."""
        width = self.token_width()
        for tok in (self.server_id, self.memory_index, *self.health_attrs, *self.emergency_info):
            if len(tok) != width:
                raise CryptoError("all tokens in a record must share one width")
        for lst in (self.health_attrs, self.emergency_info):
            if len(lst) > 255:
                raise CryptoError("token list exceeds one-byte count prefix")
        parts = [self.user_pseudonym, bytes([len(self.health_attrs)])]
        parts += list(self.health_attrs)
        parts += [self.server_id, self.memory_index, bytes([len(self.emergency_info)])]
        parts += list(self.emergency_info)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, n_bits: int) -> "MetaInfo":
        width = (n_bits + 7) // 8
        rd = Reader(data, CryptoError)
        pseudonym = rd.take(width)
        attrs = tuple(rd.take(width) for _ in range(rd.u8()))
        server_id = rd.take(width)
        memory_index = rd.take(width)
        emergency = tuple(rd.take(width) for _ in range(rd.u8()))
        rd.done()
        return cls(pseudonym, attrs, server_id, memory_index, emergency)


@dataclass(frozen=True)
class SealedRecord:
    """Encrypted meta record plus the random handle used as its identity
    in the server store (buffer intersection compares handles, never
    ciphertext bytes). Uploads, search results and snapshots all frame it
    as handle(16) || u32 ciphertext length || ciphertext."""

    handle: bytes
    ciphertext: bytes

    def to_bytes(self) -> bytes:
        return self.handle + len(self.ciphertext).to_bytes(4, "big") + self.ciphertext

    @classmethod
    def read(cls, rd: Reader) -> "SealedRecord":
        """The next framed record; a short one raises the reader's error."""
        return cls(handle=rd.take(HANDLE_BYTES), ciphertext=rd.take(rd.u32()))


def generate_agent_keypair(rng: Random | None = None) -> tuple[bytes, bytes]:
    """Agent key pair as raw 32-byte strings: (public, private)."""
    priv = X25519PrivateKey.from_private_bytes(rand_bytes(rng, 32))
    pub_raw = priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    priv_raw = priv.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption())
    return pub_raw, priv_raw


_RECORD_SEAL_INFO = b"sbfsearch record seal"  # HKDF info of every record key, sealing and opening alike
_X25519_P = 2**255 - 19


def canonical_x25519(u: bytes) -> bool:
    """True iff `u` is the canonical encoding of an X25519 u-coordinate:
    32 bytes, little-endian, below 2^255 - 19, so the top bit is clear.
    X25519 masks that bit and reduces the rest mod 2^255 - 19 (RFC 7748
    section 5), so a non-canonical ephemeral key agrees the same secret
    as its canonical form and would give a sealed record a second
    encoding that opens. `seal_record` writes only canonical keys."""
    return len(u) == 32 and int.from_bytes(u, "little") < _X25519_P


def seal_record(
    agent_public: bytes,
    mi: MetaInfo,
    tau_bits: int,
    rng: Random | None = None,
) -> SealedRecord:
    """Seal a meta record under the agents' public key. Fresh random
    handle and ephemeral key per call; only the matching private key
    opens the result."""
    plain = mi.to_bytes()
    if len(plain) * 8 > tau_bits:
        raise CryptoError(f"meta record is {len(plain) * 8} bits, exceeds tau={tau_bits}")
    eph = X25519PrivateKey.from_private_bytes(rand_bytes(rng, 32))
    shared = eph.exchange(X25519PublicKey.from_public_bytes(agent_public))
    nonce = rand_bytes(rng, 12)
    ct = AESGCM(hkdf_sha256(shared, _RECORD_SEAL_INFO)).encrypt(nonce, plain, None)
    eph_pub = eph.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    return SealedRecord(handle=rand_bytes(rng, HANDLE_BYTES), ciphertext=eph_pub + nonce + ct)


def max_sealed_bytes(tau_bits: int) -> int:
    """The longest sealed record `seal_record` makes at tau."""
    return SEAL_OVERHEAD_BYTES + tau_bits // 8


@functools.lru_cache(maxsize=1)
def _agent_key(agent_private: bytes) -> X25519PrivateKey:
    """Loading a private key derives its public key; an agent opens many
    records under one key, so keep the last one loaded."""
    return X25519PrivateKey.from_private_bytes(agent_private)


RECORD_MEMO_ENTRIES = 4096


def open_record(agent_private: bytes, rec: SealedRecord, n_bits: int) -> MetaInfo:
    """Invert seal_record. Raises CryptoError on wrong key, tamper,
    truncation, or an ephemeral key not in canonical form, so each
    record has one encoding that opens; never returns garbage and never
    memoises a failure. The last 4096 records opened are kept by (agent
    private key, ciphertext, n_bits), so re-opening one of them costs one
    lookup: a hit needs the exact bytes an earlier call verified under
    the same key, and any changed, cut or appended byte runs the exchange
    and the tag check again. The kept plaintext is what the key already
    opens from the ciphertext the server stores and returns; full, the
    memo holds 2.9-3.9 MB. A process that opens each record once gains
    nothing."""
    return _opened_record(bytes(agent_private), bytes(rec.ciphertext), n_bits)


@functools.lru_cache(maxsize=RECORD_MEMO_ENTRIES)
def _opened_record(agent_private: bytes, ct: bytes, n_bits: int) -> MetaInfo:
    """The open itself: X25519, HKDF, the AES-GCM tag check and the parse.
    An agent that searches a zone again gets the same ciphertexts back,
    and the record is a pure function of the key and those bytes."""
    if len(ct) < SEAL_OVERHEAD_BYTES:
        raise CryptoError("sealed record too short")
    if not canonical_x25519(ct[:32]):
        raise CryptoError("sealed record's ephemeral key is not canonical")
    try:
        shared = _agent_key(agent_private).exchange(X25519PublicKey.from_public_bytes(ct[:32]))
        plain = AESGCM(hkdf_sha256(shared, _RECORD_SEAL_INFO)).decrypt(ct[32:44], ct[44:], None)
    except (InvalidTag, ValueError) as exc:
        raise CryptoError("record decryption failed") from exc
    return MetaInfo.from_bytes(plain, n_bits)


# --- transport -------------------------------------------------------------

def wrap_transport(aead: AESGCM, payload: bytes) -> bytes:
    """Encrypt one message under a session's AEAD object, built once from
    its channel key, with a fresh nonce from the OS: nonce(12) ||
    ciphertext."""
    nonce = secrets.token_bytes(12)
    return nonce + aead.encrypt(nonce, payload, None)


def unwrap_transport(aead: AESGCM, envelope: bytes) -> bytes:
    """Invert wrap_transport; a short or forged envelope raises CryptoError."""
    if len(envelope) < TRANSPORT_OVERHEAD_BYTES:
        raise CryptoError("transport envelope too short")
    try:
        return aead.decrypt(envelope[:12], envelope[12:], None)
    except InvalidTag as exc:
        raise CryptoError("transport authentication failed") from exc


# --- bounds-checked reader --------------------------------------------------

class Reader:
    """Reads one encoded message front to back, integers big-endian. A
    read past the end, or a byte left unread at `done`, raises `error`:
    the caller's own exception class, so each format fails one way."""

    def __init__(self, data: bytes, error: type[Exception]):
        self._data = data
        self._pos = 0
        self._error = error

    def take(self, k: int) -> bytes:
        end = self._pos + k
        if end > len(self._data):
            raise self._error("truncated input")
        out = self._data[self._pos : end]
        self._pos = end
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def rest(self) -> bytes:
        return self.take(len(self._data) - self._pos)

    def done(self) -> None:
        if self._pos != len(self._data):
            raise self._error("trailing bytes")


# --- sparse filter codec ---------------------------------------------------

_LANE_TYPES = {array(t).itemsize * 8: t for t in "QLIHB"}  # lane bits -> the array type of that size
_SWAP_LANES = sys.byteorder == "little"  # lanes are written big-endian (a no-op for bytes)


def position_width(m: int) -> int:
    """Fixed bit width of one encoded position for an m-position filter."""
    return max(1, (m - 1).bit_length())


@functools.lru_cache(maxsize=64)
def _stage_masks(width: int, lane: int, stages: int) -> tuple[tuple[int, int, int], ...]:
    """The spreading stages for up to 2^stages fields of `width` bits,
    the first of them farthest: for each, the mask of the fields it moves
    where they sit packed, the same mask where they land, and the
    distance. Stage j moves every field whose index has bit j set by
    2^j * (lane - width) bits."""
    masks = []
    for j in reversed(range(stages)):
        run = (1 << (width << j)) - 1
        moved = run << (width << j)  # the upper half of the first block of 2^(j+1) fields
        for k in range(stages - j - 1):  # doubled out over every block
            moved |= moved << (lane << (j + 1 + k))
        shift = (lane - width) << j
        masks.append((moved, moved << shift, shift))
    return tuple(masks)


def _lane_bits(width: int) -> int:
    return min(lane for lane in _LANE_TYPES if lane >= width)


def compress_positions(positions: list[int], m: int) -> bytes:
    """Encode set-bit positions as a 4-byte big-endian popcount header
    followed by the positions ascending, each a fixed-width big-endian
    integer, bit-packed, then zero bits to the byte. The positions go
    into lanes as one integer and the stages pack them in reverse."""
    count = len(positions)
    if count and (positions[0] < 0 or not all(map(operator.lt, positions, positions[1:]))):
        raise CryptoError("positions must be strictly ascending")
    if count and positions[-1] >= m:
        raise CryptoError(f"position {positions[-1]} out of range for m={m}")
    width = position_width(m)
    lane = _lane_bits(width)
    lanes = array(_LANE_TYPES[lane], positions)
    if _SWAP_LANES:
        lanes.byteswap()
    x = int.from_bytes(lanes, "big")
    if lane != width:
        for _, spread, shift in reversed(_stage_masks(width, lane, max(count - 1, 0).bit_length())):
            t = x & spread
            x ^= t ^ (t >> shift)
    bits = count * width
    return count.to_bytes(4, "big") + (x << (-bits % 8)).to_bytes((bits + 7) // 8, "big")


def decompress_positions(data: bytes, m: int, max_count: int) -> list[int]:
    """Invert compress_positions, validating range and ordering. A header
    count above `max_count` or m is refused before anything is decoded,
    and so is a nonzero pad bit, so each filter has one encoding."""
    if len(data) < 4:
        raise CryptoError("sparse filter missing header")
    count = int.from_bytes(data[:4], "big")
    bound = min(m, max_count)
    if count > bound:
        raise CryptoError(f"sparse filter count {count} exceeds bound {bound}")
    width = position_width(m)
    if len(data) - 4 != (count * width + 7) // 8:
        raise CryptoError("sparse filter length mismatch")
    x = int.from_bytes(data[4:], "big")
    pad = -count * width % 8
    if x & ((1 << pad) - 1):
        raise CryptoError("sparse filter pad bits are not zero")
    x >>= pad
    lane = _lane_bits(width)
    if lane != width:
        for moved, _, shift in _stage_masks(width, lane, max(count - 1, 0).bit_length()):
            t = x & moved
            x ^= t ^ (t << shift)
    lanes = array(_LANE_TYPES[lane], x.to_bytes(count * lane // 8, "big"))
    if _SWAP_LANES:
        lanes.byteswap()
    p = lanes.tolist()
    if not all(map(operator.lt, p, p[1:])):
        raise CryptoError("decoded positions not strictly ascending")
    if count and p[-1] >= m:
        raise CryptoError(f"decoded position {p[-1]} out of range for m={m}")
    return p
