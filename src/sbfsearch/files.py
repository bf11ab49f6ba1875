"""File formats for client-side artifacts: binary master secrets, user
keyrings and user indexes, and one-line hex key files. A binary format
opens with an eight-byte magic tag; integers are big-endian. Loading
reads through `crypto.Reader`, so a truncated file, trailing bytes, a
repeated keyword token or a master-secrets file with no keyword raise
`FileFormatError`. An index file stores only what an index cannot
derive. A key file holds one key, or an upload receipt's record handle,
as hex. Every file here, and every store snapshot, is written by
`write_atomically`, so a crash or a failed write leaves the old file
whole.

Index files and store snapshots are checksummed: the magic, the body,
then a SHA-256 of both. `write_checksummed` and `read_checksummed` are
the one place that knows this layout; a wrong magic, a short file or a
bad trailer is refused before anything is parsed."""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from .crypto import Reader
from .index import MasterSecrets, UserIndex, UserKeyring
from .params import SystemParams

MASTER_MAGIC = b"SBFKEYS1"
KEYRING_MAGIC = b"SBFKRNG1"
INDEX_MAGIC = b"SBFINDX2"
DIGEST_BYTES = 32  # the SHA-256 trailer of a checksummed file


class FileFormatError(Exception):
    pass


def write_atomically(path: str | Path, *parts: bytes) -> None:
    """Write `parts` to `path` via a synced temporary file beside it, a
    rename and a sync of the directory: the file is never half-written,
    the rename survives a power cut, and a failed write leaves the old
    file as it was and no temporary file behind."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with open(fd, "wb") as f:
            for part in parts:
                f.write(part)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    # the rename is durable only once the directory entry is synced too
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_checksummed(path: str | Path, body: bytes) -> None:
    """Write `body`, which opens with its magic, then its SHA-256."""
    write_atomically(path, body, hashlib.sha256(body).digest())


def read_checksummed(path: str | Path, magic: bytes, error: type[Exception]) -> Reader:
    """A `Reader` past `magic` over the body of a file `write_checksummed`
    wrote. A wrong magic, a file too short for its trailer or a bad
    SHA-256 raises `error` before anything is parsed."""
    data = Path(path).read_bytes()
    if not data.startswith(magic):
        raise error(f"not an {magic.decode('ascii')} file")
    body = data[:-DIGEST_BYTES]
    if len(body) < len(magic) or hashlib.sha256(body).digest() != data[-DIGEST_BYTES:]:
        raise error(f"{magic.decode('ascii')} checksum mismatch")
    rd = Reader(body, error)
    rd.take(len(magic))
    return rd


def save_master_secrets(ms: MasterSecrets, path: str | Path) -> None:
    any_token = next(iter(ms.keyword_secrets))
    any_key = ms.keyword_secrets[any_token]
    parts = [
        MASTER_MAGIC,
        struct.pack(">BHHI", len(any_token), len(any_key), len(ms.init_vectors), len(ms.keyword_secrets)),
    ]
    for token in sorted(ms.keyword_secrets):
        parts.append(token + ms.keyword_secrets[token])
    parts.extend(ms.init_vectors)
    parts.append(ms.agent_public + ms.agent_private)
    write_atomically(path, *parts)


def load_master_secrets(path: str | Path) -> MasterSecrets:
    rd = Reader(Path(path).read_bytes(), FileFormatError)
    if rd.take(8) != MASTER_MAGIC:
        raise FileFormatError("not a master secrets file")
    token_bytes, key_bytes, r, l = rd.u8(), rd.u16(), rd.u16(), rd.u32()
    if not l:
        raise FileFormatError("master secrets file holds no keyword")
    secrets_map = {}
    for _ in range(l):
        token = _new_token(rd, token_bytes, secrets_map)
        secrets_map[token] = rd.take(key_bytes)
    vectors = tuple(rd.take(token_bytes) for _ in range(r))
    agent_pub = rd.take(32)
    agent_priv = rd.take(32)
    rd.done()
    return MasterSecrets(secrets_map, vectors, agent_pub, agent_priv)


def save_keyring(kr: UserKeyring, path: str | Path) -> None:
    token_bytes = len(kr.zone)
    parts = [KEYRING_MAGIC]
    if kr.keys:
        any_kw = next(iter(kr.keys))
        r = len(kr.keys[any_kw])
        key_bytes = len(kr.keys[any_kw][0])
    else:
        r, key_bytes = 0, 0
    parts.append(struct.pack(">BHHI", token_bytes, key_bytes, r, len(kr.keys)))
    parts.append(kr.zone)
    for token in kr.keys:
        parts.append(token + b"".join(kr.keys[token]))
    write_atomically(path, *parts)


def load_keyring(path: str | Path) -> UserKeyring:
    rd = Reader(Path(path).read_bytes(), FileFormatError)
    if rd.take(8) != KEYRING_MAGIC:
        raise FileFormatError("not a keyring file")
    token_bytes, key_bytes, r, count = rd.u8(), rd.u16(), rd.u16(), rd.u32()
    zone = rd.take(token_bytes)
    keys = {}
    for _ in range(count):
        token = _new_token(rd, token_bytes, keys)
        keys[token] = tuple(rd.take(key_bytes) for _ in range(r))
    rd.done()
    return UserKeyring(zone=zone, keys=keys)


def _new_token(rd: Reader, token_bytes: int, seen: dict) -> bytes:
    """The next keyword token, which must not repeat one already read."""
    token = rd.take(token_bytes)
    if token in seen:
        raise FileFormatError("keyword token repeated")
    return token


def write_key_file(path: str | Path, key: bytes) -> None:
    write_atomically(path, key.hex().encode("ascii") + b"\n")


def read_key_file(path: str | Path) -> bytes:
    return bytes.fromhex(Path(path).read_text().strip())


def save_index(idx: UserIndex, path: str | Path, params: SystemParams) -> None:
    """Write an SBFINDX2 file atomically: m, params' r, the zone, the
    nonzero counters as ascending (position, count) u32 columns, the
    blinding elements, then a SHA-256 of all of it. bf is derived on
    read."""
    positions = sorted(idx.counters)
    columns = positions + [idx.counters[p] for p in positions]
    write_checksummed(path, b"".join([
        INDEX_MAGIC,
        struct.pack(">IHB", idx.m, params.r, len(idx.zone)),
        idx.zone,
        struct.pack(f">I{len(columns)}I", len(positions), *columns),
        struct.pack(">H", len(idx.obf_elements)),
        *(struct.pack(">H", len(value)) + value for value in idx.obf_elements),
    ]))


def load_index(path: str | Path, params: SystemParams) -> UserIndex:
    """Read an SBFINDX2 file written under params' m and r; its SHA-256
    trailer is checked before anything is parsed."""
    rd = read_checksummed(path, INDEX_MAGIC, FileFormatError)
    m, r = rd.u32(), rd.u16()
    if (m, r) != (params.m, params.r):
        raise FileFormatError(f"index has m={m}, r={r} but the parameters say m={params.m}, r={params.r}")
    zone = rd.take(rd.u8())
    k = rd.u32()
    positions, counts = np.frombuffer(rd.take(8 * k), ">u4").reshape(2, k).astype(np.int64)
    if k and (positions[-1] >= m or (np.diff(positions) <= 0).any() or not counts.all()):
        raise FileFormatError("index counters are not nonzero at ascending positions below m")
    counters = Counter(dict(zip(positions.tolist(), counts.tolist())))
    elements = [rd.take(rd.u16()) for _ in range(rd.u16())]
    rd.done()
    return UserIndex(zone, counters, elements, params)
