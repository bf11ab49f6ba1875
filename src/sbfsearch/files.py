"""Binary file formats for client-side artifacts: master secrets,
user keyrings, and user indexes. Each format opens with an eight-byte
magic tag; integers are big-endian. Loading reads through
`crypto.Reader`, so a truncated file, trailing bytes, a repeated
keyword token, a master-secrets file with no keyword, a dense filter
whose length header differs from the index's m, or an index whose bit
filter is not its counting filter's nonzero bits OR its obfuscating
filter raise `FileFormatError`."""

from __future__ import annotations

import struct
from pathlib import Path

from .crypto import Reader
from .filters import BitFilter, CountingFilter
from .index import MasterSecrets, UserIndex, UserKeyring

MASTER_MAGIC = b"SBFKEYS1"
KEYRING_MAGIC = b"SBFKRNG1"
INDEX_MAGIC = b"SBFINDX1"


class FileFormatError(Exception):
    pass


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
    Path(path).write_bytes(b"".join(parts))


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
    Path(path).write_bytes(b"".join(parts))


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


def save_index(idx: UserIndex, path: str | Path) -> None:
    parts = [
        INDEX_MAGIC,
        struct.pack(">IB", idx.bf.m, len(idx.zone)),
        idx.zone,
        idx.bf.to_bytes(),
        idx.cbf.to_bytes(),
        idx.obf.to_bytes(),
        struct.pack(">H", len(idx.obf_elements)),
    ]
    for value in idx.obf_elements:
        parts.append(struct.pack(">H", len(value)) + value)
    Path(path).write_bytes(b"".join(parts))


def load_index(path: str | Path) -> UserIndex:
    rd = Reader(Path(path).read_bytes(), FileFormatError)
    if rd.take(8) != INDEX_MAGIC:
        raise FileFormatError("not an index file")
    m = rd.u32()
    zone = rd.take(rd.u8())
    bf = _dense_filter(rd, m)
    cbf = CountingFilter.from_bytes(rd.take(4 * m))
    obf = _dense_filter(rd, m)
    elements = [rd.take(rd.u16()) for _ in range(rd.u16())]
    rd.done()
    if bf != cbf.nonzero_bits() | obf:
        raise FileFormatError("index bit filter is not (cbf > 0) | obf")
    return UserIndex(zone=zone, bf=bf, cbf=cbf, obf=obf, obf_elements=elements)


def _dense_filter(rd: Reader, m: int) -> BitFilter:
    """One dense filter whose own length header must equal the index's m."""
    data = rd.take(8 + (m + 7) // 8)
    if m < 1 or int.from_bytes(data[:8], "big") != m:
        raise FileFormatError(f"dense filter length does not match the index's m={m}")
    return BitFilter.from_bytes(data)
