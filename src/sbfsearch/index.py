"""Client-side secure index: key authority setup, user registration,
index building with obfuscation padding, removal requests, and agent
query generation.

The derivation chain per (keyword w, location g) is

    subkeys   k_i = PRF(secret_w, v_i)          i = 1..r   (registration)
    trapdoor  z_i = PRF(k_i, w)                            (per search/build)
    location  y_i = PRF(z_i, g)
    positions     = hash_positions(y_1..y_r)

so any party holding the per-keyword secret and the initial vectors maps
(w, g) to the same filter positions. That cross-user determinism is what
makes server-side buffer intersection return every matching record.

A process derives the same values again and again (an agent registers
and searches the same keywords, an owner rebuilds at its location), so
two points of the chain are memoised, each in a bounded LRU memo:

- `register_user`'s r subkeys per (keyword secret, initial vectors, s),
  the last 128 of them, above one authority's l = 100 keywords;
- `keyword_positions`' r positions per (subkeys, w, g, s, m, r), the
  last 2048, above one authority's l * gamma = 2,000 (w, g) pairs.

Full, at the paper's parameters, they hold 1.7-1.8 MB together
(tracemalloc), 0.14 MB of it subkeys. They hold only values the process
can already derive from the secrets it holds: a client that keeps its
own deterministic trapdoors reveals nothing more to the server. Every
key and registration check still runs on each call, each call returns
a fresh list, and `prf_calls` counts the evaluations a call stands for,
hit or miss: r per registered keyword and 2r per `keyword_positions`,
so the paper's PRF budgets read the same warm or cold. A process that
derives each value once, such as one `sbfsearch search`, gains nothing.

Every user's uploaded filter carries exactly q elements' worth of load:
d real keywords plus (q - d) random blinding elements inserted into a
separate obfuscating filter that is OR-ed in. A blinding value b is
expanded to r lane elements (b || lane) so its footprint matches a real
keyword's.
"""

from __future__ import annotations

import functools
import struct
from collections import Counter
from dataclasses import InitVar, dataclass, field
from itertools import chain
from random import Random, SystemRandom

from .crypto import (
    MetaInfo,
    Reader,
    SealedRecord,
    check_prf_key,
    generate_agent_keypair,
    hmac_prf,
    prf_calls,
    rand_bytes,
    random_token,
    seal_record,
)
from .filters import BitFilter, CountingFilter, hash_positions
from .params import SystemParams


class SchemeError(ValueError):
    """Scheme-level misuse: unknown keyword, quota exceeded, zone mismatch."""


@dataclass(frozen=True)
class MasterSecrets:
    """Authority-held material: one secret per vocabulary keyword, the r
    initial vectors, and the agents' key pair."""

    keyword_secrets: dict[bytes, bytes]
    init_vectors: tuple[bytes, ...]
    agent_public: bytes
    agent_private: bytes


@dataclass(frozen=True)
class UserKeyring:
    """Per-user master keys: r subkeys for each registered keyword, bound
    to one zone."""

    zone: bytes
    keys: dict[bytes, tuple[bytes, ...]]


@dataclass
class UserIndex:
    """The (counting filter, bit filter, obfuscating filter) triple a
    user maintains per zone, all held as positions. Only `cbf` and
    obf_elements, the raw blinding values kept for later removal swaps,
    are state; the elements are consumed, never replenished.
    obf_positions holds each element's r positions in lane order, hashed
    once when the index is built or loaded, so a removal re-hashes
    nothing. `derive_filters` is the one place that sets obf, the union
    of those lanes, and bf = (cbf > 0) | obf."""

    zone: bytes
    cbf: CountingFilter
    obf_elements: list[bytes]
    params: InitVar[SystemParams]
    obf_positions: list[list[int]] = field(init=False, compare=False, repr=False)
    bf: BitFilter = field(init=False)
    obf: BitFilter = field(init=False)

    def __post_init__(self, params: SystemParams) -> None:
        self.obf_positions = [blinding_positions(value, params) for value in self.obf_elements]
        self.derive_filters()

    def derive_filters(self) -> None:
        self.obf = BitFilter(self.cbf.m, chain.from_iterable(self.obf_positions))
        self.bf = self.cbf.nonzero_bits() | self.obf


@dataclass(frozen=True)
class UploadPacket:
    zone: bytes
    compressed_bf: bytes
    sealed: SealedRecord

    def to_bytes(self) -> bytes:
        return b"".join([self.zone, self.sealed.to_bytes(),
                         struct.pack(">I", len(self.compressed_bf)), self.compressed_bf])

    @classmethod
    def from_bytes(cls, data: bytes, zone_width: int) -> "UploadPacket":
        rd = Reader(data, SchemeError)
        zone = rd.take(zone_width)
        sealed = SealedRecord.read(rd)
        compressed = rd.take(rd.u32())
        rd.done()
        return cls(zone=zone, compressed_bf=compressed, sealed=sealed)


@dataclass(frozen=True)
class RemovalRequest:
    zone: bytes
    rbf_prime: BitFilter
    handle: bytes
    replacement: UploadPacket | None = None


def generate_master_secrets(
    params: SystemParams, vocabulary: list[bytes], rng: Random | None = None
) -> MasterSecrets:
    """Fresh secrets for an l-keyword vocabulary: one s-bit key per
    keyword, r n-bit initial vectors, one agent key pair."""
    if len(vocabulary) != params.l:
        raise SchemeError(f"vocabulary has {len(vocabulary)} tokens, params say l={params.l}")
    if len(set(vocabulary)) != len(vocabulary):
        raise SchemeError("vocabulary tokens must be distinct")
    secrets_map = {w: rand_bytes(rng, params.s_bytes) for w in vocabulary}
    vectors = tuple(random_token(rng, params.n_bits) for _ in range(params.r))
    agent_pub, agent_priv = generate_agent_keypair(rng)
    return MasterSecrets(secrets_map, vectors, agent_pub, agent_priv)


# bounds of the key-schedule memos (module docstring): one authority's
# l = 100 keywords and l * gamma = 2,000 (w, g) pairs at the paper's parameters
SUBKEY_MEMO_ENTRIES = 128
POSITION_MEMO_ENTRIES = 2048


def register_user(
    ms: MasterSecrets, user_keywords: list[bytes], zone: bytes, params: SystemParams
) -> UserKeyring:
    """Derive the user's per-keyword subkeys k_i = PRF(secret_w, v_i).
    Counts exactly len(user_keywords) * r PRF calls, memo hit or miss."""
    if len(user_keywords) > params.q:
        raise SchemeError(f"{len(user_keywords)} keywords exceed the padding quota q={params.q}")
    if len(set(user_keywords)) != len(user_keywords):
        raise SchemeError("duplicate keyword in registration")
    vectors = tuple(map(bytes, ms.init_vectors))
    keys: dict[bytes, tuple[bytes, ...]] = {}
    for w in user_keywords:
        if w not in ms.keyword_secrets:
            raise SchemeError(f"keyword token {w.hex()} not in vocabulary")
        secret = ms.keyword_secrets[w]
        check_prf_key(secret, params.s_bits)
        prf_calls.count += len(vectors)
        keys[w] = _subkeys(bytes(secret), vectors, params.s_bits)
    return UserKeyring(zone=zone, keys=keys)


@functools.lru_cache(maxsize=SUBKEY_MEMO_ENTRIES)
def _subkeys(secret: bytes, vectors: tuple[bytes, ...], s_bits: int) -> tuple[bytes, ...]:
    return tuple(hmac_prf(secret, v, s_bits) for v in vectors)


def keyword_positions(kr: UserKeyring, w: bytes, location: bytes, params: SystemParams) -> list[int]:
    """hash_positions of the location vector y_i = PRF(z_i, location),
    where z_i = PRF(k_i, w) is the trapdoor, from the position memo when
    it holds (subkeys, w, location). Users and agents holding the same
    keyword material derive identical positions. Counts 2r PRF calls, hit
    or miss."""
    subkeys = _registered_subkeys(kr, w)
    for k in subkeys:
        check_prf_key(k, params.s_bits)
    prf_calls.count += 2 * len(subkeys)
    return list(_positions(tuple(map(bytes, subkeys)), bytes(w), bytes(location),
                           params.s_bits, params.m, params.r))


@functools.lru_cache(maxsize=POSITION_MEMO_ENTRIES)
def _positions(subkeys: tuple[bytes, ...], w: bytes, location: bytes, s_bits: int, m: int, r: int
               ) -> tuple[int, ...]:
    y = [hmac_prf(hmac_prf(k, w, s_bits), location, s_bits) for k in subkeys]
    return tuple(hash_positions(y, m, r))


def _registered_subkeys(kr: UserKeyring, w: bytes) -> tuple[bytes, ...]:
    if w not in kr.keys:
        raise SchemeError(f"keyword token {w.hex()} not registered")
    return kr.keys[w]


def _blinding_lane_elements(value: bytes, r: int) -> list[bytes]:
    # footprint of a blinding value mirrors a real keyword: r lane elements
    return [value + i.to_bytes(4, "big") for i in range(1, r + 1)]


def blinding_positions(value: bytes, params: SystemParams) -> list[int]:
    return hash_positions(_blinding_lane_elements(value, params.r), params.m, params.r)


def build_user_index(
    kr: UserKeyring, location: bytes, params: SystemParams, rng: Random | None = None
) -> UserIndex:
    """Insert every registered keyword at `location` into the bit and
    counting filters, pad with (q - d) blinding elements in the
    obfuscating filter, and OR the two so the uploaded load is always q
    elements. Costs 2r PRF calls per real keyword."""
    cbf = CountingFilter(params.m)
    for w in kr.keys:
        cbf.add(keyword_positions(kr, w, location, params))
    obf_elements = [rand_bytes(rng, params.n_bytes) for _ in range(params.q - len(kr.keys))]
    return UserIndex(kr.zone, cbf, obf_elements, params)


def make_upload_packet(
    idx: UserIndex,
    mi: MetaInfo,
    agent_public: bytes,
    zone: bytes,
    params: SystemParams,
    rng: Random | None = None,
) -> UploadPacket:
    if zone != idx.zone:
        raise SchemeError("zone does not match the index")
    sealed = seal_record(agent_public, mi, params.tau_bits, rng)
    return UploadPacket(zone=zone, compressed_bf=idx.bf.compress(), sealed=sealed)


def build_removal_request(
    idx: UserIndex,
    kr: UserKeyring,
    w: bytes,
    location: bytes,
    handle: bytes,
    params: SystemParams,
    rng: Random | None = None,
) -> RemovalRequest:
    """Build the pruning filter for one previously inserted keyword and
    update the index in place.

    Positions the keyword shares with other held keywords (counter > 1)
    must stay live on the server, so each such bit is swapped for a
    fresh position drawn from an unused blinding element; the element is
    consumed. Counters drop by one per original occurrence either way.
    Costs one `keyword_positions` plus set work over the q*r positions the
    index holds; a refused removal leaves the index unchanged. Swaps draw
    from `rng`, or from the OS when none is given.
    """
    ps = keyword_positions(kr, w, location, params)
    occurrences = Counter(ps)
    counters = idx.cbf.counters
    if any(counters[p] < n for p, n in occurrences.items()):
        raise SchemeError("keyword was never inserted at this location")
    pruned = set(ps)
    elements, lanes = list(idx.obf_elements), list(idx.obf_positions)
    pick = rng if rng is not None else SystemRandom()
    for p in sorted(occurrences):
        if counters[p] <= occurrences[p]:
            continue  # no other keyword needs this buffer; prune it as is
        pruned.discard(p)
        pruned.add(_draw_swap_position(elements, lanes, counters, pruned, pick))
    idx.cbf.subtract(ps)
    idx.obf_elements, idx.obf_positions = elements, lanes
    idx.derive_filters()
    return RemovalRequest(zone=idx.zone, rbf_prime=BitFilter(params.m, pruned), handle=handle)


def _draw_swap_position(
    elements: list[bytes], lanes: list[list[int]], counters: Counter[int], pruned: set[int], rng: Random
) -> int:
    """Consume one blinding element owning a position with zero counter
    that is not already marked for pruning."""
    order = list(range(len(elements)))
    rng.shuffle(order)
    for i in order:
        usable = [p for p in lanes[i] if not counters[p] and p not in pruned]
        if usable:
            del elements[i], lanes[i]
            return rng.choice(usable)
    raise SchemeError("no unused blinding element available for a removal swap")


def build_conjunctive_query(
    kr: UserKeyring, keywords: list[bytes], location: bytes, params: SystemParams
) -> BitFilter:
    """Query filter for an AND over keywords at one location: the union
    of each keyword's positions. Queries carry no blinding padding."""
    if not keywords:
        raise SchemeError("conjunctive query needs at least one keyword")
    query = BitFilter(params.m)
    for w in keywords:
        query.insert(keyword_positions(kr, w, location, params))
    return query
