"""Generated inputs shared by the store workloads, and a reference model
of the store.

Every zone uses the paper's parameters l=100, r=10, gamma=20, q=15
(m=28854) and tau = 5 Kbit. Owners hold d keywords, d uniform in
[KEYWORDS_MIN, KEYWORDS_MAX], drawn without replacement with Zipf
weights 1/(k+1)^KEYWORD_SKEW over the vocabulary; each owner sits at one
of the gamma sub-locations, chosen uniformly. With d <= q - 9 every
owner keeps blinding elements for removal swaps, and the skew keeps the
busiest (keyword, location) buffer well under beta at the record counts
the workloads use.

All choices come from `random.Random` instances seeded with strings
built from the workload seed, so a seed gives the same inputs on any
commit. The package only ever sees the generated tokens and packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from sbfsearch import crypto, index, params

L, R, GAMMA, Q = 100, 10, 20, 15
TAU_BITS = 5 * 1024
KEYWORDS_MIN, KEYWORDS_MAX = 2, 6
KEYWORD_SKEW = 0.7


def zone_params(beta: int) -> params.SystemParams:
    return params.derive_params(l=L, r=R, gamma_count=GAMMA, q=Q, beta=beta, tau_bits=TAU_BITS)


def token(rng: Random, n_bits: int = 160) -> bytes:
    return rng.getrandbits(n_bits).to_bytes((n_bits + 7) // 8, "big")


@dataclass(frozen=True)
class OwnerSpec:
    keywords: tuple[int, ...]  # vocabulary indexes
    location: int              # sub-location index

    def as_json(self) -> list:
        return [list(self.keywords), self.location]


class Population:
    """The zone, its vocabulary and sub-locations, the authority's
    secrets, and the popularity law owners draw keywords from."""

    def __init__(self, seed: int, beta: int):
        self.seed = seed
        self.params = zone_params(beta)
        rng = Random(f"perfbench/{seed}/population")
        self.vocab = [token(rng) for _ in range(L)]
        self.locations = [token(rng) for _ in range(GAMMA)]
        self.zone = token(rng)
        self.secrets = index.generate_master_secrets(self.params, self.vocab, rng)
        self.weights = [1.0 / (k + 1) ** KEYWORD_SKEW for k in range(L)]

    def rng(self, purpose: str) -> Random:
        return Random(f"perfbench/{self.seed}/{purpose}")

    def draw_owner(self, rng: Random, d: int | None = None) -> OwnerSpec:
        """An owner with d keywords (drawn from [KEYWORDS_MIN, KEYWORDS_MAX]
        unless given) at a uniformly chosen sub-location."""
        if d is None:
            d = rng.randint(KEYWORDS_MIN, KEYWORDS_MAX)
        chosen: list[int] = []
        while len(chosen) < d:
            k = rng.choices(range(L), weights=self.weights)[0]
            if k not in chosen:
                chosen.append(k)
        return OwnerSpec(tuple(chosen), rng.randrange(GAMMA))

    def meta(self, spec: OwnerSpec, rng: Random) -> crypto.MetaInfo:
        return crypto.MetaInfo(
            user_pseudonym=token(rng),
            health_attrs=tuple(self.vocab[k] for k in spec.keywords),
            server_id=token(rng),
            memory_index=token(rng),
            emergency_info=(),
        )

    def keyring(self, keywords) -> index.UserKeyring:
        return index.register_user(self.secrets, [self.vocab[k] for k in keywords], self.zone, self.params)


@dataclass
class StoreModel:
    """What the store must hold: each live handle's buffer positions, and
    the handles each position holds. A query matches exactly the handles
    present at every addressed position."""

    positions: dict[bytes, set[int]] = field(default_factory=dict)
    holders: dict[int, set[bytes]] = field(default_factory=dict)

    def add(self, handle: bytes, positions) -> None:
        if handle in self.positions:
            raise ValueError("model already holds this handle")
        self.positions[handle] = set(positions)
        for p in positions:
            self.holders.setdefault(p, set()).add(handle)

    def prune(self, handle: bytes, positions) -> int:
        """Drop the handle from the given positions; forget it once no
        position holds it. Returns how many positions held it."""
        live = self.positions[handle]
        hit = live.intersection(positions)
        live -= hit
        for p in hit:
            self.holders[p].discard(handle)
        if not live:
            del self.positions[handle]
        return len(hit)

    def expected(self, query) -> set[bytes]:
        query = set(query)
        result: set[bytes] | None = None
        for p in sorted(query, key=lambda p: len(self.holders.get(p, ()))):
            held = self.holders.get(p, set())
            result = set(held) if result is None else result & held
            if not result:
                return set()
        return result or set()

    def max_occupancy(self) -> int:
        return max((len(h) for h in self.holders.values()), default=0)
