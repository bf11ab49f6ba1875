"""System parameters and their derivation rules.

Every other module consumes a SystemParams value. The parameters are:

- l:            size of the fixed system keyword vocabulary
- r:            number of index hash lanes (PRF lanes per keyword)
- gamma_count:  number of distinct sub-locations per zone
- q:            fixed per-user element count after obfuscation padding (q <= l)
- m:            filter length in positions, derived as ceil(l*r*gamma_count / ln 2)
- s_bits:       security parameter, PRF output width (default 256; 128 to
                512, the widest HMAC hash, SHA-512)
- n_bits:       keyword/location token width (default 160)
- beta:         per-buffer capacity of the server store
- tau_bits:     maximum meta record size, in bits (1 Kbit = 1024 bits); sealing
                adds 60 bytes (ephemeral key, nonce, tag), and the store
                refuses a sealed record longer than tau/8 + 60 bytes

m is derived with ceil; configurations tuned against a specific filter
length can force it with the params file's m_override key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_S_BITS = 256
DEFAULT_N_BITS = 160

CONFIG_KEYS = ("l", "r", "gamma", "q", "beta", "tau_kbits", "s_bits", "n_bits", "m_override")


class ParamsError(ValueError):
    """Raised for invalid or inconsistent parameter values."""


@dataclass(frozen=True)
class SystemParams:
    l: int
    r: int
    gamma_count: int
    q: int
    m: int
    s_bits: int
    n_bits: int
    beta: int
    tau_bits: int

    def __post_init__(self) -> None:
        for name in ("l", "r", "gamma_count", "q", "m", "s_bits", "n_bits", "beta", "tau_bits"):
            if getattr(self, name) < 1:
                raise ParamsError(f"{name} must be positive, got {getattr(self, name)}")
        if self.q > self.l:
            raise ParamsError(f"q={self.q} exceeds vocabulary size l={self.l}")
        if self.s_bits < 128:
            raise ParamsError(f"s_bits={self.s_bits} below the 128-bit minimum")
        if self.s_bits > 512:
            raise ParamsError(f"s_bits={self.s_bits} above the 512-bit maximum (SHA-512 HMAC)")
        if self.s_bits % 8:
            raise ParamsError("s_bits must be a multiple of 8 (keys are byte strings)")

    @property
    def max_positions(self) -> int:
        """Most set bits a record's filter can hold (q elements of r positions)."""
        return self.q * self.r

    @property
    def s_bytes(self) -> int:
        return self.s_bits // 8

    @property
    def n_bytes(self) -> int:
        """Token width in whole bytes; unused high bits are zero."""
        return (self.n_bits + 7) // 8


def filter_length(l: int, r: int, gamma_count: int) -> int:
    """Derived filter length: ceil(l * r * gamma_count / ln 2)."""
    return math.ceil(l * r * gamma_count / math.log(2))


def derive_params(
    l: int,
    r: int,
    gamma_count: int,
    q: int,
    beta: int,
    tau_bits: int,
    s_bits: int = DEFAULT_S_BITS,
    n_bits: int = DEFAULT_N_BITS,
    m_override: int | None = None,
) -> SystemParams:
    """Build a validated SystemParams, deriving m unless explicitly overridden."""
    if m_override is not None and m_override < 1:
        raise ParamsError("m_override must be positive")
    m = m_override if m_override is not None else filter_length(l, r, gamma_count)
    return SystemParams(
        l=l, r=r, gamma_count=gamma_count, q=q, m=m,
        s_bits=s_bits, n_bits=n_bits, beta=beta, tau_bits=tau_bits,
    )


def expected_distinct_positions(m: int, r: int, inserted: int) -> float:
    """Expected number of distinct occupied positions after inserting
    `inserted` elements of r positions each into an m-position filter:

        m - m * exp(-r * inserted / m)

    Returned as a real; callers needing an integer round to nearest.
    """
    if inserted < 0:
        raise ParamsError("inserted must be non-negative")
    return m - m * math.exp(-r * inserted / m)


def load_params_file(path: str | Path) -> SystemParams:
    """Load the public parameters, which every party must share, from a
    key=value text file.

    Recognised keys: l, r, gamma, q, beta, tau_kbits, s_bits, n_bits,
    m_override. Lines starting with '#' are comments.
    """
    values: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParamsError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ParamsError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = int(val.strip())
        except ValueError:
            raise ParamsError(f"{path}:{lineno}: {key} must be an integer") from None
    missing = [k for k in ("l", "r", "gamma", "q", "beta", "tau_kbits") if k not in values]
    if missing:
        raise ParamsError(f"missing required parameter(s): {', '.join(missing)}")
    return derive_params(
        l=values["l"],
        r=values["r"],
        gamma_count=values["gamma"],
        q=values["q"],
        beta=values["beta"],
        tau_bits=values["tau_kbits"] * 1024,
        s_bits=values.get("s_bits", DEFAULT_S_BITS),
        n_bits=values.get("n_bits", DEFAULT_N_BITS),
        m_override=values.get("m_override"),
    )
