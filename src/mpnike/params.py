"""Structured-modulus parameter generation for the hidden-subgroup NIKE.

The modulus is N = p' * q' with p' = 2*p*z + 1 and q' = 2*q + 1 for five
distinct primes p, z, q, p', q'.  The multiplicative group mod N then
contains a cyclic subgroup of order p*z*q; a generator g of that subgroup
stays secret, and only g_p = g**p mod N is published.  Raising g_p to
anything collapses the p-component, which is what lets member keys hide
the subgroup structure.

Bit allocation targets an exact modulus width M: p' gets about 2M/3 bits,
split evenly between p and z, and q' is searched only where
bitlen(p' * q') == M.  Both searches look for a prime x with 2*m*x + 1
prime (m = p for z, m = 1 for q) by one combined sieve.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import compress
from math import gcd

from . import artifact, numt
from .errors import ExhaustedAttempts, FormatError, InvalidInput
from .numt import Rng

_LEVEL_BITS = {"80": 1024, "112": 2048, "128": 3072}
TOY_MIN_BITS = 16
_MAX_BITS = _LEVEL_BITS["128"]  # the widest modulus any command builds
# lines every version-1 parameter file carries verbatim: H is SHA-256 and
# derived keys are lambda = 0x100 = 256 bits wide
_FIXED_VALUES = {"version": "1", "hash_id": "sha256", "lambda": "100"}

_PUBLIC_FIELDS = ("version", "gamma", "n", "g_p", "hash_id", "lambda", "m")
_SECRET_FIELDS = ("p", "z", "q", "g", "p_prime", "q_prime")
_MASTER_FIELDS = _PUBLIC_FIELDS + _SECRET_FIELDS


@dataclass(frozen=True)
class SecurityLevel:
    """Named level mapped to a modulus width."""

    gamma: str
    modulus_bits: int


def security_level(name: str, toy_bits: int = TOY_MIN_BITS) -> SecurityLevel:
    """Resolve a level name; "toy" takes an explicit modulus width of 16 to 3072 bits."""
    if name == "toy":
        if toy_bits < TOY_MIN_BITS:
            raise InvalidInput(f"toy modulus must be >= {TOY_MIN_BITS} bits")
        if toy_bits > _MAX_BITS:
            raise InvalidInput(f"toy modulus must be <= {_MAX_BITS} bits")
        return SecurityLevel("toy", toy_bits)
    if name in _LEVEL_BITS:
        return SecurityLevel(name, _LEVEL_BITS[name])
    raise InvalidInput(f"unknown security level {name!r}")


@dataclass(frozen=True)
class PublicParams:
    """Everything a protocol participant is allowed to see."""

    N: int
    g_p: int
    m: int
    gamma: str


@dataclass(frozen=True)
class MasterSecret:
    """KGC-only material; never serialized except into the master file."""

    p: int = field(repr=False)
    z: int = field(repr=False)
    q: int = field(repr=False)
    g: int = field(repr=False)
    p_prime: int
    q_prime: int

    @cached_property
    def q_prime_inv(self) -> int:
        """q'^-1 mod p', the CRT coefficient of issuer-side exponentiations."""
        return pow(self.q_prime, -1, self.p_prime)

    @cached_property
    def p_inv(self) -> int:
        """p^-1 mod z*q: the hidden base of issuance is h = g_p**p_inv."""
        return pow(self.p, -1, self.z * self.q)


def _bit_split(modulus_bits: int) -> tuple[int, int, int]:
    """(p_bits, z_bits, p'_bits): p' takes about 2/3 of the modulus, q' the rest."""
    pp_bits = modulus_bits - (modulus_bits - 1) // 3 - 1
    p_bits = pp_bits // 2
    return p_bits, pp_bits - 1 - p_bits, pp_bits


# searches run Miller-Rabin with few rounds to discard candidates cheaply;
# setup re-certifies every surviving prime at full strength afterwards
_SEARCH_ROUNDS = 2
# combined sieve: odd candidates per window, and the bound on sieving primes
_WINDOW = 1 << 16
_SIEVE_BOUND = 1 << 16


@cache
def _sieve_primes() -> tuple[int, ...]:
    """Odd primes below _SIEVE_BOUND; built on the first search, not at import."""
    return tuple(numt._sieve(_SIEVE_BOUND)[1:])


def _sieve_window(x0: int, n: int, m: int) -> bytearray:
    """Combined-sieve flags over x = x0 + 2i, i < n (Wiener, ePrint 2003/186).

    flags[i] is 1 when neither x nor 2*m*x + 1 has an odd prime factor
    r < x0; r < x0 keeps every candidate above r, so no prime is crossed off.
    """
    flags = bytearray(b"\x01") * n
    zeros = bytes(n)
    for r in _sieve_primes():
        if r >= x0:
            break
        half = (r + 1) // 2  # 1/2 mod r
        i = -x0 * half % r  # first i with r | x
        flags[i::r] = zeros[: (n - i + r - 1) // r]
        if m % r:
            i = (i - pow(4 * m, -1, r)) % r  # first i with r | 2*m*x + 1
            flags[i::r] = zeros[: (n - i + r - 1) // r]
    return flags


def _pair_search(lo: int, hi: int, m: int, rng: Rng, budget: int) -> int:
    """Prime x in [lo, hi) with 2*m*x + 1 also prime.

    Each window of odd candidates starts at a random x0 and is combined-
    sieved; Miller-Rabin screens survivors in order, x first.  Taking the
    first hit after a random start favours primes after long gaps a little
    (Brandt-Damgard, CRYPTO '92).  A range no wider than one window is swept
    once.  The budget counts windows plus Miller-Rabin calls.
    """
    base = lo | 1
    total = max(0, (hi - base + 1) // 2)
    n = min(_WINDOW, total)
    spent = 0
    while spent < budget:
        x0 = base + 2 * rng.randrange(0, total - n + 1)
        spent += 1
        for i in compress(range(n), _sieve_window(x0, n, m)):
            x = x0 + 2 * i
            spent += 1
            if numt.is_probable_prime(x, _SEARCH_ROUNDS, rng):
                spent += 1
                if numt.is_probable_prime(2 * m * x + 1, _SEARCH_ROUNDS, rng):
                    return x
        if n == total:
            break
    raise ExhaustedAttempts(f"no prime x in [{lo}, {hi}) with 2*{m}*x + 1 prime")


def _certified(p: int, z: int, q: int, rng: Rng | None = None) -> tuple[int, ...] | None:
    """(p, z, q, p', q') if all five are distinct odd primes at full strength, else None."""
    primes = (p, z, q, 2 * p * z + 1, 2 * q + 1)
    if min(primes) >= 3 and len(set(primes)) == 5 and all(
        numt.is_probable_prime(v, rng=rng) for v in primes
    ):
        return primes
    return None


def _has_order(x: int, order: int, primes: tuple[int, ...], N: int) -> bool:
    """x has multiplicative order exactly `order` mod N, given its prime factors."""
    return numt.pow_mod(x, order, N) == 1 and all(
        numt.pow_mod(x, order // r, N) != 1 for r in primes
    )


def find_generator(p: int, z: int, q: int, N: int, rng: Rng) -> int:
    """Generator of the order p*z*q subgroup mod N.

    Fourth powers of units land in the subgroup (the group of units has
    order 4*p*z*q); a candidate is accepted once no proper divisor of
    p*z*q annihilates it.
    """
    for _ in range(1000):
        x = rng.randrange(2, N)
        if gcd(x, N) != 1:
            continue
        c = numt.pow_mod(x, 4, N)
        if _has_order(c, p * z * q, (p, z, q), N):
            return c
    raise ExhaustedAttempts("no subgroup generator found in 1000 draws")


def setup(
    level: SecurityLevel,
    rng: Rng,
    forced_primes: tuple[int, int, int] | None = None,
) -> tuple[PublicParams, MasterSecret]:
    """Generate a parameter set for the given level.

    With forced_primes=(p, z, q) the search is skipped and only the
    structural constraints are enforced (the exact-width requirement does
    not apply to forced toy instances).  Each prime-pair search is bounded
    by 8 sieve windows plus Miller-Rabin calls per modulus bit; a search
    that runs out is retried with a fresh p.
    """
    if forced_primes is not None:
        primes = _certified(*forced_primes)
        if primes is None:
            raise InvalidInput("forced primes give no five distinct odd primes")
    else:
        M = level.modulus_bits
        p_bits, z_bits, pp_bits = _bit_split(M)
        for _ in range(32):
            try:
                p = numt.random_prime(p_bits, rng, rounds=_SEARCH_ROUNDS)
                # z puts p*z in [2**(pp_bits-2), 2**(pp_bits-1)): p' has pp_bits bits
                z_lo = max(1 << (z_bits - 1), -(-(1 << (pp_bits - 2)) // p))
                z_hi = min(1 << z_bits, ((1 << (pp_bits - 1)) - 1) // p + 1)
                z = _pair_search(z_lo, z_hi, p, rng, 8 * M)
                p_prime = 2 * p * z + 1
                # q' = 2q + 1 in [2**(M-1) / p', 2**M / p'): N has exactly M bits
                q_lo = -(-(1 << (M - 1)) // p_prime) // 2
                q_hi = (((1 << M) - 1) // p_prime + 1) // 2
                q = _pair_search(q_lo, q_hi, 1, rng, 8 * M)
            except ExhaustedAttempts:
                continue
            # certify at full strength what the search only screened
            primes = _certified(p, z, q, rng)
            if primes is not None:
                break
        else:
            raise ExhaustedAttempts(f"no {M}-bit parameter set in 32 attempts")
    p, z, q, p_prime, q_prime = primes
    N = p_prime * q_prime
    g = find_generator(p, z, q, N, rng)
    g_p = numt.pow_mod(g, p, N)
    m = (p * z * q).bit_length()
    pp = PublicParams(N=N, g_p=g_p, m=m, gamma=level.gamma)
    msk = MasterSecret(p=p, z=z, q=q, g=g, p_prime=p_prime, q_prime=q_prime)
    return pp, msk


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate(pp: PublicParams, msk: MasterSecret) -> ValidationReport:
    """Structural self-check of a parameter set; never raises on bad data."""
    checks: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str = ""):
        checks.append(CheckResult(name, bool(passed), detail))

    p, z, q = msk.p, msk.z, msk.q
    N = pp.N
    modulus_odd = N % 2 == 1 and N >= 15
    check("modulus_odd", modulus_odd, f"N = {N}")
    check(
        "modulus_structure",
        msk.p_prime == 2 * p * z + 1
        and msk.q_prime == 2 * q + 1
        and N == msk.p_prime * msk.q_prime,
    )
    for name, v in (
        ("p_is_prime", p),
        ("z_is_prime", z),
        ("q_is_prime", q),
        ("p_prime_is_prime", msk.p_prime),
        ("q_prime_is_prime", msk.q_prime),
    ):
        check(name, numt.is_probable_prime(v))
    check("primes_distinct", len({p, z, q, msk.p_prime, msk.q_prime}) == 5)
    if pp.gamma == "toy":
        check("modulus_bits", True, "toy width is free-form")
    elif pp.gamma in _LEVEL_BITS:
        check(
            "modulus_bits",
            N.bit_length() == _LEVEL_BITS[pp.gamma],
            f"got {N.bit_length()}, want {_LEVEL_BITS[pp.gamma]}",
        )
    else:
        check("modulus_bits", False, f"unknown gamma {pp.gamma!r}")
    pzq = p * z * q
    g = msk.g
    check("g_in_group", 1 < g < N and gcd(g, N) == 1)
    # the order checks divide by p, z and q and exponentiate mod N, so they
    # run only on an odd N >= 15 and p, z, q >= 2; otherwise they fail
    runnable = modulus_odd and min(p, z, q) >= 2
    why = "" if runnable else "not checked: needs an odd N >= 15 and p, z, q >= 2"
    check("g_order_pzq", runnable and _has_order(g, pzq, (p, z, q), N), why)
    check("g_p_value", runnable and pp.g_p == numt.pow_mod(g, p, N) and pp.g_p != 1, why)
    check("g_p_order_zq", runnable and _has_order(pp.g_p, z * q, (z, q), N), why)
    check("m_matches", pp.m == pzq.bit_length(), f"m = {pp.m}, bitlen = {pzq.bit_length()}")
    return ValidationReport(tuple(checks))


def _render(fields: tuple[str, ...], values: dict[str, str]) -> str:
    return "".join(f"{k} = {values[k]}\n" for k in fields)


def _public_values(pp: PublicParams) -> dict[str, str]:
    return {
        **_FIXED_VALUES,
        "gamma": pp.gamma,
        "n": numt.int_to_hex(pp.N),
        "g_p": numt.int_to_hex(pp.g_p),
        "m": numt.int_to_hex(pp.m),
    }


def render_public(pp: PublicParams) -> str:
    """Canonical public parameter file body (digest input)."""
    return _render(_PUBLIC_FIELDS, _public_values(pp))


def render_master(pp: PublicParams, msk: MasterSecret) -> str:
    values = _public_values(pp)
    values.update((k, numt.int_to_hex(getattr(msk, k))) for k in _SECRET_FIELDS)
    return _render(_MASTER_FIELDS, values)


def params_digest(pp: PublicParams) -> str:
    """Hex SHA-256 of the canonical public file bytes."""
    return hashlib.sha256(render_public(pp).encode()).hexdigest()


def _parse_kv(text: str, fields: tuple[str, ...], path: str) -> dict[str, str]:
    """Exactly one 'key = value' line per field, in order, each ending in a newline."""
    lines = text.split("\n")
    if lines.pop() or len(lines) != len(fields):
        raise FormatError(f"{path}: expected {len(fields)} lines, each ending in a newline")
    values: dict[str, str] = {}
    for lineno, (line, key) in enumerate(zip(lines, fields), 1):
        found, sep, values[key] = line.partition(" = ")
        if found != key or not sep:
            raise FormatError(f"{path}:{lineno}: expected '{key} = value'")
    return values


def _hex_value(values: dict[str, str], key: str, path: str) -> int:
    """values[key] as an integer; an error names the file, line and field, not the value."""
    # the public fields open the master file too, so one index serves both files
    lineno = _MASTER_FIELDS.index(key) + 1
    return numt.hex_to_int(values[key], f"{path}:{lineno}: {key}")


def _params_from_values(values: dict[str, str], path: str) -> PublicParams:
    for key, want in _FIXED_VALUES.items():
        if values[key] != want:
            raise FormatError(f"{path}: {key} must be {want!r}, got {values[key]!r}")
    if values["gamma"] not in ("toy", *_LEVEL_BITS):
        raise FormatError(f"{path}: unknown gamma {values['gamma']!r}")
    return PublicParams(
        N=_hex_value(values, "n", path),
        g_p=_hex_value(values, "g_p", path),
        m=_hex_value(values, "m", path),
        gamma=values["gamma"],
    )


def save_public(pp: PublicParams, path: str):
    artifact.write(path, render_public(pp))


def load_public(path: str) -> PublicParams:
    return _params_from_values(_parse_kv(artifact.read_text(path), _PUBLIC_FIELDS, path), path)


def save_master(pp: PublicParams, msk: MasterSecret, path: str):
    """Master file is the public file plus the secrets; always mode 0600."""
    artifact.write(path, render_master(pp, msk), private=True)


def load_master(path: str) -> tuple[PublicParams, MasterSecret]:
    values = _parse_kv(artifact.read_text(path), _MASTER_FIELDS, path)
    pp = _params_from_values(values, path)
    return pp, MasterSecret(**{k: _hex_value(values, k, path) for k in _SECRET_FIELDS})
