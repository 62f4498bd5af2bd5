"""Structured-modulus parameter generation for the hidden-subgroup NIKE.

The modulus is N = p' * q' with p' = 2*p*z + 1 and q' = 2*q + 1 for five
distinct primes p, z, q, p', q'.  The multiplicative group mod N then
contains a cyclic subgroup of order p*z*q; a generator g of that subgroup
stays secret, and only g_p = g**p mod N is published.  Raising g_p to
anything collapses the p-component, which is what lets member keys hide
the subgroup structure.

Bit allocation targets an exact modulus width M: q' gets roughly M/3 bits
and p' the rest, split evenly between p and z.  Searches re-draw q' until
bitlen(p' * q') == M.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from math import gcd

from . import numt
from .errors import ExhaustedAttempts, FormatError, InvalidInput
from .numt import Rng

_LEVEL_BITS = {"80": 1024, "112": 2048, "128": 3072}
DEFAULT_LAMBDA_BITS = 256
DEFAULT_HASH_ID = "sha256"
TOY_MIN_BITS = 16
FILE_VERSION = 1

_PUBLIC_FIELDS = ("version", "gamma", "n", "g_p", "hash_id", "lambda", "m")
_MASTER_FIELDS = _PUBLIC_FIELDS + ("p", "z", "q", "g", "p_prime", "q_prime")


@dataclass(frozen=True)
class SecurityLevel:
    """Named level mapped to a modulus width and a derived-key width."""

    gamma: str
    modulus_bits: int
    lambda_bits: int


def security_level(name: str, toy_bits: int = TOY_MIN_BITS) -> SecurityLevel:
    """Resolve a level name; "toy" takes an explicit modulus width >= 16."""
    if name == "toy":
        if toy_bits < TOY_MIN_BITS:
            raise InvalidInput(f"toy modulus must be >= {TOY_MIN_BITS} bits")
        return SecurityLevel("toy", toy_bits, DEFAULT_LAMBDA_BITS)
    if name in _LEVEL_BITS:
        return SecurityLevel(name, _LEVEL_BITS[name], DEFAULT_LAMBDA_BITS)
    raise InvalidInput(f"unknown security level {name!r}")


@dataclass(frozen=True)
class PublicParams:
    """Everything a protocol participant is allowed to see."""

    N: int
    g_p: int
    hash_id: str
    lambda_bits: int
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


def _bit_split(modulus_bits: int) -> tuple[int, int, int, int, int]:
    """(p_bits, z_bits, q_bits, p'_bits, q'_bits) summing to the target."""
    q_bits = (modulus_bits - 1) // 3
    qp_bits = q_bits + 1
    pp_bits = modulus_bits - qp_bits
    pz_bits = pp_bits - 1
    p_bits = (pz_bits + 1) // 2
    z_bits = pz_bits - p_bits
    return p_bits, z_bits, q_bits, pp_bits, qp_bits


# searches run Miller-Rabin with few rounds to discard candidates cheaply;
# setup re-certifies every surviving prime at full strength afterwards
_SEARCH_ROUNDS = 2


def _search_q_side(q_bits: int, rng: Rng, budget: int) -> tuple[int, int]:
    """Find prime q with 2*q + 1 prime; bitlen(2q+1) == q_bits + 1 always."""
    for _ in range(budget):
        q = numt.random_prime(q_bits, rng, rounds=_SEARCH_ROUNDS)
        cand = 2 * q + 1
        if numt.is_probable_prime(cand, _SEARCH_ROUNDS, rng):
            return q, cand
    raise ExhaustedAttempts(f"no {q_bits}-bit q with prime 2q+1 in {budget} draws")


def _search_p_side(
    p_bits: int, z_bits: int, target_bits: int, rng: Rng, budget: int
) -> tuple[int, int, int]:
    """Find primes p, z with 2*p*z + 1 prime and exactly target_bits wide.

    Fixes p, then draws z only from the window that puts p*z inside
    [2**(target_bits - 2), 2**(target_bits - 1)), so every surviving
    candidate already has the right width.
    """
    tries = 0
    while tries < budget:
        p = numt.random_prime(p_bits, rng, rounds=_SEARCH_ROUNDS)
        lo = max(1 << (z_bits - 1), -(-(1 << (target_bits - 2)) // p))
        hi = min(1 << z_bits, ((1 << (target_bits - 1)) - 1) // p + 1)
        if lo >= hi:
            tries += 1
            continue
        for _ in range(512):
            tries += 1
            if tries > budget:
                break
            z = rng.randrange(lo, hi) | 1
            if z >= hi or z == p:
                continue
            cand = 2 * p * z + 1
            if cand.bit_length() != target_bits:
                continue
            if not numt.is_probable_prime(z, _SEARCH_ROUNDS, rng):
                continue
            if numt.is_probable_prime(cand, _SEARCH_ROUNDS, rng):
                return p, z, cand
    raise ExhaustedAttempts(
        f"no (p, z) with prime 2pz+1 of {target_bits} bits in {budget} draws"
    )


def _check_forced(primes: tuple[int, int, int]) -> tuple[int, int, int, int, int]:
    p, z, q = primes
    for v in (p, z, q):
        if v < 3 or not numt.is_probable_prime(v):
            raise InvalidInput(f"forced value {v} is not an odd prime")
    if len({p, z, q}) != 3:
        raise InvalidInput("forced primes must be pairwise distinct")
    p_prime = 2 * p * z + 1
    q_prime = 2 * q + 1
    for v in (p_prime, q_prime):
        if not numt.is_probable_prime(v):
            raise InvalidInput(f"derived factor {v} is not prime")
    if len({p, z, q, p_prime, q_prime}) != 5:
        raise InvalidInput("derived factors collide with the forced primes")
    return p, z, q, p_prime, q_prime


def _has_order(x: int, order: int, primes: tuple[int, ...], N: int) -> bool:
    """x has multiplicative order exactly `order` mod N, given its prime factors."""
    return pow(x, order, N) == 1 and all(pow(x, order // r, N) != 1 for r in primes)


def find_generator(p: int, z: int, q: int, N: int, rng: Rng, budget: int = 1000) -> int:
    """Generator of the order p*z*q subgroup mod N.

    Fourth powers of units land in the subgroup (the group of units has
    order 4*p*z*q); a candidate is accepted once no proper divisor of
    p*z*q annihilates it.
    """
    for _ in range(budget):
        x = rng.randrange(2, N)
        if gcd(x, N) != 1:
            continue
        c = pow(x, 4, N)
        if _has_order(c, p * z * q, (p, z, q), N):
            return c
    raise ExhaustedAttempts(f"no subgroup generator found in {budget} draws")


def setup(
    level: SecurityLevel,
    rng: Rng,
    forced_primes: tuple[int, int, int] | None = None,
    budget: int = 500_000,
) -> tuple[PublicParams, MasterSecret]:
    """Generate a parameter set for the given level.

    With forced_primes=(p, z, q) the search is skipped and only the
    structural constraints are enforced (the exact-width requirement does
    not apply to forced toy instances).
    """
    if forced_primes is not None:
        p, z, q, p_prime, q_prime = _check_forced(forced_primes)
    else:
        M = level.modulus_bits
        p_bits, z_bits, q_bits, pp_bits, qp_bits = _bit_split(M)
        found = False
        for _ in range(32):
            p, z, p_prime = _search_p_side(p_bits, z_bits, pp_bits, rng, budget)
            # the q side is cheap: re-draw it until the product width is
            # exact, giving up on this p side only after several misses
            for _ in range(16):
                q, q_prime = _search_q_side(q_bits, rng, budget)
                if len({p, z, q, p_prime, q_prime}) != 5:
                    continue
                if (p_prime * q_prime).bit_length() != M:
                    continue
                # certify at full strength what the search only screened
                if all(
                    numt.is_probable_prime(v, rng=rng)
                    for v in (p, z, q, p_prime, q_prime)
                ):
                    found = True
                    break
            if found:
                break
        if not found:
            raise ExhaustedAttempts(f"could not hit an exact {M}-bit modulus")
    N = p_prime * q_prime
    g = find_generator(p, z, q, N, rng)
    g_p = pow(g, p, N)
    m = (p * z * q).bit_length()
    pp = PublicParams(
        N=N,
        g_p=g_p,
        hash_id=DEFAULT_HASH_ID,
        lambda_bits=level.lambda_bits,
        m=m,
        gamma=level.gamma,
    )
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
    check("modulus_odd", N % 2 == 1 and N >= 15, f"N = {N}")
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
    check("g_order_pzq", _has_order(g, pzq, (p, z, q), N))
    check("g_p_value", pp.g_p == pow(g, p, N) and pp.g_p != 1)
    check("g_p_order_zq", _has_order(pp.g_p, z * q, (z, q), N))
    check("m_matches", pp.m == pzq.bit_length(), f"m = {pp.m}, bitlen = {pzq.bit_length()}")
    try:
        digest_bits = 8 * hashlib.new(pp.hash_id).digest_size
        check("hash_known", True, pp.hash_id)
    except ValueError:
        digest_bits = 0
        check("hash_known", False, pp.hash_id)
    check(
        "lambda_fits",
        0 < pp.lambda_bits <= digest_bits and pp.lambda_bits % 8 == 0,
        f"lambda = {pp.lambda_bits}, digest = {digest_bits}",
    )
    return ValidationReport(tuple(checks))


def _render(fields: tuple[str, ...], values: dict[str, str]) -> str:
    return "".join(f"{k} = {values[k]}\n" for k in fields)


def _public_values(pp: PublicParams) -> dict[str, str]:
    return {
        "version": numt.int_to_hex(FILE_VERSION),
        "gamma": pp.gamma,
        "n": numt.int_to_hex(pp.N),
        "g_p": numt.int_to_hex(pp.g_p),
        "hash_id": pp.hash_id,
        "lambda": numt.int_to_hex(pp.lambda_bits),
        "m": numt.int_to_hex(pp.m),
    }


def render_public(pp: PublicParams) -> str:
    """Canonical public parameter file body (digest input)."""
    return _render(_PUBLIC_FIELDS, _public_values(pp))


def render_master(pp: PublicParams, msk: MasterSecret) -> str:
    values = _public_values(pp)
    values.update(
        p=numt.int_to_hex(msk.p),
        z=numt.int_to_hex(msk.z),
        q=numt.int_to_hex(msk.q),
        g=numt.int_to_hex(msk.g),
        p_prime=numt.int_to_hex(msk.p_prime),
        q_prime=numt.int_to_hex(msk.q_prime),
    )
    return _render(_MASTER_FIELDS, values)


def params_digest(pp: PublicParams) -> str:
    """Hex digest (lambda bits) of the canonical public file bytes."""
    dig = hashlib.new(pp.hash_id, render_public(pp).encode()).digest()
    return dig[: pp.lambda_bits // 8].hex()


def _parse_kv(text: str, fields: tuple[str, ...], path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        key, sep, value = line.partition(" = ")
        if not sep or not key or key != key.strip():
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        if key in values:
            raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    missing = [k for k in fields if k not in values]
    extra = [k for k in values if k not in fields]
    if missing or extra:
        raise FormatError(f"{path}: missing {missing}, unexpected {extra}")
    return values


def _params_from_values(values: dict[str, str], path: str) -> PublicParams:
    if numt.hex_to_int(values["version"]) != FILE_VERSION:
        raise FormatError(f"{path}: unsupported version {values['version']!r}")
    return PublicParams(
        N=numt.hex_to_int(values["n"]),
        g_p=numt.hex_to_int(values["g_p"]),
        hash_id=values["hash_id"],
        lambda_bits=numt.hex_to_int(values["lambda"]),
        m=numt.hex_to_int(values["m"]),
        gamma=values["gamma"],
    )


def save_public(pp: PublicParams, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_public(pp))


def load_public(path: str) -> PublicParams:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _params_from_values(_parse_kv(text, _PUBLIC_FIELDS, path), path)


def save_master(pp: PublicParams, msk: MasterSecret, path: str):
    """Master file is the public file plus the five secrets; mode 0600."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(render_master(pp, msk))


def load_master(path: str) -> tuple[PublicParams, MasterSecret]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    values = _parse_kv(text, _MASTER_FIELDS, path)
    pp = _params_from_values(values, path)
    msk = MasterSecret(
        p=numt.hex_to_int(values["p"]),
        z=numt.hex_to_int(values["z"]),
        q=numt.hex_to_int(values["q"]),
        g=numt.hex_to_int(values["g"]),
        p_prime=numt.hex_to_int(values["p_prime"]),
        q_prime=numt.hex_to_int(values["q_prime"]),
    )
    return pp, msk
