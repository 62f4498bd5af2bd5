"""Reference implementations of two earlier non-interactive schemes.

Both are implemented faithfully, including the weaknesses exploited in
`attacks`:

 * Fiat-Naor key distribution: RSA modulus N = p*q, secret generator g,
   member key (e, d) with prime e and d = g**e mod N.  The group key for
   W is d_i ** (prod of the other members' e).  Two colluders whose e are
   coprime can recover g itself.

 * Eskeland's group scheme: public generator g, secret u, member key
   d = z*u + v*phi(N) with z = e mod phi(N) and a per-user random v.  The
   group key is g ** (d_i * prod of other e) mod N.  Two colluders can
   recover u modulo phi(N) by a Bezout combination of their d values.

These exist to be broken; do not deploy them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Iterable, Optional

from . import numt
from .errors import EmptyGroup, ExhaustedAttempts, InvalidInput, SelfInGroup
from .numt import Rng

_E_BITS_DEFAULT = 16


def _distinct_primes(bits: int, rng: Rng) -> tuple[int, int]:
    p_bits = bits - bits // 2
    q_bits = bits // 2
    p = numt.random_prime(p_bits, rng)
    for _ in range(64):
        q = numt.random_prime(q_bits, rng)
        if q != p:
            return p, q
    raise ExhaustedAttempts("could not draw two distinct primes")


def _factor_small(n: int, limit: int = 1 << 20) -> Optional[list[int]]:
    """Prime factors of n by trial division, or None if n resists it."""
    factors = []
    rem = n
    d = 2
    while d * d <= rem and d <= limit:
        while rem % d == 0:
            factors.append(d)
            rem //= d
        d += 1 if d == 2 else 2
    if rem > 1:
        if rem <= limit * limit:
            factors.append(rem)
        else:
            return None
    return sorted(set(factors))


def _max_order_unit(N: int, lam: int, rng: Rng, budget: int = 4096) -> int:
    """Unit of multiplicative order lam when lam factors easily, else a
    random unit (the schemes only need g to generate a large subgroup)."""
    primes = _factor_small(lam)
    for _ in range(budget):
        x = rng.randrange(2, N)
        if gcd(x, N) != 1:
            continue
        if primes is None:
            return x
        if all(pow(x, lam // r, N) != 1 for r in primes):
            return x
    raise ExhaustedAttempts("no maximal-order unit found")


@dataclass
class FnParams:
    """Fiat-Naor instance; g, p, q stay with the issuer."""

    N: int
    g: int = field(repr=False)
    p: int = field(repr=False)
    q: int = field(repr=False)
    issued: set[int] = field(default_factory=set, repr=False, compare=False)


@dataclass(frozen=True)
class FnKeyPair:
    e: int
    d: int = field(repr=False)


def fn_setup(bits: int, rng: Rng) -> FnParams:
    if bits < 6:
        raise InvalidInput("modulus too small")
    p, q = _distinct_primes(bits, rng)
    N = p * q
    g = _max_order_unit(N, lcm(p - 1, q - 1), rng)
    return FnParams(N=N, g=g, p=p, q=q)


def fn_keygen(fn: FnParams, rng: Rng, e_bits: int = _E_BITS_DEFAULT) -> FnKeyPair:
    for _ in range(256):
        e = numt.random_prime(e_bits, rng)
        if e not in fn.issued:
            fn.issued.add(e)
            return FnKeyPair(e=e, d=pow(fn.g, e, fn.N))
    raise ExhaustedAttempts("prime exponent space exhausted")


def _peers(my_e: int, others: Iterable[int]) -> list[int]:
    peer_list = list(dict.fromkeys(others))
    if not peer_list:
        raise EmptyGroup("no other members supplied")
    if my_e in peer_list:
        raise SelfInGroup(f"own exponent {my_e} listed as a peer")
    return peer_list


def fn_shared_key(N: int, my_pair: FnKeyPair, others: Iterable[int]) -> int:
    return numt.exp_chain(my_pair.d, _peers(my_pair.e, others), N)


@dataclass
class EskParams:
    """Eskeland instance; u and phi stay with the issuer, g and N are public."""

    N: int
    g: int
    u: int = field(repr=False)
    phi: int = field(repr=False)
    p: int = field(repr=False)
    q: int = field(repr=False)
    used_v: set[int] = field(default_factory=set, repr=False, compare=False)


@dataclass(frozen=True)
class EskKeyPair:
    e: int
    d: int = field(repr=False)


def esk_setup(bits: int, rng: Rng, forced_u: Optional[int] = None) -> EskParams:
    if bits < 6:
        raise InvalidInput("modulus too small")
    p, q = _distinct_primes(bits, rng)
    N = p * q
    phi = (p - 1) * (q - 1)
    g = _max_order_unit(N, lcm(p - 1, q - 1), rng)
    u = forced_u if forced_u is not None else rng.randrange(2, phi)
    if not 1 < u < phi:
        raise InvalidInput("u must lie in (1, phi)")
    return EskParams(N=N, g=g, u=u, phi=phi, p=p, q=q)


def esk_keygen(esk: EskParams, e: int, rng: Rng, forced_v: Optional[int] = None) -> EskKeyPair:
    """Blind the reduced exponent z = e mod phi as d = z*u + v*phi."""
    if e < 2:
        raise InvalidInput("public exponent must be >= 2")
    z = e % esk.phi
    for _ in range(256):
        v = forced_v if forced_v is not None else rng.randrange(1, esk.N)
        if v not in esk.used_v:
            esk.used_v.add(v)
            return EskKeyPair(e=e, d=z * esk.u + v * esk.phi)
        if forced_v is not None:
            raise InvalidInput(f"masking value {v} already used")
    raise ExhaustedAttempts("masking value space exhausted")


def esk_shared_key(N: int, g: int, my_pair: EskKeyPair, others: Iterable[int]) -> int:
    peer_list = _peers(my_pair.e, others)
    return numt.exp_chain(numt.mod_exp(g, my_pair.d, N), peer_list, N)
