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

from . import numt, params
from .errors import EmptyGroup, ExhaustedAttempts, InvalidInput, SelfInGroup
from .numt import Rng

_E_BITS = 16
_FACTOR_LIMIT = 1 << 20


def _rsa_instance(bits: int, rng: Rng) -> tuple[int, int, int]:
    """(p, q, g): distinct primes of bits - bits//2 and bits//2 bits, then
    g = _max_order_unit modulo N = p*q."""
    if bits < 6:
        raise InvalidInput("modulus too small")
    if bits > params._MAX_BITS:
        raise InvalidInput(f"modulus must be <= {params._MAX_BITS} bits")
    p_bits = bits - bits // 2
    q_bits = bits // 2
    p = numt.random_prime(p_bits, rng)
    q = fresh_prime(q_bits, {p}, rng)
    return p, q, _max_order_unit(p * q, lcm(p - 1, q - 1), rng)


def fresh_prime(bits: int, taken: set[int], rng: Rng) -> int:
    """Prime of exactly `bits` bits outside `taken`, which it joins."""
    for _ in range(256):
        e = numt.random_prime(bits, rng)
        if e not in taken:
            taken.add(e)
            return e
    raise ExhaustedAttempts(f"no fresh {bits}-bit prime in 256 draws")


def _factor_small(n: int) -> Optional[tuple[int, ...]]:
    """Prime factors of n by trial division, or None if n resists it."""
    factors = []
    rem = n
    d = 2
    while d * d <= rem and d <= _FACTOR_LIMIT:
        while rem % d == 0:
            factors.append(d)
            rem //= d
        d += 1 if d == 2 else 2
    if rem > 1:
        if rem <= _FACTOR_LIMIT * _FACTOR_LIMIT:
            factors.append(rem)
        else:
            return None
    return tuple(sorted(set(factors)))


def _max_order_unit(N: int, lam: int, rng: Rng) -> int:
    """Unit of multiplicative order lam when lam factors easily, else a
    random unit (the schemes only need g to generate a large subgroup)."""
    primes = _factor_small(lam)
    for _ in range(4096):
        x = rng.randrange(2, N)
        if gcd(x, N) != 1:
            continue
        if primes is None or params._has_order(x, lam, primes, N):
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
class KeyPair:
    """A member's public exponent e and private value d, in either scheme."""

    e: int
    d: int = field(repr=False)


def fn_setup(bits: int, rng: Rng) -> FnParams:
    p, q, g = _rsa_instance(bits, rng)
    return FnParams(N=p * q, g=g, p=p, q=q)


def fn_keygen(fn: FnParams, rng: Rng) -> KeyPair:
    e = fresh_prime(_E_BITS, fn.issued, rng)
    return KeyPair(e=e, d=numt.pow_mod(fn.g, e, fn.N))


def _peers(my_e: int, others: Iterable[int]) -> list[int]:
    peer_list = list(dict.fromkeys(others))
    if not peer_list:
        raise EmptyGroup("no other members supplied")
    if my_e in peer_list:
        raise SelfInGroup(f"own exponent {my_e} listed as a peer")
    return peer_list


def fn_shared_key(N: int, my_pair: KeyPair, others: Iterable[int]) -> int:
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


def esk_setup(bits: int, rng: Rng) -> EskParams:
    p, q, g = _rsa_instance(bits, rng)
    phi = (p - 1) * (q - 1)
    return EskParams(N=p * q, g=g, u=rng.randrange(2, phi), phi=phi, p=p, q=q)


def esk_keygen(esk: EskParams, e: int, rng: Rng) -> KeyPair:
    """Blind the reduced exponent z = e mod phi as d = z*u + v*phi for a fresh v."""
    if e < 2:
        raise InvalidInput("public exponent must be >= 2")
    z = e % esk.phi
    for _ in range(256):
        v = rng.randrange(1, esk.N)
        if v not in esk.used_v:
            esk.used_v.add(v)
            return KeyPair(e=e, d=z * esk.u + v * esk.phi)
    raise ExhaustedAttempts("masking value space exhausted")


def esk_shared_key(N: int, g: int, my_pair: KeyPair, others: Iterable[int]) -> int:
    peer_list = _peers(my_pair.e, others)
    return numt.exp_chain(numt.mod_exp(g, my_pair.d, N), peer_list, N)
