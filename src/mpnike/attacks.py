"""Collusion attacks on the legacy schemes, plus a probe of the main one.

All three follow the same Euclidean recipe: two colluders with public
exponents e_i, e_j compute Bezout coefficients and combine their private
values so the unknown exponents cancel.

 * Fiat-Naor: s*e_i + t*e_j = 1 gives g = d_i**s * d_j**t mod N, the
   master generator, after which any group key can be forged.
 * Eskeland: a*e_i - b*e_j = 1 gives u' = a*d_i - b*d_j, congruent to the
   master secret u modulo phi(N), which is just as good as u.
 * Main scheme: every issued e is even, so gcd(e_i, e_j) = c >= 2 and the
   same combination only reaches the c-th power of the honest group
   element.  Walking back from F**c to F is root extraction modulo a
   composite with hidden factorization; the probe verifies that the
   combined pair still passes the issuer's audit (malleability) while the
   forged key disagrees with the honest one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from . import nike, numt
from .errors import InvalidInput, NotCoprime
from .kgc import KeyPair
from .params import PublicParams


def bezout_pos(x: int, y: int) -> tuple[int, int, int]:
    """(g, a, b) with a*x - b*y = g = gcd(x, y) and a > 0."""
    if x < 1 or y < 1:
        raise InvalidInput("both values must be positive")
    g, s, t = numt.ext_gcd(x, y)
    a, b = s, -t
    while a <= 0:
        a += y // g
        b += x // g
    return g, a, b


def fiat_naor_recover_g(N: int, e_i: int, d_i: int, e_j: int, d_j: int) -> int:
    """Recover the Fiat-Naor master generator from two coprime-e colluders.

    s*e_i + t*e_j = 1 gives d_i**s * d_j**t = g**(s*e_i + t*e_j) = g mod N.
    """
    c, s, t = numt.ext_gcd(e_i, e_j)
    if c != 1:
        raise NotCoprime(f"colluder exponents share gcd {c}")
    return (numt.mod_exp(d_i, s, N) * numt.mod_exp(d_j, t, N)) % N


def fiat_naor_forge_key(N: int, g: int, member_es: Iterable[int]) -> int:
    """Group key for any member set, computed from the recovered g."""
    return numt.exp_chain(g, member_es, N)


def eskeland_recover_u(e_i: int, d_i: int, e_j: int, d_j: int) -> int:
    """u' = a*d_i - b*d_j for a*e_i - b*e_j = 1; u' == u (mod phi(N)).

    Needs no modular arithmetic at all: the masking multiples of phi
    cancel up to a known multiple, and exponentiation only sees u mod
    phi(N) anyway.
    """
    c, a, b = bezout_pos(e_i, e_j)
    if c != 1:
        raise NotCoprime(f"colluder exponents share gcd {c}")
    return a * d_i - b * d_j


def eskeland_forge_group_key(
    N: int, g: int, u_prime: int, target_es: Iterable[int]
) -> int:
    """Forge the Eskeland key of an arbitrary group from recovered u'.

    Matches what a target member computes because each honest d is
    z*u + v*phi and g has order dividing lambda(N) | phi: only the
    residues mod phi(N) survive.
    """
    return numt.exp_chain(numt.mod_exp(g, u_prime, N), target_es, N)


@dataclass(frozen=True)
class ProbeReport:
    """Transcript of one Euclidean-combination attempt on the main scheme."""

    e_i: int
    e_j: int
    gcd: int
    a: int
    b: int
    combined_e: int
    combined_d: int
    forged_F: int
    forged_K: bytes
    combined_passes_audit: Optional[bool]
    matches_honest: Optional[bool]


def proposed_scheme_attack_probe(
    pp: PublicParams,
    pairs: Sequence[KeyPair],
    target_es: Iterable[int],
    honest_key: Optional[bytes] = None,
    pair_checker: Optional[Callable[[int, int], bool]] = None,
) -> ProbeReport:
    """Run the two-colluder Euclidean pipeline against the main scheme.

    Combines the two lowest-e colluders into (gcd, d_i**a * d_j**-b) and
    derives a forged key for target_es with it.  The combined pair is
    expected to pass the issuer audit (pair_checker) while the forged key
    fails to match honest_key, since gcd >= 2 for honestly issued keys.
    """
    if len(pairs) < 2:
        raise InvalidInput("need at least two colluding key pairs")
    ordered = sorted(pairs, key=lambda kp: kp.e)
    kp_i, kp_j = ordered[0], ordered[1]
    c, a, b = bezout_pos(kp_i.e, kp_j.e)
    combined_d = (numt.mod_exp(kp_i.d, a, pp.N) * numt.mod_exp(kp_j.d, -b, pp.N)) % pp.N
    F = numt.exp_chain(combined_d, target_es, pp.N)
    forged_K = nike.kdf(pp, F)
    return ProbeReport(
        e_i=kp_i.e,
        e_j=kp_j.e,
        gcd=c,
        a=a,
        b=b,
        combined_e=c,
        combined_d=combined_d,
        forged_F=F,
        forged_K=forged_K,
        combined_passes_audit=(
            None if pair_checker is None else bool(pair_checker(c, combined_d))
        ),
        matches_honest=(None if honest_key is None else forged_K == honest_key),
    )
