"""Collusion attacks on the legacy schemes and on the main one.

All three follow the same Euclidean recipe: two colluders with public
exponents e_i, e_j compute Bezout coefficients and combine their private
values so the unknown exponents cancel.

 * Fiat-Naor: `collude`'s c = 1 gives g = d_i**a * d_j**-b mod N, the
   master generator, after which any group key can be forged.
 * Eskeland: `eskeland_collude`'s c = 1 gives u' = a*d_i - b*d_j, congruent
   to the master secret u modulo phi(N), which is just as good as u.
 * Main scheme: every private key is d = h**e for the issuer's hidden
   base h, and F_W = h**(prod e_W).  Every issued e is even, so
   gcd(e_i, e_j) = c >= 2 and the combination reaches h**c, which passes
   the issuer's audit as the pair (c, h**c).  Raised to prod e_W it
   reaches only F_W**c; `forge_by_division` raises it to prod e_W / c,
   which is F_W whenever c divides prod e_W.  Every e is even, so c = 2
   is common: two colluders forge the key of any group.

The paper rests the main scheme on the hardness of root extraction modulo
a composite.  That assumption stops applying exactly when c divides
prod e_W: the forgery then takes no root at all.  Every e is even, so any
power of 2 in c up to 2**|W| divides; the colluders need a root only when
c has a factor that no target e supplies, and one more colluder often
removes it.  This is the repository's own finding against its own
implementation.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Iterable, Optional

from . import numt
from .errors import InvalidInput, NotCoprime


def bezout_pos(x: int, y: int) -> tuple[int, int, int]:
    """(g, a, b) with a*x - b*y = g = gcd(x, y) and 0 < a <= y // g (a is unique)."""
    if x < 1 or y < 1:
        raise InvalidInput("both values must be positive")
    g = gcd(x, y)
    a = pow(x // g, -1, y // g) or 1  # the inverse mod 1 is 0
    return g, a, (a * x - g) // y


def collude(N: int, e_i: int, d_i: int, e_j: int, d_j: int) -> tuple[int, int, int, int]:
    """(c, a, b, d_i**a * d_j**-b mod N) for a*e_i - b*e_j = c = gcd(e_i, e_j).

    Keys d = x**e of one unknown base x combine to x**c in two counted
    `mod_exp`s; (c, x**c) is again such a pair, so the step folds over more.
    """
    c, a, b = bezout_pos(e_i, e_j)
    return c, a, b, numt.mod_exp(d_i, a, N) * numt.mod_exp(d_j, -b, N) % N


def forge_by_division(N: int, c: int, hc: int, target_es: Iterable[int]) -> Optional[int]:
    """hc**(prod e_W / c) mod N over the distinct target_es in one counted `mod_exp`, or
    None when c does not divide that product; for `collude`'s hc = h**c it is F_W."""
    product = prod(set(target_es))
    return None if product % c else numt.mod_exp(hc, product // c, N)


def fiat_naor_recover_g(N: int, e_i: int, d_i: int, e_j: int, d_j: int) -> int:
    """The Fiat-Naor master generator from two coprime-e colluders: `collude`'s c = 1."""
    c = gcd(e_i, e_j)
    if c != 1:  # before any exponentiation
        raise NotCoprime(f"colluder exponents share gcd {c}")
    return collude(N, e_i, d_i, e_j, d_j)[3]


def fiat_naor_forge_key(N: int, g: int, member_es: Iterable[int]) -> int:
    """Group key for any member set, computed from the recovered g."""
    return numt.exp_chain(g, member_es, N)


def eskeland_collude(e_i: int, d_i: int, e_j: int, d_j: int) -> tuple[int, int, int, int]:
    """(c, a, b, a*d_i - b*d_j) for a*e_i - b*e_j = c = gcd(e_i, e_j).

    `collude` over the integers: Eskeland's d are z*u + v*phi, not powers,
    so the combination is linear and needs no modular arithmetic at all.
    """
    c, a, b = bezout_pos(e_i, e_j)
    return c, a, b, a * d_i - b * d_j


def eskeland_recover_u(e_i: int, d_i: int, e_j: int, d_j: int) -> int:
    """u' = a*d_i - b*d_j for a*e_i - b*e_j = 1: `eskeland_collude`'s c = 1 case.

    u' == u (mod phi(N)): the masking multiples of phi cancel up to a known
    multiple, and exponentiation only sees u mod phi(N) anyway.
    """
    c, _, _, u_prime = eskeland_collude(e_i, d_i, e_j, d_j)
    if c != 1:
        raise NotCoprime(f"colluder exponents share gcd {c}")
    return u_prime


def eskeland_forge_group_key(
    N: int, g: int, u_prime: int, target_es: Iterable[int]
) -> int:
    """Forge the Eskeland key of an arbitrary group from recovered u'.

    Matches what a target member computes because each honest d is
    z*u + v*phi and g has order dividing lambda(N) | phi: only the
    residues mod phi(N) survive.
    """
    return numt.exp_chain(numt.mod_exp(g, u_prime, N), target_es, N)
