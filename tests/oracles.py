"""Independent reference computations used to check the library.

Deliberately naive: repeated multiplication instead of fast
exponentiation, full order enumeration instead of factored-order tests,
a literal sieve instead of probabilistic primality.
"""

from math import gcd


def slow_pow(base: int, exp: int, n: int) -> int:
    """base**exp mod n by repeated multiplication; exp must be >= 0."""
    assert exp >= 0
    acc = 1 % n
    for _ in range(exp):
        acc = (acc * base) % n
    return acc


def element_order(x: int, n: int) -> int:
    """Multiplicative order of x mod n by stepping through its powers."""
    assert x % n != 0
    acc = x % n
    order = 1
    while acc != 1:
        acc = (acc * x) % n
        order += 1
        assert order <= n, "x is not a unit"
    return order


def sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = 0
    return [i for i in range(limit) if flags[i]]


def closed_form_group_element(msk, N: int, ys: list[int]) -> int:
    """The group element every member should reach, straight from the
    master secret: g ** (p^|W| * prod y) with the exponent reduced mod
    the subgroup order."""
    pzq = msk.p * msk.z * msk.q
    exp = pow(msk.p, len(ys), pzq)
    for y in ys:
        exp = (exp * y) % pzq
    return pow(msk.g, exp, N)


def issuance_exponents(msk, e: int) -> tuple[int, int]:
    """(y, k) with e = p*y + z*q*k, recovered from e and the master secret.

    keygen draws y below z*q, and every scripted y in the tests is below it
    too, so y is the residue e * p^-1 mod z*q and k is what remains.
    """
    zq = msk.z * msk.q
    y = e * pow(msk.p, -1, zq) % zq
    k, rest = divmod(e - msk.p * y, zq)
    assert rest == 0 and 0 < y < zq and k > 0
    return y, k


def forgeable(colluder_es: list[int], target_es: list[int]) -> bool:
    """Do the colluders forge the targets' group key?  They reach h**c for c the
    gcd of their e, and F_W = h**(prod e_W) by division when c divides the
    product of the distinct target e."""
    c = 0
    for e in colluder_es:
        c = gcd(c, e)
    product = 1
    for e in set(target_es):
        product *= e
    return product % c == 0


def forge_rate(targets: int, colluders: int) -> float:
    """The modelled chance that `colluders` issued keys forge the group key of
    `targets` other members, that is, that `forgeable` holds.

    Division works exactly when, for every prime r, the power of r in the
    colluders' gcd c is at most its power in prod e_W.  The model takes the
    power of r in each e as independent and geometric: r**j divides e with
    chance r**-j for odd r, and 2**j with chance 2**-(j-1), since every e is
    even.  Summing over the power s of r in prod e_W (a negative binomial),
    the chance that r stops the division is

        (1 - 1/r)**n * r**-k * (1 - r**-(k+1))**-n       for odd r,
        2**-(k*n) * (1/2)**n * (1 - 2**-(k+1))**-n      for r = 2,

    with n = targets and k = colluders; the rate is the product of one minus
    these.  For k >= 2 a prime above a few thousand almost never divides two
    e at once, so the product stops at 3000.
    """
    rate = 1.0
    for r in sieve(3000):
        spread = 1 - r ** -(colluders + 1)
        if r == 2:
            stop = 2.0 ** -(colluders * targets) * (0.5 / spread) ** targets
        else:
            stop = r**-colluders * ((1 - 1 / r) / spread) ** targets
        rate *= 1 - stop
    return rate
