"""Independent reference computations used to check the library.

Deliberately naive: repeated multiplication instead of fast
exponentiation, full order enumeration instead of factored-order tests,
a literal sieve instead of probabilistic primality.
"""


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
