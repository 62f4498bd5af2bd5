"""Public keys alone against the orthogonal-lattice attack.

Nguyen and Stern (*The hardness of the hidden subset sum problem*,
CRYPTO '99): n public keys e = p*y + zq*k satisfy e in span(y, k).  LLL on
the lattice of integer vectors orthogonal to e returns short vectors, and
if its first n - 2 are also orthogonal to y and k (the "span step"), the
lattice orthogonal to those gives back span(y, k) and then p and zq.  That
happens when y and k are much shorter than zq and p, as the half-width
exponents issued before y < zq and k < p were; it must not happen on the
keys `keygen` issues now.
"""

import pytest

from mpnike import kgc, params
from mpnike.numt import Rng

from oracles import issuance_exponents


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def lll(rows):
    """LLL-reduced copy of linearly independent integer rows, in exact integers.

    Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 2.6.7:
    d[i] is the Gram determinant of the first i rows and lam[k][j] the
    integral Gram-Schmidt coefficients (1-based, as in the book), with
    Lovasz constant 0.99.
    """
    b = [list(row) for row in rows]
    n = len(b)
    d = [1, _dot(b[0], b[0])] + [0] * (n - 1)
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def redi(k, l):
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])
            b[k - 1] = [x - q * y for x, y in zip(b[k - 1], b[l - 1])]
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    def swapi(k):
        b[k - 1], b[k - 2] = b[k - 2], b[k - 1]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        B = (d[k - 2] * d[k] + m * m) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - m * t) // d[k - 1]
            lam[i][k - 1] = (B * t + m * lam[i][k]) // d[k]
        d[k - 1] = B

    k, kmax = 2, 1
    while k <= n:
        if k > kmax:
            kmax = k
            for j in range(1, k + 1):
                u = _dot(b[k - 1], b[j - 1])
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                else:
                    assert u != 0, "rows are linearly dependent"
                    d[k] = u
        redi(k, k - 1)
        if 100 * d[k] * d[k - 2] < 99 * d[k - 1] ** 2 - 100 * lam[k][k - 1] ** 2:
            swapi(k)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                redi(k, l)
            k += 1
    return b


def span_step(msk, es):
    """Do the first n - 2 short vectors orthogonal to es also kill y and k?"""
    n = len(es)
    C = 1 << (n * max(es).bit_length() + 64)
    rows = [[int(i == j) for j in range(n)] + [C * e] for i, e in enumerate(es)]
    ys, ks = zip(*(issuance_exponents(msk, e) for e in es))
    return all(_dot(u, ys) == 0 == _dot(u, ks) for u in lll(rows)[: n - 2])


def test_lll_worked_instance():
    reduced = lll([[1, 1, 1], [-1, 0, 2], [3, 5, 6]])
    assert reduced == [[0, 1, 0], [1, 0, 1], [-1, 0, 2]]


@pytest.fixture(scope="module", params=[1, 2, 3], ids=lambda seed: f"seed{seed}")
def toy128(request):
    return params.setup(params.security_level("toy", 128), Rng(request.param))


def test_span_step_finds_half_width_keys(toy128):
    # the width keygen drew before y < zq and k < p: odd, top bit of m/2 set
    pp, msk = toy128
    rng, half = Rng(7), (pp.m + 1) // 2
    es = []
    for _ in range(10):
        y = rng.getrandbits(half) | 1 << (half - 1) | 1
        k = rng.getrandbits(half) | 1 << (half - 1) | 1
        es.append(msk.p * y + msk.z * msk.q * k)
    assert span_step(msk, es)


@pytest.mark.parametrize("n", [10, 16, 24, 40])
def test_span_step_misses_fresh_keys(toy128, n):
    pp, msk = toy128
    store, rng = kgc.new_keystore(pp), Rng(7)
    es = [kgc.keygen(pp, msk, store, f"u{i}", rng).e for i in range(n)]
    assert not span_step(msk, es)
