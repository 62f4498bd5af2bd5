import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mpnike import numt
from mpnike.errors import ExhaustedAttempts, FormatError, InvalidInput, NotInvertible
from mpnike.numt import Rng, count_mod_exps, exp_chain, ext_gcd, mod_exp

from oracles import sieve, slow_pow


class TestModExp:
    def test_rejects_bad_moduli(self):
        for bad in (14, 16, 0, -35, 100):
            with pytest.raises(InvalidInput):
                mod_exp(2, 3, bad)

    def test_known_values(self):
        assert mod_exp(2, 5, 35) == 32
        assert mod_exp(2, 0, 35) == 1
        assert mod_exp(0, 0, 35) == 1
        assert mod_exp(5, 1, 35) == 5
        # 23^-1 = 32 mod 35, and 32^2 = 1024 = 9 mod 35
        assert mod_exp(23, -2, 35) == 9

    def test_matches_slow_oracle(self):
        rng = Rng(1)
        for _ in range(200):
            b = rng.randrange(0, 101)
            e = rng.randrange(0, 50)
            assert mod_exp(b, e, 101) == slow_pow(b, e, 101)

    def test_negative_exponent_inverts(self):
        rng = Rng(2)
        n = 35341
        for _ in range(100):
            b = rng.randrange(2, n)
            if math.gcd(b, n) != 1:
                continue
            e = rng.randrange(1, 500)
            assert (mod_exp(b, e, n) * mod_exp(b, -e, n)) % n == 1

    def test_base_reduced_mod_n(self):
        assert mod_exp(37, 3, 35) == mod_exp(2, 3, 35)

    def test_not_invertible_carries_factor(self):
        with pytest.raises(NotInvertible) as exc:
            mod_exp(5, -1, 35)
        assert exc.value.factor == 5
        assert 35 % exc.value.factor == 0

    def test_counter(self):
        with count_mod_exps() as outer:
            mod_exp(2, 5, 35)
            with count_mod_exps() as inner:
                mod_exp(2, 5, 35)
                mod_exp(3, 5, 35)
            mod_exp(2, 5, 35)
        assert inner.count == 2
        assert outer.count == 4
        with count_mod_exps() as fresh:
            pass
        assert fresh.count == 0


odd_moduli = st.integers(min_value=7, max_value=1 << 64).map(lambda k: 2 * k + 1)
bases = st.integers(min_value=0, max_value=1 << 70)
exponent_lists = st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=6)


class TestExpChain:
    @settings(max_examples=200, deadline=None)
    @given(n=odd_moduli, base=bases, exps=exponent_lists)
    def test_equals_one_pow_of_distinct_product(self, n, base, exps):
        assert exp_chain(base, exps, n) == pow(base, math.prod(set(exps)), n)

    @settings(max_examples=200, deadline=None)
    @given(n=odd_moduli, base=bases, exps=exponent_lists, data=st.data())
    def test_order_and_repetition_do_not_matter(self, n, base, exps, data):
        shuffled = data.draw(st.permutations(exps + exps[: len(exps) // 2]))
        assert exp_chain(base, shuffled, n) == exp_chain(base, exps, n)

    @settings(max_examples=200, deadline=None)
    @given(n=odd_moduli, base=bases, exps=exponent_lists)
    def test_one_mod_exp_per_distinct_exponent(self, n, base, exps):
        with count_mod_exps() as counter:
            exp_chain(base, exps + exps, n)
        assert counter.count == len(set(exps))


class TestExtGcd:
    def test_known_values(self):
        assert ext_gcd(5, 7) == (1, 3, -2)
        assert ext_gcd(6, 9) == (3, -1, 1)
        assert ext_gcd(0, 5) == (5, 0, 1)
        assert ext_gcd(5, 0) == (5, 1, 0)

    def test_rejects_double_zero(self):
        with pytest.raises(InvalidInput):
            ext_gcd(0, 0)

    def test_bezout_identity_random(self):
        rng = Rng(3)
        for _ in range(2000):
            a = rng.randrange(-(1 << 128), 1 << 128)
            b = rng.randrange(-(1 << 128), 1 << 128)
            if a == 0 and b == 0:
                continue
            g, x, y = ext_gcd(a, b)
            assert g == math.gcd(a, b) > 0
            assert a * x + b * y == g

    def test_mod_inverse(self):
        assert numt.mod_inverse(23, 35) == 32
        with pytest.raises(NotInvertible) as exc:
            numt.mod_inverse(21, 35)
        assert exc.value.factor == 7


class TestPrimality:
    def test_small_known(self):
        for p in (2, 3, 5, 31, 65537):
            assert numt.is_probable_prime(p)
        for c in (0, 1, 4, 341, 561, 65535):
            assert not numt.is_probable_prime(c)

    def test_exhaustive_below_10k(self):
        primes = set(sieve(10_000))
        for n in range(10_000):
            assert numt.is_probable_prime(n) == (n in primes)

    def test_large_pseudoprime_rejected(self):
        # strong pseudoprime to several small bases
        assert not numt.is_probable_prime(3215031751)

    def test_rounds_validated(self):
        with pytest.raises(InvalidInput):
            numt.is_probable_prime(31, rounds=0)


class TestRandomPrime:
    def test_two_bit_allows_both(self):
        rng = Rng(4)
        seen = {numt.random_prime(2, rng) for _ in range(64)}
        assert seen == {2, 3}

    def test_width_and_primality(self):
        rng = Rng(5)
        primes = set(sieve(1 << 10))
        for _ in range(50):
            p = numt.random_prime(9, rng)
            assert p.bit_length() == 9
            assert p in primes

    def test_big_against_sympy(self):
        rng = Rng(6)
        for _ in range(5):
            p = numt.random_prime(128, rng)
            assert p.bit_length() == 128
            assert sympy.isprime(p)

    def test_budget_exhaustion(self):
        with pytest.raises(ExhaustedAttempts):
            numt.random_prime(32, Rng(7), budget=0)

    def test_rejects_tiny_width(self):
        with pytest.raises(InvalidInput):
            numt.random_prime(1, Rng(8))


class TestHex:
    def test_roundtrip(self):
        for n in (0, 1, 15, 16, 255, 713, 1 << 200):
            assert numt.hex_to_int(numt.int_to_hex(n)) == n

    def test_canonical_form(self):
        assert numt.int_to_hex(0) == "0"
        assert numt.int_to_hex(713) == "2c9"

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            numt.int_to_hex(-1)

    def test_rejects_noncanonical(self):
        for bad in ("", "0x1", "ABC", "01", "g", "1 2", "-5"):
            with pytest.raises(FormatError):
                numt.hex_to_int(bad)


class TestRng:
    def test_seeded_determinism(self):
        a, b = Rng(42), Rng(42)
        assert [a.getrandbits(64) for _ in range(10)] == [
            b.getrandbits(64) for _ in range(10)
        ]
        assert a.randbytes(16) == b.randbytes(16)
        assert a.randrange(0, 1 << 32) == b.randrange(0, 1 << 32)

    def test_different_seeds_diverge(self):
        assert Rng(1).getrandbits(128) != Rng(2).getrandbits(128)

    def test_system_rng_works(self):
        r = Rng()
        assert r.getrandbits(64) >= 0
        assert len(r.randbytes(8)) == 8

    def test_validates_arguments(self):
        r = Rng(1)
        with pytest.raises(InvalidInput):
            r.getrandbits(0)
        with pytest.raises(InvalidInput):
            r.randrange(5, 5)
        with pytest.raises(InvalidInput):
            r.randbytes(-1)
