import math
import re
import sys
import threading

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpnike import numt
from mpnike.errors import ExhaustedAttempts, FormatError, InvalidInput, NotInvertible
from mpnike.numt import Rng, count_mod_exps, exp_chain, mod_exp

from conftest import ScriptedRng, without_libcrypto
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

    def test_not_invertible_message_names_no_value(self):
        # the gcd with a secret modulus is one of its factors
        p, q = 1000003, 999983
        with pytest.raises(NotInvertible) as exc:
            mod_exp(7 * p, -1, p * q)
        assert (exc.value.value, exc.value.modulus, exc.value.factor) == (7 * p, p * q, p)
        for value in (7 * p, p * q, p):
            assert str(value) not in str(exc.value)
            assert f"{value:x}" not in str(exc.value)

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

    def test_counter_sees_only_its_own_thread(self):
        # a block counts the calls of its own context; another thread's calls,
        # made while the block is open, land in that thread's counter alone
        seen = []

        def worker():
            with count_mod_exps() as theirs:
                for _ in range(5):
                    mod_exp(2, 5, 35)
            seen.append(theirs.count)

        with count_mod_exps() as ours:
            mod_exp(3, 5, 35)
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert (ours.count, seen) == (1, [5])


@st.composite
def wide_odd_moduli(draw):
    bits = draw(st.integers(min_value=4, max_value=3072))
    lo = max(15, 1 << (bits - 1))
    return draw(st.integers(min_value=lo, max_value=(1 << bits) - 1)) | 1


class TestModExpWide:
    """mod_exp against the builtin pow up to 3072-bit moduli."""

    @settings(max_examples=150, deadline=None)
    @given(n=wide_odd_moduli(), data=st.data())
    def test_equals_builtin_pow(self, n, data):
        bits = n.bit_length()
        base = data.draw(st.integers(min_value=-(1 << (bits + 8)), max_value=1 << (bits + 8)))
        exp = data.draw(st.integers(min_value=0, max_value=1 << bits))
        assert mod_exp(base, exp, n) == pow(base, exp, n)
        assert numt.pow_mod(base, exp, n) == pow(base, exp, n)
        assert numt.pow_secret(base, exp, n) == pow(base, exp, n)

    @settings(max_examples=100, deadline=None)
    @given(n=wide_odd_moduli(), data=st.data())
    def test_negative_exponent_on_units(self, n, data):
        base = data.draw(st.integers(min_value=2, max_value=n - 1))
        exp = data.draw(st.integers(min_value=1, max_value=1 << n.bit_length()))
        if math.gcd(base, n) != 1:
            with pytest.raises(NotInvertible) as exc:
                mod_exp(base, -exp, n)
            assert exc.value.factor == math.gcd(base, n)
        else:
            assert mod_exp(base, -exp, n) == pow(base, -exp, n)

    @pytest.mark.parametrize("bits", [4, 64, 1024, 3072])
    def test_edge_bases_and_exponents(self, bits):
        n = max(15, (1 << bits) - 1)
        for base in (0, 1, -1, n - 1, n, n + 1, 2 * n + 3, -n - 2):
            for exp in (0, 1, 2, 3, 65537):
                assert mod_exp(base, exp, n) == pow(base, exp, n)
                assert numt.pow_secret(base, exp, n) == pow(base, exp, n)
        assert mod_exp(0, 0, n) == 1
        assert mod_exp(0, 5, n) == 0

    def test_results_with_leading_zero_bytes(self):
        # the native result is padded to the modulus width; small values
        # come back with most of their bytes zero
        n = (1 << 1024) - 105  # odd
        for value in (1, 2, 255, 256, 1 << 500):
            assert mod_exp(value, 1, n) == value
        assert mod_exp(n - 1, 2, n) == 1
        assert mod_exp(2, 1000, n) == 1 << 1000

    def test_not_invertible_factor_at_1024_bits(self):
        p, q = sympy.nextprime(1 << 511), sympy.nextprime(3 << 510)
        n = p * q
        for base in (p, 5 * q, p * q + p):
            with pytest.raises(NotInvertible) as exc:
                mod_exp(base, -3, n)
            assert exc.value.factor == math.gcd(base, n)
        assert mod_exp(7, -3, n) == pow(7, -3, n)

    def test_chain_equals_one_pow_at_1024_bits(self):
        rng = Rng(11)
        n = rng.getrandbits(1024) | (1 << 1023) | 1
        base = rng.getrandbits(1030)
        exps = [rng.getrandbits(1024) for _ in range(6)]
        exps += exps[:2]
        with count_mod_exps() as counter:
            got = exp_chain(base, exps, n)
        assert got == pow(base, math.prod(set(exps)), n)
        assert counter.count == 6


class TestPowMod:
    """pow_mod and pow_secret, its constant-time form, check and compute alike."""

    def test_rejects_negative_exponent_and_even_moduli(self):
        for power in (numt.pow_mod, numt.pow_secret):
            for exp, n in ((-1, 35), (3, 0), (3, 2), (3, 100), (3, -35), (3, 1 << 1024)):
                with pytest.raises(InvalidInput) as exc:
                    power(123457, exp, n)
                assert not re.search(r"\d{3}", str(exc.value))  # names no value

    def test_small_odd_moduli(self):
        for power in (numt.pow_mod, numt.pow_secret):
            for n in (1, 3, 5, 7, 9, 13):
                for base in (-3, 0, 1, 2, n + 2):
                    assert power(base, 5, n) == pow(base, 5, n)

    @pytest.mark.parametrize("libcrypto", [True, False], ids=["libcrypto", "builtin"])
    def test_public_functions_equal_builtin_pow(self, monkeypatch, libcrypto):
        # zero bases, zero exponents and modulus 1, where libcrypto's two-base step
        # differs from the builtin's; [1 << 200] gives that step a zero low exponent
        if not libcrypto:
            without_libcrypto(monkeypatch)
        chains = ([], [0], [1, 2], [7, 2**64 + 1], [2**64 + 1, 2**64 + 3],
                  [2**64 + 1, 3**80, 7], [1 << 200], [(1 << 300) - 1])
        for n in (1, 3, 15, 2**61 - 1, 2**127 - 1):
            for base in range(6):
                for exp in (0, 1, 2, 7, 2**64 + 1):
                    want = pow(base, exp, n)
                    assert numt.pow_mod(base, exp, n) == numt.pow_secret(base, exp, n) == want
                for exps in chains:
                    got, _ = numt.fixed_base_chain((base % n,), exps, n)
                    assert got == pow(base, math.prod(exps), n)

    def test_uncounted(self):
        with count_mod_exps() as counter:
            numt.pow_mod(2, 5, 35)
            numt.pow_secret(2, 5, 35)
            mod_exp(2, 5, 35)
        assert counter.count == 1


class TestBackend:
    def test_native_backend_loaded_where_hashlib_is(self):
        # a silent fallback to pow would keep every result right and lose
        # the speed, so the backend itself is checked
        pytest.importorskip("_hashlib")
        if not sys.platform.startswith("linux"):
            pytest.skip("libcrypto symbols are reached through _hashlib on Linux")
        lib = numt._LIBCRYPTO
        assert lib is not None
        assert (numt._pow.func, numt._pow.args) == (numt._bn_call, (lib.BN_mod_exp_mont,))
        assert (numt._pow_secret.func, numt._pow_secret.args) == (
            numt._bn_call, (lib.BN_mod_exp_mont_consttime,)
        )

    def test_threads_agree_with_pow(self):
        rng = Rng(12)
        n = rng.getrandbits(1024) | (1 << 1023) | 1
        cases = [(rng.getrandbits(1024), rng.getrandbits(1024)) for _ in range(20)]
        want = [pow(b, e, n) for b, e in cases]
        wrong = []

        def worker(offset):
            for i in range(200):
                k = (i + offset) % len(cases)
                if mod_exp(*cases[k], n) != want[k]:
                    wrong.append(k)

        # more threads than cores, switching often; each call owns its context
        threads = [threading.Thread(target=worker, args=(5 * t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


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


class TestFixedBaseChain:
    """fixed_base_chain against one builtin pow of the distinct product."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=1 << 80).map(lambda k: 2 * k + 1),
        base=bases,
        exps=st.lists(st.integers(min_value=0, max_value=1 << 90), max_size=40),
    )
    def test_equals_one_pow_first_use_and_reuse(self, n, base, exps):
        want = pow(base, math.prod(set(exps)), n)
        got, table = numt.fixed_base_chain((base % n,), exps + exps[:3], n)
        assert got == want and table[0] == base % n
        assert all(b == pow(a, 1 << n.bit_length(), n) for a, b in zip(table, table[1:]))
        again, kept = numt.fixed_base_chain(table, exps, n)
        assert again == want and kept[: len(table)] == table

    @pytest.mark.parametrize("bits", [64, 1024])
    def test_past_the_table_cap(self, bits):
        rng = Rng(bits)
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        base = rng.getrandbits(bits) % n
        exps = [rng.getrandbits(bits) for _ in range(2 * numt._TABLE_POWERS + 9)]
        got, table = numt.fixed_base_chain((base,), exps, n)
        assert len(table) == numt._TABLE_POWERS + 1
        assert got == pow(base, math.prod(exps), n)
        assert numt.fixed_base_chain(table, exps[:7], n)[0] == pow(base, math.prod(exps[:7]), n)

    def test_rejects_even_moduli_and_negative_exponents(self):
        for exps, n in (([3], 0), ([3], 100), ([3], -35), ([3, -1], 35)):
            with pytest.raises(InvalidInput):
                numt.fixed_base_chain((2,), exps, n)

    def test_uncounted(self):
        with count_mod_exps() as counter:
            numt.fixed_base_chain((2,), [1 << 100, 3 << 90, 5], 35)
        assert counter.count == 0

    def test_product_tree(self):
        for size in (0, 1, 2, 3, 7, 64):
            values = list(range(2, 2 + size))
            assert numt._product(values) == math.prod(values)

    def test_native_two_base_exponentiation(self):
        pytest.importorskip("_hashlib")
        if numt._LIBCRYPTO is None:
            pytest.skip("libcrypto did not load")
        rng = Rng(13)
        n = rng.getrandbits(1024) | (1 << 1023) | 1
        for _ in range(10):
            a1, a2 = rng.getrandbits(1024) % n, rng.getrandbits(1024) % n
            p1, p2 = rng.getrandbits(2048), rng.getrandbits(700)
            assert numt._pow2(a1, p1, a2, p2, n) == numt._builtin_pow2(a1, p1, a2, p2, n)
        # a result with leading zero bytes comes back padded, then parsed
        assert numt._pow2(2, 100, 2, 200, n) == 1 << 300
        assert numt._pow2(n - 1, 1, n - 1, 1, n) == 1


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

    def test_exhaustive_across_table_and_proof_bounds(self):
        # the small-prime table ends at 4096; the exact range runs on to 4096**2
        primes = set(sieve(70_000))
        for n in range(10_000, 70_000):
            assert numt.is_probable_prime(n) == (n in primes)

    def test_equals_sympy_below_2_16(self):
        for n in range(1 << 16):
            assert numt.is_probable_prime(n) == sympy.isprime(n), n

    def test_equals_sympy_up_to_the_trial_proof_limit(self):
        rng = Rng(13)
        limit = numt._TRIAL_PROOF_LIMIT
        assert limit == 4096**2
        sampled = [rng.randrange(1 << 16, limit) for _ in range(20_000)]
        edges = list(range(limit - 3000, limit + 3000))
        for n in sampled + edges + [4093 * 4099, 4099**2, 4093**2, 4091 * 4093]:
            assert numt.is_probable_prime(n) == sympy.isprime(n), n

    def test_no_draws_below_the_trial_proof_limit(self):
        def fail():
            raise AssertionError("is_probable_prime drew below 4096**2")
            yield

        rng = ScriptedRng(fail())
        for n in (*range(1 << 16, (1 << 16) + 500), *range((1 << 24) - 500, 1 << 24)):
            numt.is_probable_prime(n, rng=rng)
        # from 4096**2 on, a candidate with no small factor takes Miller-Rabin
        first = sympy.nextprime(4096**2)
        with pytest.raises(AssertionError, match="drew"):
            numt.is_probable_prime(first, rng=rng)

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
        class Zeros(Rng):
            def getrandbits(self, bits):
                return 0

        # every candidate is 2**31 + 1 = 3 * 715827883
        with pytest.raises(ExhaustedAttempts):
            numt.random_prime(32, Zeros(7))

    def test_draws_only_odd_candidates(self, monkeypatch):
        seen = []
        real = numt.is_probable_prime
        monkeypatch.setattr(
            numt, "is_probable_prime", lambda n, *a: seen.append(n) or real(n, *a)
        )
        for bits in (3, 9, 64, 341):
            numt.random_prime(bits, Rng(bits))
        assert len(seen) > 4 and all(n % 2 for n in seen)

    def test_rejects_tiny_width(self):
        with pytest.raises(InvalidInput):
            numt.random_prime(1, Rng(8))


# oracle: the canonical-hex language int_to_hex writes, as a regular expression
_CANONICAL_HEX_RE = re.compile(r"\A(?:0|[1-9a-f][0-9a-f]*)\Z")


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

    def test_error_names_the_field_not_the_value(self):
        with pytest.raises(FormatError) as exc:
            numt.hex_to_int("09b1c3d4e5", "ks.tsv:3: d")
        assert str(exc.value) == "ks.tsv:3: d is not canonical lowercase hex"
        assert "9b1c3d4e5" not in str(exc.value)

    @settings(max_examples=300, deadline=None)
    @given(
        s=st.one_of(
            st.text(),
            st.text(alphabet="0123456789abcdefABCDEFxX_+- \t\n\u0661\uff11"),
            st.from_regex(_CANONICAL_HEX_RE),
        )
    )
    @example(s="")
    @example(s="0")
    @example(s="00")
    @example(s="0x1f")
    @example(s="1_0")
    @example(s="+1")
    @example(s="-1")
    @example(s=" 1")
    @example(s="1\n")
    @example(s="A")
    @example(s="0a")
    @example(s="\u0661")
    @example(s="1\u0661")
    def test_accepts_exactly_the_canonical_language(self, s):
        if _CANONICAL_HEX_RE.match(s):
            assert numt.hex_to_int(s) == int(s, 16)
        else:
            with pytest.raises(FormatError):
                numt.hex_to_int(s)


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
