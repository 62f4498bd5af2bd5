import math
from itertools import repeat

import pytest

from mpnike import legacy, numt
from mpnike.errors import EmptyGroup, ExhaustedAttempts, InvalidInput, SelfInGroup
from mpnike.legacy import EskParams, FnParams, KeyPair
from mpnike.numt import Rng

from conftest import ScriptedRng
from oracles import element_order, slow_pow

# worked toy instance: N = 5*7, g = 2 (maximal order since lambda(35) = 12)
FN35 = FnParams(N=35, g=2, p=5, q=7)


class TestFiatNaor:
    def test_toy_generator_order(self):
        assert element_order(2, 35) == 12

    def test_toy_shared_key(self):
        a = KeyPair(e=5, d=32)  # 2^5
        b = KeyPair(e=7, d=23)  # 2^7 = 128 = 23 mod 35
        assert pow(2, 5, 35) == 32 and pow(2, 7, 35) == 23
        ka = legacy.fn_shared_key(35, a, [7])
        kb = legacy.fn_shared_key(35, b, [5])
        assert ka == kb == 18  # 2^35 mod 35
        assert ka == slow_pow(2, 35, 35)

    def test_setup_properties(self):
        rng = Rng(31)
        fn = legacy.fn_setup(20, rng)
        assert fn.N == fn.p * fn.q and fn.p != fn.q
        assert numt.is_probable_prime(fn.p) and numt.is_probable_prime(fn.q)
        lam = math.lcm(fn.p - 1, fn.q - 1)
        assert element_order(fn.g, fn.N) == lam

    def test_keygen_properties(self):
        rng = Rng(32)
        fn = legacy.fn_setup(24, rng)
        seen = set()
        for _ in range(10):
            pair = legacy.fn_keygen(fn, rng)
            assert numt.is_probable_prime(pair.e)
            assert pair.e not in seen
            seen.add(pair.e)
            assert pair.d == pow(fn.g, pair.e, fn.N)

    def test_group_agreement(self):
        rng = Rng(33)
        fn = legacy.fn_setup(24, rng)
        pairs = [legacy.fn_keygen(fn, rng) for _ in range(4)]
        es = [p.e for p in pairs]
        keys = {
            legacy.fn_shared_key(fn.N, p, [e for e in es if e != p.e]) for p in pairs
        }
        assert len(keys) == 1

    def test_errors(self):
        a = KeyPair(e=5, d=32)
        with pytest.raises(EmptyGroup):
            legacy.fn_shared_key(35, a, [])
        with pytest.raises(SelfInGroup):
            legacy.fn_shared_key(35, a, [5, 7])
        with pytest.raises(InvalidInput):
            legacy.fn_setup(4, Rng(1))


class TestEskeland:
    def toy(self) -> EskParams:
        return EskParams(N=35, g=2, u=7, phi=24, p=5, q=7)

    def test_keygen_reduces_exponent(self):
        esk = self.toy()
        pair = legacy.esk_keygen(esk, 29, ScriptedRng([2]))
        # z = 29 mod 24 = 5, d = 5*7 + 2*24
        assert pair.d == 83
        assert pair.d % esk.phi == (5 * 7) % 24

    def test_toy_agreement_frozen(self):
        esk = self.toy()
        a = legacy.esk_keygen(esk, 5, ScriptedRng([2]))
        b = legacy.esk_keygen(esk, 11, ScriptedRng([3]))
        ka = legacy.esk_shared_key(esk.N, esk.g, a, [11])
        kb = legacy.esk_shared_key(esk.N, esk.g, b, [5])
        # g^(u * z_a * z_b mod phi) = 2^(385 mod 24) = 2^1
        assert ka == kb == 2

    def test_agreement_random(self, esk512):
        esk = esk512
        rng = Rng(37)
        taken: set[int] = set()
        exps = [legacy.fresh_prime(17, taken, rng) for _ in range(4)]
        pairs = [legacy.esk_keygen(esk, e, rng) for e in exps]
        keys = {
            legacy.esk_shared_key(esk.N, esk.g, p, [e for e in exps if e != p.e])
            for p in pairs
        }
        assert len(keys) == 1

    def test_exponent_congruent_to_one_adds_nothing(self):
        # e = 25 reduces to z = 1 mod phi(35): the key ignores such members
        esk = self.toy()
        a = legacy.esk_keygen(esk, 5, ScriptedRng([2]))
        with_extra = legacy.esk_shared_key(esk.N, esk.g, a, [11, 25])
        without = legacy.esk_shared_key(esk.N, esk.g, a, [11])
        assert with_extra == without

    def test_masking_values_unique(self):
        esk = self.toy()
        rng = Rng(39)
        for e in (5, 11, 13, 17):
            legacy.esk_keygen(esk, e, rng)
        assert len(esk.used_v) == 4
        # an Rng that only ever returns a used v exhausts the draws
        with pytest.raises(ExhaustedAttempts):
            legacy.esk_keygen(esk, 19, ScriptedRng(repeat(next(iter(esk.used_v)))))
        assert len(esk.used_v) == 4

    def test_fresh_prime_exhausts_a_taken_pool(self):
        # 5 and 7 are the only 3-bit primes
        taken = {5, 7}
        with pytest.raises(ExhaustedAttempts):
            legacy.fresh_prime(3, taken, Rng(44))
        assert taken == {5, 7}

    def test_errors(self):
        esk = self.toy()
        pair = legacy.esk_keygen(esk, 5, Rng(40))
        with pytest.raises(InvalidInput):
            legacy.esk_keygen(esk, 1, Rng(41))
        with pytest.raises(EmptyGroup):
            legacy.esk_shared_key(esk.N, esk.g, pair, [])
        with pytest.raises(SelfInGroup):
            legacy.esk_shared_key(esk.N, esk.g, pair, [5])

    def test_setup_properties(self):
        rng = Rng(43)
        esk = legacy.esk_setup(32, rng)
        assert esk.N == esk.p * esk.q
        assert esk.phi == (esk.p - 1) * (esk.q - 1)
        assert 1 < esk.u < esk.phi
        assert math.gcd(esk.g, esk.N) == 1
