import math
import random

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from mpnike import attacks, broadcast, kgc, legacy, nike, numt
from mpnike.errors import DegenerateResult, InvalidInput, NotCoprime, NotInvertible
from mpnike.kgc import KeyPair
from mpnike.numt import Rng

from conftest import MASTER_SEED, ScriptedRng
from oracles import closed_form_group_element, issuance_exponents


class TestBezoutPos:
    def test_worked_instance(self):
        # 2*5 - 3*3 = 1
        assert attacks.bezout_pos(5, 3) == (1, 2, 3)

    def test_identity_and_positivity(self):
        rng = Rng(51)
        for _ in range(500):
            x = rng.randrange(1, 1 << 64)
            y = rng.randrange(1, 1 << 64)
            g, a, b = attacks.bezout_pos(x, y)
            assert a * x - b * y == g
            assert 0 < a <= y // g
            assert x % g == 0 and y % g == 0

    def test_equal_inputs(self):
        g, a, b = attacks.bezout_pos(7, 7)
        assert g == 7 and a * 7 - b * 7 == 7 and a > 0

    @pytest.mark.parametrize("x, y", [(7, 7), (14, 7), (7, 14), (1, 5), (5, 1)])
    def test_divisor_edge_cases(self, x, y):
        # y // g == 1 where one value divides the other: the inverse mod 1 is 0
        g, a, b = attacks.bezout_pos(x, y)
        assert g == math.gcd(x, y)
        assert a * x - b * y == g
        assert 0 < a <= y // g

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            attacks.bezout_pos(0, 5)
        with pytest.raises(InvalidInput):
            attacks.bezout_pos(5, -1)


class TestCollude:
    def test_worked_instance(self):
        # 2*5 - 3*3 = 1 over d = 2**e mod 35: the combination is 2 itself
        with numt.count_mod_exps() as counter:
            assert attacks.collude(35, 5, 32, 3, 8) == (1, 2, 3, 2)
        assert counter.count == 2

    def test_folds_over_a_third_colluder(self, toy64, toy64_users):
        # (c, h**c) is itself a pair, so a third colluder combines with it
        pp, msk = toy64
        _, pairs = toy64_users
        c, _, _, hc = attacks.collude(pp.N, pairs[0].e, pairs[0].d, pairs[1].e, pairs[1].d)
        c3, _, _, hc3 = attacks.collude(pp.N, c, hc, pairs[2].e, pairs[2].d)
        assert c3 == math.gcd(pairs[0].e, pairs[1].e, pairs[2].e)
        assert kgc.verify_pair(pp, msk, c3, hc3)


class TestForgeByDivision:
    def test_worked_instance(self):
        # h = 2 mod 35, c = 2: (2**2)**(3*6 / 2) = 2**18 = 29, one counted mod_exp
        with numt.count_mod_exps() as counter:
            assert attacks.forge_by_division(35, 2, 4, [3, 6]) == pow(2, 18, 35) == 29
        assert counter.count == 1

    def test_none_when_c_does_not_divide(self):
        # 4 does not divide 3*6 = 18: no exponentiation at all
        with numt.count_mod_exps() as counter:
            assert attacks.forge_by_division(35, 4, 16, [3, 6]) is None
        assert counter.count == 0

    def test_repeated_target_counted_once(self):
        # a group's product runs over its distinct e, as exp_chain's does: 3*6 = 18, not
        # 324, and 4 divides 6*6 but not 6
        assert attacks.forge_by_division(35, 2, 4, [3, 6, 6, 3]) == 29
        assert attacks.forge_by_division(35, 4, 16, [6, 6]) is None

    def test_equals_the_closed_form_element(self, toy64, toy64_users):
        pp, msk = toy64
        _, pairs = toy64_users
        colluders, targets = pairs[:4], pairs[4:8]
        forged = 0
        for i, pair_i in enumerate(colluders):
            for pair_j in colluders[i + 1 :]:
                c, _, _, hc = attacks.collude(pp.N, pair_i.e, pair_i.d, pair_j.e, pair_j.d)
                for size in (2, 3, 4):
                    target_es = [t.e for t in targets[:size]]
                    F = attacks.forge_by_division(pp.N, c, hc, target_es)
                    if F is None:
                        assert math.prod(target_es) % c
                        continue
                    ys = [issuance_exponents(msk, e)[0] for e in target_es]
                    assert F == closed_form_group_element(msk, pp.N, ys)
                    forged += 1
        assert forged > 0


class TestFiatNaorAttack:
    def test_worked_instance(self):
        # colluders hold (5, 2^5) and (7, 2^7) mod 35; master g = 2
        assert attacks.fiat_naor_recover_g(35, 5, 32, 7, 23) == 2

    def test_combine_with_common_factor(self):
        # e = 5 and 10 share gcd 5: the combination would land on g^5, not g
        with numt.count_mod_exps() as counter, pytest.raises(NotCoprime):
            attacks.fiat_naor_recover_g(35, 5, 32, 10, pow(2, 10, 35))
        assert counter.count == 0

    def test_not_invertible_surfaces_factor(self):
        # d_j = 5 shares a factor with N and gets a negative exponent
        with pytest.raises(NotInvertible) as exc:
            attacks.fiat_naor_recover_g(35, 5, 7, 7, 5)
        assert exc.value.factor in (5, 7)

    def test_random_instances(self):
        rng = Rng(52)
        for _ in range(50):
            fn = legacy.fn_setup(24, rng)
            a = legacy.fn_keygen(fn, rng)
            b = legacy.fn_keygen(fn, rng)
            recovered = attacks.fiat_naor_recover_g(fn.N, a.e, a.d, b.e, b.d)
            assert recovered == fn.g % fn.N

    def test_forged_key_matches_honest(self):
        rng = Rng(53)
        fn = legacy.fn_setup(24, rng)
        colluder_a = legacy.fn_keygen(fn, rng)
        colluder_b = legacy.fn_keygen(fn, rng)
        targets = [legacy.fn_keygen(fn, rng) for _ in range(3)]
        g = attacks.fiat_naor_recover_g(
            fn.N, colluder_a.e, colluder_a.d, colluder_b.e, colluder_b.d
        )
        target_es = [t.e for t in targets]
        forged = attacks.fiat_naor_forge_key(fn.N, g, target_es)
        honest = legacy.fn_shared_key(fn.N, targets[0], target_es[1:])
        assert forged == honest


class TestEskelandAttack:
    def test_worked_instance(self):
        # u = 7, phi = 24; colluders (5, 83) and (3, 45)
        u_prime = attacks.eskeland_recover_u(5, 83, 3, 45)
        assert u_prime == 31
        assert (u_prime - 7) % 24 == 0

    def test_rejects_common_factor(self):
        with pytest.raises(NotCoprime):
            attacks.eskeland_recover_u(6, 100, 9, 200)

    def test_collude_returns_its_coefficients(self):
        # 2*5 - 3*3 = 1 gives recover_u's u'; 2*6 - 1*9 = 3 combines without raising
        assert attacks.eskeland_collude(5, 83, 3, 45) == (1, 2, 3, 31)
        assert attacks.eskeland_collude(6, 100, 9, 200) == (3, 2, 1, 0)

    def test_recovers_u_mod_phi(self, esk512):
        esk = esk512
        rng = Rng(54)
        e_i, e_j = 65537, 65539
        pair_i = legacy.esk_keygen(esk, e_i, rng)
        pair_j = legacy.esk_keygen(esk, e_j, rng)
        u_prime = attacks.eskeland_recover_u(e_i, pair_i.d, e_j, pair_j.d)
        assert (u_prime - esk.u) % esk.phi == 0

    def test_forgery_with_negative_u_prime(self):
        # large masking value on the subtracted side drives u_prime < 0
        esk = legacy.EskParams(N=35, g=2, u=7, phi=24, p=5, q=7)
        pair_i = legacy.esk_keygen(esk, 5, ScriptedRng([1]))
        pair_j = legacy.esk_keygen(esk, 3, ScriptedRng([30]))
        u_prime = attacks.eskeland_recover_u(5, pair_i.d, 3, pair_j.d)
        assert u_prime < 0
        assert (u_prime - 7) % 24 == 0
        forged = attacks.eskeland_forge_group_key(35, 2, u_prime, [11, 13])
        honest_member = legacy.esk_keygen(esk, 11, ScriptedRng([3]))
        honest = legacy.esk_shared_key(35, 2, honest_member, [13])
        assert forged == honest

    def test_full_forgery(self, esk512):
        esk = esk512
        rng = Rng(58)
        taken: set[int] = set()
        exps = [legacy.fresh_prime(17, taken, rng) for _ in range(5)]
        colluders = [legacy.esk_keygen(esk, e, rng) for e in exps[:2]]
        targets = [legacy.esk_keygen(esk, e, rng) for e in exps[2:]]
        u_prime = attacks.eskeland_recover_u(
            colluders[0].e, colluders[0].d, colluders[1].e, colluders[1].d
        )
        target_es = [t.e for t in targets]
        forged = attacks.eskeland_forge_group_key(esk.N, esk.g, u_prime, target_es)
        for member in targets:
            honest = legacy.esk_shared_key(
                esk.N, esk.g, member, [e for e in target_es if e != member.e]
            )
            assert forged == honest


class TestProposedSchemeProbe:
    """The probe: two colluders' h**c raised to prod e_W undivided reaches only F_W**c."""

    def test_pipeline_blocked(self, toy64, toy64_users):
        pp, msk = toy64
        _, pairs = toy64_users
        i, j = pairs[:2]
        targets = pairs[2:5]
        target_es = [t.e for t in targets]
        honest = nike.shared_key(pp, targets[0], target_es[1:])
        c, a, b, hc = attacks.collude(pp.N, i.e, i.d, j.e, j.d)
        # even exponents force a common factor >= 2
        assert c >= 2 and c % 2 == 0
        assert a * i.e - b * j.e == c
        # the issuer audit cannot reject the combined pair (malleability)...
        assert kgc.verify_pair(pp, msk, c, hc)
        # ...but undivided it reaches only the c-th power of the target
        F = numt.exp_chain(hc, target_es, pp.N)
        assert F == pow(honest.F, c, pp.N)
        assert nike.kdf(pp, F) != honest.K

    def test_combined_pair_is_valid_linear_combination(self, toy64, toy64_users):
        pp, msk = toy64
        _, pairs = toy64_users
        i, j = pairs[:2]
        c, a, b, hc = attacks.collude(pp.N, i.e, i.d, j.e, j.d)
        expect = (numt.mod_exp(i.d, a, pp.N) * numt.mod_exp(j.d, -b, pp.N)) % pp.N
        assert hc == expect == kgc._issuer_pow(pp, msk, c)


class TestDivisionForgery:
    """Every d is h**e, so two colluders' h**c raised to prod e_W / c is F_W
    whenever c divides prod e_W; even e make c = 2 common."""

    def test_forges_the_honest_element_under_criterion_6_sampling(self, toy64):
        # the sampling of test_acceptance.py's criterion 6, seeds included
        pp, msk = toy64
        rng = Rng(MASTER_SEED + 6)
        rnd = random.Random(MASTER_SEED + 6)
        trials = forged = 0
        generation = -1
        while trials < 1000:
            if trials // 50 != generation:
                generation = trials // 50
                store = kgc.new_keystore(pp)
                pool = [
                    kgc.keygen(pp, msk, store, f"g{generation:02d}u{i}", rng) for i in range(8)
                ]
            chosen = rnd.sample(pool, 2 + rnd.randrange(2, 6))
            colluders, targets = chosen[:2], chosen[2:]
            target_es = [kp.e for kp in targets]
            try:
                honest = nike.shared_key(pp, targets[0], target_es[1:])
            except DegenerateResult:
                continue
            i, j = sorted(colluders, key=lambda kp: kp.e)
            c, _, _, hc = attacks.collude(pp.N, i.e, i.d, j.e, j.d)
            trials += 1
            F = attacks.forge_by_division(pp.N, c, hc, target_es)
            if F is None:
                continue
            ys = [issuance_exponents(msk, e)[0] for e in target_es]
            assert F == honest.F == closed_form_group_element(msk, pp.N, ys)
            forged += 1
        assert forged > trials // 2

    def test_two_outsiders_open_a_broadcast(self, toy64):
        pp, msk = toy64
        store, rng = kgc.new_keystore(pp), Rng(MASTER_SEED + 61)
        pairs = [kgc.keygen(pp, msk, store, f"u{i}", rng) for i in range(10)]
        authorized, outsiders = pairs[:5], pairs[5:]
        payload = b"for the authorized set only"
        bc = broadcast.brod_encrypt(store, pp, [p.user_id for p in authorized], payload, rng)
        opened = 0
        for i, pair_i in enumerate(outsiders):
            for pair_j in outsiders[i + 1 :]:
                # the outsiders' own pairs combine to h**c, c = gcd(e_i, e_j)
                c, _, _, hc = attacks.collude(pp.N, pair_i.e, pair_i.d, pair_j.e, pair_j.d)
                F = attacks.forge_by_division(pp.N, c, hc, bc.authorized)
                if F is None:
                    continue
                key = broadcast._transport_key(nike.kdf(pp, F))
                aad = broadcast._header_bytes(bc.params_ref, bc.authorized)
                assert AESGCM(key).decrypt(bc.nonce, bc.ct, aad) == payload
                opened += 1
        assert opened > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_colluders_mint_pairs_the_audit_accepts(self, toy64, seed):
        # h**c from two colluders, raised to a fresh odd t, is h**(c*t): a
        # well-formed pair for an e the issuer never issued
        pp, msk = toy64
        store, rng = kgc.new_keystore(pp), Rng(MASTER_SEED + 62 + seed)
        pair_i, pair_j = (kgc.keygen(pp, msk, store, f"u{i}", rng) for i in range(2))
        c, _, _, hc = attacks.collude(pp.N, pair_i.e, pair_i.d, pair_j.e, pair_j.d)
        for _ in range(4):
            t = rng.getrandbits(32) | 1
            e, d = c * t, numt.mod_exp(hc, t, pp.N)
            assert kgc.verify_pair(pp, msk, e, d)
            assert e not in store.issued_keys
