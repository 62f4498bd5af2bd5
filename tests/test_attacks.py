import math

import pytest

from mpnike import attacks, legacy, nike, numt
from mpnike.errors import InvalidInput, NotCoprime, NotInvertible
from mpnike.kgc import KeyPair
from mpnike.numt import Rng


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


class TestFiatNaorAttack:
    def test_worked_instance(self):
        # colluders hold (5, 2^5) and (7, 2^7) mod 35; master g = 2
        assert attacks.fiat_naor_recover_g(35, 5, 32, 7, 23) == 2

    def test_combine_with_common_factor(self):
        # e = 5 and 10 share gcd 5: the combination would land on g^5, not g
        with pytest.raises(NotCoprime):
            attacks.fiat_naor_recover_g(35, 5, 32, 10, pow(2, 10, 35))

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
        pair_i = legacy.esk_keygen(esk, 5, Rng(55), forced_v=1)
        pair_j = legacy.esk_keygen(esk, 3, Rng(56), forced_v=30)
        u_prime = attacks.eskeland_recover_u(5, pair_i.d, 3, pair_j.d)
        assert u_prime < 0
        assert (u_prime - 7) % 24 == 0
        forged = attacks.eskeland_forge_group_key(35, 2, u_prime, [11, 13])
        honest_member = legacy.esk_keygen(esk, 11, Rng(57), forced_v=3)
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
    def test_pipeline_blocked(self, toy64, toy64_users):
        pp, msk = toy64
        _, pairs = toy64_users
        colluders = pairs[:2]
        targets = pairs[2:5]
        target_es = [t.e for t in targets]
        honest = nike.shared_key(pp, targets[0], target_es[1:])
        report = attacks.proposed_scheme_attack_probe(pp, msk, colluders, target_es, honest.K)
        # even exponents force a common factor >= 2
        assert report.gcd >= 2 and report.gcd % 2 == 0
        assert report.a * report.e_i - report.b * report.e_j == report.gcd
        # the issuer audit cannot reject the combined pair (malleability)...
        assert report.combined_passes_audit is True
        # ...but the forged key reaches only the gcd-th power of the target
        assert report.matches_honest is False
        assert report.forged_F == pow(honest.F, report.gcd, pp.N)
        assert report.forged_K != honest.K

    def test_combined_pair_is_valid_linear_combination(self, toy64, toy64_users):
        pp, msk = toy64
        _, pairs = toy64_users
        honest = nike.shared_key(pp, pairs[3], [pairs[4].e])
        report = attacks.proposed_scheme_attack_probe(
            pp, msk, pairs[:2], [pairs[3].e, pairs[4].e], honest.K
        )
        i = next(p for p in pairs[:2] if p.e == report.e_i)
        j = next(p for p in pairs[:2] if p.e == report.e_j)
        expect = (
            numt.mod_exp(i.d, report.a, pp.N) * numt.mod_exp(j.d, -report.b, pp.N)
        ) % pp.N
        assert report.combined_d == expect

    def test_needs_two_pairs(self, toy64, toy64_users):
        pp, msk = toy64
        _, pairs = toy64_users
        with pytest.raises(InvalidInput):
            attacks.proposed_scheme_attack_probe(pp, msk, pairs[:1], [pairs[2].e], b"")
