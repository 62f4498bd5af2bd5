import math
import os
from dataclasses import replace

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpnike import numt, params
from mpnike.errors import ExhaustedAttempts, FormatError, InvalidInput
from mpnike.numt import Rng
from mpnike.params import PublicParams, security_level

from conftest import EDITS, apply_edits
from oracles import element_order

# fixed instance used for file-format golden values
GOLDEN_PP = PublicParams(N=713, g_p=233, m=8, gamma="toy")
GOLDEN_TEXT = (
    "version = 1\n"
    "gamma = toy\n"
    "n = 2c9\n"
    "g_p = e9\n"
    "hash_id = sha256\n"
    "lambda = 100\n"
    "m = 8\n"
)
GOLDEN_DIGEST = "b1a310f0310c68a3b4334e90527aea787f055d321fd21bf994e6773d05150712"


class TestSecurityLevel:
    def test_named_levels(self):
        assert security_level("80").modulus_bits == 1024
        assert security_level("112").modulus_bits == 2048
        assert security_level("128").modulus_bits == 3072

    def test_toy_width(self):
        assert security_level("toy", 40).modulus_bits == 40
        with pytest.raises(InvalidInput):
            security_level("toy", 15)
        with pytest.raises(InvalidInput):
            security_level("huge")


class TestForcedSetup:
    def test_worked_instance(self, forced713):
        pp, msk = forced713
        assert (msk.p, msk.z, msk.q) == (3, 5, 11)
        assert (msk.p_prime, msk.q_prime) == (31, 23)
        assert pp.N == 713
        assert pp.m == 8  # bitlen(3 * 5 * 11) = bitlen(165)
        assert params.validate(pp, msk).ok

    def test_generator_orders_by_enumeration(self, forced713):
        pp, msk = forced713
        assert element_order(msk.g, pp.N) == 165
        assert element_order(pp.g_p, pp.N) == 55
        assert pp.g_p == pow(msk.g, 3, 713)

    def test_rejects_repeated_primes(self):
        with pytest.raises(InvalidInput):
            params.setup(security_level("toy"), Rng(1), forced_primes=(3, 5, 5))

    def test_rejected_primes_are_not_echoed(self):
        forced = (1000003, 999983, 1000003)  # p repeats as q
        with pytest.raises(InvalidInput) as exc:
            params.setup(security_level("toy"), Rng(1), forced_primes=forced)
        for value in forced:
            assert str(value) not in str(exc.value)
            assert f"{value:x}" not in str(exc.value)

    def test_rejects_composite(self):
        with pytest.raises(InvalidInput):
            params.setup(security_level("toy"), Rng(1), forced_primes=(3, 9, 11))

    def test_rejects_composite_derived_factor(self):
        # 2*5*11 + 1 = 111 = 3 * 37
        with pytest.raises(InvalidInput):
            params.setup(security_level("toy"), Rng(1), forced_primes=(5, 11, 3))


class TestRandomSetup:
    def test_toy16_structure(self, toy16):
        pp, msk = toy16
        assert pp.N.bit_length() == 16
        assert pp.N == msk.p_prime * msk.q_prime
        assert msk.p_prime == 2 * msk.p * msk.z + 1
        assert msk.q_prime == 2 * msk.q + 1
        assert len({msk.p, msk.z, msk.q, msk.p_prime, msk.q_prime}) == 5
        assert params.validate(pp, msk).ok

    def test_toy16_generator_by_enumeration(self, toy16):
        pp, msk = toy16
        pzq = msk.p * msk.z * msk.q
        assert element_order(msk.g, pp.N) == pzq
        assert element_order(pp.g_p, pp.N) == msk.z * msk.q

    def test_exact_width_across_seeds(self):
        for seed in range(3):
            pp, msk = params.setup(security_level("toy", 20), Rng(seed))
            assert pp.N.bit_length() == 20
            assert params.validate(pp, msk).ok

    def test_deterministic_under_seed(self):
        lvl = security_level("toy", 16)
        a = params.setup(lvl, Rng(55))
        b = params.setup(lvl, Rng(55))
        assert params.render_public(a[0]) == params.render_public(b[0])
        assert a[1] == b[1]

    def test_level80_known_answer(self):
        # the digest before set-up ran on numt.pow_mod; Miller-Rabin draws at
        # n >= 4096**2 are unchanged, so the level-80 search finds the same set
        pp, msk = params.setup(security_level("80"), Rng(1))
        assert params.params_digest(pp) == (
            "c44a0b1005cd57b4fa8a0f99a0483e186d82cd1d7c7df858f76ad27578d3aa35"
        )
        assert params.validate(pp, msk).ok

    def test_big_fixture_valid(self, big1024):
        pp, msk = big1024
        assert pp.N.bit_length() == 1024
        assert pp.gamma == "80"
        report = params.validate(pp, msk)
        assert report.ok, report.failures()


class TestCombinedSieve:
    @settings(max_examples=50, deadline=None)
    @given(
        x0=st.one_of(
            st.integers(1, 1 << 20), st.integers(1 << 1023, (1 << 1024) - 1)
        ).map(lambda v: v | 1),
        n=st.integers(0, 400),
        m=st.one_of(
            st.just(1),
            st.sampled_from([3, 5, 7, 11, 13, 65537]),
            st.integers(2, 1 << 512).map(sympy.nextprime),
        ),
    )
    def test_survivors_are_exactly_the_coprime_pairs(self, x0, n, m):
        # one gcd against the product of the sieving primes below x0
        P = math.prod(r for r in params._sieve_primes() if r < x0)
        flags = params._sieve_window(x0, n, m)
        assert len(flags) == n
        for i in range(n):
            x = x0 + 2 * i
            assert flags[i] == (math.gcd(x * (2 * m * x + 1), P) == 1), (x0, i, m)

    def test_sieving_primes_are_the_odd_primes_below_the_bound(self):
        assert params._sieve_primes() == tuple(sympy.primerange(3, params._SIEVE_BOUND))

    def test_search_returns_a_pair_in_range(self):
        for m in (1, 5, 104729):
            x = params._pair_search(1 << 40, 1 << 41, m, Rng(m), 10_000)
            assert (1 << 40) <= x < (1 << 41)
            assert sympy.isprime(x) and sympy.isprime(2 * m * x + 1)

    def test_narrow_range_is_swept_once(self):
        # 25 and 27 are composite: one window covers the range, then it gives up
        with pytest.raises(ExhaustedAttempts):
            params._pair_search(24, 28, 1, Rng(1), 10**9)
        assert params._pair_search(24, 30, 1, Rng(1), 10**9) == 29  # 59 is prime

    def test_empty_range_and_zero_budget(self):
        with pytest.raises(ExhaustedAttempts):
            params._pair_search(100, 100, 1, Rng(1), 10**9)
        with pytest.raises(ExhaustedAttempts):
            params._pair_search(1 << 40, 1 << 41, 1, Rng(1), 0)


class TestSearchCost:
    @pytest.mark.parametrize("bits", [16, 17, 20, 23, 32, 48, 64, 96])
    def test_toy_widths_exact_valid_deterministic(self, bits):
        lvl = security_level("toy", bits)
        for seed in range(4):
            pp, msk = params.setup(lvl, Rng(seed))
            assert pp.N.bit_length() == bits
            report = params.validate(pp, msk)
            assert report.ok, report.failures()
            assert params.setup(lvl, Rng(seed)) == (pp, msk)

    def test_exhausted_p_side_is_retried(self, monkeypatch):
        real = params._pair_search
        calls = []

        def unlucky_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise ExhaustedAttempts("no z in this window")
            return real(*args)

        monkeypatch.setattr(params, "_pair_search", unlucky_once)
        pp, msk = params.setup(security_level("toy", 64), Rng(3))
        assert calls[0][2] != 1 and len(calls) >= 3  # p side raised, then a full retry
        assert pp.N.bit_length() == 64
        assert params.validate(pp, msk).ok

    def test_level80_prime_tests_bounded(self, monkeypatch):
        # machine-independent guard: the sieve-less search needed ~186k per set
        calls = []
        real = numt.is_probable_prime
        monkeypatch.setattr(
            numt, "is_probable_prime", lambda n, *a, **k: calls.append(n) or real(n, *a, **k)
        )
        pp, msk = params.setup(security_level("80"), Rng(2))
        assert len(calls) <= 20_000
        assert pp.N.bit_length() == 1024
        assert params.validate(pp, msk).ok


class TestFindGenerator:
    def test_budget_exhaustion(self, forced713):
        # the forced-713 set has q = 11; with 7 in its place no unit mod 713
        # (order 660 = 4*3*5*11) has order 3*5*7
        pp, msk = forced713
        with pytest.raises(ExhaustedAttempts):
            params.find_generator(msk.p, msk.z, 7, pp.N, Rng(1))

    def test_never_full_order(self, forced713):
        # fourth powers cannot have order divisible by 4
        pp, msk = forced713
        for seed in range(10):
            g = params.find_generator(3, 5, 11, 713, Rng(seed))
            assert element_order(g, 713) == 165


class TestValidate:
    def test_detects_tampered_modulus(self, toy16):
        pp, msk = toy16
        report = params.validate(replace(pp, N=pp.N + 2), msk)
        assert not report.ok
        assert any(c.name == "modulus_structure" for c in report.failures())

    def test_detects_bad_g_p(self, toy16):
        pp, msk = toy16
        assert not params.validate(replace(pp, g_p=1), msk).ok

    def test_detects_wrong_m(self, toy16):
        pp, msk = toy16
        report = params.validate(replace(pp, m=pp.m + 1), msk)
        assert [c.name for c in report.failures()] == ["m_matches"]

    def test_detects_wrong_width_claim(self, toy16):
        pp, msk = toy16
        assert not params.validate(replace(pp, gamma="80"), msk).ok

    @pytest.mark.parametrize("N", [0, 1, 2, 714, 1 << 64])
    def test_even_or_tiny_modulus_fails_without_raising(self, forced713, N):
        pp, msk = forced713
        report = params.validate(replace(pp, N=N), msk)
        failed = {c.name for c in report.failures()}
        assert {"modulus_odd", "g_order_pzq", "g_p_value", "g_p_order_zq"} <= failed

    @pytest.mark.parametrize("field", ["p", "z", "q"])
    def test_zero_prime_fails_without_raising(self, forced713, field):
        pp, msk = forced713
        report = params.validate(pp, replace(msk, **{field: 0}))
        failed = {c.name for c in report.failures()}
        assert {f"{field}_is_prime", "g_order_pzq", "g_p_value", "g_p_order_zq"} <= failed


class TestFiles:
    def test_golden_render(self):
        assert params.render_public(GOLDEN_PP) == GOLDEN_TEXT
        assert params.params_digest(GOLDEN_PP) == GOLDEN_DIGEST

    def test_public_roundtrip(self, toy16, tmp_path):
        pp, _ = toy16
        path = str(tmp_path / "pp.txt")
        params.save_public(pp, path)
        assert params.load_public(path) == pp

    def test_master_roundtrip_and_mode(self, toy16, tmp_path):
        pp, msk = toy16
        path = str(tmp_path / "msk.txt")
        params.save_master(pp, msk, path)
        assert os.stat(path).st_mode & 0o777 == 0o600
        pp2, msk2 = params.load_master(path)
        assert (pp2, msk2) == (pp, msk)

    def test_master_contains_public_fields(self, toy16, tmp_path):
        pp, msk = toy16
        assert params.render_master(pp, msk).startswith(params.render_public(pp))

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda t: t.replace("hash_id = sha256\n", ""),  # missing field
            lambda t: t + "extra = 1\n",  # unknown field
            lambda t: t.replace("version = 1", "version = 2"),
            lambda t: t.replace("n = ", "n =  "),  # malformed value (leading space)
            lambda t: t + "gamma = toy\n",  # duplicate key
            lambda t: "junk\n" + t,
            lambda t: t.replace("hash_id = sha256", "hash_id = nosuch"),  # unknown hash
            lambda t: t.replace("lambda = 100", "lambda = 108"),  # wider than the digest
            lambda t: t.replace("lambda = 100", "lambda = 4"),  # not whole bytes
            lambda t: t.replace("lambda = 100", "lambda = 0"),
            lambda t: t.replace("n = 2c9\ng_p = e9", "g_p = e9\nn = 2c9"),  # fields swapped
            lambda t: t.replace("m = 8\n", "\nm = 8\n"),  # blank line
            lambda t: t.replace("\n", "\r\n"),  # CRLF endings
            lambda t: t.replace("\n", "\u2028"),  # lines joined by U+2028
            lambda t: t[:-1],  # no final newline
            # other spellings and other hashes: the version-1 format fixes SHA-256
            lambda t: t.replace("hash_id = sha256", "hash_id = SHA256"),
            lambda t: t.replace("hash_id = sha256", "hash_id = sha-256"),
            lambda t: t.replace("hash_id = sha256", "hash_id = sha512"),
            lambda t: t.replace("hash_id = sha256\nlambda = 100", "hash_id = md5\nlambda = 80"),
            # gamma names a level: toy, 80, 112 or 128
            lambda t: t.replace("gamma = toy", "gamma = 81 = x"),
            lambda t: t.replace("gamma = toy", "gamma = to\ty"),
            lambda t: t.replace("gamma = toy", "gamma = 81"),
            lambda t: t.replace("gamma = toy", "gamma = TOY"),
            lambda t: t.replace("gamma = toy", "gamma = "),
        ],
    )
    def test_load_rejects_malformed(self, tmp_path, mutation):
        path = tmp_path / "pp.txt"
        path.write_bytes(mutation(GOLDEN_TEXT).encode())
        with pytest.raises(FormatError):
            params.load_public(str(path))

    @pytest.mark.parametrize("key", ["n", "g_p", "m", "p", "z", "q", "g", "p_prime", "q_prime"])
    def test_bad_hex_error_names_line_and_field_not_value(self, toy64, tmp_path, key):
        text = params.render_master(*toy64)
        lineno = params._MASTER_FIELDS.index(key) + 1
        value = text.splitlines()[lineno - 1].partition(" = ")[2]
        path = tmp_path / "msk.txt"
        path.write_text(text.replace(f"\n{key} = {value}\n", f"\n{key} = 0{value}\n"))
        with pytest.raises(FormatError) as exc:
            params.load_master(str(path))
        assert str(exc.value) == f"{path}:{lineno}: {key} is not canonical lowercase hex"

    def test_master_load_rejects_reordered_fields(self, toy16, tmp_path):
        pp, msk = toy16
        lines = params.render_master(pp, msk).splitlines(keepends=True)
        lines[-1], lines[-2] = lines[-2], lines[-1]  # q_prime before p_prime
        path = tmp_path / "msk.txt"
        path.write_bytes("".join(lines).encode())
        with pytest.raises(FormatError):
            params.load_master(str(path))

    # toy64's hash_id value starts at byte 78 of both files; position -2 wraps to the last byte
    @settings(max_examples=200, deadline=None)
    @given(edits=EDITS)
    @example(edits=[("insert", 79, 0)])  # hash_id = s\x00ha256
    @example(edits=[("delete", -2, 0)])  # final newline dropped
    def test_accepted_public_files_reserialise_exactly(self, toy64, tmp_path_factory, edits):
        raw = apply_edits(params.render_public(toy64[0]).encode(), edits)
        path = tmp_path_factory.getbasetemp() / "pp-edits.txt"
        path.write_bytes(raw)
        try:
            pp = params.load_public(str(path))
        except FormatError:
            return
        assert params.render_public(pp).encode() == raw

    @settings(max_examples=200, deadline=None)
    @given(edits=EDITS)
    @example(edits=[("insert", 79, 0)])
    @example(edits=[("delete", -2, 0)])
    def test_accepted_master_files_reserialise_exactly(self, toy64, tmp_path_factory, edits):
        raw = apply_edits(params.render_master(*toy64).encode(), edits)
        path = tmp_path_factory.getbasetemp() / "msk-edits.txt"
        path.write_bytes(raw)
        try:
            loaded = params.load_master(str(path))
        except FormatError:
            return
        assert params.render_master(*loaded).encode() == raw

    def test_load_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            params.load_public(str(tmp_path / "absent.txt"))

    def test_integers_are_canonical_hex(self, toy16):
        pp, _ = toy16
        for line in params.render_public(pp).splitlines():
            key, _, value = line.partition(" = ")
            if key in ("n", "g_p", "lambda", "m", "version"):
                assert value == numt.int_to_hex(numt.hex_to_int(value))
