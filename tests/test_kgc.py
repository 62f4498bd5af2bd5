import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EDITS, apply_edits
from mpnike import artifact, kgc, params
from mpnike.errors import (
    CollisionBudgetExceeded,
    DuplicateUser,
    FormatError,
    InvalidInput,
    ParamsMismatch,
    UnknownUser,
)
from mpnike.numt import Rng

from oracles import issuance_exponents, slow_pow


class ScriptedRng:
    """Feeds a fixed sequence of randrange results, then falls back."""

    def __init__(self, values, seed=0):
        self.values = list(values)
        self.fallback = Rng(seed)

    def randrange(self, lo, hi):
        if self.values:
            return self.values.pop(0)
        return self.fallback.randrange(lo, hi)


class TestKeygen:
    def test_worked_instance(self, forced713):
        pp, msk = forced713
        store = kgc.new_keystore(pp)
        pair = kgc.keygen(pp, msk, store, "alice", Rng(1), forced_y=5, forced_k=3)
        # e = 3*5 + (5*11)*3 and d = g^(3*5)
        assert pair.e == 180
        assert pair.d == slow_pow(msk.g, 15, pp.N)
        assert store.records["alice"] == pair

    def test_exponent_shape(self, toy16):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        rng = Rng(10)
        for i in range(200):
            pair = kgc.keygen(pp, msk, store, f"u{i}", rng)
            y, k = issuance_exponents(msk, pair.e)
            assert y % 2 == 1 and y < msk.z * msk.q
            assert k % 2 == 1 and k < msk.p
            assert pair.e % 2 == 0
            assert pair.e == msk.p * y + msk.z * msk.q * k
            assert 1 < pair.d < pp.N

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_forced_exponents_round_trip(self, toy64, data):
        # every odd y < zq and odd k < p comes back from e: (y, k) -> e is injective
        pp, msk = toy64
        zq = msk.z * msk.q
        y = 2 * data.draw(st.integers(0, (zq - 3) // 2)) + 1
        k = 2 * data.draw(st.integers(0, (msk.p - 3) // 2)) + 1
        pair = kgc.keygen(pp, msk, kgc.new_keystore(pp), "a", Rng(0), forced_y=y, forced_k=k)
        assert issuance_exponents(msk, pair.e) == (y, k)

    def test_level80_keys_have_at_most_m_plus_1_bits(self, big1024, big1024_users):
        pp, _ = big1024
        _, pairs = big1024_users
        assert max(pair.e.bit_length() for pair in pairs) <= pp.m + 1

    def test_private_key_oracle(self, toy16):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        pair = kgc.keygen(pp, msk, store, "alice", Rng(3))
        y, _ = issuance_exponents(msk, pair.e)
        assert pair.d == slow_pow(msk.g, msk.p * y, pp.N)

    def test_public_keys_unique(self, toy16_users):
        store, pairs = toy16_users
        es = [p.e for p in pairs]
        assert len(set(es)) == len(es)

    def test_collision_resampled(self, toy16):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        first = kgc.keygen(pp, msk, store, "a", ScriptedRng([5, 3], seed=1))
        y, k = issuance_exponents(msk, first.e)
        assert (y, k) == (11, 7)  # y = 2*5 + 1, k = 2*3 + 1
        # replay the same y and k for the next user: forces one resample
        second = kgc.keygen(pp, msk, store, "b", ScriptedRng([5, 3], seed=2))
        assert second.e != first.e
        assert issuance_exponents(msk, second.e)[0] == y  # y kept, only k re-drawn

    def test_forced_collision_exhausts(self, toy16):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        kgc.keygen(pp, msk, store, "a", Rng(4), forced_y=65, forced_k=65)
        with pytest.raises(CollisionBudgetExceeded):
            kgc.keygen(pp, msk, store, "b", Rng(5), forced_y=65, forced_k=65)

    def test_collision_with_loaded_or_given_records(self, toy16, tmp_path):
        # the index of issued e is filled by store_load and by the constructor
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        kgc.keygen(pp, msk, store, "a", Rng(4), forced_y=65, forced_k=65)
        path = str(tmp_path / "ks.tsv")
        kgc.store_save(store, path)
        built = kgc.Keystore(store.params_ref, dict(store.records))
        for reloaded in (kgc.store_load(path, pp), built):
            assert reloaded.issued_keys == {store.pair("a").e}
            with pytest.raises(CollisionBudgetExceeded):
                kgc.keygen(pp, msk, reloaded, "b", Rng(5), forced_y=65, forced_k=65)

    def test_duplicate_user(self, toy16):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        kgc.keygen(pp, msk, store, "alice", Rng(6))
        with pytest.raises(DuplicateUser):
            kgc.keygen(pp, msk, store, "alice", Rng(7))

    def test_wrong_store(self, toy16, forced713):
        pp, msk = toy16
        other_store = kgc.new_keystore(forced713[0])
        with pytest.raises(ParamsMismatch):
            kgc.keygen(pp, msk, other_store, "alice", Rng(8))

    @pytest.mark.parametrize(
        "bad_id",
        ["", "a\tb", "a\nb", "a\rb", "x" * 257, "é" * 129]
        # the CLI's comma-separated id lists could never name these
        + ["dave,eve", ",", " frank", "frank ", " ", "a\u3000"]
        # every other line break str.splitlines splits on
        + [f"a{c}b" for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"],
    )
    def test_bad_user_ids(self, toy16, bad_id):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        with pytest.raises(InvalidInput):
            kgc.keygen(pp, msk, store, bad_id, Rng(9))

    def test_max_len_multibyte_id_ok(self, toy16):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        uid = "é" * 128  # exactly 256 UTF-8 bytes
        assert kgc.keygen(pp, msk, store, uid, Rng(9)).user_id == uid

    def test_forced_even_y_rejected(self, toy16):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        with pytest.raises(InvalidInput):
            kgc.keygen(pp, msk, store, "a", Rng(9), forced_y=4, forced_k=3)
        with pytest.raises(InvalidInput, match="k must be"):
            kgc.keygen(pp, msk, store, "a", Rng(9), forced_y=3, forced_k=4)


class TestVerifyPair:
    def test_issued_pairs_verify(self, toy16_users, toy16):
        pp, msk = toy16
        store, pairs = toy16_users
        for pair in pairs:
            assert kgc.verify_pair(pp, msk, pair.e, pair.d)

    def test_rejects_wrong_d(self, toy16_users, toy16):
        pp, msk = toy16
        _, pairs = toy16_users
        assert not kgc.verify_pair(pp, msk, pairs[0].e, pairs[0].d + 1)
        assert not kgc.verify_pair(pp, msk, pairs[0].e, pairs[1].d)

    def test_e_only_meaningful_mod_zq(self, toy16_users, toy16):
        # the audit cannot distinguish e from e + z*q: documented limit
        pp, msk = toy16
        _, pairs = toy16_users
        assert kgc.verify_pair(pp, msk, pairs[0].e + msk.z * msk.q, pairs[0].d)

    def test_exhaustive_acceptance_set(self, forced713):
        # mod 713 the audit must accept exactly one d per residue class
        pp, msk = forced713
        zq = msk.z * msk.q
        for e in range(2, 2 * zq, 2):
            matches = [d for d in range(pp.N) if kgc.verify_pair(pp, msk, e, d)]
            expected = pow(pp.g_p, e * pow(msk.p, -1, zq) % zq, pp.N)
            assert matches == [expected]
            if e >= 8:  # a few classes are enough
                break


def _matches_full_modulus(pp, msk, rng):
    """keygen and verify_pair against the full-modulus formulas mod N."""
    zq = msk.z * msk.q
    store = kgc.new_keystore(pp)
    pairs = [kgc.keygen(pp, msk, store, f"u{i}", rng) for i in range(3)]
    for pair, other in zip(pairs, pairs[1:] + pairs[:1]):
        y, _ = issuance_exponents(msk, pair.e)
        assert pair.d == pow(msk.g, msk.p * y, pp.N)
        for e, d in (
            (pair.e, pair.d),
            (pair.e, pair.d + 1),
            (pair.e, other.d),
            (pair.e + zq, pair.d),
        ):
            full = pow(pp.g_p, e * pow(msk.p, -1, zq) % zq, pp.N) == d % pp.N
            assert kgc.verify_pair(pp, msk, e, d) == full


class TestIssuerCrt:
    @settings(max_examples=60, deadline=None)
    @given(bits=st.integers(16, 96), seed=st.integers(0, 1 << 32))
    def test_matches_full_modulus_toy(self, bits, seed):
        pp, msk = params.setup(params.security_level("toy", bits), Rng(seed))
        _matches_full_modulus(pp, msk, Rng(seed + 1))

    def test_matches_full_modulus_level80(self, big1024):
        _matches_full_modulus(*big1024, Rng(21))

    def test_foreign_master_secret_rejected(self, toy64):
        pp, _ = toy64
        _, other = params.setup(params.security_level("toy", 64), Rng(22))
        store = kgc.new_keystore(pp)
        with pytest.raises(ParamsMismatch):
            kgc.keygen(pp, other, store, "alice", Rng(23))
        assert not store.records
        pair = kgc.keygen(pp, toy64[1], store, "alice", Rng(23))
        with pytest.raises(ParamsMismatch):
            kgc.verify_pair(pp, other, pair.e, pair.d)


class TestKeystoreFiles:
    def test_roundtrip(self, toy16, tmp_path):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        rng = Rng(11)
        for i in range(30):
            kgc.keygen(pp, msk, store, f"user-{i:02d}", rng)
        path = str(tmp_path / "ks.tsv")
        kgc.store_save(store, path)
        assert kgc.store_load(path, pp) == store

    def test_params_mismatch(self, toy16, forced713, tmp_path):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        path = str(tmp_path / "ks.tsv")
        kgc.store_save(store, path)
        with pytest.raises(ParamsMismatch):
            kgc.store_load(path, forced713[0])

    def test_pair_lookup(self, toy16_users):
        store, pairs = toy16_users
        assert store.pair(pairs[0].user_id) == pairs[0]
        with pytest.raises(UnknownUser):
            store.pair("nobody")

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda lines: [],  # empty file
            lambda lines: ["garbage"] + lines[1:],  # bad header
            lambda lines: lines + [lines[1]],  # duplicate user row
            lambda lines: lines + ["short\trow"],  # wrong column count
            lambda lines: lines + [lines[1].replace("a00", "b00", 1)],  # dup e
            lambda lines: lines + [lines[1].replace("a00", "b\r0", 1)],  # bad id
            lambda lines: [lines[0], lines[1].replace("a00", "a,00", 1)],  # id with ","
            lambda lines: [lines[0], lines[1].replace("a00", "a00 ", 1)],  # trailing space
        ],
    )
    def test_load_rejects_malformed(self, toy16, tmp_path, mutation):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        kgc.keygen(pp, msk, store, "a00", Rng(13))
        path = str(tmp_path / "ks.tsv")
        kgc.store_save(store, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(mutation(lines)) + "\n")
        with pytest.raises(FormatError):
            kgc.store_load(path, pp)

    def test_unsorted_rows_rejected(self, toy16, tmp_path):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        for i, uid in enumerate(("alice", "bob")):
            kgc.keygen(pp, msk, store, uid, Rng(14 + i))
        path = str(tmp_path / "ks.tsv")
        kgc.store_save(store, path)
        header, alice, bob = artifact.read_text(path).splitlines()
        artifact.write(path, f"{header}\n{bob}\n{alice}\n")
        with pytest.raises(FormatError, match="out of order"):
            kgc.store_load(path, pp)

    def test_missing_final_newline_rejected(self, toy16, tmp_path):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        kgc.keygen(pp, msk, store, "alice", Rng(16))
        path = str(tmp_path / "ks.tsv")
        kgc.store_save(store, path)
        artifact.write(path, artifact.read(path)[:-1])
        with pytest.raises(FormatError, match="newline"):
            kgc.store_load(path, pp)

    @settings(max_examples=200, deadline=None)
    @given(edits=EDITS)
    def test_accepted_bytes_reserialise_exactly(self, toy16, tmp_path_factory, edits):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        for i, uid in enumerate(("a00", "a01", "é")):
            kgc.keygen(pp, msk, store, uid, Rng(17 + i))
        path = str(tmp_path_factory.getbasetemp() / "ks-edits.tsv")
        kgc.store_save(store, path)
        raw = apply_edits(artifact.read(path), edits)
        artifact.write(path, raw)
        try:
            loaded = kgc.store_load(path, pp)
        except (FormatError, ParamsMismatch):
            return
        kgc.store_save(loaded, path)
        assert artifact.read(path) == raw
