import dataclasses
import math
import os
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EDITS, ScriptedRng, apply_edits, issuing
from mpnike import artifact, kgc, nike, numt, params
from mpnike.errors import (
    CollisionBudgetExceeded,
    DuplicateUser,
    FormatError,
    InvalidInput,
    MpnikeError,
    ParamsMismatch,
    UnknownUser,
)
from mpnike.numt import Rng, count_mod_exps

from oracles import closed_form_group_element, issuance_exponents, slow_pow


class TestKeygen:
    def test_worked_instance(self, forced713):
        pp, msk = forced713
        store = kgc.new_keystore(pp)
        pair = kgc.keygen(pp, msk, store, "alice", issuing(5, 3))
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
        pair = kgc.keygen(pp, msk, kgc.new_keystore(pp), "a", issuing(y, k))
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
        # every draw is 32, so y = k = 65 and each re-drawn k collides again
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        kgc.keygen(pp, msk, store, "a", ScriptedRng(repeat(32)))
        with pytest.raises(CollisionBudgetExceeded):
            kgc.keygen(pp, msk, store, "b", ScriptedRng(repeat(32)))

    def test_collision_with_loaded_or_given_records(self, toy16, tmp_path):
        # the index of issued e is filled by store_load and by the constructor
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        kgc.keygen(pp, msk, store, "a", ScriptedRng(repeat(32)))
        path = str(tmp_path / "ks.tsv")
        kgc.store_save(store, path)
        built = kgc.Keystore(store.params_ref, dict(store.records))
        for reloaded in (kgc.store_load(path, pp), built):
            assert reloaded.issued_keys == {store.pair("a").e}
            with pytest.raises(CollisionBudgetExceeded):
                kgc.keygen(pp, msk, reloaded, "b", ScriptedRng(repeat(32)))

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

    def test_p_without_inverse_mod_zq_is_an_error(self, toy64, toy64_users):
        # p = z keeps p' * q' == N, so only the inverse of p mod z*q can catch it
        pp, msk = toy64
        broken = dataclasses.replace(msk, p=msk.z)
        store = kgc.new_keystore(pp)
        with pytest.raises(InvalidInput, match="malformed"):
            kgc.keygen(pp, broken, store, "alice", Rng(24))
        assert not store.records and store.issuer is None
        _, pairs = toy64_users
        with pytest.raises(InvalidInput, match="malformed"):
            kgc.group_element(pp, broken, [p.e for p in pairs[:3]])

    @pytest.mark.parametrize("level", ["toy64", "big1024"])
    def test_group_element_is_the_closed_form(self, request, level):
        pp, msk = request.getfixturevalue(level)
        _, pairs = request.getfixturevalue(f"{level}_users")
        for members in (pairs[:2], pairs[:5], pairs):
            es = [p.e for p in members]
            with count_mod_exps() as counter:
                F = kgc.group_element(pp, msk, es + es[:1])  # a repeated e counts once
            assert counter.count == 0
            ys = [issuance_exponents(msk, e)[0] for e in es]
            assert F == closed_form_group_element(msk, pp.N, ys)
            assert F == nike.shared_key(pp, members[0], es[1:]).F


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

    def test_kept_powers_are_not_part_of_the_pair(self, toy64, tmp_path):
        pp, msk = toy64
        store = kgc.new_keystore(pp)
        pairs = [kgc.keygen(pp, msk, store, f"u{i}", Rng(i)) for i in range(6)]
        kgc.store_save(store, str(tmp_path / "before"))
        held = pairs[0]
        fresh = kgc.KeyPair(held.user_id, held.e, held.d)
        assert held.powers is None
        assert held.raise_d([p.e for p in pairs[1:]], pp.N) == pow(
            held.d, math.prod(p.e for p in pairs[1:]), pp.N
        )
        assert held.powers is not None and fresh.powers is None
        assert held == fresh and hash(held) == hash(fresh) and repr(held) == repr(fresh)
        assert "powers" not in repr(held)
        kgc.store_save(store, str(tmp_path / "after"))
        assert (tmp_path / "after").read_bytes() == (tmp_path / "before").read_bytes()
        assert kgc.store_load(str(tmp_path / "after"), pp).pair("u0").powers is None

    def test_issuer_is_not_part_of_the_keystore(self, toy64, tmp_path):
        pp, msk = toy64
        store = kgc.new_keystore(pp)
        for i in range(4):
            kgc.keygen(pp, msk, store, f"u{i}", Rng(i))
        wrapped = kgc.Keystore(store.params_ref, dict(store.records))
        assert store.issuer is msk and wrapped.issuer is None
        kgc.store_save(store, str(tmp_path / "issued"))
        kgc.store_save(wrapped, str(tmp_path / "wrapped"))
        assert (tmp_path / "issued").read_bytes() == (tmp_path / "wrapped").read_bytes()
        loaded = kgc.store_load(str(tmp_path / "issued"), pp)
        assert store == loaded and loaded.issuer is None
        # the master secret's own repr prints p' and q', the factors of N
        assert str(msk.p_prime) in repr(msk)
        for factor in (msk.p_prime, msk.q_prime):
            assert str(factor) not in repr(store) and numt.int_to_hex(factor) not in repr(store)
        assert repr(store) == repr(wrapped)

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

    @pytest.mark.parametrize("column, field", [(1, "e"), (2, "d")])
    def test_bad_hex_error_names_line_and_field_not_value(self, toy16, tmp_path, column, field):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        for i, uid in enumerate(("alice", "bob")):
            kgc.keygen(pp, msk, store, uid, Rng(30 + i))
        path = str(tmp_path / "ks.tsv")
        kgc.store_save(store, path)
        header, alice, bob = artifact.read_text(path).splitlines()
        cols = bob.split("\t")
        cols[column] = "0" + cols[column]
        row = "\t".join(cols)
        artifact.write(path, f"{header}\n{alice}\n{row}\n")
        with pytest.raises(FormatError) as exc:
            kgc.store_load(path, pp)
        assert str(exc.value) == f"{path}:3: {field} is not canonical lowercase hex"

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

    @settings(max_examples=200, deadline=None)
    @given(
        edits=EDITS,
        rows_only=st.booleans(),
        named=st.lists(st.sampled_from(("a00", "a01", "é", "a02")), max_size=3),
    )
    def test_member_read_accepts_what_store_load_accepts(
        self, toy64, tmp_path_factory, edits, rows_only, named
    ):
        pp, msk = toy64
        store = kgc.new_keystore(pp)
        for i, uid in enumerate(("a00", "a01", "é")):
            kgc.keygen(pp, msk, store, uid, Rng(17 + i))
        path = str(tmp_path_factory.getbasetemp() / "ks-member-read.tsv")
        kgc.store_save(store, path)
        raw = artifact.read(path)
        # edits anywhere, or (to reach the rows more often) only after the header line
        keep = raw.index(b"\n") + 1 if rows_only else 0
        artifact.write(path, raw[:keep] + apply_edits(raw[keep:], edits))
        try:
            loaded = kgc.store_load(path, pp)
        except (FormatError, ParamsMismatch) as exc:
            with pytest.raises(type(exc)) as member:
                kgc.load_pairs(path, pp, named)
            assert type(member.value) is type(exc) and str(member.value) == str(exc)
            return
        unknown = [uid for uid in named if uid not in loaded.records]
        if unknown:
            with pytest.raises(UnknownUser) as member:
                kgc.load_pairs(path, pp, named)
            assert str(member.value) == str(UnknownUser(unknown[0]))
        else:
            assert kgc.load_pairs(path, pp, named) == {uid: loaded.records[uid] for uid in named}

    def test_member_read_decodes_only_the_named_rows(
        self, toy16, toy16_users, tmp_path, monkeypatch
    ):
        store, pairs = toy16_users
        path = str(tmp_path / "ks.tsv")
        kgc.store_save(store, path)
        built = []
        make = kgc.KeyPair
        monkeypatch.setattr(kgc, "KeyPair", lambda *a: built.append(a[0]) or make(*a))
        named = [pairs[2].user_id, pairs[0].user_id, pairs[2].user_id]
        assert kgc.load_pairs(path, toy16[0], named) == {u: store.pair(u) for u in named}
        assert sorted(built) == sorted(set(named))
        with pytest.raises(UnknownUser):
            kgc.load_pairs(path, toy16[0], [pairs[0].user_id, "nobody"])


def _valid_id(user_id: str) -> bool:
    try:
        kgc._check_user_id(user_id)
    except InvalidInput:
        return False
    return True


# "é" * 128 is exactly 256 UTF-8 bytes; "é" * 129 and the rest are refused
_VALID_IDS = st.one_of(
    st.sampled_from(("a00", "é", "é" * 128, "zz")),
    st.text(min_size=1, max_size=6).filter(_valid_id),
)
_BAD_IDS = st.sampled_from(("", "é" * 129, "a,b", " a", "a\tb", "a\u2028b"))


def _issue_both_ways(pp, msk, path, raw, user_id, make_rng):
    """Issue user_id into the keystore bytes raw (None: no file) at path, once by
    store_load + keygen + store_save and once by store_issue.  Per way: the pair or
    (error type, message), the file's bytes afterwards, and the Rng's next draw."""
    ways = []
    for way in ("load-keygen-save", "store_issue"):
        if os.path.exists(path):
            os.unlink(path)
        if raw is not None:
            artifact.write(path, raw, private=True)
        rng = make_rng()
        try:
            if way == "store_issue":
                got = kgc.store_issue(path, pp, msk, user_id, rng)
            else:
                store = kgc.store_load(path, pp) if raw is not None else kgc.new_keystore(pp)
                got = kgc.keygen(pp, msk, store, user_id, rng)
                kgc.store_save(store, path)
        except MpnikeError as exc:
            got = (type(exc), str(exc))
        written = artifact.read(path) if os.path.exists(path) else None
        ways.append((got, written, rng.getrandbits(64)))
    return ways


class TestStoreIssue:
    """`store_issue` checks every row and encodes only the new one, with the draws
    and bytes of store_load + keygen + store_save."""

    @settings(max_examples=150, deadline=None)
    @given(
        roster=st.lists(_VALID_IDS, unique=True, max_size=6),
        absent=st.booleans(),
        seed=st.integers(0, 1 << 32),
        data=st.data(),
    )
    def test_same_bytes_as_load_keygen_save(
        self, toy16, tmp_path_factory, roster, absent, seed, data
    ):
        pp, msk = toy16
        store, rng = kgc.new_keystore(pp), Rng(seed + 1)
        for uid in roster:
            kgc.keygen(pp, msk, store, uid, rng)
        path = str(tmp_path_factory.getbasetemp() / "ks-issue-parity.tsv")
        raw = None
        if roster or not absent:
            kgc.store_save(store, path)
            raw = artifact.read(path)
        pick = [_VALID_IDS, _BAD_IDS] + ([st.sampled_from(roster)] if roster else [])
        user_id = data.draw(st.one_of(pick))
        old, new = _issue_both_ways(pp, msk, path, raw, user_id, lambda: Rng(seed))
        assert new == old
        if not isinstance(new[0], kgc.KeyPair):
            assert new[1] == raw

    @settings(max_examples=200, deadline=None)
    @given(
        edits=EDITS,
        rows_only=st.booleans(),
        user_id=st.sampled_from(("a02", "a00", "é" * 128, "")),
    )
    def test_edited_file_fails_as_store_load_fails(
        self, toy16, tmp_path_factory, edits, rows_only, user_id
    ):
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        for i, uid in enumerate(("a00", "a01", "é")):
            kgc.keygen(pp, msk, store, uid, Rng(17 + i))
        path = str(tmp_path_factory.getbasetemp() / "ks-issue-edits.tsv")
        kgc.store_save(store, path)
        raw = artifact.read(path)
        # edits anywhere, or (to reach the rows more often) only after the header line
        keep = raw.index(b"\n") + 1 if rows_only else 0
        raw = raw[:keep] + apply_edits(raw[keep:], edits)
        old, new = _issue_both_ways(pp, msk, path, raw, user_id, lambda: Rng(40))
        assert new == old
        try:
            artifact.write(path, raw)
            kgc.store_load(path, pp)
        except (FormatError, ParamsMismatch) as exc:
            assert new[0] == (type(exc), str(exc)) and new[1] == raw

    @pytest.mark.parametrize(
        "script, error",
        [(lambda: [5, 3], None), (lambda: repeat(32), CollisionBudgetExceeded)],
        ids=["one resample", "budget exhausted"],
    )
    def test_collisions_as_keygen(self, toy16, tmp_path, script, error):
        # "b" replays the draws that issued "a" (see TestKeygen's collision tests)
        pp, msk = toy16
        store = kgc.new_keystore(pp)
        first = kgc.keygen(pp, msk, store, "a", ScriptedRng(script(), seed=1))
        path = str(tmp_path / "ks.tsv")
        kgc.store_save(store, path)
        raw = artifact.read(path)
        old, new = _issue_both_ways(pp, msk, path, raw, "b", lambda: ScriptedRng(script(), seed=2))
        assert new == old
        if error is None:
            assert new[0].e != first.e
        else:
            assert new[0][0] is error and new[1] == raw
