import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EDITS, apply_edits
from mpnike import broadcast, kgc, nike, params
from mpnike.errors import (
    AuthFailure,
    FormatError,
    GroupTooSmall,
    NotAuthorized,
    ParamsMismatch,
    UnknownUser,
)
from mpnike.numt import Rng, count_mod_exps


@pytest.fixture(scope="module")
def system():
    return broadcast.brod_setup(6, params.security_level("toy", 16), Rng(61))


class TestSetup:
    def test_enrolls_eta_users(self, system):
        pp, msk, store = system
        assert len(store.records) == 6
        assert sorted(store.records) == [f"user{i:03d}" for i in range(1, 7)]
        assert params.validate(pp, msk).ok

    def test_rejects_tiny_system(self):
        with pytest.raises(GroupTooSmall):
            broadcast.brod_setup(1, params.security_level("toy", 16), Rng(62))


class TestEncryptDecrypt:
    def test_roundtrip_all_members(self, system):
        pp, _, store = system
        ids = ["user001", "user003", "user005"]
        bc = broadcast.brod_encrypt(store, pp, ids, b"attack at dawn", Rng(63))
        for uid in ids:
            assert broadcast.brod_decrypt(pp, store.pair(uid), bc) == b"attack at dawn"

    def test_empty_message_ok(self, system):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"", Rng(64))
        assert broadcast.brod_decrypt(pp, store.pair("user001"), bc) == b""

    def test_outsider_rejected_before_crypto(self, system):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user003"], b"x", Rng(65))
        with pytest.raises(NotAuthorized):
            broadcast.brod_decrypt(pp, store.pair("user002"), bc)

    def test_eviction(self, system):
        # re-encrypt to a smaller set: the evicted member must fail closed
        pp, _, store = system
        everyone = [f"user{i:03d}" for i in range(1, 7)]
        bc_all = broadcast.brod_encrypt(store, pp, everyone, b"v1", Rng(66))
        assert broadcast.brod_decrypt(pp, store.pair("user004"), bc_all) == b"v1"
        bc_after = broadcast.brod_encrypt(
            store, pp, [u for u in everyone if u != "user004"], b"v2", Rng(67)
        )
        with pytest.raises(NotAuthorized):
            broadcast.brod_decrypt(pp, store.pair("user004"), bc_after)

    def test_tampered_ciphertext_fails_auth(self, system):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"hi", Rng(68))
        for index in range(len(bc.ct)):
            flipped = bytearray(bc.ct)
            flipped[index] ^= 1
            broken = broadcast.BroadcastCiphertext(
                params_ref=bc.params_ref,
                authorized=bc.authorized,
                nonce=bc.nonce,
                ct=bytes(flipped),
            )
            with pytest.raises(AuthFailure):
                broadcast.brod_decrypt(pp, store.pair("user001"), broken)

    def test_tampered_recipient_list_fails_auth(self, system):
        # grafting an extra e into the header invalidates the tag
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"hi", Rng(69))
        intruder = store.records["user005"].e
        with_intruder = tuple(sorted(bc.authorized + (intruder,)))
        broken = broadcast.BroadcastCiphertext(
            params_ref=bc.params_ref,
            authorized=with_intruder,
            nonce=bc.nonce,
            ct=bc.ct,
        )
        with pytest.raises(AuthFailure):
            broadcast.brod_decrypt(pp, store.pair("user001"), broken)

    def test_unknown_user(self, system):
        pp, _, store = system
        with pytest.raises(UnknownUser):
            broadcast.brod_encrypt(store, pp, ["user001", "ghost"], b"x", Rng(70))

    def test_group_too_small(self, system):
        pp, _, store = system
        with pytest.raises(GroupTooSmall):
            broadcast.brod_encrypt(store, pp, ["user001"], b"x", Rng(71))
        with pytest.raises(GroupTooSmall):
            broadcast.brod_encrypt(store, pp, ["user001", "user001"], b"x", Rng(72))

    def test_params_binding(self, system, toy16):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"x", Rng(73))
        other_pp, _ = toy16
        with pytest.raises(ParamsMismatch):
            broadcast.brod_decrypt(other_pp, store.pair("user001"), bc)
        foreign = kgc.Keystore(params.params_digest(other_pp), dict(store.records))
        with pytest.raises(ParamsMismatch, match="keystore"):
            broadcast.brod_encrypt(foreign, pp, ["user001", "user002"], b"x", Rng(73))

    def test_deterministic_under_seed(self, system):
        pp, _, store = system
        ids = ["user002", "user006"]
        a = broadcast.brod_encrypt(store, pp, ids, b"same", Rng(74))
        b = broadcast.brod_encrypt(store, pp, ids, b"same", Rng(74))
        assert broadcast.ct_to_bytes(a) == broadcast.ct_to_bytes(b)

    def test_any_sender_view_works(self, system):
        # whoever the library picks as the deriving member, every other
        # member's private view must open the result
        pp, _, store = system
        ids = ["user006", "user001", "user004"]  # deliberately unsorted
        bc = broadcast.brod_encrypt(store, pp, ids, b"m", Rng(75))
        for uid in ids:
            assert broadcast.brod_decrypt(pp, store.pair(uid), bc) == b"m"


@pytest.fixture(scope="module")
def roster():
    return broadcast.brod_setup(12, params.security_level("toy", 64), Rng(90))


def _ids(*numbers):
    return [f"user{i:03d}" for i in numbers]


def _fresh(store):
    """A keystore with the same records and nothing remembered."""
    return kgc.Keystore(store.params_ref, dict(store.records))


def _encrypt_cost(store, pp, ids):
    with count_mod_exps() as counter:
        broadcast.brod_encrypt(store, pp, ids, b"m", Rng(0))
    return counter.count


_ROSTER_IDS = _ids(*range(1, 13))
# prefixes of one roster order (nested, as a gateway's sets often are) or any subset
_AUTHORIZED = st.one_of(
    st.integers(2, 12).map(lambda n: _ROSTER_IDS[:n]),
    st.sets(st.sampled_from(_ROSTER_IDS), min_size=2).map(sorted),
)


class TestKeystoreMemo:
    @settings(max_examples=60, deadline=None)
    @given(sets=st.lists(_AUTHORIZED, min_size=1, max_size=12), seed=st.integers(0, 1 << 32))
    def test_ciphertexts_equal_a_fresh_keystores(self, roster, sets, seed):
        pp, _, issued = roster
        store = _fresh(issued)
        for i, ids in enumerate(sets):
            got = broadcast.brod_encrypt(store, pp, ids, b"payload", Rng(seed + i))
            want = broadcast.brod_encrypt(_fresh(issued), pp, ids, b"payload", Rng(seed + i))
            assert broadcast.ct_to_bytes(got) == broadcast.ct_to_bytes(want)
            assert len(store.derived) <= broadcast.MEMO_SETS

    def test_exponentiation_counts(self, roster):
        pp, _, issued = roster
        store = _fresh(issued)
        assert _encrypt_cost(store, pp, _ids(1, 2, 3, 4)) == 3  # miss: |W| - 1
        assert _encrypt_cost(store, pp, _ids(4, 3, 2, 1)) == 0  # exact repeat
        assert _encrypt_cost(store, pp, _ids(1, 2, 3, 4, 5, 6, 7)) == 3  # 3 new members
        assert _encrypt_cost(store, pp, _ids(1, 2, 3, 4, 5, 6, 7, 8)) == 1  # largest subset
        assert _encrypt_cost(store, pp, _ids(1, 2, 3, 9, 10)) == 4  # no remembered subset
        assert _encrypt_cost(store, pp, _ids(1, 2, 3)) == 2  # a subset is a miss too

    def test_memo_keeps_the_newest_sets(self, roster):
        pp, _, issued = roster
        store = _fresh(issued)
        sets = [frozenset(_ids(1, i)) for i in range(2, 13)]
        sets += [frozenset(_ids(2, i)) for i in range(3, 13)]
        for ids in sets:
            broadcast.brod_encrypt(store, pp, ids, b"m", Rng(1))
            assert len(store.derived) <= broadcast.MEMO_SETS
        remembered = [frozenset(state.members) for state in store.derived.values()]
        newest = [frozenset(store.pair(u).e for u in ids) for ids in sets[-broadcast.MEMO_SETS :]]
        assert remembered == newest
        # a hit makes its set the newest, so the oldest left is the one evicted next
        broadcast.brod_encrypt(store, pp, sets[-broadcast.MEMO_SETS], b"m", Rng(1))
        broadcast.brod_encrypt(store, pp, _ids(3, 4), b"m", Rng(1))
        assert newest[0] in store.derived and newest[1] not in store.derived

    def test_memo_is_not_part_of_the_keystore(self, roster, tmp_path):
        pp, _, issued = roster
        store = _fresh(issued)
        before, after = str(tmp_path / "before.tsv"), str(tmp_path / "after.tsv")
        kgc.store_save(store, before)
        for n in range(2, 8):
            broadcast.brod_encrypt(store, pp, _ROSTER_IDS[:n], b"m", Rng(n))
        assert store.derived
        kgc.store_save(store, after)
        with open(before, "rb") as fh_before, open(after, "rb") as fh_after:
            assert fh_before.read() == fh_after.read()
        assert store == _fresh(issued) == kgc.store_load(after, pp)
        assert repr(store) == repr(_fresh(issued))


class TestWireFormat:
    def test_roundtrip(self, system, tmp_path):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"m", Rng(76))
        raw = broadcast.ct_to_bytes(bc)
        assert broadcast.ct_from_bytes(raw) == bc
        path = str(tmp_path / "ct.bin")
        broadcast.ct_save(bc, path)
        assert broadcast.ct_load(path) == bc

    def test_layout(self, system):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"m", Rng(77))
        raw = broadcast.ct_to_bytes(bc)
        assert raw.startswith(b"MPNIKEBC")
        # sections: version, digest, count, e1, e2, nonce, ct
        offset = 8
        sections = []
        while offset < len(raw):
            n = int.from_bytes(raw[offset : offset + 4], "big")
            sections.append(raw[offset + 4 : offset + 4 + n])
            offset += 4 + n
        assert len(sections) == 7
        assert sections[0] == (1).to_bytes(2, "big")
        assert sections[1].hex() == bc.params_ref
        assert int.from_bytes(sections[2], "big") == 2
        assert [int.from_bytes(s, "big") for s in sections[3:5]] == list(bc.authorized)
        assert sections[5] == bc.nonce
        assert sections[6] == bc.ct

    def test_no_key_material_on_wire(self, system):
        pp, msk, store = system
        ids = ["user001", "user002"]
        bc = broadcast.brod_encrypt(store, pp, ids, b"m", Rng(78))
        raw = broadcast.ct_to_bytes(bc)
        sender = store.pair("user001")
        state = nike.shared_key(pp, sender, [store.records["user002"].e])
        assert state.K not in raw
        width = (pp.N.bit_length() + 7) // 8
        assert state.F.to_bytes(width, "big") not in raw
        assert sender.d.to_bytes(width, "big") not in raw

    @pytest.mark.parametrize(
        "mangle, match",
        [
            # ids as pytest named the cases when each was a bare lambda
            pytest.param(mangle, match, id=f"<lambda>{i}")
            for i, (mangle, match) in enumerate([
                (lambda raw: b"XXNIKEBC" + raw[8:], "magic"),
                (lambda raw: raw[:-1], "truncated"),
                (lambda raw: raw + b"\x00", "truncated"),  # trailing
                (lambda raw: raw[:8] + b"\x00\x00\x00\x02\x00\x02" + raw[14:], "version"),
                (lambda raw: raw[:50] + b"\x00\x00\x00\x05\x00" + raw[54:], "count must be 4"),
                # 31-byte digest section, its length prefix fixed up
                (lambda raw: raw[:14] + (31).to_bytes(4, "big") + raw[18:49] + raw[50:],
                 "digest must be 32"),
                # a count of 1 or 3 beside the two key sections
                (lambda raw: raw[:54] + (1).to_bytes(4, "big") + raw[58:], "count 1 but 2"),
                (lambda raw: raw[:54] + (3).to_bytes(4, "big") + raw[58:], "count 3 but 2"),
                # the header alone: version, digest and count
                (lambda raw: raw[:58], "at least 5 sections, got 3"),
                # 11-byte nonce section, its length prefix fixed up; the 17-byte ct is last
                (lambda raw: raw[:-37] + (11).to_bytes(4, "big") + raw[-33:-22] + raw[-21:],
                 "nonce must be 12"),
            ])
        ],
    )
    def test_malformed_rejected(self, system, mangle, match):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"m", Rng(79))
        raw = broadcast.ct_to_bytes(bc)
        with pytest.raises(FormatError, match=match):
            broadcast.ct_from_bytes(mangle(raw))

    @pytest.mark.parametrize("authorized", [(), (2,)], ids=["count0", "count1"])
    def test_fewer_than_two_members_rejected(self, system, authorized):
        pp, _, _ = system
        digest = params.params_digest(pp)
        for ct, size in ((b"", 78), (bytes(16), 94)):
            bc = broadcast.BroadcastCiphertext(digest, authorized, bytes(12), ct)
            raw = broadcast.ct_to_bytes(bc)
            assert len(raw) == size + 5 * len(authorized)
            with pytest.raises(FormatError, match="at least 2"):
                broadcast.ct_from_bytes(raw)

    def test_ct_shorter_than_tag_rejected(self, system):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"", Rng(82))
        assert len(bc.ct) == broadcast.TAG_LEN
        assert broadcast.ct_from_bytes(broadcast.ct_to_bytes(bc)) == bc
        short = broadcast.BroadcastCiphertext(bc.params_ref, bc.authorized, bc.nonce, bc.ct[:15])
        with pytest.raises(FormatError, match="16-byte tag"):
            broadcast.ct_from_bytes(broadcast.ct_to_bytes(short))

    def test_non_minimal_integer_rejected(self, system):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"m", Rng(80))
        e = bc.authorized[0]
        width = (e.bit_length() + 7) // 8
        good = len(e.to_bytes(width, "big")).to_bytes(4, "big") + e.to_bytes(width, "big")
        padded = (width + 1).to_bytes(4, "big") + e.to_bytes(width + 1, "big")
        raw = broadcast.ct_to_bytes(bc).replace(good, padded, 1)
        with pytest.raises(FormatError):
            broadcast.ct_from_bytes(raw)

    # the count section's length field is bytes 50..53, after the magic, the
    # version section and the 32-byte digest section
    @example([("set", 53, 5), ("insert", 54, 0)])  # 5-byte count with a leading zero
    @settings(max_examples=300, deadline=None)
    @given(edits=EDITS)
    def test_accepted_bytes_reserialise_exactly(self, system, edits):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"m", Rng(81))
        raw = apply_edits(broadcast.ct_to_bytes(bc), edits)
        try:
            parsed = broadcast.ct_from_bytes(raw)
        except FormatError:
            return
        assert broadcast.ct_to_bytes(parsed) == raw
