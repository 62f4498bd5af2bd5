import pytest

from mpnike import broadcast, kgc, nike, params
from mpnike.errors import (
    AuthFailure,
    FormatError,
    GroupTooSmall,
    NotAuthorized,
    ParamsMismatch,
    UnknownUser,
)
from mpnike.numt import Rng


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
        "mangle",
        [
            lambda raw: b"XXNIKEBC" + raw[8:],  # magic
            lambda raw: raw[:-1],  # truncated
            lambda raw: raw + b"\x00",  # trailing
            lambda raw: raw[:8] + b"\x00\x00\x00\x02\x00\x02" + raw[14:],  # version
        ],
    )
    def test_malformed_rejected(self, system, mangle):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"m", Rng(79))
        raw = broadcast.ct_to_bytes(bc)
        with pytest.raises(FormatError):
            broadcast.ct_from_bytes(mangle(raw))

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
