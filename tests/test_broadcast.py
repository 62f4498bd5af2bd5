import dataclasses
import functools
import random

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EDITS, apply_edits, enrolled, without_libcrypto
from mpnike import broadcast, kgc, nike, params
from mpnike.cli import main
from mpnike.errors import (
    AuthFailure,
    DegenerateResult,
    EmptyGroup,
    FormatError,
    InvalidInput,
    MpnikeError,
    NotAuthorized,
    ParamsMismatch,
    UnknownUser,
)
from mpnike.numt import Rng, count_mod_exps


@pytest.fixture(scope="module")
def system():
    return enrolled(6, 16, Rng(61))


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
        with pytest.raises(EmptyGroup, match="need at least two authorized users"):
            broadcast.brod_encrypt(store, pp, ["user001"], b"x", Rng(71))
        with pytest.raises(EmptyGroup, match="need at least two authorized users"):
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
    return enrolled(12, 64, Rng(90))


@functools.cache
def _issued(bits, seed):
    """A toy system whose keystore `keygen` issued into: user001 to user008."""
    pp, _, store = enrolled(8, bits, Rng(seed))
    return pp, store


def _ids(*numbers):
    return [f"user{i:03d}" for i in numbers]


def _wrapped(store):
    """The same records in a keystore with no issuer, as the CLI builds one."""
    return kgc.Keystore(store.params_ref, dict(store.records))


def _sent(store, pp, ids, seed):
    """The bytes of an encryption to ids, or DegenerateResult when F_W is 1."""
    try:
        return broadcast.ct_to_bytes(broadcast.brod_encrypt(store, pp, ids, b"m", Rng(seed)))
    except DegenerateResult:
        return DegenerateResult


def _encrypt_cost(store, pp, ids):
    with count_mod_exps() as counter:
        broadcast.brod_encrypt(store, pp, ids, b"m", Rng(0))
    return counter.count


class TestIssuerPath:
    @pytest.mark.parametrize("bits", [16, 64])
    @example(seed=2, numbers={2, 6}, nonce=0)  # F_W = 1 at toy-16
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(1, 29),
        numbers=st.sets(st.integers(1, 8), min_size=2),
        nonce=st.integers(0, 1 << 32),
    )
    def test_issuer_and_member_send_the_same_bytes(self, bits, seed, numbers, nonce):
        pp, store = _issued(bits, seed)
        ids = _ids(*numbers)
        assert store.issuer is not None
        assert _sent(store, pp, ids, nonce) == _sent(_wrapped(store), pp, ids, nonce)

    def test_issuer_reads_no_members_d(self):
        pp, _, store = enrolled(5, 64, Rng(91))
        true_pairs = dict(store.records)
        for user_id, pair in true_pairs.items():
            store.records[user_id] = kgc.KeyPair(user_id, pair.e, 2)
        bc = broadcast.brod_encrypt(store, pp, sorted(true_pairs), b"m", Rng(92))
        for pair in true_pairs.values():
            assert broadcast.brod_decrypt(pp, pair, bc) == b"m"

    def test_exponentiation_counts(self, roster):
        pp, _, issued = roster
        for ids in (_ids(1, 2), _ids(4, 3, 2, 1), _ids(*range(1, 13))):
            assert _encrypt_cost(_wrapped(issued), pp, ids) == len(ids) - 1
            assert _encrypt_cost(issued, pp, ids) == 0


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


def _seal(key, nonce, message, aad):
    return broadcast._aes_gcm(key, nonce, message, aad, seal=True)


def _open(key, nonce, ct, aad):
    return broadcast._aes_gcm(key, nonce, ct, aad, seal=False)


def _flip(raw: bytes, bit: int) -> bytes:
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


class TestAesGcm:
    """The libcrypto AES-256-GCM against known answers and `cryptography`'s AESGCM."""

    # McGrew and Viega, "The Galois/Counter Mode of Operation", test cases 13 and 14:
    # AES-256, all-zero key and IV, no associated data
    @pytest.mark.parametrize("message, sealed", [
        (b"", "530f8afbc74536b9a963b4f1c4cb738b"),
        (bytes(16), "cea7403d4d606b6e074ec5d3baf39d18" "d0d1c8a799996bf0265b98b5d48ab919"),
    ], ids=["case13", "case14"])
    def test_known_answer(self, message, sealed):
        key, nonce = bytes(32), bytes(12)
        assert _seal(key, nonce, message, b"").hex() == sealed
        assert _open(key, nonce, bytes.fromhex(sealed), b"") == message

    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 1024, 65536])
    @pytest.mark.parametrize("aad_size", [0, 1, 300])
    def test_matches_cryptography(self, size, aad_size):
        draw = random.Random(f"aes-gcm-{size}-{aad_size}").randbytes
        key, nonce, message, aad = draw(32), draw(12), draw(size), draw(aad_size)
        sealed = _seal(key, nonce, message, aad)
        assert sealed == AESGCM(key).encrypt(nonce, message, aad)
        assert _open(key, nonce, sealed, aad) == message

    # every bit of one input: the body is the sealed bytes before the tag
    @pytest.mark.parametrize("name, bits", [
        ("nonce", range(96)), ("aad", range(240)), ("sealed", range(320)),
        ("sealed", range(320, 448)),
    ], ids=["nonce", "aad", "body", "tag"])
    def test_flipped_bit_fails_auth(self, name, bits):
        draw = random.Random("aes-gcm-flip").randbytes
        key, nonce, aad = draw(32), draw(12), draw(30)
        inputs = {"nonce": nonce, "aad": aad, "sealed": _seal(key, nonce, draw(40), aad)}
        for bit in bits:
            flipped = dict(inputs, **{name: _flip(inputs[name], bit)})
            with pytest.raises(AuthFailure, match="^broadcast ciphertext failed authentication$"):
                _open(key, flipped["nonce"], flipped["sealed"], flipped["aad"])

    def test_nonce_of_wrong_length_is_a_format_error(self, system):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"m", Rng(83))
        for nonce in (bc.nonce[:11], bc.nonce + b"\x00"):
            odd = dataclasses.replace(bc, nonce=nonce)
            with pytest.raises(FormatError, match="nonce must be 12"):
                broadcast.brod_decrypt(pp, store.pair("user001"), odd)
            with pytest.raises(FormatError, match="nonce must be 12"):
                _seal(bytes(32), nonce, b"m", b"")

    def test_ct_shorter_than_tag_fails_auth(self, system):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"", Rng(84))
        for size in (0, 1, broadcast.TAG_LEN - 1):
            short = dataclasses.replace(bc, ct=bc.ct[:size])
            with pytest.raises(AuthFailure, match="failed authentication"):
                broadcast.brod_decrypt(pp, store.pair("user002"), short)

    def test_lengths_above_the_c_int_limit_are_refused(self, system, monkeypatch):
        # the limit lowered to 8 bytes: no 2 GiB buffer is needed to reach it
        pp, _, store = system
        monkeypatch.setattr(broadcast, "_MAX_LEN", 8)
        key, nonce = bytes(32), bytes(12)
        assert _open(key, nonce, _seal(key, nonce, bytes(8), bytes(8)), bytes(8)) == bytes(8)
        for message, aad in ((bytes(9), b""), (b"", bytes(9))):
            with pytest.raises(InvalidInput, match="limited to 8 bytes"):
                _seal(key, nonce, message, aad)
        with pytest.raises(InvalidInput, match="limited to 8 bytes"):
            _open(key, nonce, bytes(9 + broadcast.TAG_LEN), b"")
        with pytest.raises(InvalidInput, match="limited to 8 bytes"):  # the header is the AAD
            broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"", Rng(85))


@pytest.fixture(scope="module")
def cli_home(tmp_path_factory):
    """A toy-16 CLI workspace with alice, bob and carol, and a message sealed to alice and bob."""
    d = tmp_path_factory.mktemp("bc-cli")
    files = {name: str(d / name) for name in ("pp", "msk", "ks", "msg", "ct")}
    pp, ks = ["--params", files["pp"]], ["--keystore", files["ks"]]
    assert main(["setup", "--security", "toy", "--toy-bits", "16", "--seed", "c1", *pp,
                 "--msk", files["msk"]]) == 0
    for user, seed in (("alice", "1"), ("bob", "2"), ("carol", "3")):
        assert main(["issue", *pp, "--msk", files["msk"], *ks, "--user", user,
                     "--seed", seed]) == 0
    with open(files["msg"], "wb") as fh:
        fh.write(b"sealed for alice and bob")
    assert main(["broadcast-encrypt", *pp, *ks, "--authorized", "alice,bob", "--in",
                 files["msg"], "--out", files["ct"], "--seed", "7"]) == 0
    return files


def _cli_decrypt(capsys, files, ct_path, out_path):
    code = main(["broadcast-decrypt", "--params", files["pp"], "--keystore", files["ks"],
                 "--user", "alice", "--in", ct_path, "--out", out_path])
    return code, capsys.readouterr().err


class TestCliAuthFailure:
    @pytest.mark.parametrize("part", ["nonce", "header", "body", "tag"])
    def test_tampered_file_writes_nothing(self, cli_home, tmp_path, capsys, part):
        bc = broadcast.ct_load(cli_home["ct"])
        pp = params.load_public(cli_home["pp"])
        alice = kgc.load_pairs(cli_home["ks"], pp, ["alice"])["alice"].e
        # bob's public key in the header, its lowest bit flipped
        header = tuple(sorted(e if e == alice else e ^ 1 for e in bc.authorized))
        tampered = {
            "nonce": dataclasses.replace(bc, nonce=_flip(bc.nonce, 0)),
            "header": dataclasses.replace(bc, authorized=header),
            "body": dataclasses.replace(bc, ct=_flip(bc.ct, 0)),
            "tag": dataclasses.replace(bc, ct=_flip(bc.ct, len(bc.ct) - 1)),
        }[part]
        broadcast.ct_save(tampered, ct_path := str(tmp_path / "tampered.ct"))
        out = tmp_path / "pt"
        code, err = _cli_decrypt(capsys, cli_home, ct_path, str(out))
        assert code == 1
        assert err == "error[AuthFailure]: broadcast ciphertext failed authentication\n"
        assert not out.exists()
        code, _ = _cli_decrypt(capsys, cli_home, cli_home["ct"], str(out))
        assert code == 0 and out.read_bytes() == b"sealed for alice and bob"


class TestWithoutLibcrypto:
    NEED = "broadcast needs the libcrypto that Python's _hashlib links"

    def test_seal_and_open_raise(self, system, monkeypatch):
        pp, _, store = system
        bc = broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"m", Rng(86))
        without_libcrypto(monkeypatch)
        with pytest.raises(MpnikeError, match=f"^{self.NEED}$"):
            broadcast.brod_encrypt(store, pp, ["user001", "user002"], b"m", Rng(86))
        with pytest.raises(MpnikeError, match=f"^{self.NEED}$"):
            broadcast.brod_decrypt(pp, store.pair("user002"), bc)

    def test_commands_exit_1_and_the_rest_run(self, cli_home, tmp_path, capsys, monkeypatch):
        without_libcrypto(monkeypatch)
        want = f"error[MpnikeError]: {self.NEED}\n"
        code = main(["broadcast-encrypt", "--params", cli_home["pp"], "--keystore",
                     cli_home["ks"], "--authorized", "alice,bob", "--in", cli_home["msg"],
                     "--out", str(tmp_path / "ct"), "--seed", "8"])
        assert (code, capsys.readouterr().err) == (1, want)
        assert _cli_decrypt(capsys, cli_home, cli_home["ct"], str(tmp_path / "pt")) == (1, want)
        assert not (tmp_path / "ct").exists() and not (tmp_path / "pt").exists()
        code = main(["derive", "--params", cli_home["pp"], "--keystore", cli_home["ks"],
                     "--user", "alice", "--group", "alice,bob"])
        assert code == 0 and capsys.readouterr().err == ""
