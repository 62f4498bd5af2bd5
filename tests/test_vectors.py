"""Known-answer vectors of the version-1 formats (tests/vectors/v1.json).

Every value in the file is recomputed twice: by the library, and from the
master secret without it, through the oracles and plain hashlib and AESGCM
calls with the format's tags, widths and layouts written out here.  So a
library change to any byte of d, F, K, a file or a ciphertext fails the
first half, and a wrong vector fails the second.  `tests/make_vectors.py`
made the file; see its docstring for the format's sources.
"""

import hashlib
import json

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from mpnike import broadcast, kgc, nike, params
from mpnike.numt import Rng

import make_vectors
from conftest import issuing
from oracles import closed_form_group_element, issuance_exponents

with open(make_vectors.OUT) as fh:
    VECTORS = json.load(fh)["testGroups"]


@pytest.fixture(params=VECTORS, ids=lambda vec: vec["name"])
def vec(request):
    return request.param


def _x(value: str) -> int:
    return int(value, 16)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read())


def _system(vec):
    """(pp, msk) as the vector states them; the tests check they are consistent."""
    p, z, q, g = (_x(vec[key]) for key in "pzqg")
    msk = params.MasterSecret(p=p, z=z, q=q, g=g, p_prime=2 * p * z + 1, q_prime=2 * q + 1)
    pp = params.PublicParams(N=_x(vec["N"]), g_p=_x(vec["g_p"]), m=_x(vec["m"]), gamma=vec["gamma"])
    return pp, msk


def _keys(vec):
    return {key["user"]: key for key in vec["keys"]}


def _issued(pp, msk, keys) -> kgc.Keystore:
    store = kgc.new_keystore(pp)
    for key in keys:
        y, k = _x(key["y"]), _x(key["k"])
        kgc.keygen(pp, msk, store, key["user"], issuing(y, k))
    return store


def _bound_file(tag: str, digest: str, lines) -> bytes:
    return "".join(f"{line}\n" for line in [f"{tag}\t{digest}", *lines]).encode()


def _frame(*payloads: bytes) -> bytes:
    return b"".join(len(payload).to_bytes(4, "big") + payload for payload in payloads)


def _oracle_F_K(vec, section, ids):
    pp, msk = _system(vec)
    F = closed_form_group_element(msk, pp.N, [_x(_keys(section)[u]["y"]) for u in ids])
    K = hashlib.sha256(b"MPNIKEv1" + F.to_bytes((pp.N.bit_length() + 7) // 8, "big")).digest()
    return F, K


def _groups(pp, pairs, vec):
    """Each group and the join, with the library's state for it."""

    def derive(ids):
        return nike.shared_key(pp, pairs[ids[0]], [pairs[u].e for u in ids[1:]])

    out = [(group, derive(group["members"])) for group in vec["groups"]]
    join = vec["join"]
    return out + [(join, nike.join(pp, derive(join["base"]), pairs[join["new"]].e))]


def test_parameters(vec, tmp_path):
    pp, msk = _system(vec)
    p, z, q = msk.p, msk.z, msk.q
    # without the library
    assert pp.N == (2 * p * z + 1) * (2 * q + 1)
    assert pp.g_p == pow(msk.g, p, pp.N)
    assert pp.m == (p * z * q).bit_length()
    lines = ["version = 1", f"gamma = {pp.gamma}", f"n = {pp.N:x}", f"g_p = {pp.g_p:x}"]
    lines += ["hash_id = sha256", "lambda = 100", f"m = {pp.m:x}"]
    assert _sha256("".join(f"{line}\n" for line in lines).encode()) == vec["params_sha256"]
    # with the library
    forced_pp, forced_msk = params.setup(params.security_level(pp.gamma), Rng(0), (p, z, q))
    assert (forced_pp.N, forced_pp.m, forced_msk.p_prime, forced_msk.q_prime) == (
        pp.N, pp.m, msk.p_prime, msk.q_prime
    )
    assert params.validate(pp, msk).ok
    assert params.params_digest(pp) == vec["params_sha256"]
    path = tmp_path / "pp.txt"
    params.save_public(pp, str(path))
    assert _file_sha256(path) == vec["params_sha256"]
    assert params.load_public(str(path)) == pp


def _check_keys(vec, section, tmp_path):
    """section's keys and keystore digest, without and with the library."""
    pp, msk = _system(vec)
    zq = msk.z * msk.q
    rows = []
    for key in section["keys"]:
        y, k, e, d = (_x(key[name]) for name in "yked")
        # without the library
        assert e == msk.p * y + zq * k
        assert d == pow(msk.g, msk.p * y, pp.N)
        assert issuance_exponents(msk, e) == (y, k)
        rows.append(f"{key['user']}\t{e:x}\t{d:x}")
    body = _bound_file("mpnike-keystore/2", vec["params_sha256"], sorted(rows))
    assert _sha256(body) == section["keystore_sha256"]
    # with the library
    store = _issued(pp, msk, section["keys"])
    for key in section["keys"]:
        pair = store.pair(key["user"])
        assert (pair.e, pair.d) == (_x(key["e"]), _x(key["d"]))
        assert kgc.verify_pair(pp, msk, pair.e, pair.d)
    kgc.store_save(store, str(tmp_path / "ks.tsv"))
    assert _file_sha256(tmp_path / "ks.tsv") == section["keystore_sha256"]


def test_keys(vec, tmp_path):
    _check_keys(vec, vec, tmp_path)


def test_issued_keys(vec, tmp_path):
    """Keys drawn where `keygen` draws: odd y < z*q and odd k < p."""
    _, msk = _system(vec)
    for key in vec["issued"]["keys"]:
        y, k = _x(key["y"]), _x(key["k"])
        assert y % 2 == k % 2 == 1 and y < msk.z * msk.q and k < msk.p
    _check_keys(vec, vec["issued"], tmp_path)


def test_group_keys_and_files(vec, tmp_path):
    pp, msk = _system(vec)
    pairs = _issued(pp, msk, vec["keys"]).records
    for group, state in _groups(pp, pairs, vec):
        want = (_x(group["F"]), bytes.fromhex(group["K"]))
        es = sorted(_x(_keys(vec)[u]["e"]) for u in group["members"])
        # without the library
        assert _oracle_F_K(vec, vec, group["members"]) == want
        body = _bound_file("mpnike-group/1", vec["params_sha256"], [f"{e:x}" for e in es])
        assert _sha256(body) == group["group_file_sha256"]
        # with the library: the group state or join, and every member's own view
        assert (state.F, state.K) == want and state.members == tuple(es)
        for u in group["members"]:
            view = nike.shared_key(pp, pairs[u], [e for e in es if e != pairs[u].e])
            assert (view.F, view.K) == want
        nike.save_group(pp, state.members, str(tmp_path / "group.txt"))
        assert _file_sha256(tmp_path / "group.txt") == group["group_file_sha256"]


def _check_ciphertext(vec, section):
    """section's ciphertext, without and with the library; returns (pp, ciphertext, payload)."""
    pp, msk = _system(vec)
    vector = section["ciphertext"]
    ids, nonce = vector["authorized"], bytes.fromhex(vector["nonce"])
    payload, raw = bytes.fromhex(vector["payload"]), bytes.fromhex(vector["bytes"])
    # without the library
    es = sorted(_x(_keys(section)[u]["e"]) for u in ids)
    _, K = _oracle_F_K(vec, section, ids)
    aad = _frame(
        (1).to_bytes(2, "big"),
        bytes.fromhex(vec["params_sha256"]),
        len(es).to_bytes(4, "big"),
        *(e.to_bytes((e.bit_length() + 7) // 8, "big") for e in es),
    )
    sealed = AESGCM(hashlib.sha256(b"MPNIKE-BC1\x00" + K).digest()).encrypt(nonce, payload, aad)
    assert b"MPNIKEBC" + aad + _frame(nonce, sealed) == raw
    # with the library
    store = _issued(pp, msk, section["keys"])
    bc = broadcast.brod_encrypt(store, pp, ids, payload, make_vectors.FixedNonce(nonce))
    assert broadcast.ct_to_bytes(bc) == raw
    assert broadcast.ct_from_bytes(raw) == bc
    for u in ids:
        assert broadcast.brod_decrypt(pp, store.pair(u), bc) == payload
    return pp, bc, payload


def test_ciphertext(vec):
    _check_ciphertext(vec, vec)


def test_issued_ciphertext(vec):
    """One pair object opens the ciphertext twice: building its powers of d, then reusing them."""
    pp, bc, payload = _check_ciphertext(vec, vec["issued"])
    key = vec["issued"]["keys"][0]
    pair = kgc.KeyPair(key["user"], _x(key["e"]), _x(key["d"]))
    assert pair.powers is None
    assert broadcast.brod_decrypt(pp, pair, bc) == payload
    n, table = pair.powers
    assert n == pp.N and len(table) > 1
    assert broadcast.brod_decrypt(pp, pair, bc) == payload
    assert pair.powers == (n, table)


def test_generator_reproduces_file():
    # make_vectors.build() recomputes every value; nothing is written
    with open(make_vectors.OUT) as fh:
        assert make_vectors.build() == json.load(fh)
