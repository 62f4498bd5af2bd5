"""Write tests/vectors/v1.json, the known-answer vectors of the version-1 formats.

Run from the repository root:

    PYTHONPATH=src python tests/make_vectors.py

Nothing here is random: the primes are forced, g is the smallest fourth
power of full order, every (y, k) is a SHAKE-256 expansion of its label and
reaches `keygen` through a scripted `Rng`, and the broadcast nonce is fixed.
The first keys (`keys`) have (m+1)/2-bit y and k, so k >= p; the keys under
`issued` lie in the range `keygen` draws from, y < z*q and k < p.
The output pins what this version of the library computes;
`tests/test_vectors.py` checks the library and the oracles against it, and
checks that `build()` still returns the file's contents.
The layout follows the test-vector files of Project Wycheproof
(https://github.com/C2SP/wycheproof) and the test vectors of RFC 8032 §7.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from mpnike import broadcast, kgc, nike, params
from mpnike.numt import Rng, int_to_hex

from conftest import issuing

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "vectors", "v1.json")

# (name, gamma, p, z, q): the primes of the toy-64 set the tests'
# conftest searches (seed 20260814), those of perfbench/fixtures/level80.json,
# and those of params.setup(security_level("128"), Rng(5)), which
# tests/test_levels.py pins
PARAMETER_SETS = [
    ("toy-64", "toy", 0x1992BB, 0xA3F67, 0x238D5D),
    (
        "level-80",
        "80",
        0x1664B6A3B468C8CF433517422EA71CD488A8A210AC2F6444F9E010EE70171BBCD6D03A44D775199836E915,
        0xE1E161577F8D7D833E61D323ACC725717155A6545AA4D9B3E6A20809A7D9539E1E9CFBEC2BB27C63A241D,
        0x1C5351573F218A166720F4BD3DA5F5E04B7697A6BE3DDE82C555890D92007DC151FBE13561FC43857530D9,
    ),
    (
        "level-128",
        "128",
        int(
            "feed3737e1279dda5cbe8a80752b6eab1b13c95d5642f698b8012fac14d8fbf7"
            "8921cce23568bdb17feb59139b959778aca202c563c5984ee37339ce1a94f40d"
            "270d1f2b2551c061351f062c23df16e590a037573b2979e22d3dc8e9b3b41d13"
            "d887b092f3b0057b257611138986a7dabe4adbaec14099ca3e631318f44bf0fd",
            16,
        ),
        int(
            "733b30f23f25d20c03b9cfde752bcf41d301eefbba9ac565d561e02fa39fed92"
            "5d5636d5e6de8ada17602d2c8bbe271814d66e52b06af193a4a3575c95680c2f"
            "fd52182baebabe233ffb8f5e60433505fc04e870cec5c4a23a8651ac5e39440c"
            "73e543c0a75f86ece545d1372057af989a175fcaff8c2ae0f1a93baecb8afcb5",
            16,
        ),
        int(
            "71c44974400e72fd2bc96311ba2e1b9be6963f80ae94ba69756ee878dfc462bf"
            "1c0a059f8b03b849935c82cb2207245639dfcc239753bfa694063e9a4263c8cc"
            "bad14a0c42e6baaf964fa61ef239d3f57e66f0bcaa9796f392c3a11b74864fcc"
            "b86945176fb7ab9fbbbd42b1a6a7d3569c408353fc19f236fb0b7d312ebaee3f",
            16,
        ),
    ),
]
USERS = [f"user{i:03d}" for i in range(1, 6)]
ISSUED_USERS = [f"user{i:03d}" for i in range(6, 11)]
GROUPS = [USERS[:2], [USERS[1], USERS[2], USERS[4]], USERS]
JOIN = (GROUPS[1], USERS[3])
NONCE = bytes(range(broadcast.NONCE_LEN))
PAYLOAD = b"known-answer payload"


class FixedNonce(Rng):
    """An Rng whose randbytes is a fixed nonce; brod_encrypt draws nothing else."""

    def __init__(self, nonce: bytes):
        super().__init__(0)
        self.nonce = nonce

    def randbytes(self, n: int) -> bytes:
        assert n == len(self.nonce)
        return self.nonce


def generator(p: int, z: int, q: int, N: int) -> int:
    """The smallest x**4 (x = 2, 3, ...) of multiplicative order p*z*q mod N."""
    order = p * z * q
    for x in range(2, N):
        c = pow(x, 4, N)
        if pow(c, order, N) == 1 and all(pow(c, order // r, N) != 1 for r in (p, z, q)):
            return c
    raise ValueError("no generator")


def odd_exponent(label: str, bits: int) -> int:
    """A bits-wide odd integer with its top bit set, expanded from label."""
    raw = int.from_bytes(hashlib.shake_256(label.encode()).digest((bits + 7) // 8), "big")
    return raw >> (-bits % 8) | 1 << (bits - 1) | 1


def issued_exponent(label: str, bound: int) -> int:
    """An odd integer below bound as `keygen` draws one: 2*r + 1, r < (bound - 1) // 2.

    r is expanded from label, 64 bits wider than bound, then reduced.
    """
    raw = int.from_bytes(hashlib.shake_256(label.encode()).digest(bound.bit_length() // 8 + 9), "big")
    return 2 * (raw % ((bound - 1) // 2)) + 1


def file_sha256(write) -> str:
    """SHA-256 of the bytes write(path) leaves at a fresh path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        write(path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def group_vector(pp, ids, state) -> dict:
    return {
        "members": ids,
        "F": int_to_hex(state.F),
        "K": state.K.hex(),
        "group_file_sha256": file_sha256(lambda path: nike.save_group(pp, state.members, path)),
    }


def issue(pp, msk, store, user, y, k) -> dict:
    pair = kgc.keygen(pp, msk, store, user, issuing(y, k))
    values = {"y": y, "k": k, "e": pair.e, "d": pair.d}
    return {"user": user, **{key: int_to_hex(v) for key, v in values.items()}}


def ciphertext_vector(pp, store, ids) -> dict:
    bc = broadcast.brod_encrypt(store, pp, ids, PAYLOAD, FixedNonce(NONCE))
    return {
        "authorized": ids,
        "nonce": NONCE.hex(),
        "payload": PAYLOAD.hex(),
        "bytes": broadcast.ct_to_bytes(bc).hex(),
    }


def parameter_set(name, gamma, p, z, q) -> dict:
    # forced primes skip the width check, so the level only names gamma
    pp, msk = params.setup(params.security_level(gamma), Rng(0), forced_primes=(p, z, q))
    g = generator(p, z, q, pp.N)
    msk = params.MasterSecret(p=p, z=z, q=q, g=g, p_prime=msk.p_prime, q_prime=msk.q_prime)
    pp = params.PublicParams(N=pp.N, g_p=pow(g, p, pp.N), m=pp.m, gamma=gamma)
    assert params.validate(pp, msk).ok
    store = kgc.new_keystore(pp)
    half = (pp.m + 1) // 2
    keys = [
        issue(pp, msk, store, user, *(odd_exponent(f"{name} {user} {x}", half) for x in "yk"))
        for user in USERS
    ]
    pairs = store.records
    issued_store = kgc.new_keystore(pp)
    issued_keys = [
        issue(
            pp,
            msk,
            issued_store,
            user,
            issued_exponent(f"{name} {user} y", msk.z * msk.q),
            issued_exponent(f"{name} {user} k", msk.p),
        )
        for user in ISSUED_USERS
    ]

    def derive(ids):
        return nike.shared_key(pp, pairs[ids[0]], [pairs[u].e for u in ids[1:]])

    base, new = JOIN
    joined = nike.join(pp, derive(base), pairs[new].e)
    return {
        "name": name,
        "gamma": gamma,
        "p": int_to_hex(p),
        "z": int_to_hex(z),
        "q": int_to_hex(q),
        "g": int_to_hex(g),
        "N": int_to_hex(pp.N),
        "g_p": int_to_hex(pp.g_p),
        "m": int_to_hex(pp.m),
        "params_sha256": params.params_digest(pp),
        "keys": keys,
        "keystore_sha256": file_sha256(lambda path: kgc.store_save(store, path)),
        "groups": [group_vector(pp, ids, derive(ids)) for ids in GROUPS],
        "join": {**group_vector(pp, base + [new], joined), "base": base, "new": new},
        "ciphertext": ciphertext_vector(pp, store, GROUPS[1]),
        "issued": {
            "keys": issued_keys,
            "keystore_sha256": file_sha256(lambda path: kgc.store_save(issued_store, path)),
            "ciphertext": ciphertext_vector(pp, issued_store, ISSUED_USERS),
        },
    }


def build() -> dict:
    """The vectors file's contents, computed by the library as it stands."""
    return {
        "algorithm": "mpnike version 1",
        "header": [
            "Known-answer vectors for the version-1 formats of mpnike.",
            "Integers are canonical lowercase hex (numt.int_to_hex); byte strings are hex.",
            "Made by tests/make_vectors.py; checked by tests/test_vectors.py.",
            "A change that alters a value names the value and the reason in CHANGES.md;",
            "a new format version gets a new file.",
        ],
        "testGroups": [parameter_set(*row) for row in PARAMETER_SETS],
    }


def main():
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as fh:
        json.dump(build(), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
