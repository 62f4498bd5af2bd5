"""Broadcast encryption: one ciphertext, decryptable by an authorized set.

The sender derives the NIKE group key of the authorized set (acting as
its lexicographically first member), hashes it into an AEAD transport
key, and encrypts the payload with AES-256-GCM.  The header (format
version, parameter digest, sorted public-key list) doubles as the AEAD
associated data, so tampering with the recipient set breaks the tag.

Wire format (also in README): the magic bytes "MPNIKEBC" followed by
length-prefixed sections, each a 4-byte big-endian length plus payload:
version (2 bytes), parameter digest (32 bytes), member count (4 bytes),
one section per authorized public key (minimal big-endian), nonce, AEAD
ciphertext.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import artifact, kgc, nike, params
from .errors import AuthFailure, FormatError, GroupTooSmall, NotAuthorized, ParamsMismatch
from .kgc import KeyPair, Keystore
from .numt import Rng
from .params import MasterSecret, PublicParams, SecurityLevel

MAGIC = b"MPNIKEBC"
FORMAT_VERSION = 1
TRANSPORT_TAG = b"MPNIKE-BC1"
NONCE_LEN = 12
TAG_LEN = 16
DIGEST_LEN = 32
MEMO_SETS = 16


@dataclass(frozen=True)
class BroadcastCiphertext:
    """Sealed payload plus the metadata receivers need to open it."""

    params_ref: str
    authorized: tuple[int, ...]
    nonce: bytes
    ct: bytes = field(repr=False)


def brod_setup(
    eta: int,
    level: SecurityLevel,
    rng: Rng,
) -> tuple[PublicParams, MasterSecret, Keystore]:
    """Provision parameters plus eta enrolled users (user001, user002, ...)."""
    if eta < 2:
        raise GroupTooSmall("a broadcast system needs at least two users")
    pp, msk = params.setup(level, rng)
    store = kgc.new_keystore(pp)
    for i in range(1, eta + 1):
        kgc.keygen(pp, msk, store, f"user{i:03d}", rng)
    return pp, msk, store


def _transport_key(group_key: bytes) -> bytes:
    """AES-256 key: one SHA-256 block over tag || counter byte 0 || K."""
    return hashlib.sha256(TRANSPORT_TAG + b"\x00" + group_key).digest()


def _frame(*payloads: bytes) -> bytes:
    """Sections: each payload after its 4-byte big-endian length."""
    return b"".join(len(payload).to_bytes(4, "big") + payload for payload in payloads)


def _header_bytes(params_ref: str, authorized: tuple[int, ...]) -> bytes:
    """Serialized header sections; used verbatim as AEAD associated data."""
    return _frame(
        FORMAT_VERSION.to_bytes(2, "big"),
        bytes.fromhex(params_ref),
        len(authorized).to_bytes(4, "big"),
        *(e.to_bytes((e.bit_length() + 7) // 8, "big") for e in authorized),
    )


def _group_state(store: Keystore, pp: PublicParams, pairs: list[KeyPair]) -> nike.GroupKeyState:
    """The group state of pairs, from the keystore's sender memo where it can be.

    `store.derived` remembers the last `MEMO_SETS` group states derived
    here, keyed by member set.  An exact hit is reused (no exponentiation);
    otherwise the largest remembered subset is extended by the missing
    members (one each), or on a miss the first pair derives the state
    afresh (one per member but the first).  The result becomes the memo's
    newest entry.  For honestly issued keys F_W is the same whichever
    member derives it, so every path gives the same ciphertext.
    """
    members = frozenset(pair.e for pair in pairs)
    memo = store.derived
    state = memo.pop(members, None)
    if state is None:
        base = max((key for key in memo if key < members), key=len, default=None)
        if base is None:
            state = nike.shared_key(pp, pairs[0], [pair.e for pair in pairs[1:]])
        else:
            state = nike.extend(pp, memo[base], [pair.e for pair in pairs if pair.e not in base])
    memo[members] = state
    if len(memo) > MEMO_SETS:
        del memo[next(iter(memo))]
    return state


def brod_encrypt(
    store: Keystore,
    pp: PublicParams,
    authorized_ids: Iterable[str],
    message: bytes,
    rng: Rng,
) -> BroadcastCiphertext:
    """Encrypt message so exactly the named users can decrypt.

    The group key comes from the keystore's memo of recent sets (see
    `_group_state`) or else from the lexicographically first authorized
    user's key pair; any member's view produces the same key.
    """
    pairs = [store.pair(u) for u in sorted(set(authorized_ids))]
    if len(pairs) < 2:
        raise GroupTooSmall("need at least two authorized users")
    digest = params.params_digest(pp)
    if store.params_ref != digest:
        raise ParamsMismatch("keystore belongs to different parameters")
    state = _group_state(store, pp, pairs)
    key = _transport_key(state.K)
    nonce = rng.randbytes(NONCE_LEN)
    aad = _header_bytes(digest, state.members)
    ct = AESGCM(key).encrypt(nonce, message, aad)
    return BroadcastCiphertext(
        params_ref=digest, authorized=state.members, nonce=nonce, ct=ct
    )


def brod_decrypt(pp: PublicParams, my_pair: KeyPair, bc: BroadcastCiphertext) -> bytes:
    digest = params.params_digest(pp)
    if bc.params_ref != digest:
        raise ParamsMismatch("ciphertext bound to different parameters")
    if my_pair.e not in bc.authorized:
        raise NotAuthorized(f"public key {my_pair.e} is not in the authorized set")
    others = [e for e in bc.authorized if e != my_pair.e]
    state = nike.shared_key(pp, my_pair, others)
    key = _transport_key(state.K)
    aad = _header_bytes(bc.params_ref, bc.authorized)
    try:
        return AESGCM(key).decrypt(bc.nonce, bc.ct, aad)
    except InvalidTag:
        raise AuthFailure("broadcast ciphertext failed authentication") from None


def ct_to_bytes(bc: BroadcastCiphertext) -> bytes:
    return MAGIC + _header_bytes(bc.params_ref, bc.authorized) + _frame(bc.nonce, bc.ct)


def ct_from_bytes(data: bytes) -> BroadcastCiphertext:
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic bytes")
    sections, end = [], len(MAGIC)
    while end < len(data):
        start = end + 4
        end = start + int.from_bytes(data[end:start], "big")
        if end > len(data):
            raise FormatError("truncated section")
        sections.append(data[start:end])
    if len(sections) < 5:
        raise FormatError(f"expected at least 5 sections, got {len(sections)}")
    version, digest, count, *keys, nonce, ct = sections
    if version != FORMAT_VERSION.to_bytes(2, "big"):
        raise FormatError(f"unsupported format version {version.hex()}")
    if len(digest) != DIGEST_LEN:
        raise FormatError(f"parameter digest must be {DIGEST_LEN} bytes")
    if len(count) != 4:
        raise FormatError("member count must be 4 bytes")
    if int.from_bytes(count, "big") != len(keys):
        raise FormatError(f"member count {int.from_bytes(count, 'big')} but {len(keys)} keys")
    if len(keys) < 2:
        raise FormatError(f"member count must be at least 2, got {len(keys)}")
    if any(not raw or raw[0] == 0 for raw in keys):
        raise FormatError("public key not in minimal big-endian form")
    authorized = [int.from_bytes(raw, "big") for raw in keys]
    if sorted(set(authorized)) != authorized:
        raise FormatError("authorized set not sorted and distinct")
    if len(nonce) != NONCE_LEN:
        raise FormatError(f"nonce must be {NONCE_LEN} bytes")
    if len(ct) < TAG_LEN:
        raise FormatError(f"AEAD ciphertext shorter than its {TAG_LEN}-byte tag")
    return BroadcastCiphertext(
        params_ref=digest.hex(), authorized=tuple(authorized), nonce=nonce, ct=ct
    )


def ct_save(bc: BroadcastCiphertext, path: str):
    artifact.write(path, ct_to_bytes(bc))


def ct_load(path: str) -> BroadcastCiphertext:
    return ct_from_bytes(artifact.read(path))
