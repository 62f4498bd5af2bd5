"""Broadcast encryption: one ciphertext, decryptable by an authorized set.

The sender derives the NIKE group key of the authorized set, as the issuer
or as its first member (see `brod_encrypt`), hashes it into an AEAD
transport key, and encrypts the payload with AES-256-GCM.  A receiver
derives the same key through `nike.held_key`: its pair keeps powers
d**(2**(w*i)) of its own d (w = |N|), so d**E for the product E of the
other members' keys is one two-base exponentiation d**lo * (d**(2**(w*t)))**hi
split at about half of E's bits, and a pair that opens many ciphertexts
does about half the squarings of `nike.shared_key`.  The header (format
version, parameter digest, sorted public-key list) doubles as the AEAD
associated data, so tampering with the recipient set breaks the tag.

Wire format (also in README): the magic bytes "MPNIKEBC" followed by
length-prefixed sections, each a 4-byte big-endian length plus payload:
version (2 bytes), parameter digest (32 bytes), member count (4 bytes),
one section per authorized public key (minimal big-endian), nonce, AEAD
ciphertext.
"""

from __future__ import annotations

import ctypes
import hashlib
from dataclasses import dataclass, field
from typing import Iterable

from . import artifact, kgc, nike, numt, params
from .errors import (
    AuthFailure, EmptyGroup, FormatError, InvalidInput, MpnikeError, NotAuthorized,
    ParamsMismatch,
)
from .kgc import KeyPair, Keystore
from .params import PublicParams

MAGIC = b"MPNIKEBC"
FORMAT_VERSION = 1
TRANSPORT_TAG = b"MPNIKE-BC1"
NONCE_LEN = 12
TAG_LEN = 16
DIGEST_LEN = 32
_MAX_LEN = 2**31 - 1  # libcrypto takes each length as a C int
_GET_TAG, _SET_TAG = 0x10, 0x11  # EVP_CTRL_GCM_GET_TAG, EVP_CTRL_GCM_SET_TAG
_AUTH_FAILED = "broadcast ciphertext failed authentication"


@dataclass(frozen=True)
class BroadcastCiphertext:
    """Sealed payload plus the metadata receivers need to open it."""

    params_ref: str
    authorized: tuple[int, ...]
    nonce: bytes
    ct: bytes = field(repr=False)


def _transport_key(group_key: bytes) -> bytes:
    """AES-256 key: one SHA-256 block over tag || counter byte 0 || K."""
    return hashlib.sha256(TRANSPORT_TAG + b"\x00" + group_key).digest()


def _aes_gcm(key: bytes, nonce: bytes, data: bytes, aad: bytes, seal: bool) -> bytes:
    """AES-256-GCM on `numt`'s libcrypto: seal data to body || tag, or open body || tag.

    Each call owns its context; opening returns no byte unless libcrypto accepts the tag.
    """
    lib = numt._LIBCRYPTO
    if lib is None:
        raise MpnikeError("broadcast needs the libcrypto that Python's _hashlib links")
    if len(nonce) != NONCE_LEN:
        raise FormatError(f"nonce must be {NONCE_LEN} bytes")
    if not seal and len(data) < TAG_LEN:
        raise AuthFailure(_AUTH_FAILED)
    size = len(data) if seal else len(data) - TAG_LEN
    if max(size, len(aad)) > _MAX_LEN:
        raise InvalidInput(f"payload and associated data are limited to {_MAX_LEN} bytes")
    out = ctypes.create_string_buffer(size + TAG_LEN)
    tag, n = ctypes.byref(out, size), ctypes.byref(ctypes.c_int())
    ctx = lib.EVP_CIPHER_CTX_new()
    try:
        if not (
            ctx
            and lib.EVP_CipherInit_ex(ctx, lib.EVP_aes_256_gcm(), None, key, nonce, seal) == 1
            and lib.EVP_CipherUpdate(ctx, None, n, aad, len(aad)) == 1
            and lib.EVP_CipherUpdate(ctx, out, n, data, size) == 1
            and (seal or lib.EVP_CIPHER_CTX_ctrl(ctx, _SET_TAG, TAG_LEN, data[size:]) == 1)
        ):
            raise MpnikeError("libcrypto AES-256-GCM failed")
        if lib.EVP_CipherFinal_ex(ctx, tag, n) != 1:
            raise AuthFailure(_AUTH_FAILED)
        if seal and lib.EVP_CIPHER_CTX_ctrl(ctx, _GET_TAG, TAG_LEN, tag) != 1:
            raise MpnikeError("libcrypto AES-256-GCM failed")
    finally:
        lib.EVP_CIPHER_CTX_free(ctx)
    return out.raw if seal else ctypes.string_at(out, size)


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


def brod_encrypt(
    store: Keystore,
    pp: PublicParams,
    authorized_ids: Iterable[str],
    message: bytes,
    rng: numt.Rng,
) -> BroadcastCiphertext:
    """Encrypt message so exactly the named users can decrypt.

    A keystore `kgc.keygen` issued into sends as the issuer (`kgc.group_element`,
    one CRT pair whatever |W| is); a loaded or wrapped one as the first authorized
    user, through its d (`nike.shared_key`, one exponentiation per other member).
    For honestly issued keys both give the same F_W, so the same ciphertext.
    """
    pairs = [store.pair(u) for u in sorted(set(authorized_ids))]
    if len(pairs) < 2:
        raise EmptyGroup("need at least two authorized users")
    digest = params.params_digest(pp)
    if store.params_ref != digest:
        raise ParamsMismatch("keystore belongs to different parameters")
    if store.issuer is None:
        state = nike.shared_key(pp, pairs[0], [pair.e for pair in pairs[1:]])
        members, group_key = state.members, state.K
    else:
        members = tuple(sorted(pair.e for pair in pairs))
        group_key = nike.kdf(pp, kgc.group_element(pp, store.issuer, members))
    key = _transport_key(group_key)
    nonce = rng.randbytes(NONCE_LEN)
    aad = _header_bytes(digest, members)
    ct = _aes_gcm(key, nonce, message, aad, seal=True)
    return BroadcastCiphertext(params_ref=digest, authorized=members, nonce=nonce, ct=ct)


def brod_decrypt(pp: PublicParams, my_pair: KeyPair, bc: BroadcastCiphertext) -> bytes:
    """The payload, if my_pair is authorized; derives through my_pair's kept powers of d."""
    digest = params.params_digest(pp)
    if bc.params_ref != digest:
        raise ParamsMismatch("ciphertext bound to different parameters")
    if my_pair.e not in bc.authorized:
        raise NotAuthorized(f"public key {my_pair.e} is not in the authorized set")
    others = [e for e in bc.authorized if e != my_pair.e]
    state = nike.held_key(pp, my_pair, others)
    key = _transport_key(state.K)
    aad = _header_bytes(bc.params_ref, bc.authorized)
    return _aes_gcm(key, bc.nonce, bc.ct, aad, seal=False)


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


def ct_save(bc: BroadcastCiphertext, path: str) -> bytes:
    """Write bc's serialisation to path and return it."""
    artifact.write(path, data := ct_to_bytes(bc))
    return data


def ct_load(path: str) -> BroadcastCiphertext:
    return ct_from_bytes(artifact.read(path))
