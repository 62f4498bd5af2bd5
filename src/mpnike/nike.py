"""Non-interactive group key derivation.

Member i derives the group element for W = {i} + others as

    F_W = d_i ** (prod of e_j for j in others)  mod N

evaluated as one modular exponentiation per other member.  Expanding
d_i = g**(p*y_i) and e_j = p*y_j + z*q*k_j shows every member of W reaches
the same g**(p^|W| * prod y) mod N, independent of evaluation order, so
agreement needs no interaction.  The symmetric key is a hash of F_W.

A group grows without a fresh derivation: F_{W+s} = F_W ** e_s mod N.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import numt
from .errors import (
    AlreadyMember,
    DegenerateResult,
    EmptyGroup,
    FormatError,
    InvalidInput,
    OutOfRange,
    ParamsMismatch,
    SelfInGroup,
)
from .kgc import KeyPair
from .params import PublicParams, params_digest

KDF_TAG = b"MPNIKEv1"
_GROUP_HEADER = "mpnike-group/1"


@dataclass(frozen=True)
class GroupKeyState:
    """Derived state for one group: sorted members, group element, key."""

    members: tuple[int, ...]
    F: int = field(repr=False)
    K: bytes = field(repr=False)


def kdf(pp: PublicParams, F: int) -> bytes:
    """lambda-bit key: hash of tag plus F in fixed-width big-endian form."""
    if not 0 < F < pp.N:
        raise OutOfRange(f"group element must lie in (0, N), got {F}")
    data = KDF_TAG + F.to_bytes((pp.N.bit_length() + 7) // 8, "big")
    digest = hashlib.new(pp.hash_id, data).digest()
    if pp.lambda_bits > 8 * len(digest) or pp.lambda_bits % 8:
        raise InvalidInput(f"lambda = {pp.lambda_bits} unusable with {pp.hash_id}")
    return digest[: pp.lambda_bits // 8]


def shared_key(pp: PublicParams, my_pair: KeyPair, others: Iterable[int]) -> GroupKeyState:
    """Derive the group key for my_pair's view of {me} + others.

    others holds the public keys of every other member (duplicates are
    collapsed, order is irrelevant to the result).
    """
    peer_list = list(dict.fromkeys(others))
    if not peer_list:
        raise EmptyGroup("no other members supplied")
    if my_pair.e in peer_list:
        raise SelfInGroup(f"own public key {my_pair.e} listed as a peer")
    if not 1 < my_pair.d < pp.N:
        raise InvalidInput("private key out of range")
    if any(e < 2 for e in peer_list):
        raise InvalidInput("public keys must be >= 2")
    F = numt.exp_chain(my_pair.d, peer_list, pp.N)
    if F == 1:
        raise DegenerateResult("group element collapsed to the identity")
    members = tuple(sorted(peer_list + [my_pair.e]))
    return GroupKeyState(members=members, F=F, K=kdf(pp, F))


def join(pp: PublicParams, state: GroupKeyState, e_new: int) -> GroupKeyState:
    """Extend an existing group by one member with a single exponentiation."""
    if e_new in state.members:
        raise AlreadyMember(f"public key {e_new} already in the group")
    if e_new < 2:
        raise InvalidInput("public keys must be >= 2")
    F = numt.mod_exp(state.F, e_new, pp.N)
    if F == 1:
        raise DegenerateResult("group element collapsed to the identity")
    members = tuple(sorted(state.members + (e_new,)))
    return GroupKeyState(members=members, F=F, K=kdf(pp, F))


def save_group(pp: PublicParams, members: Iterable[int], path: str):
    """Group descriptor: digest-bound header, then one public key per line."""
    member_list = sorted(set(members))
    if not member_list:
        raise EmptyGroup("refusing to write an empty group descriptor")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_GROUP_HEADER}\t{params_digest(pp)}\n")
        for e in member_list:
            fh.write(numt.int_to_hex(e) + "\n")


def load_group(path: str, pp: Optional[PublicParams] = None) -> tuple[int, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty group descriptor")
    header = lines[0].split("\t")
    if len(header) != 2 or header[0] != _GROUP_HEADER:
        raise FormatError(f"{path}: bad header line")
    if pp is not None and header[1] != params_digest(pp):
        raise ParamsMismatch(f"{path}: descriptor bound to other parameters")
    members = [numt.hex_to_int(line) for line in lines[1:]]
    if len(set(members)) != len(members):
        raise FormatError(f"{path}: duplicate members")
    if members != sorted(members):
        raise FormatError(f"{path}: members not in canonical order")
    return tuple(members)
