"""Non-interactive group key derivation.

Member i derives the group element for W = {i} + others as

    F_W = d_i ** (prod of e_j for j in others)  mod N

evaluated as one modular exponentiation per other member.  Expanding
d_i = g**(p*y_i) and e_j = p*y_j + z*q*k_j shows every member of W reaches
the same g**(p^|W| * prod y) mod N, independent of evaluation order, so
agreement needs no interaction.  The symmetric key is a hash of F_W.

A group grows without a fresh derivation: F_{W+s} = F_W ** e_s mod N, one
exponentiation per new member (`extend`; `join` adds one).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

from . import artifact, numt
from .errors import (
    AlreadyMember,
    DegenerateResult,
    EmptyGroup,
    FormatError,
    InvalidInput,
    OutOfRange,
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
    """256-bit key: SHA-256 of tag plus F in fixed-width big-endian form."""
    if not 0 < F < pp.N:
        raise OutOfRange(f"group element must lie in (0, N), got {F}")
    return hashlib.sha256(KDF_TAG + F.to_bytes((pp.N.bit_length() + 7) // 8, "big")).digest()


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


def extend(pp: PublicParams, state: GroupKeyState, new_es: Iterable[int]) -> GroupKeyState:
    """Grow a group by new members with one exponentiation each.

    new_es holds public keys outside the group (duplicates are collapsed,
    order is irrelevant to the result).
    """
    new_list = list(dict.fromkeys(new_es))
    if not new_list:
        raise EmptyGroup("no new members supplied")
    for e in new_list:
        if e in state.members:
            raise AlreadyMember(f"public key {e} already in the group")
    if any(e < 2 for e in new_list):
        raise InvalidInput("public keys must be >= 2")
    F = numt.exp_chain(state.F, new_list, pp.N)
    if F == 1:
        raise DegenerateResult("group element collapsed to the identity")
    members = tuple(sorted(state.members + tuple(new_list)))
    return GroupKeyState(members=members, F=F, K=kdf(pp, F))


def join(pp: PublicParams, state: GroupKeyState, e_new: int) -> GroupKeyState:
    """Extend an existing group by one member with a single exponentiation."""
    return extend(pp, state, [e_new])


def save_group(pp: PublicParams, members: Iterable[int], path: str):
    """Group descriptor: digest-bound header, then one public key per line."""
    member_list = sorted(set(members))
    if not member_list:
        raise EmptyGroup("refusing to write an empty group descriptor")
    artifact.write_bound(path, _GROUP_HEADER, params_digest(pp), map(numt.int_to_hex, member_list))


def load_group(path: str, pp: PublicParams) -> tuple[int, ...]:
    lines = artifact.read_bound(path, _GROUP_HEADER, params_digest(pp))
    members = [numt.hex_to_int(line) for line in lines]
    if not members or sorted(set(members)) != members:
        raise FormatError(f"{path}: members not nonempty, sorted and distinct")
    return tuple(members)
