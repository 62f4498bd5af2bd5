"""Non-interactive group key derivation.

Member i derives the group element for W = {i} + others as

    F_W = d_i ** (prod of e_j for j in others)  mod N

evaluated as one modular exponentiation per other member.  Every private
key is d_i = h**e_i for the issuer's hidden base h (see `kgc`), so every
member of W reaches the same F_W = h**(prod of e_j for j in W) mod N,
independent of evaluation order, and agreement needs no interaction.  The
symmetric key is a hash of F_W.

One growth step, F_{W+s} = F_W ** e_s mod N per new member s, runs from a
key pair as W = {i}, F = d_i (`shared_key`) or from a state (`join`).
`shared_key` is the counted reference: one `mod_exp` per peer.  `held_key`
takes the same step from a pair that derives again and again (a broadcast
reader): d ** E for E = prod e_j, L bits, splits as d**lo * (d**(2**(w*t)))**hi
at bit w*t, about L/2, with w = |N| and the power read from the pair's kept
table (`numt.fixed_base_chain`), so a reused pair does about half the squarings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import artifact, numt
from .errors import (
    AlreadyMember,
    DegenerateResult,
    EmptyGroup,
    FormatError,
    InvalidInput,
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
        raise InvalidInput("group element must lie in (0, N)")
    return hashlib.sha256(KDF_TAG + F.to_bytes((pp.N.bit_length() + 7) // 8, "big")).digest()


def shared_key(pp: PublicParams, my_pair: KeyPair, others: Iterable[int]) -> GroupKeyState:
    """Derive the group key for my_pair's view of {me} + others.

    A key pair is the group {e} whose element is d; this grows it by others
    (duplicates are collapsed, order is irrelevant, e itself is AlreadyMember).
    """
    return _grow(pp, (my_pair.e,), my_pair.d, others)


def join(pp: PublicParams, state: GroupKeyState, *newcomers: int) -> GroupKeyState:
    """Grow a group by newcomers' public keys, one exponentiation each (duplicates are
    collapsed, order is irrelevant to the result, and none at all is EmptyGroup)."""
    return _grow(pp, state.members, state.F, newcomers)


def held_key(pp: PublicParams, my_pair: KeyPair, others: Iterable[int]) -> GroupKeyState:
    """`shared_key`'s state, raised through my_pair's kept powers of d (`KeyPair.raise_d`).

    Same checks and KDF, uncounted by `count_mod_exps`; once the pair has
    derived a chain as long, about half the squarings of `shared_key`.
    """
    return _grow(pp, (my_pair.e,), my_pair.d, others, lambda d, es, n: my_pair.raise_d(es, n))


def _grow(
    pp: PublicParams,
    members: tuple[int, ...],
    F: int,
    es: Iterable[int],
    chain: Callable[[int, list[int], int], int] = numt.exp_chain,
) -> GroupKeyState:
    """The state of members + es, from members' element F: chain(F, es, N) = F ** prod(es) mod N."""
    new_list = list(dict.fromkeys(es))
    if not new_list:
        raise EmptyGroup("no members to add")
    for e in new_list:
        if e in members:  # a group of one is a key pair, and e its holder's own key
            raise AlreadyMember(f"{e} already a member")
    if not 1 < F < pp.N:
        raise InvalidInput("private key or group element not in (1, N)")
    if any(e < 2 for e in new_list):
        raise InvalidInput("public keys must be >= 2")
    F = chain(F, new_list, pp.N)
    if F == 1:
        raise DegenerateResult("group element collapsed to the identity")
    return GroupKeyState(members=tuple(sorted(members + tuple(new_list))), F=F, K=kdf(pp, F))


def save_group(pp: PublicParams, members: Iterable[int], path: str):
    """Group descriptor: digest-bound header, then one public key per line."""
    member_list = sorted(set(members))
    if not member_list:
        raise EmptyGroup("refusing to write an empty group descriptor")
    artifact.write_bound(path, _GROUP_HEADER, params_digest(pp), map(numt.int_to_hex, member_list))


def load_group(path: str, pp: PublicParams) -> tuple[int, ...]:
    lines = artifact.read_bound(path, _GROUP_HEADER, params_digest(pp))
    members = [
        numt.hex_to_int(line, f"{path}:{lineno}: public key")
        for lineno, line in enumerate(lines, 2)
    ]
    if not members or sorted(set(members)) != members:
        raise FormatError(f"{path}: members not nonempty, sorted and distinct")
    return tuple(members)
