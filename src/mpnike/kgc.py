"""Key generation centre: issues member key pairs and manages the keystore.

A member's key pair is (e, d) with

    e = p*y + z*q*k        (public)
    d = h**e mod N         (private)

for fresh odd exponents y < z*q and k < p, so e < 2*p*z*q has at most
m + 1 bits and (y, k) -> e is injective.  The hidden base h = g_p**(p^-1 mod
z*q) has order z*q and only the issuer can compute it; as e = p*y (mod z*q),
d = h**e = g_p**y = g**(p*y).  The audit of a pair is the same formula,
h**e == d (mod N), and a group's element h**(prod e_W) is `group_element`.
All are computed by CRT, as g_p has order z mod p' and order q mod q'.
Since p, z, q, y, k are all odd, e is always even.  Even e does not stop
collusion: two members' Bezout combination is h**c with c = gcd(e_i, e_j),
and (h**c)**(prod e_W / c) is F_W whenever c divides prod e_W; `attacks`
has the details.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, Optional

from . import artifact, numt
from .errors import (
    CollisionBudgetExceeded,
    DegenerateResult,
    DuplicateUser,
    FormatError,
    InvalidInput,
    MpnikeError,
    ParamsMismatch,
    UnknownUser,
)
from .numt import Rng
from .params import MasterSecret, PublicParams, params_digest

_STORE_HEADER = "mpnike-keystore/2"
_COLLISION_BUDGET = 16
MAX_USER_ID_BYTES = 256


@dataclass(frozen=True, slots=True)
class KeyPair:
    """What a member holds: public e, private d.

    `powers` is None until `raise_d` first runs, then (n, powers of d mod n)
    for `numt.fixed_base_chain`.  It lives as long as the pair, takes no part
    in init, equality, hash or repr, and `store_save` never writes it.
    """

    user_id: str
    e: int
    d: int = field(repr=False)
    powers: Optional[tuple[int, tuple[int, ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def raise_d(self, exps: Iterable[int], n: int) -> int:
        """d ** (product of the distinct exps) mod n through the pair's powers of d.

        Powers kept under another modulus are dropped.  Each call replaces
        `powers` and never mutates it, so threads sharing a pair can at worst
        build the same table twice.
        """
        held = self.powers
        table = held[1] if held is not None and held[0] == n else (self.d % n,)
        result, table = numt.fixed_base_chain(table, exps, n)
        object.__setattr__(self, "powers", (n, table))
        return result


@dataclass
class Keystore:
    """Issuer-side database, bound to one parameter set by digest.

    `records` is given (by a caller wrapping pairs from `load_pairs`) or
    filled by `keygen`; `issued_keys`, the index of issued e, is built from
    it and kept in step by `keygen`, which also sets `issuer`, the master
    secret `broadcast` sends under (None in a wrapped keystore).  Neither
    takes part in equality or repr; `store_save` writes neither.
    """

    params_ref: str
    records: dict[str, KeyPair] = field(default_factory=dict)
    issued_keys: set[int] = field(init=False, compare=False, repr=False)
    issuer: Optional[MasterSecret] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.issued_keys = {r.e for r in self.records.values()}

    def pair(self, user_id: str) -> KeyPair:
        if user_id not in self.records:
            raise UnknownUser(user_id)
        return self.records[user_id]


def new_keystore(pp: PublicParams) -> Keystore:
    return Keystore(params_ref=params_digest(pp))


def _check_user_id(user_id: str):
    if not user_id:
        raise InvalidInput("user id must be nonempty")
    try:  # argv carries a byte that is not UTF-8 as a lone surrogate
        size = len(user_id.encode("utf-8"))
    except UnicodeEncodeError:
        raise InvalidInput("user id must be valid UTF-8") from None
    if size > MAX_USER_ID_BYTES:
        raise InvalidInput(f"user id exceeds {MAX_USER_ID_BYTES} UTF-8 bytes")
    if "\t" in user_id or user_id.splitlines() != [user_id]:
        raise InvalidInput("user id must not contain tabs or line breaks")
    # the CLI's --group/--authorized lists split on "," and strip each id
    if "," in user_id or user_id.strip() != user_id:
        raise InvalidInput("user id must not contain ',' or start or end with whitespace")


def _issuer_pow(pp: PublicParams, msk: MasterSecret, x: int, power=pow) -> int:
    """h**x mod N from two half-size `power`s: h = g_p**p_inv has order z mod p' and q mod q'.

    The send (`group_element`) and `store_issue`'s check pass `numt.pow_secret`,
    libcrypto's constant-time exponentiation, about 6x faster than `pow` at
    level 80.  Issuance (`_issue`) and the audit (`verify_pair`) stay on the
    builtin `pow`: every key issued adds about 0.54 KB of resident memory to
    kgc-enroll's keystores, so an issuance speed-up above about 1.5x would
    break that workload's `peak_rss_mb` bound until it measures memory at a
    fixed issue count.
    """
    if msk.p_prime * msk.q_prime != pp.N:
        raise ParamsMismatch("master secret belongs to different parameters")
    try:
        x *= msk.p_inv
        crt = msk.q_prime_inv
    except ValueError:
        raise InvalidInput("master secret is malformed: p or q' is not invertible") from None
    a = power(pp.g_p, x % msk.z, msk.p_prime)
    b = power(pp.g_p, x % msk.q, msk.q_prime)
    return b + msk.q_prime * ((a - b) * crt % msk.p_prime)


def _issue(
    pp: PublicParams, msk: MasterSecret, user_id: str, taken: Callable[[int], bool], rng: Rng
) -> KeyPair:
    """The one issuance step: a pair for a valid user_id whose e = p*y + z*q*k is not
    `taken`, re-sampling k up to a fixed budget, and d = h**e."""
    _check_user_id(user_id)
    zq = msk.z * msk.q
    y = 2 * rng.randrange(0, (zq - 1) // 2) + 1
    for _ in range(_COLLISION_BUDGET):
        e = msk.p * y + zq * (2 * rng.randrange(0, (msk.p - 1) // 2) + 1)
        if not taken(e):
            return KeyPair(user_id, e, _issuer_pow(pp, msk, e))
    raise CollisionBudgetExceeded(f"could not find a fresh e for {user_id!r}")


def keygen(
    pp: PublicParams, msk: MasterSecret, store: Keystore, user_id: str, rng: Rng
) -> KeyPair:
    """Issue a key pair for user_id (`_issue`) and record it in the keystore.

    Unchecked, unlike `store_issue`: kgc-enroll audits each pair after it.
    """
    if store.params_ref != params_digest(pp):
        raise ParamsMismatch("keystore belongs to different parameters")
    if user_id in store.records:
        raise DuplicateUser(user_id)
    pair = _issue(pp, msk, user_id, store.issued_keys.__contains__, rng)
    store.records[user_id] = pair
    store.issued_keys.add(pair.e)
    store.issuer = msk
    return pair


def group_element(pp: PublicParams, msk: MasterSecret, es: Iterable[int]) -> int:
    """F_W = h ** (product of the distinct es) mod N, from the master secret.

    The product is reduced mod z*q, the order of h, so this is one CRT pair
    of half-size `numt.pow_secret`s whatever |W| is; `count_mod_exps` does not
    count it.
    """
    zq = msk.z * msk.q
    x = 1
    for e in set(es):
        x = x * e % zq
    F = _issuer_pow(pp, msk, x, numt.pow_secret)
    if F == 1:
        raise DegenerateResult("group element collapsed to the identity")
    return F


def verify_pair(pp: PublicParams, msk: MasterSecret, e: int, d: int) -> bool:
    """Issuer-side audit: is d == h**e (mod N), the issuance formula?

    h has order z*q, so e is only meaningful modulo z*q here.  Linear
    combinations of valid pairs therefore verify too; the audit proves
    well-formedness, not provenance.
    """
    return _issuer_pow(pp, msk, e) == d % pp.N


def _row(user_id: str, e: int, d: int) -> str:
    return f"{user_id}\t{numt.int_to_hex(e)}\t{numt.int_to_hex(d)}"


def store_save(store: Keystore, path: str):
    """Tab-separated `user_id, e, d` rows sorted by user id; mode 0600."""
    rows = (_row(u, r.e, r.d) for u, r in sorted(store.records.items()))
    artifact.write_bound(path, _STORE_HEADER, store.params_ref, rows, private=True)


def store_load(path: str, pp: PublicParams) -> tuple[dict[str, str], set[str]]:
    """Every row of the keystore at path, checked against the whole format and
    kept as its line text, keyed by user id; and the set of e texts.  This is
    the one checked read of a keystore file: `load_pairs` and `store_issue`
    go through it, and it decodes no row.

    A row is 3 tab-separated fields; user ids are valid and strictly
    ascending; e and d are canonical hex; no e appears twice.  Canonical hex
    is one text per value, so comparing e as text compares the keys.  The
    rules are checked a column at a time; a file that fails any of them is
    walked row by row (`_walk_rows`), which names the first bad line.
    """
    lines = artifact.read_bound(path, _STORE_HEADER, params_digest(pp))
    return _column_rows(lines) or _walk_rows(path, lines)


def _column_rows(lines: list[str]) -> Optional[tuple[dict[str, str], set[str]]]:
    """`_walk_rows`' result when every column passes its rules, else None.

    None can also mean only that the file has no row, or that a rule was
    checked more strictly than the walk checks it: an e or d of "0" is
    canonical but starts with "0".
    """
    cols = list(map(str.split, lines, repeat("\t")))
    if set(map(len, cols)) != {3}:
        return None
    ids, es, ds = zip(*cols)
    id_text, hexes, issued = "\t".join(ids), es + ds, set(es)
    if not (
        # `_check_user_id`'s rules, then strictly ascending
        all(ids)
        and max(map(len, map(str.encode, ids))) <= MAX_USER_ID_BYTES
        and id_text.splitlines() == [id_text]
        and "," not in id_text
        and tuple(map(str.strip, ids)) == ids
        and all(map(operator.lt, ids, ids[1:]))
        # canonical hex: every field nonempty and without a leading "0", so the
        # least is at least "1", and nothing but lowercase hex digits
        and min(hexes) >= "1"
        and not "".join(hexes).encode().translate(None, b"0123456789abcdef")
        and len(issued) == len(es)
    ):
        return None
    return dict(zip(ids, lines)), issued


def _walk_rows(path: str, lines: list[str]) -> tuple[dict[str, str], set[str]]:
    """`store_load`'s check one row at a time: the reference its column checks
    must agree with, and the path that raises the first bad line's FormatError."""
    rows: dict[str, str] = {}
    seen_e: set[str] = set()
    previous = ""
    for lineno, line in enumerate(lines, 2):
        cols = line.split("\t")
        if len(cols) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
        user_id, e_hex, d_hex = cols
        try:
            _check_user_id(user_id)
        except InvalidInput as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        if user_id <= previous:
            raise FormatError(f"{path}:{lineno}: user id {user_id!r} duplicate or out of order")
        previous = user_id
        numt.check_hex(e_hex, f"{path}:{lineno}: e")
        if e_hex in seen_e:
            raise FormatError(f"{path}:{lineno}: duplicate public key")
        seen_e.add(e_hex)
        numt.check_hex(d_hex, f"{path}:{lineno}: d")
        rows[user_id] = line
    return rows, seen_e


def load_pairs(path: str, pp: PublicParams, user_ids: Iterable[str]) -> dict[str, KeyPair]:
    """The pairs of the named users: a member's read.

    Every row is checked by `store_load`, but only the named rows are
    decoded.  The first name not in the file raises UnknownUser.
    """
    rows, _ = store_load(path, pp)
    pairs: dict[str, KeyPair] = {}
    for user_id in user_ids:
        if user_id not in rows:
            raise UnknownUser(user_id)
        if user_id not in pairs:
            _, e_hex, d_hex = rows[user_id].split("\t")
            pairs[user_id] = KeyPair(user_id, int(e_hex, 16), int(d_hex, 16))
    return pairs


def store_issue(
    path: str, pp: PublicParams, msk: MasterSecret, user_id: str, rng: Rng
) -> KeyPair:
    """Issue a key pair for user_id into the keystore file at path, creating it if absent.

    Every row is checked by `store_load` and none is decoded: the issued
    keys are the e texts the check collects, and the checked lines are
    written back unchanged with the new row among them.  The draws and the
    bytes written are those of `keygen` and `store_save` on a `Keystore` of
    the file's pairs.  d is first recomputed on `numt.pow_secret`, independent
    of issuance's `pow`: a d faulty in one CRT half factors N with any other
    pair, so a mismatch raises MpnikeError, naming no value, and writes nothing.
    """
    rows, issued = store_load(path, pp) if os.path.exists(path) else ({}, set())
    if user_id in rows:
        raise DuplicateUser(user_id)
    pair = _issue(pp, msk, user_id, lambda e: numt.int_to_hex(e) in issued, rng)
    if _issuer_pow(pp, msk, pair.e, numt.pow_secret) != pair.d:
        raise MpnikeError("issued key failed its check; nothing was written")
    rows[user_id] = _row(user_id, pair.e, pair.d)
    lines = (rows[u] for u in sorted(rows))
    artifact.write_bound(path, _STORE_HEADER, params_digest(pp), lines, private=True)
    return pair
