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
from typing import Callable, Iterable, Optional

from . import artifact, numt
from .errors import (
    DegenerateResult,
    DuplicateUser,
    ExhaustedAttempts,
    FormatError,
    InvalidInput,
    MpnikeError,
    ParamsMismatch,
    UnknownUser,
)
from .numt import Rng
from .params import MasterSecret, PublicParams, params_digest

_STORE_HEADER = "mpnike-keystore/2"
# a checked keystore: each user id's e and d hex bytes, as stored, and the set of e
_Rows = tuple[dict[str, tuple[bytes, bytes]], set[bytes]]
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
    # `params.validate`'s modulus_structure: without it, h**x is no member key
    if msk.p_prime != 2 * msk.p * msk.z + 1 or msk.q_prime != 2 * msk.q + 1:
        raise InvalidInput("master secret is malformed: p' is not 2pz + 1 or q' is not 2q + 1")
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
    raise ExhaustedAttempts(f"could not find a fresh e for {user_id!r}")


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


def store_save(store: Keystore, path: str):
    """Tab-separated `user_id, e, d` rows sorted by user id; mode 0600.  Each id is
    checked first: a bad one raises InvalidInput and nothing is written."""
    rows = {}
    for user_id, pair in store.records.items():
        _check_user_id(user_id)
        rows[user_id] = numt.int_to_hex(pair.e).encode(), numt.int_to_hex(pair.d).encode()
    _store_write(path, store.params_ref, rows)


def _store_write(path: str, digest: str, rows: dict[str, tuple[bytes, bytes]]):
    """The one keystore encoder, behind `store_save` and `store_issue`: the header,
    then each id's e and d hex bytes in id order; mode 0600.  The ids are checked
    (`_check_user_id`), so none holds a line feed and one encode gives all their bytes."""
    ids = sorted(rows)
    es, ds = zip(*map(rows.__getitem__, ids)) if ids else ((), ())
    lines = map(b"\t".join, zip("\n".join(ids).encode().split(b"\n"), es, ds))
    header = f"{_STORE_HEADER}\t{digest}".encode()
    artifact.write(path, b"\n".join((header, *lines, b"")), private=True)


def store_load(path: str, pp: PublicParams) -> _Rows:
    """Every row of the keystore at path, checked against the whole format,
    as its e and d hex bytes as stored, keyed by user id; and the set of e
    hex bytes.  This is the one checked read of a keystore file: `load_pairs`
    and `store_issue` go through it, and it decodes no row.

    A row is 3 tab-separated fields; user ids are valid and strictly
    ascending; e and d are canonical hex; no e appears twice.  Canonical hex
    is one text per value, so comparing e as bytes compares the keys.  The
    file's bytes are checked whole, in a fixed number of passes that each run
    in C (`_byte_rows`); a file that fails any rule is read again as lines
    and walked row by row (`_walk_rows`), which names the first bad line.
    """
    digest = params_digest(pp)
    return _byte_rows(artifact.read(path), digest) or _walk_rows(
        path, artifact.read_bound(path, _STORE_HEADER, digest)
    )


def _byte_rows(raw: bytes, digest: str) -> Optional[_Rows]:
    """`_walk_rows`' result for the keystore bytes raw when they pass every
    rule, else None.

    None can also mean only that the file has no row, or that a rule was
    checked more strictly than the walk checks it: an e or d of "0" is
    canonical but starts with "0".
    """
    # the tag, the digest, then id, e and d per row, then b"" after the final newline
    fields = raw.replace(b"\n", b"\t").split(b"\t")
    n = len(fields) // 3 - 1
    header = [_STORE_HEADER.encode(), digest.encode()]
    if n < 1 or len(fields) != 3 * n + 3 or fields[-1] or fields[:2] != header:
        return None
    ids, es, ds = fields[2:-1:3], fields[3:-1:3], fields[4:-1:3]
    skeleton = fields[0] + b"\t\n" + b"\t\t\n".join(ids) + b"\t\t\n"
    issued = set(es)
    if not (
        # with its hex digits deleted, the file is its skeleton: so every
        # separator is in place (each line is id TAB e TAB d) and each e and
        # d is nothing but lowercase hex digits
        raw.translate(None, numt._HEX_DIGITS) == skeleton.translate(None, numt._HEX_DIGITS)
        # canonical hex: nonempty and without a leading "0", so at least "1"
        and min(es) >= b"1"
        and min(ds) >= b"1"
        and len(issued) == n
        # the ids strictly ascend as bytes, which for UTF-8 is code-point order,
        # so all are nonempty if the first is
        and ids[0]
        and all(map(operator.lt, ids, ids[1:]))
        and max(map(len, ids)) <= MAX_USER_ID_BYTES
    ):
        return None
    try:
        id_text = b"\t".join(ids).decode("utf-8")
    except UnicodeDecodeError:
        return None
    # `_check_user_id`'s other rules, over all the ids at once
    user_ids = id_text.split("\t")
    if id_text.splitlines() != [id_text] or "," in id_text:
        return None
    if list(map(str.strip, user_ids)) != user_ids:
        return None
    return dict(zip(user_ids, zip(es, ds))), issued


def _walk_rows(path: str, lines: list[str]) -> _Rows:
    """`store_load`'s check one row at a time: the reference its byte check
    must agree with, and the path that raises the first bad line's FormatError."""
    rows: dict[str, tuple[bytes, bytes]] = {}
    seen_e: set[bytes] = set()
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
        e = e_hex.encode()
        if e in seen_e:
            raise FormatError(f"{path}:{lineno}: duplicate public key")
        seen_e.add(e)
        numt.check_hex(d_hex, f"{path}:{lineno}: d")
        rows[user_id] = e, d_hex.encode()
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
            e_hex, d_hex = rows[user_id]
            pairs[user_id] = KeyPair(user_id, int(e_hex, 16), int(d_hex, 16))
    return pairs


def store_issue(
    path: str, pp: PublicParams, msk: MasterSecret, user_id: str, rng: Rng
) -> KeyPair:
    """Issue a key pair for user_id into the keystore file at path, creating it if absent.

    Every row is checked by `store_load` and none is decoded: the issued
    keys are the e bytes the check collects, and the checked rows, with the
    new row among them, go back as stored to `_store_write`, the encoder
    `store_save` writes through.  So the draws and the bytes written are
    those of `keygen` and `store_save` on a `Keystore` of the file's pairs.
    d is first recomputed on `numt.pow_secret`, independent of issuance's
    `pow`: a d faulty in one CRT half factors N with any other pair, so a
    mismatch raises MpnikeError, naming no value, and writes nothing.
    """
    rows, issued = store_load(path, pp) if os.path.exists(path) else ({}, set())
    if user_id in rows:
        raise DuplicateUser(user_id)
    pair = _issue(pp, msk, user_id, lambda e: numt.int_to_hex(e).encode() in issued, rng)
    if _issuer_pow(pp, msk, pair.e, numt.pow_secret) != pair.d:
        raise MpnikeError("issued key failed its check; nothing was written")
    rows[user_id] = numt.int_to_hex(pair.e).encode(), numt.int_to_hex(pair.d).encode()
    _store_write(path, params_digest(pp), rows)
    return pair
