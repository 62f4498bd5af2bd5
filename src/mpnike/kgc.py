"""Key generation centre: issues member key pairs and manages the keystore.

A member's key pair is (e, d) with

    e = p*y + z*q*k        (public)
    d = g**(p*y) mod N     (private)

for fresh odd exponents y < z*q and k < p, so e < 2*p*z*q has at most
m + 1 bits and (y, k) -> e is injective.  Since p, z, q, y, k are all odd,
e is always even; that parity is load-bearing for the collusion argument,
so issuance enforces it.  The issuer can audit a pair without knowing y
through d == g_p**(e * p^-1 mod z*q) (mod N).  Both d = g_p**y and the audit
are computed by CRT, as g_p has order z mod p' and order q mod q'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from . import artifact, numt
from .errors import (
    CollisionBudgetExceeded,
    DuplicateUser,
    FormatError,
    InvalidInput,
    ParamsMismatch,
    UnknownUser,
)
from .numt import Rng
from .params import MasterSecret, PublicParams, params_digest

if TYPE_CHECKING:
    from .nike import GroupKeyState

_STORE_HEADER = "mpnike-keystore/2"
_COLLISION_BUDGET = 16
MAX_USER_ID_BYTES = 256
MEMO_SETS = 16


@dataclass(frozen=True, slots=True)
class KeyPair:
    """What a member holds: public e, private d."""

    user_id: str
    e: int
    d: int = field(repr=False)


@dataclass
class Keystore:
    """Issuer-side database, bound to one parameter set by digest.

    `records` is filled by `keygen` and `store_load`, which keep
    `issued_keys`, the index of issued e, in step with it.  `derived`
    remembers the last `MEMO_SETS` group states that `brod_encrypt`
    derived from these pairs, keyed by member set: a remembered set costs no
    exponentiation, a remembered subset one per missing member, and a miss
    one per member but the first.  For honestly issued keys F_W is the same
    whichever member derives it, so every path gives the same ciphertext.
    Neither index nor memo takes part in equality or repr, and `store_save`
    writes neither.
    """

    params_ref: str
    records: dict[str, KeyPair] = field(default_factory=dict)
    issued_keys: set[int] = field(init=False, compare=False, repr=False)
    derived: dict[frozenset[int], GroupKeyState] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        self.issued_keys = {r.e for r in self.records.values()}

    def pair(self, user_id: str) -> KeyPair:
        if user_id not in self.records:
            raise UnknownUser(user_id)
        return self.records[user_id]

    def public_key(self, user_id: str) -> int:
        return self.pair(user_id).e


def new_keystore(pp: PublicParams) -> Keystore:
    return Keystore(params_ref=params_digest(pp))


def _check_user_id(user_id: str):
    if not user_id:
        raise InvalidInput("user id must be nonempty")
    if len(user_id.encode("utf-8")) > MAX_USER_ID_BYTES:
        raise InvalidInput(f"user id exceeds {MAX_USER_ID_BYTES} UTF-8 bytes")
    if "\t" in user_id or user_id.splitlines() != [user_id]:
        raise InvalidInput("user id must not contain tabs or line breaks")
    # the CLI's --group/--authorized lists split on "," and strip each id
    if "," in user_id or user_id.strip() != user_id:
        raise InvalidInput("user id must not contain ',' or start or end with whitespace")


def _issuer_pow(pp: PublicParams, msk: MasterSecret, x: int) -> int:
    """g_p**x mod N from two half-size pows: g_p has order z mod p' and q mod q'."""
    if msk.p_prime * msk.q_prime != pp.N:
        raise ParamsMismatch("master secret belongs to different parameters")
    a = pow(pp.g_p, x % msk.z, msk.p_prime)
    b = pow(pp.g_p, x % msk.q, msk.q_prime)
    return b + msk.q_prime * ((a - b) * msk.q_prime_inv % msk.p_prime)


def keygen(
    pp: PublicParams,
    msk: MasterSecret,
    store: Keystore,
    user_id: str,
    rng: Rng,
    forced_y: Optional[int] = None,
    forced_k: Optional[int] = None,
) -> KeyPair:
    """Issue a key pair for user_id and record it in the keystore.

    Re-samples k up to a fixed budget if the resulting e collides with an
    already-issued one.  forced_y / forced_k exist for reproducing known
    instances in tests and skip sampling (but not the parity check).
    """
    _check_user_id(user_id)
    if store.params_ref != params_digest(pp):
        raise ParamsMismatch("keystore belongs to different parameters")
    if user_id in store.records:
        raise DuplicateUser(user_id)
    zq = msk.z * msk.q
    y = forced_y if forced_y is not None else 2 * rng.randrange(0, (zq - 1) // 2) + 1
    if y % 2 == 0 or y < 1:
        raise InvalidInput("y must be a positive odd integer")
    e = None
    for _ in range(_COLLISION_BUDGET):
        k = forced_k if forced_k is not None else 2 * rng.randrange(0, (msk.p - 1) // 2) + 1
        if k % 2 == 0 or k < 1:
            raise InvalidInput("k must be a positive odd integer")
        cand = msk.p * y + zq * k
        if cand not in store.issued_keys:
            e = cand
            break
        if forced_k is not None:
            break
    if e is None:
        raise CollisionBudgetExceeded(f"could not find a fresh e for {user_id!r}")
    assert e % 2 == 0
    pair = KeyPair(user_id, e, _issuer_pow(pp, msk, y))  # g**(p*y) = g_p**y
    store.records[user_id] = pair
    store.issued_keys.add(e)
    return pair


def verify_pair(pp: PublicParams, msk: MasterSecret, e: int, d: int) -> bool:
    """Issuer-side audit: does (e, d) satisfy the issuance relation?

    Accepts exactly the pairs with d == g_p**(e * p^-1) in the order-z*q
    component, so e is only meaningful modulo z*q here.  Linear
    combinations of valid pairs therefore verify too; the audit proves
    well-formedness, not provenance.
    """
    zq = msk.z * msk.q
    return _issuer_pow(pp, msk, e * pow(msk.p, -1, zq) % zq) == d % pp.N


def store_save(store: Keystore, path: str):
    """Tab-separated `user_id, e, d` rows sorted by user id; mode 0600."""
    rows = (
        f"{u}\t{numt.int_to_hex(r.e)}\t{numt.int_to_hex(r.d)}"
        for u, r in sorted(store.records.items())
    )
    artifact.write_bound(path, _STORE_HEADER, store.params_ref, rows, private=True)


def store_load(path: str, pp: PublicParams) -> Keystore:
    digest = params_digest(pp)
    lines = artifact.read_bound(path, _STORE_HEADER, digest)
    store = Keystore(params_ref=digest)
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
        e = numt.hex_to_int(e_hex)
        if e in store.issued_keys:
            raise FormatError(f"{path}:{lineno}: duplicate public key")
        store.issued_keys.add(e)
        store.records[user_id] = KeyPair(user_id, e, numt.hex_to_int(d_hex))
    return store
