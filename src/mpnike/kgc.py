"""Key generation centre: issues member key pairs and manages the keystore.

A member's key pair is (e, d) with

    e = p*y + z*q*k        (public)
    d = g**(p*y) mod N     (private)

for fresh odd half-width exponents y, k.  Since p, z, q, y, k are all odd,
e is always even; that parity is load-bearing for the collusion argument,
so issuance enforces it.  The issuer can audit a pair without knowing y
through d == g_p**(e * p^-1 mod z*q) (mod N).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

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

_STORE_HEADER = "mpnike-keystore/1"
_COLLISION_BUDGET = 16
MAX_USER_ID_BYTES = 256


@dataclass(frozen=True)
class KeyPair:
    """What a member holds: public e, private d."""

    user_id: str
    e: int
    d: int = field(repr=False)


@dataclass(frozen=True)
class IssuanceRecord:
    """Keystore row; y and k are retained for audit unless redacted."""

    user_id: str
    e: int
    d: int = field(repr=False)
    y: Optional[int] = field(repr=False, default=None)
    k: Optional[int] = field(repr=False, default=None)
    issued_at: str = ""

    def pair(self) -> KeyPair:
        return KeyPair(self.user_id, self.e, self.d)


@dataclass
class Keystore:
    """Issuer-side database, bound to one parameter set by digest."""

    params_ref: str
    records: dict[str, IssuanceRecord] = field(default_factory=dict)

    def pair(self, user_id: str) -> KeyPair:
        if user_id not in self.records:
            raise UnknownUser(user_id)
        return self.records[user_id].pair()

    def public_key(self, user_id: str) -> int:
        if user_id not in self.records:
            raise UnknownUser(user_id)
        return self.records[user_id].e


def new_keystore(pp: PublicParams) -> Keystore:
    return Keystore(params_ref=params_digest(pp))


def _check_user_id(user_id: str):
    if not user_id:
        raise InvalidInput("user id must be nonempty")
    if len(user_id.encode("utf-8")) > MAX_USER_ID_BYTES:
        raise InvalidInput(f"user id exceeds {MAX_USER_ID_BYTES} UTF-8 bytes")
    if any(c in user_id for c in "\t\n\r"):
        raise InvalidInput("user id must not contain tabs or newlines")


def _sample_half_odd(bits: int, rng: Rng) -> int:
    # top bit forced for full width, low bit forced for parity
    return rng.getrandbits(bits) | (1 << (bits - 1)) | 1


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
    half = (pp.m + 1) // 2
    zq = msk.z * msk.q
    y = forced_y if forced_y is not None else _sample_half_odd(half, rng)
    if y % 2 == 0 or y < 1:
        raise InvalidInput("y must be a positive odd integer")
    issued = {r.e for r in store.records.values()}
    e = None
    for _ in range(_COLLISION_BUDGET):
        k = forced_k if forced_k is not None else _sample_half_odd(half, rng)
        if k % 2 == 0 or k < 1:
            raise InvalidInput("k must be a positive odd integer")
        cand = msk.p * y + zq * k
        if cand not in issued:
            e = cand
            break
        if forced_k is not None:
            break
    if e is None:
        raise CollisionBudgetExceeded(f"could not find a fresh e for {user_id!r}")
    assert e % 2 == 0
    d = pow(msk.g, msk.p * y, pp.N)
    record = IssuanceRecord(
        user_id=user_id,
        e=e,
        d=d,
        y=y,
        k=k,
        issued_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    store.records[user_id] = record
    return record.pair()


def verify_pair(pp: PublicParams, msk: MasterSecret, e: int, d: int) -> bool:
    """Issuer-side audit: does (e, d) satisfy the issuance relation?

    Accepts exactly the pairs with d == g_p**(e * p^-1) in the order-z*q
    component, so e is only meaningful modulo z*q here.  Linear
    combinations of valid pairs therefore verify too; the audit proves
    well-formedness, not provenance.
    """
    zq = msk.z * msk.q
    p_inv = numt.mod_inverse(msk.p, zq)
    return pow(pp.g_p, (e * p_inv) % zq, pp.N) == d % pp.N


def store_save(store: Keystore, path: str, include_exponents: bool = True):
    """Tab-separated rows sorted by user id; y/k written as '-' if redacted; mode 0600."""
    rows = []
    for user_id in sorted(store.records):
        r = store.records[user_id]
        y = numt.int_to_hex(r.y) if include_exponents and r.y is not None else "-"
        k = numt.int_to_hex(r.k) if include_exponents and r.k is not None else "-"
        rows.append(
            "\t".join((user_id, numt.int_to_hex(r.e), numt.int_to_hex(r.d), y, k, r.issued_at))
        )
    artifact.write_bound(path, _STORE_HEADER, store.params_ref, rows, private=True)


def store_load(path: str, pp: Optional[PublicParams] = None) -> Keystore:
    params_ref, lines = artifact.read_bound(
        path, _STORE_HEADER, None if pp is None else params_digest(pp)
    )
    store = Keystore(params_ref=params_ref)
    seen_e: set[int] = set()
    for lineno, line in enumerate(lines, 2):
        cols = line.split("\t")
        if len(cols) != 6:
            raise FormatError(f"{path}:{lineno}: expected 6 tab-separated fields")
        user_id, e_hex, d_hex, y_hex, k_hex, issued_at = cols
        _check_user_id(user_id)
        if user_id in store.records:
            raise FormatError(f"{path}:{lineno}: duplicate user id {user_id!r}")
        e = numt.hex_to_int(e_hex)
        if e in seen_e:
            raise FormatError(f"{path}:{lineno}: duplicate public key")
        seen_e.add(e)
        store.records[user_id] = IssuanceRecord(
            user_id=user_id,
            e=e,
            d=numt.hex_to_int(d_hex),
            y=None if y_hex == "-" else numt.hex_to_int(y_hex),
            k=None if k_hex == "-" else numt.hex_to_int(k_hex),
            issued_at=issued_at,
        )
    return store
