"""Multi-party non-interactive key exchange toolkit.

A key generation centre publishes a structured RSA-like modulus and
issues per-member key pairs; any set of members then derives a common
symmetric key with no interaction, one modular exponentiation per other
member.  Includes broadcast encryption on top of the group keys and
working collusion attacks against two earlier schemes of the same shape.
"""

from .errors import (
    AlreadyMember,
    AuthFailure,
    CollisionBudgetExceeded,
    DegenerateResult,
    DuplicateUser,
    EmptyGroup,
    ExhaustedAttempts,
    FormatError,
    GroupTooSmall,
    InvalidInput,
    MpnikeError,
    NotAuthorized,
    NotInvertible,
    OutOfRange,
    ParamsMismatch,
    SelfInGroup,
    UnknownUser,
)
from .kgc import KeyPair, Keystore, keygen, new_keystore, verify_pair
from .nike import GroupKeyState, join, kdf, shared_key
from .numt import Rng, count_mod_exps
from .params import (
    MasterSecret,
    PublicParams,
    SecurityLevel,
    security_level,
    setup,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AlreadyMember",
    "AuthFailure",
    "CollisionBudgetExceeded",
    "DegenerateResult",
    "DuplicateUser",
    "EmptyGroup",
    "ExhaustedAttempts",
    "FormatError",
    "GroupKeyState",
    "GroupTooSmall",
    "InvalidInput",
    "KeyPair",
    "Keystore",
    "MasterSecret",
    "MpnikeError",
    "NotAuthorized",
    "NotInvertible",
    "OutOfRange",
    "ParamsMismatch",
    "PublicParams",
    "Rng",
    "SecurityLevel",
    "SelfInGroup",
    "UnknownUser",
    "count_mod_exps",
    "join",
    "kdf",
    "keygen",
    "new_keystore",
    "security_level",
    "setup",
    "shared_key",
    "validate",
    "verify_pair",
]
