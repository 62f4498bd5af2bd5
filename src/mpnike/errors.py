"""Exception types shared across the package.

Plain I/O failures are reported with the builtin OSError; everything
domain-specific derives from MpnikeError so callers can catch one base.
"""


class MpnikeError(Exception):
    """Base class for all library errors."""


class NotInvertible(MpnikeError):
    """A modular inverse does not exist.

    Carries the offending gcd: when the modulus is a product of secret
    primes, a nontrivial gcd is an accidental factor, so callers should
    treat this as a critical event rather than a routine failure.  The
    message names none of the three values.
    """

    def __init__(self, value: int, modulus: int, factor: int):
        super().__init__("value is not invertible modulo the modulus (they share a factor)")
        self.value = value
        self.modulus = modulus
        self.factor = factor


class InvalidInput(MpnikeError, ValueError):
    """An argument violates a documented precondition."""


class ExhaustedAttempts(MpnikeError):
    """A randomized search ran out of its attempt budget."""


class DuplicateUser(MpnikeError):
    """The user id is already registered in the keystore."""


class FormatError(MpnikeError):
    """A file or byte string does not match its documented encoding."""


class ParamsMismatch(MpnikeError):
    """An artifact was produced under different public parameters."""


class EmptyGroup(MpnikeError):
    """A group operation has no other member: no peer, newcomer or second recipient."""


class DegenerateResult(MpnikeError):
    """A derived group element collapsed to the identity."""


class AlreadyMember(MpnikeError):
    """A key to add is already in the group (for a key pair, its holder's own key)."""


class UnknownUser(MpnikeError):
    """The user id is not present in the keystore."""


class NotAuthorized(MpnikeError):
    """The key pair is not in the ciphertext's authorized set."""


class AuthFailure(MpnikeError):
    """Ciphertext authentication failed."""
