"""Arbitrary-precision modular arithmetic, primality testing and prime search.

Everything here is pure integer math.  Callers supply an entropy source
(`Rng`) so seeded runs reproduce byte for byte.  Group key derivation,
join and the collusion attacks exponentiate through `mod_exp`, so
`count_mod_exps` counts their group operations; issuer-side and setup
exponentiations call the builtin `pow` directly.
"""

from __future__ import annotations

import random
import re
from contextlib import contextmanager
from math import gcd, prod
from typing import Iterable, Iterator, Optional

from .errors import ExhaustedAttempts, FormatError, InvalidInput, NotInvertible

_MR_ROUNDS = 64


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i in range(limit) if flags[i]]


# A candidate below 2**16 with no prime factor below 256 is prime; the
# longer tail just screens large candidates before Miller-Rabin.
_SMALL_PRIMES = frozenset(_sieve(4096))
_SMALL_PRODUCT = prod(_SMALL_PRIMES)
_TRIAL_PROOF_LIMIT = 1 << 16


class Rng:
    """Entropy source: seeded and deterministic, or backed by the OS.

    With `seed=None` draws come from SystemRandom; otherwise from a
    deterministic PRNG, so two Rng instances with the same seed emit
    identical streams.
    """

    def __init__(self, seed: Optional[int] = None):
        self._rand: random.Random
        if seed is None:
            self._rand = random.SystemRandom()
        else:
            self._rand = random.Random(seed)

    def getrandbits(self, bits: int) -> int:
        if bits < 1:
            raise InvalidInput("bit count must be positive")
        return self._rand.getrandbits(bits)

    def randrange(self, lo: int, hi: int) -> int:
        if hi <= lo:
            raise InvalidInput(f"empty range [{lo}, {hi})")
        return self._rand.randrange(lo, hi)

    def randbytes(self, n: int) -> bytes:
        if n < 0:
            raise InvalidInput("byte count must be nonnegative")
        return self._rand.randbytes(n)


_SYSTEM_RNG = Rng()


class ModExpCounter:
    """Tally of modular exponentiations observed while active."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


_ACTIVE_COUNTERS: list[ModExpCounter] = []


@contextmanager
def count_mod_exps() -> Iterator[ModExpCounter]:
    """Count every `mod_exp` call made inside the `with` block."""
    counter = ModExpCounter()
    _ACTIVE_COUNTERS.append(counter)
    try:
        yield counter
    finally:
        _ACTIVE_COUNTERS.remove(counter)


def mod_exp(base: int, exp: int, n: int) -> int:
    """base**exp mod n for any integer exponent; n must be odd and >= 15.

    A negative exponent needs the inverse of the base, so a base sharing
    a factor with n raises NotInvertible carrying that factor.
    """
    if n < 15 or n % 2 == 0:
        raise InvalidInput(f"modulus must be odd and >= 15, got {n}")
    for counter in _ACTIVE_COUNTERS:
        counter.count += 1
    b = base % n
    if exp >= 0:
        return pow(b, exp, n)
    g = gcd(b, n)
    if g != 1:
        raise NotInvertible(b, n, g)
    return pow(b, exp, n)


def exp_chain(base: int, exps: Iterable[int], n: int) -> int:
    """base ** (product of the distinct exps) mod n, one `mod_exp` per exponent.

    Repeated exponents count once and order does not matter; the
    per-exponent calls keep `count_mod_exps` exact.
    """
    result = base % n
    for e in dict.fromkeys(exps):
        result = mod_exp(result, e, n)
    return result


def is_probable_prime(n: int, rounds: int = _MR_ROUNDS, rng: Optional[Rng] = None) -> bool:
    """Small-factor screen (exact below 2**16), Miller-Rabin above."""
    if rounds < 1:
        raise InvalidInput("rounds must be >= 1")
    if n < 2:
        return False
    if gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    if n < _TRIAL_PROOF_LIMIT:
        return True
    rng = rng or _SYSTEM_RNG
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(
    bits: int,
    rng: Rng,
    rounds: int = _MR_ROUNDS,
) -> int:
    """Uniform probable prime with the top bit set (exactly `bits` bits).

    Above 2 bits only odd candidates are drawn.
    """
    if bits < 2:
        raise InvalidInput(f"need bits >= 2, got {bits}")
    budget = max(256, 96 * bits)
    top = 1 << (bits - 1)
    low = int(bits > 2)  # 2 is the only even prime
    for _ in range(budget):
        cand = rng.getrandbits(bits) | top | low
        if is_probable_prime(cand, rounds, rng):
            return cand
    raise ExhaustedAttempts(f"no {bits}-bit prime found in {budget} attempts")


_HEX_RE = re.compile(r"\A(?:0|[1-9a-f][0-9a-f]*)\Z")


def int_to_hex(n: int) -> str:
    """Canonical lowercase hex, no leading zeros, no prefix."""
    if n < 0:
        raise InvalidInput("canonical hex is defined for nonnegative integers")
    return format(n, "x")


def hex_to_int(s: str) -> int:
    """Parse canonical hex produced by int_to_hex; reject anything else."""
    if not _HEX_RE.match(s):
        raise FormatError(f"not canonical lowercase hex: {s!r}")
    return int(s, 16)
