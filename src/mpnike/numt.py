"""Arbitrary-precision modular arithmetic, primality testing and prime search.

Everything here is integer math.  Callers supply an entropy source
(`Rng`) so seeded runs reproduce byte for byte.

`count_mod_exps` counts calls of `mod_exp` and nothing else.  `exp_chain`
makes one `mod_exp` per distinct exponent, so group key derivation
(`nike.shared_key`), join and the collusion attacks are counted.
`pow_mod` (Miller-Rabin, the generator search, parameter validation) and
`fixed_base_chain` (a key pair's repeated derivations, `nike.held_key`) are
not.

All run on OpenSSL's bignums, reached through the libcrypto that the
interpreter's `_hashlib` extension already links (`BN_mod_exp`, and
`BN_mod_exp2_mont` for `fixed_base_chain`'s two-base step), and on the
builtin `pow` where that library cannot be loaded (no `_hashlib`, or its
symbols are not exported, as on Windows).  Both give the same value, and
`count_mod_exps` counts one call either way.  `pow_secret`, for a secret
exponent, runs on `BN_mod_exp_mont_consttime` (also uncounted), on `pow`
where libcrypto does not load.  The same handle serves `broadcast`'s
AES-256-GCM (the `EVP_Cipher*` calls), which has no builtin fallback: without
it the broadcast calls raise `MpnikeError`.  Only issuance and audit
(`kgc._issuer_pow` on its default) exponentiate outside this module, on the
builtin `pow`; its docstring says why.
"""

from __future__ import annotations

import ctypes
import random
from contextlib import contextmanager
from contextvars import ContextVar
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


# A candidate below 4096**2 with no prime factor below 4096 is prime;
# above that the table just screens candidates before Miller-Rabin.
_SMALL_PRIMES = frozenset(_sieve(4096))
_SMALL_PRODUCT = prod(_SMALL_PRIMES)
_TRIAL_PROOF_LIMIT = 4096**2


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


def _load_libcrypto() -> Optional[ctypes.CDLL]:
    """libcrypto's bignum and AES-GCM calls through `_hashlib`'s handle, or None."""
    try:
        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        ptr, buf, i = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
        for name, args, res in (
            ("BN_new", (), ptr),
            ("BN_CTX_new", (), ptr),
            ("BN_bin2bn", (buf, i, ptr), ptr),
            ("BN_mod_exp", (ptr, ptr, ptr, ptr, ptr), i),
            ("BN_mod_exp2_mont", (ptr,) * 8, i),
            ("BN_mod_exp_mont_consttime", (ptr,) * 6, i),
            ("BN_bn2binpad", (ptr, ptr, i), i),
            ("BN_clear_free", (ptr,), None),
            ("BN_CTX_free", (ptr,), None),
            ("EVP_CIPHER_CTX_new", (), ptr),
            ("EVP_CIPHER_CTX_free", (ptr,), None),
            ("EVP_aes_256_gcm", (), ptr),
            ("EVP_CipherInit_ex", (ptr, ptr, ptr, buf, buf, i), i),
            ("EVP_CipherUpdate", (ptr, ptr, ptr, buf, i), i),
            ("EVP_CipherFinal_ex", (ptr, ptr, ptr), i),
            ("EVP_CIPHER_CTX_ctrl", (ptr, i, i, ptr), i),
        ):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = args, res
        return lib
    except (ImportError, OSError, AttributeError):
        return None


_LIBCRYPTO = _load_libcrypto()


def _bn_call(op, *values: int) -> int:
    """op(r, *bignums, ctx) on libcrypto, returned as the int r.

    values are nonnegative and end with the modulus, whose width r takes.
    Every call owns its context and bignums, so calls may run in parallel
    threads; all are cleared before they are freed.
    """
    lib = _LIBCRYPTO
    width = (values[-1].bit_length() + 7) // 8
    bns = []
    ctx = lib.BN_CTX_new()
    try:
        if not ctx:
            raise MemoryError("BN_CTX_new failed")
        for v in values:
            raw = v.to_bytes((v.bit_length() + 7) // 8, "big")
            bn = lib.BN_bin2bn(raw, len(raw), None)
            if not bn:
                raise MemoryError("BN_bin2bn failed")
            bns.append(bn)
        r = lib.BN_new()
        if not r:
            raise MemoryError("BN_new failed")
        bns.append(r)
        if op(r, *bns[:-1], ctx) != 1:
            raise ArithmeticError("libcrypto exponentiation failed")
        out = ctypes.create_string_buffer(width)
        if lib.BN_bn2binpad(r, out, width) != width:
            raise ArithmeticError("BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")
    finally:
        for bn in bns:
            lib.BN_clear_free(bn)
        if ctx:
            lib.BN_CTX_free(ctx)


def _bn_mod_exp(b: int, exp: int, n: int) -> int:
    """b**exp mod n on libcrypto, for 0 <= b < n and exp >= 0."""
    return _bn_call(_LIBCRYPTO.BN_mod_exp, b, exp, n)


def _bn_mod_exp2(a1: int, p1: int, a2: int, p2: int, n: int) -> int:
    """a1**p1 * a2**p2 mod n on libcrypto, the two sharing their squarings; n odd."""
    return _bn_call(lambda *args: _LIBCRYPTO.BN_mod_exp2_mont(*args, None), a1, p1, a2, p2, n)


def _bn_mod_exp_secret(b: int, exp: int, n: int) -> int:
    """b**exp mod n on libcrypto's constant-time routine, for 0 <= b < n; n odd."""
    return _bn_call(lambda *args: _LIBCRYPTO.BN_mod_exp_mont_consttime(*args, None), b, exp, n)


def _builtin_pow2(a1: int, p1: int, a2: int, p2: int, n: int) -> int:
    return pow(a1, p1, n) * pow(a2, p2, n) % n


if _LIBCRYPTO is None:
    _pow, _pow2, _pow_secret = pow, _builtin_pow2, pow
else:
    _pow, _pow2, _pow_secret = _bn_mod_exp, _bn_mod_exp2, _bn_mod_exp_secret


class ModExpCounter:
    """Tally of modular exponentiations observed while active."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


# the counters of the enclosing `count_mod_exps` blocks, per thread and task
_ACTIVE_COUNTERS: ContextVar[tuple[ModExpCounter, ...]] = ContextVar("mod_exp_counters", default=())


@contextmanager
def count_mod_exps() -> Iterator[ModExpCounter]:
    """Count every `mod_exp` call made inside the `with` block, in this context alone."""
    counter = ModExpCounter()
    token = _ACTIVE_COUNTERS.set(_ACTIVE_COUNTERS.get() + (counter,))
    try:
        yield counter
    finally:
        _ACTIVE_COUNTERS.reset(token)


def pow_mod(base: int, exp: int, n: int) -> int:
    """base**exp mod n for exp >= 0 and odd n >= 1, on the backend of `mod_exp`.

    Uncounted: `count_mod_exps` sees only `mod_exp`.
    """
    if exp < 0 or n < 1 or n % 2 == 0:
        raise InvalidInput("pow_mod needs exp >= 0 and an odd modulus >= 1")
    return _pow(base % n, exp, n)


def pow_secret(base: int, exp: int, n: int) -> int:
    """`pow_mod` for a secret exp, on libcrypto's `BN_mod_exp_mont_consttime`, whose
    operations and memory reads do not follow the pattern of exp's bits (on the
    builtin `pow`, with no such promise, where libcrypto does not load).  Uncounted."""
    if exp < 0 or n < 1 or n % 2 == 0:
        raise InvalidInput("pow_secret needs exp >= 0 and an odd modulus >= 1")
    return _pow_secret(base % n, exp, n)


def mod_exp(base: int, exp: int, n: int) -> int:
    """base**exp mod n for any integer exponent; n must be odd and >= 15.

    A negative exponent needs the inverse of the base, so a base sharing
    a factor with n raises NotInvertible carrying that factor.
    """
    if n < 15 or n % 2 == 0:
        raise InvalidInput(f"modulus must be odd and >= 15, got {n}")
    for counter in _ACTIVE_COUNTERS.get():
        counter.count += 1
    b = base % n
    if exp < 0:
        g = gcd(b, n)
        if g != 1:
            raise NotInvertible(b, n, g)
        b, exp = pow(b, -1, n), -exp
    return pow_mod(b, exp, n)


def exp_chain(base: int, exps: Iterable[int], n: int) -> int:
    """base ** (product of the distinct exps) mod n, one `mod_exp` per exponent.

    Repeated exponents count once and order does not matter; the
    per-exponent calls keep `count_mod_exps` exact.
    """
    result = base % n
    for e in dict.fromkeys(exps):
        result = mod_exp(result, e, n)
    return result


# Most powers past the base a fixed-base table holds: at level 80 a table of
# 32 halves the chain of a 64-member group; longer chains split at its end.
_TABLE_POWERS = 32


def _product(values: list[int]) -> int:
    """Product by a balanced tree, cheaper than a running one for many wide values."""
    while len(values) > 1:
        values = [prod(values[i : i + 2]) for i in range(0, len(values), 2)]
    return prod(values)


def fixed_base_chain(
    powers: tuple[int, ...], exps: Iterable[int], n: int
) -> tuple[int, tuple[int, ...]]:
    """powers[0] ** (product of the distinct exps) mod n, and the table it used.

    powers[i] is powers[0] ** (2 ** (w*i)) mod n for w = n.bit_length(), and
    powers[0] < n.  The product E, of L bits, splits at bit w*t for
    t = min(L // (2*w), _TABLE_POWERS) into E = lo + 2**(w*t) * hi, raised as
    powers[0]**lo * powers[t]**hi by one two-base exponentiation whose
    max(w*t, L - w*t) squarings are shared: about L/2, against L in
    `exp_chain`, once the table reaches t.  Building it costs w squarings per
    new power, so a first use costs what the chain does.  The table is
    returned as a new tuple, never mutated, for the caller to keep.
    Uncounted by `count_mod_exps`; on the backend of `pow_mod`.
    """
    if n < 1 or n % 2 == 0:
        raise InvalidInput("fixed_base_chain needs an odd modulus >= 1")
    values = list(dict.fromkeys(exps))
    if any(e < 0 for e in values):
        raise InvalidInput("fixed_base_chain needs exponents >= 0")
    exp, width = _product(values), n.bit_length()
    t = min(exp.bit_length() // (2 * width), _TABLE_POWERS)
    if t == 0:
        return pow_mod(powers[0], exp, n), powers
    while len(powers) <= t:
        powers += (pow_mod(powers[-1], 1 << width, n),)
    split = width * t
    return _pow2(powers[0], exp & ((1 << split) - 1), powers[t], exp >> split, n), powers


def is_probable_prime(n: int, rounds: int = _MR_ROUNDS, rng: Optional[Rng] = None) -> bool:
    """Small-factor screen (exact below 4096**2, no draws), Miller-Rabin above."""
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
        x = pow_mod(a, d, n)
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


_HEX_DIGITS = b"0123456789abcdef"


def int_to_hex(n: int) -> str:
    """Canonical lowercase hex, no leading zeros, no prefix."""
    if n < 0:
        raise InvalidInput("canonical hex is defined for nonnegative integers")
    return format(n, "x")


def check_hex(s: str, field: str = "value"):
    """Raise FormatError unless s is canonical hex, as int_to_hex writes it.

    The error names `field`, never `s`, which may be a private key.
    """
    if (
        not s
        or not s.isascii()
        or s.encode().translate(None, _HEX_DIGITS)
        or (s[0] == "0" and len(s) > 1)
    ):
        raise FormatError(f"{field} is not canonical lowercase hex")


def hex_to_int(s: str, field: str = "value") -> int:
    """Parse canonical hex produced by int_to_hex; reject anything else (see check_hex)."""
    check_hex(s, field)
    return int(s, 16)
