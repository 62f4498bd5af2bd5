import pytest
from hypothesis import strategies as st

import acceptance_log
from mpnike import kgc, legacy, numt, params
from mpnike.numt import Rng

MASTER_SEED = 20260814
FAST_1024_SEED = 9

# byte edits of a valid artifact: (kind, position, byte)
EDITS = st.lists(
    st.tuples(
        st.sampled_from(("set", "insert", "delete")), st.integers(0, 1 << 16), st.integers(0, 255)
    ),
    min_size=1,
    max_size=4,
)


def apply_edits(raw: bytes, edits) -> bytes:
    """raw with each (kind, position, byte) edit applied; positions wrap."""
    out = bytearray(raw)
    for kind, pos, byte in edits:
        pos %= len(out) + 1
        if kind == "insert":
            out.insert(pos, byte)
        elif pos < len(out) and kind == "set":
            out[pos] = byte
        elif pos < len(out):
            del out[pos]
    return bytes(out)


class ScriptedRng(Rng):
    """An Rng whose randrange returns `values` in order, then draws from `seed`.

    Scripted values skip the range check, so known instances can be
    reproduced: `keygen` turns draws r into y = 2*r + 1 and then
    k = 2*r + 1, and `esk_keygen` takes its draw as v.
    """

    def __init__(self, values, seed=0):
        super().__init__(seed)
        self.values = iter(values)

    def randrange(self, lo, hi):
        value = next(self.values, None)
        return super().randrange(lo, hi) if value is None else value


def issuing(y: int, k: int) -> ScriptedRng:
    """The Rng under which `keygen` issues e = p*y + z*q*k."""
    return ScriptedRng([(y - 1) // 2, (k - 1) // 2])


def without_libcrypto(monkeypatch):
    """numt as it loads where `_hashlib`'s libcrypto cannot: no handle, the builtin pow."""
    monkeypatch.setattr(numt, "_LIBCRYPTO", None)
    monkeypatch.setattr(numt, "_pow", pow)
    monkeypatch.setattr(numt, "_pow2", numt._builtin_pow2)
    monkeypatch.setattr(numt, "_pow_secret", pow)


def load_keystore(path: str, pp) -> kgc.Keystore:
    """The keystore file at path with every row decoded, as one `Keystore`."""
    rows, _ = kgc.store_load(path, pp)
    return kgc.Keystore(params.params_digest(pp), kgc.load_pairs(path, pp, rows))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log.LINES:
            terminalreporter.write_line(line)


def enrolled(eta: int, bits: int, rng: Rng):
    """Toy-`bits` parameters from rng, then a keystore `keygen` fills with user001, user002,
    ... user<eta> from the same rng: (pp, msk, store)."""
    pp, msk = params.setup(params.security_level("toy", bits), rng)
    store = kgc.new_keystore(pp)
    for i in range(1, eta + 1):
        kgc.keygen(pp, msk, store, f"user{i:03d}", rng)
    return pp, msk, store


def _issue_many(pp, msk, n, seed, prefix="u"):
    store = kgc.new_keystore(pp)
    rng = Rng(seed)
    pairs = [kgc.keygen(pp, msk, store, f"{prefix}{i:02d}", rng) for i in range(n)]
    return store, pairs


@pytest.fixture(scope="session")
def toy16():
    return params.setup(params.security_level("toy", 16), Rng(MASTER_SEED))


@pytest.fixture(scope="session")
def toy16_users(toy16):
    pp, msk = toy16
    return _issue_many(pp, msk, 12, MASTER_SEED + 1)


@pytest.fixture(scope="session")
def toy64():
    return params.setup(params.security_level("toy", 64), Rng(MASTER_SEED))


@pytest.fixture(scope="session")
def toy64_users(toy64):
    pp, msk = toy64
    return _issue_many(pp, msk, 10, MASTER_SEED + 2)


@pytest.fixture(scope="session")
def forced713():
    return params.setup(
        params.security_level("toy", 16), Rng(MASTER_SEED), forced_primes=(3, 5, 11)
    )


@pytest.fixture(scope="session")
def big1024():
    return params.setup(params.security_level("80"), Rng(FAST_1024_SEED))


@pytest.fixture(scope="session")
def big1024_users(big1024):
    pp, msk = big1024
    return _issue_many(pp, msk, 64, MASTER_SEED + 3)


@pytest.fixture(scope="session")
def esk512():
    return legacy.esk_setup(512, Rng(MASTER_SEED))
