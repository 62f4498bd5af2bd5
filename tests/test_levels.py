"""Levels 112 and 128 end to end: seeded set-up, issuance, derivation and a
broadcast round trip at 2048 and 3072 bits.

Each seed is one whose set-up finishes in about a second; the digests are
known answers for that set-up, like the level-80 one in test_params.py.
"""

import pytest

from mpnike import broadcast, kgc, nike, params
from mpnike.numt import Rng, count_mod_exps

from conftest import FAST_1024_SEED
from oracles import closed_form_group_element, issuance_exponents


@pytest.mark.parametrize(
    "level, seed, digest",
    [
        ("112", 2, "b39784ae7894b3598016bc8bc7a096fe857e2ebef54e29c73d01c93a8463f749"),
        ("128", 5, "97ae3351a296b909c42d71638ceae9349486305aacca4037647575be5664a1f7"),
    ],
)
def test_named_level_flow(level, seed, digest):
    lvl = params.security_level(level)
    pp, msk = params.setup(lvl, Rng(seed))
    assert pp.N.bit_length() == lvl.modulus_bits
    assert params.params_digest(pp) == digest
    report = params.validate(pp, msk)
    assert report.ok, report.failures()

    store, rng = kgc.new_keystore(pp), Rng(seed + 100)
    pairs = [kgc.keygen(pp, msk, store, f"u{i}", rng) for i in range(4)]
    es = [p.e for p in pairs]
    ys = [issuance_exponents(msk, e)[0] for e in es]
    F = closed_form_group_element(msk, pp.N, ys)
    for pair in pairs:
        with count_mod_exps() as counter:
            state = nike.shared_key(pp, pair, [e for e in es if e != pair.e])
        assert counter.count == len(es) - 1
        assert state.members == tuple(sorted(es)) and state.F == F

    others = es[1:]
    first, again = nike.held_key(pp, pairs[0], others), nike.held_key(pp, pairs[0], others)
    assert first == again == state

    payload = f"level {level}".encode()
    bc = broadcast.brod_encrypt(store, pp, ["u0", "u1", "u2"], payload, rng)
    parsed = broadcast.ct_from_bytes(broadcast.ct_to_bytes(bc))
    assert parsed == bc
    for pair in pairs[:3]:
        assert broadcast.brod_decrypt(pp, pair, parsed) == payload


@pytest.mark.parametrize(
    "level, seed, split",
    [("80", FAST_1024_SEED, (341, 340, 682)), ("112", 2, (682, 682, 1365)),
     ("128", 5, (1024, 1023, 2048))],
    ids=["80", "112", "128"],
)
def test_factor_widths(level, seed, split):
    # the level-80 set is conftest's big1024; the others are test_named_level_flow's
    M = params.security_level(level).modulus_bits
    assert params._bit_split(M) == split
    pp, msk = params.setup(params.security_level(level), Rng(seed))
    assert (msk.p.bit_length(), msk.z.bit_length(), msk.p_prime.bit_length()) == split
    assert msk.q_prime.bit_length() in (M - split[2], M - split[2] + 1)
    assert pp.N.bit_length() == M
