import dataclasses
import itertools
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EDITS, apply_edits, without_libcrypto
from mpnike import artifact, kgc, nike, numt, params
from mpnike.errors import (
    AlreadyMember,
    DegenerateResult,
    EmptyGroup,
    FormatError,
    InvalidInput,
    OutOfRange,
    ParamsMismatch,
    SelfInGroup,
)
from mpnike.kgc import KeyPair
from mpnike.numt import Rng, count_mod_exps
from mpnike.params import PublicParams

from oracles import closed_form_group_element, element_order, issuance_exponents

GOLDEN_PP = PublicParams(N=713, g_p=233, m=8, gamma="toy")
# sha256(b"MPNIKEv1" + big-endian F padded to the modulus byte width)
GOLDEN_KDF_2 = "37b139ef0063e6baf6d9a3277b25faf1af219b8b503c32e29554584236a9e260"
GOLDEN_KDF_712 = "46baba553b3a1ec343c425d22c690241a2a7c2631bc45d90f9734750b6d5e711"


def derive_all(pp, pairs):
    es = [p.e for p in pairs]
    return [
        nike.shared_key(pp, pair, [e for e in es if e != pair.e]) for pair in pairs
    ]


class TestKdf:
    def test_golden_vectors(self):
        assert nike.kdf(GOLDEN_PP, 2).hex() == GOLDEN_KDF_2
        assert nike.kdf(GOLDEN_PP, 712).hex() == GOLDEN_KDF_712

    def test_length_is_lambda(self, toy16):
        pp, _ = toy16
        assert len(nike.kdf(pp, 2)) == 32

    def test_out_of_range(self, toy16):
        pp, _ = toy16
        for bad in (0, -1, pp.N, pp.N + 5):
            with pytest.raises(OutOfRange):
                nike.kdf(pp, bad)

    def test_out_of_range_message_names_no_value(self, toy16):
        pp, _ = toy16
        bad = pp.N + 123457
        with pytest.raises(OutOfRange) as exc:
            nike.kdf(pp, bad)
        assert str(bad) not in str(exc.value)
        assert f"{bad:x}" not in str(exc.value)


class TestSharedKey:
    def test_all_members_agree(self, toy16, toy16_users):
        pp, _ = toy16
        _, pairs = toy16_users
        rng = Rng(21)
        for _ in range(20):
            size = rng.randrange(2, 9)
            group = [pairs[i] for i in sorted(
                rng.randrange(0, len(pairs)) for _ in range(size * 3)
            )][:size]
            group = list({p.user_id: p for p in group}.values())
            if len(group) < 2:
                continue
            try:
                states = derive_all(pp, group)
            except DegenerateResult:
                continue
            assert len({s.K for s in states}) == 1
            assert len({s.F for s in states}) == 1
            assert all(s.members == states[0].members for s in states)

    def test_matches_closed_form(self, toy16, toy16_users):
        pp, msk = toy16
        store, pairs = toy16_users
        for subset in itertools.combinations(range(6), 3):
            group = [pairs[i] for i in subset]
            ys = [issuance_exponents(msk, p.e)[0] for p in group]
            expected = closed_form_group_element(msk, pp.N, ys)
            es = [p.e for p in group]
            if expected == 1:
                with pytest.raises(DegenerateResult):
                    nike.shared_key(pp, group[0], es[1:])
            else:
                assert nike.shared_key(pp, group[0], es[1:]).F == expected

    def test_order_and_duplicates_irrelevant(self, toy16, toy16_users):
        pp, _ = toy16
        _, pairs = toy16_users
        me = pairs[0]
        others = [pairs[1].e, pairs[2].e, pairs[3].e]
        a = nike.shared_key(pp, me, others)
        b = nike.shared_key(pp, me, list(reversed(others)))
        c = nike.shared_key(pp, me, others + [pairs[2].e])
        assert a == b == c

    def test_exponentiation_count(self, toy16, toy16_users):
        pp, _ = toy16
        _, pairs = toy16_users
        for size in (2, 5, 9):
            others = [p.e for p in pairs[1:size]]
            with count_mod_exps() as counter:
                nike.shared_key(pp, pairs[0], others)
            assert counter.count == size - 1

    def test_empty_group(self, toy16, toy16_users):
        pp, _ = toy16
        _, pairs = toy16_users
        with pytest.raises(EmptyGroup):
            nike.shared_key(pp, pairs[0], [])

    def test_self_in_group(self, toy16, toy16_users):
        pp, _ = toy16
        _, pairs = toy16_users
        with pytest.raises(SelfInGroup):
            nike.shared_key(pp, pairs[0], [pairs[1].e, pairs[0].e])

    def test_bad_inputs(self, toy16, toy16_users):
        pp, _ = toy16
        _, pairs = toy16_users
        with pytest.raises(InvalidInput):
            nike.shared_key(pp, pairs[0], [pairs[1].e, 1])
        with pytest.raises(InvalidInput):
            nike.shared_key(pp, KeyPair("x", 4, 1), [pairs[1].e])

    def test_degenerate_detected(self, forced713):
        # an order-3 element dies when the peer exponent is a multiple of 3
        pp, msk = forced713
        h = pow(msk.g, 55, pp.N)
        assert element_order(h, pp.N) == 3
        with pytest.raises(DegenerateResult):
            nike.shared_key(pp, KeyPair("x", 100, h), [3])

    def test_members_sorted_and_complete(self, toy16, toy16_users):
        pp, _ = toy16
        _, pairs = toy16_users
        state = nike.shared_key(pp, pairs[2], [pairs[0].e, pairs[1].e])
        assert state.members == tuple(sorted([pairs[0].e, pairs[1].e, pairs[2].e]))

    def test_sensitive_fields_not_in_repr(self, toy16, toy16_users):
        pp, _ = toy16
        _, pairs = toy16_users
        state = nike.shared_key(pp, pairs[0], [pairs[1].e])
        assert f"F={state.F}" not in repr(state)
        assert state.K.hex() not in repr(state)
        assert f"d={pairs[0].d}" not in repr(pairs[0])


@pytest.fixture(scope="module")
def toy64_roster(toy64):
    """64 toy-64 pairs: groups of 2-64 members reach tables of 0-31 powers."""
    pp, msk = toy64
    store = kgc.new_keystore(pp)
    rng = Rng(64)
    return pp, [kgc.keygen(pp, msk, store, f"r{i:02d}", rng) for i in range(64)]


def _fresh(pair):
    """The same key pair with no powers kept."""
    return KeyPair(pair.user_id, pair.e, pair.d)


def _agree(pp, mine, pairs, sets):
    """One pair object derives each set by held_key and by shared_key."""
    for picks in sets:
        peers = [pairs[i].e for i in picks if pairs[i].e != mine.e]
        if peers:
            assert nike.held_key(pp, mine, peers) == nike.shared_key(pp, mine, peers)


# one set as roster indices, duplicates allowed; a reader's successive sets
# grow and shrink
_PICKS = st.lists(st.integers(0, 63), min_size=1, max_size=80)


class TestHeldKey:
    """held_key, through a pair's kept powers of d, against the counted shared_key."""

    @settings(max_examples=100, deadline=None)
    @given(me=st.integers(0, 63), sets=st.lists(_PICKS, min_size=1, max_size=8))
    def test_equals_shared_key_at_toy64(self, toy64_roster, me, sets):
        pp, pairs = toy64_roster
        _agree(pp, _fresh(pairs[me]), pairs, sets)

    @settings(max_examples=6, deadline=None)
    @given(me=st.integers(0, 63), sets=st.lists(_PICKS, min_size=1, max_size=3))
    def test_equals_shared_key_at_level80(self, big1024, big1024_users, me, sets):
        pp, _ = big1024
        _, pairs = big1024_users
        _agree(pp, _fresh(pairs[me]), pairs, sets)

    def test_table_grows_to_the_longest_chain_and_is_kept(self, toy64_roster):
        pp, pairs = toy64_roster
        mine = _fresh(pairs[0])
        _agree(pp, mine, pairs, [range(1, 8)])
        n, short = mine.powers
        _agree(pp, mine, pairs, [range(64), range(2, 5)])
        n, table = mine.powers
        longest = math.prod(p.e for p in pairs[1:]).bit_length()
        assert len(table) == longest // (2 * 64) + 1 > len(short) > 1
        assert n == pp.N and table[: len(short)] == short
        assert all(b == pow(a, 1 << 64, n) for a, b in zip(table, table[1:]))

    @pytest.mark.parametrize("cap", [1, 3])
    def test_past_the_table_cap(self, toy64_roster, monkeypatch, cap):
        monkeypatch.setattr(numt, "_TABLE_POWERS", cap)
        pp, pairs = toy64_roster
        mine = _fresh(pairs[5])
        _agree(pp, mine, pairs, [range(3), range(64), range(40), range(64)])
        assert len(mine.powers[1]) == cap + 1

    def test_change_of_modulus_drops_the_table(self, toy64_roster):
        pp, pairs = toy64_roster
        other = dataclasses.replace(pp, N=pp.N + 2)
        mine = _fresh(pairs[3])
        for params_now in (pp, other, pp):
            _agree(params_now, mine, pairs, [range(64)])
            assert mine.powers[0] == params_now.N

    def test_builtin_pow_fallback(self, toy64_roster, monkeypatch):
        without_libcrypto(monkeypatch)
        pp, pairs = toy64_roster
        _agree(pp, _fresh(pairs[7]), pairs, [range(64), range(10), range(20, 60)])

    def test_same_checks_as_shared_key(self, toy64_roster, forced713):
        pp, pairs = toy64_roster
        mine = _fresh(pairs[0])
        for peers, error in (([], EmptyGroup), ([pairs[1].e, mine.e], SelfInGroup), ([1], InvalidInput)):
            with pytest.raises(error):
                nike.held_key(pp, mine, peers)
        with pytest.raises(InvalidInput):
            nike.held_key(pp, KeyPair("x", 4, 1), [pairs[1].e])
        tiny, msk = forced713
        with pytest.raises(DegenerateResult):
            nike.held_key(tiny, KeyPair("x", 100, pow(msk.g, 55, tiny.N)), [3])

    def test_uncounted(self, toy64_roster):
        pp, pairs = toy64_roster
        with count_mod_exps() as counter:
            nike.held_key(pp, _fresh(pairs[0]), [p.e for p in pairs[1:40]])
        assert counter.count == 0

    def test_threads_sharing_a_pair_agree(self, toy64_roster):
        pp, pairs = toy64_roster
        mine = _fresh(pairs[0])
        sets = [[p.e for p in pairs[1:size]] for size in (2, 9, 17, 33, 64)]
        want = [nike.shared_key(pp, mine, peers) for peers in sets]
        wrong = []

        def worker(offset):
            for i in range(100):
                k = (i + offset) % len(sets)
                if nike.held_key(pp, mine, sets[k]) != want[k]:
                    wrong.append(k)

        # more threads than cores, switching often; each replaces the pair's table
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestJoin:
    def test_join_equals_rederivation(self, toy16, toy16_users):
        pp, _ = toy16
        _, pairs = toy16_users
        es = [p.e for p in pairs]
        rng = Rng(22)
        done = 0
        while done < 25:
            size = rng.randrange(2, 8)
            ids = sorted(set(rng.randrange(0, len(pairs)) for _ in range(size + 1)))
            if len(ids) < 3:
                continue
            base, new = ids[:-1], ids[-1]
            try:
                state = nike.shared_key(pp, pairs[base[0]], [es[i] for i in base[1:]])
                grown = nike.join(pp, state, es[new])
                full = nike.shared_key(pp, pairs[base[0]], [es[i] for i in base[1:]] + [es[new]])
            except DegenerateResult:
                continue
            assert grown == full
            done += 1

    def test_join_is_single_exponentiation(self, toy16, toy16_users):
        pp, _ = toy16
        _, pairs = toy16_users
        state = nike.shared_key(pp, pairs[0], [pairs[1].e])
        with count_mod_exps() as counter:
            nike.join(pp, state, pairs[2].e)
        assert counter.count == 1

    def test_already_member(self, toy16, toy16_users):
        pp, _ = toy16
        _, pairs = toy16_users
        state = nike.shared_key(pp, pairs[0], [pairs[1].e])
        with pytest.raises(AlreadyMember):
            nike.join(pp, state, pairs[1].e)
        with pytest.raises(AlreadyMember):
            nike.join(pp, state, pairs[0].e)

    def test_old_state_unchanged(self, toy16, toy16_users):
        pp, _ = toy16
        _, pairs = toy16_users
        state = nike.shared_key(pp, pairs[0], [pairs[1].e])
        before = (state.members, state.F, state.K)
        nike.join(pp, state, pairs[2].e)
        assert (state.members, state.F, state.K) == before


class TestExtend:
    def test_extend_equals_rederivation_and_successive_joins(self, toy64, toy64_users):
        pp, _ = toy64
        _, pairs = toy64_users
        es = [p.e for p in pairs]
        state = nike.shared_key(pp, pairs[0], es[1:3])
        grown = nike.join(pp, state, es[7], es[4], es[5], es[4])  # order, duplicates
        assert grown == nike.shared_key(pp, pairs[5], [es[i] for i in (0, 1, 2, 4, 7)])
        joined = state
        for e in (es[4], es[5], es[7]):
            joined = nike.join(pp, joined, e)
        assert grown == joined

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_one_exponentiation_per_new_member(self, toy64, toy64_users, k):
        pp, _ = toy64
        _, pairs = toy64_users
        state = nike.shared_key(pp, pairs[0], [pairs[1].e])
        with count_mod_exps() as counter:
            nike.join(pp, state, *(p.e for p in pairs[2 : 2 + k]))
        assert counter.count == k

    def test_checks(self, toy64, toy64_users):
        pp, _ = toy64
        _, pairs = toy64_users
        state = nike.shared_key(pp, pairs[0], [pairs[1].e])
        with count_mod_exps() as counter:
            with pytest.raises(EmptyGroup):
                nike.join(pp, state)
            with pytest.raises(AlreadyMember):
                nike.join(pp, state, pairs[2].e, pairs[1].e)
            with pytest.raises(InvalidInput):
                nike.join(pp, state, pairs[2].e, 1)
            with pytest.raises(InvalidInput):
                nike.join(pp, state, 1)
            with pytest.raises(InvalidInput):  # the identity is no group element
                nike.join(pp, dataclasses.replace(state, F=1), pairs[2].e)
        assert counter.count == 0  # every check comes before the first exponentiation


class TestOutsider:
    def test_outsider_derives_different_key(self, toy64, toy64_users):
        pp, _ = toy64
        _, pairs = toy64_users
        rng = Rng(23)
        for _ in range(50):
            ids = sorted(set(rng.randrange(0, len(pairs)) for _ in range(5)))
            if len(ids) < 3:
                continue
            group, outsider = ids[:-1], ids[-1]
            es = [pairs[i].e for i in group]
            honest = nike.shared_key(pp, pairs[group[0]], es[1:])
            # the outsider can only swap themselves in, never reproduce K_W
            intruded = nike.shared_key(pp, pairs[outsider], es[1:])
            assert intruded.K != honest.K


class TestGroupFiles:
    def test_roundtrip(self, toy16, toy16_users, tmp_path):
        pp, _ = toy16
        _, pairs = toy16_users
        members = sorted(p.e for p in pairs[:4])
        path = str(tmp_path / "group.txt")
        nike.save_group(pp, members, path)
        assert nike.load_group(path, pp) == tuple(members)

    def test_params_binding(self, toy16, forced713, toy16_users, tmp_path):
        pp, _ = toy16
        _, pairs = toy16_users
        path = str(tmp_path / "group.txt")
        nike.save_group(pp, [pairs[0].e, pairs[1].e], path)
        with pytest.raises(ParamsMismatch):
            nike.load_group(path, forced713[0])

    def test_empty_rejected(self, toy16, tmp_path):
        pp, _ = toy16
        with pytest.raises(EmptyGroup):
            nike.save_group(pp, [], str(tmp_path / "group.txt"))

    @pytest.mark.parametrize(
        "lines",
        [
            ["mpnike-group/1"],  # header missing digest
            None,  # filled in below: unsorted
            ["not-a-header\tx", "4"],
            ["mpnike-group/1\t{digest}"],  # header only: no members
        ],
    )
    def test_malformed(self, toy16, tmp_path, lines):
        pp, _ = toy16
        digest = params.params_digest(pp)
        if lines is None:
            lines = ["mpnike-group/1\t{digest}", "a2", "a0"]
        path = str(tmp_path / "group.txt")
        with open(path, "w") as fh:
            fh.write("".join(line.format(digest=digest) + "\n" for line in lines))
        with pytest.raises(FormatError):
            nike.load_group(path, pp)

    def test_bad_hex_error_names_the_line(self, toy16, tmp_path):
        pp, _ = toy16
        path = str(tmp_path / "group.txt")
        with open(path, "w") as fh:
            fh.write(f"mpnike-group/1\t{params.params_digest(pp)}\na0\n0b1\n")
        with pytest.raises(FormatError) as exc:
            nike.load_group(path, pp)
        assert str(exc.value) == f"{path}:3: public key is not canonical lowercase hex"

    def test_duplicate_members_rejected(self, toy16, tmp_path):
        pp, _ = toy16
        path = str(tmp_path / "group.txt")
        with open(path, "w") as fh:
            fh.write(f"mpnike-group/1\t{params.params_digest(pp)}\na0\na0\n")
        with pytest.raises(FormatError):
            nike.load_group(path, pp)

    @settings(max_examples=200, deadline=None)
    @given(edits=EDITS)
    def test_accepted_bytes_reserialise_exactly(
        self, toy16, toy16_users, tmp_path_factory, edits
    ):
        pp, _ = toy16
        _, pairs = toy16_users
        path = str(tmp_path_factory.getbasetemp() / "group-edits.txt")
        nike.save_group(pp, [p.e for p in pairs[:4]], path)
        raw = apply_edits(artifact.read(path), edits)
        artifact.write(path, raw)
        try:
            members = nike.load_group(path, pp)
        except (FormatError, ParamsMismatch):
            return
        nike.save_group(pp, members, path)
        assert artifact.read(path) == raw
