"""A model of the key lifecycle on one toy-64 roster.

Random sequences of issuance (in memory and into a keystore file, in
lockstep), derivation, joins, broadcasts and keystore round trips, each
result checked against `oracles.closed_form_group_element` from the master
secret.  The rules reach issuance and sending only through the adapter
functions below, so a change of those calls edits the adapter and not the
rules.
"""

import functools
import os
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import oracles
from conftest import MASTER_SEED, load_keystore
from mpnike import artifact, broadcast, kgc, nike, numt, params
from mpnike.errors import DegenerateResult, MpnikeError, NotAuthorized
from mpnike.numt import Rng, count_mod_exps

# a small pool, so issuance meets duplicates; "x,y" is an id no one may hold
IDS = st.sampled_from(["m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7", "x,y"])


@functools.cache
def _system():
    """The parameters of conftest's `toy64` fixture, and a narrower modulus, below
    which most d are not reduced."""
    pp, msk = params.setup(params.security_level("toy", 64), Rng(MASTER_SEED))
    other, _ = params.setup(params.security_level("toy", 48), Rng(MASTER_SEED))
    return pp, msk, other


# the adapter: every issuance and send the rules make


def issue_in_memory(pp, msk, store, user_id, rng):
    return kgc.keygen(pp, msk, store, user_id, rng)


def issue_into_file(pp, msk, path, user_id, rng):
    return kgc.store_issue(path, pp, msk, user_id, rng)


def send_as_issuer(pp, store, ids, message, rng):
    """Sent from the keystore `keygen` filled, which holds the master secret."""
    return broadcast.brod_encrypt(store, pp, ids, message, rng)


def send_as_member(pp, path, ids, message, rng):
    """Sent from the file's pairs of ids alone, as the first of them."""
    member = kgc.Keystore(params.params_digest(pp), kgc.load_pairs(path, pp, ids))
    return broadcast.brod_encrypt(member, pp, ids, message, rng)


def _outcome(call):
    """call()'s result, or the (type, text) of the MpnikeError it raised."""
    try:
        return call()
    except MpnikeError as exc:
        return type(exc), str(exc)


class Lifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pp, self.msk, self.other = _system()
        self.store = kgc.new_keystore(self.pp)
        self.dir = tempfile.mkdtemp(prefix="mpnike-lifecycle-")
        self.path = os.path.join(self.dir, "issued.tsv")
        self.saved = os.path.join(self.dir, "saved.tsv")
        self.seeds = []
        self.group = None
        self.sent = None

    def teardown(self):
        shutil.rmtree(self.dir)

    def _pairs(self, ids):
        return [self.store.pair(u) for u in ids]

    def _closed_form(self, es):
        ys = [oracles.issuance_exponents(self.msk, e)[0] for e in set(es)]
        return oracles.closed_form_group_element(self.msk, self.pp.N, ys)

    def _derived(self, derive, es):
        """derive()'s state, whose element must be the closed form of es; None
        where that is 1, which derive must refuse."""
        expected = self._closed_form(es)
        if expected == 1:
            with pytest.raises(DegenerateResult):
                derive()
            return None
        state = derive()
        assert state.F == expected
        assert state.members == tuple(sorted(set(es)))
        return state

    def _draw_pair_and_peers(self, data):
        """A member's pair, and the e of peers drawn from the rest of the roster,
        repeats allowed."""
        me = data.draw(st.sampled_from(sorted(self.store.records)))
        rest = [u for u in sorted(self.store.records) if u != me]
        peers = data.draw(st.lists(st.sampled_from(rest), min_size=1, max_size=6))
        return self.store.pair(me), [p.e for p in self._pairs(peers)]

    @rule(user_id=IDS, seed=st.integers(0, 1 << 32), replay=st.booleans())
    def issue(self, user_id, seed, replay):
        # replaying an earlier issue's seed draws its y and k, so its e is taken
        if replay and self.seeds:
            seed = self.seeds[seed % len(self.seeds)]
        self.seeds.append(seed)
        pp, msk, rng_memory, rng_file = self.pp, self.msk, Rng(seed), Rng(seed)
        in_memory = _outcome(lambda: issue_in_memory(pp, msk, self.store, user_id, rng_memory))
        into_file = _outcome(lambda: issue_into_file(pp, msk, self.path, user_id, rng_file))
        assert in_memory == into_file
        assert rng_memory.getrandbits(64) == rng_file.getrandbits(64)
        if self.store.records:
            kgc.store_save(self.store, self.saved)
            assert artifact.read(self.saved) == artifact.read(self.path)
        else:
            assert not os.path.exists(self.path)

    @precondition(lambda self: len(self.store.records) >= 2)
    @rule(data=st.data())
    def derive(self, data):
        pair, others = self._draw_pair_and_peers(data)
        es = [pair.e, *others]
        with count_mod_exps() as counter:
            state = self._derived(lambda: nike.shared_key(self.pp, pair, others), es)
        self._derived(lambda: nike.held_key(self.pp, pair, others), es)
        if state is not None:
            assert counter.count == len(set(others))
            assert kgc.group_element(self.pp, self.msk, es) == state.F
            self.group = state

    @precondition(lambda self: len(self.store.records) >= 2)
    @rule(data=st.data())
    def derive_under_another_modulus(self, data):
        """A pair raised under another modulus, then under its own, gets each one's value."""
        pair, others = self._draw_pair_and_peers(data)
        assert pair.raise_d(others, self.other.N) == numt.exp_chain(pair.d, others, self.other.N)
        self._derived(lambda: nike.held_key(self.pp, pair, others), [pair.e, *others])

    @precondition(
        lambda self: self.group is not None
        and len(self.group.members) < len(self.store.records)
    )
    @rule(data=st.data())
    def join(self, data):
        outside = [p.e for p in self.store.records.values() if p.e not in self.group.members]
        newcomers = data.draw(st.lists(st.sampled_from(outside), min_size=1, max_size=3))
        es = [*self.group.members, *newcomers]
        with count_mod_exps() as counter:
            state = self._derived(lambda: nike.join(self.pp, self.group, *newcomers), es)
        if state is not None:
            assert counter.count == len(set(newcomers))
            self.group = state

    @precondition(lambda self: len(self.store.records) >= 2)
    @rule(data=st.data(), message=st.binary(max_size=40), nonce=st.integers(0, 1 << 32))
    def send(self, data, message, nonce):
        roster = st.sampled_from(sorted(self.store.records))
        ids = data.draw(st.lists(roster, min_size=2, max_size=5, unique=True))
        assert self.store.issuer is self.msk
        sent = [
            _outcome(lambda: send_as_issuer(self.pp, self.store, ids, message, Rng(nonce))),
            _outcome(lambda: send_as_member(self.pp, self.path, ids, message, Rng(nonce))),
        ]
        if self._closed_form([p.e for p in self._pairs(ids)]) == 1:
            assert {outcome[0] for outcome in sent} == {DegenerateResult}
            return
        issued, member = map(broadcast.ct_to_bytes, sent)
        assert issued == member
        assert broadcast.ct_from_bytes(issued) == sent[0]
        self.sent = sent[0], ids, message

    @precondition(lambda self: self.sent is not None)
    @rule(data=st.data())
    def receive(self, data):
        bc, ids, message = self.sent
        reader = data.draw(st.sampled_from(sorted(self.store.records)))
        if reader in ids:
            assert broadcast.brod_decrypt(self.pp, self.store.pair(reader), bc) == message
        else:
            with pytest.raises(NotAuthorized):
                broadcast.brod_decrypt(self.pp, self.store.pair(reader), bc)

    @rule()
    def save_and_load(self):
        kgc.store_save(self.store, self.saved)
        loaded = load_keystore(self.saved, self.pp)
        assert loaded == self.store and loaded.issued_keys == self.store.issued_keys
        assert loaded.issuer is None
        assert all(pair.powers is None for pair in loaded.records.values())

    @invariant()
    def pairs_are_fresh_and_indexed(self):
        es = [pair.e for pair in self.store.records.values()]
        assert len(set(es)) == len(es)
        assert self.store.issued_keys == set(es)

    @invariant()
    def every_d_is_its_closed_form(self):
        for pair in self.store.records.values():
            assert pair.d == self._closed_form([pair.e])


Lifecycle.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, derandomize=True, database=None, deadline=None
)
TestLifecycle = Lifecycle.TestCase
