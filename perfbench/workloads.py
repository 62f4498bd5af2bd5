"""The benchmark's workloads: a set-up step and an endless seeded stream of operations.

Every workload is built from the run seed alone.  `setup(i)` is one KGC
set-up (timed by the runner as `setup_s`); `ops()` is a generator of `Op`s
that the runner executes one at a time, sending each result back in, so a
decrypt can use the ciphertext its encrypt produced.  Preparation done
inside the generator (files, standing groups, payloads) runs between
operations, outside the timed interval and with recording paused.

Why these three, and which layers each stresses, is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from mpnike import broadcast, cli, kgc, nike, numt, params

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "level80.json")


class SetupFailed(Exception):
    """A parameter set failed `params.validate`; the run cannot go on."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def sub_seed(seed: int, label: str) -> int:
    """Independent 64-bit seed for one purpose within a run."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:8], "big")


def load_fixture(path: str = FIXTURE) -> tuple[int, int, int]:
    with open(path, encoding="utf-8") as fh:
        fx = json.load(fh)
    return int(fx["p"], 16), int(fx["z"], 16), int(fx["q"], 16)


def _checked_setup(level, rng, primes=None):
    pp, msk = params.setup(level, rng, forced_primes=primes)
    report = params.validate(pp, msk)
    if not report.ok:
        names = ", ".join(c.name for c in report.failures())
        raise SetupFailed(f"params.validate failed: {names}")
    return pp, msk


def _antithetic_sizes(pick: random.Random, lo: int, hi: int) -> Iterator[int]:
    """Uniform sizes in [lo, hi], each followed by its mirror lo + hi - s.

    Successive pairs cost the same on average, so the mix measured in a
    short run barely depends on the seed.
    """
    while True:
        s = pick.randint(lo, hi)
        yield s
        yield lo + hi - s


def _bag(pick: random.Random, values) -> Iterator[int]:
    """Every value once per round, in shuffled order, so the mix stays balanced."""
    while True:
        batch = list(values)
        pick.shuffle(batch)
        yield from batch


class KgcEnroll:
    """Several searched parameter sets, then issuance under each in turn."""

    name = "kgc-enroll"
    # one level-80 search takes 3-92 s by seed, and a run must end within 180 s
    setups = 2
    roster = 8

    def __init__(self, seed: int, level: params.SecurityLevel):
        self.seed = seed
        self.level = level
        self.sets: list[tuple] = []
        self.rng = numt.Rng(sub_seed(seed, "issue"))

    def setup(self, i: int):
        rng = numt.Rng(sub_seed(self.seed, f"set{i}"))
        pp, msk = _checked_setup(self.level, rng)
        store = kgc.new_keystore(pp)
        for j in range(self.roster):
            kgc.keygen(pp, msk, store, f"user{j:03d}", rng)
        self.sets.append((pp, msk, store))

    def setup_failures(self) -> int:
        return sum(
            not kgc.verify_pair(pp, msk, r.e, r.d)
            for pp, msk, store in self.sets
            for r in store.records.values()
        )

    def ops(self) -> Iterator[Op]:
        n = 0
        while True:
            for pp, msk, store in self.sets:
                uid = f"enrolled{n:06d}"
                n += 1

                # the issuer audits every pair it hands out
                def issue(pp=pp, msk=msk, store=store, uid=uid):
                    pair = kgc.keygen(pp, msk, store, uid, self.rng)
                    return kgc.verify_pair(pp, msk, pair.e, pair.d)

                yield Op("issue", issue, lambda ok: ok is True)


class BroadcastOverlap:
    """Broadcasts to large, heavily overlapping authorized sets, plus joins."""

    name = "broadcast-overlap"
    setups = 3
    standing_start = 8
    join_every = 8  # one round in this many grows the standing group
    payload = (1 << 10, 64 << 10)

    def __init__(
        self,
        seed: int,
        level: params.SecurityLevel,
        primes: tuple[int, int, int],
        roster: int = 64,
        sizes: tuple[int, int] = (16, 48),
        revoked: int = 4,
    ):
        self.seed = seed
        self.level = level
        self.primes = primes
        self.roster = roster
        self.sizes = sizes
        self.revoked = revoked

    def setup(self, i: int):
        rng = numt.Rng(sub_seed(self.seed, "setup"))
        self.pp, self.msk = _checked_setup(self.level, rng, self.primes)
        self.store = kgc.new_keystore(self.pp)
        self.pairs = [
            kgc.keygen(self.pp, self.msk, self.store, f"user{j:03d}", rng)
            for j in range(self.roster)
        ]

    def setup_failures(self) -> int:
        return sum(not kgc.verify_pair(self.pp, self.msk, p.e, p.d) for p in self.pairs)

    def ops(self) -> Iterator[Op]:
        pp, store = self.pp, self.store
        pick = random.Random(sub_seed(self.seed, "ops"))
        nonces = numt.Rng(sub_seed(self.seed, "nonce"))
        by_e = {p.e: p for p in self.pairs}
        order = [p.user_id for p in self.pairs]
        pick.shuffle(order)
        revoked = set(pick.sample(order, self.revoked))
        sizes = _antithetic_sizes(pick, *self.sizes)
        standing = None
        rounds = 0
        while True:
            rounds += 1
            if rounds % self.join_every == 0:
                if standing is None or len(standing.members) >= self.sizes[1]:
                    first, *rest = pick.sample(self.pairs, self.standing_start)
                    standing = nike.shared_key(pp, first, [p.e for p in rest])
                e_new = pick.choice([e for e in by_e if e not in standing.members])
                grown_members = tuple(sorted(standing.members + (e_new,)))
                verifier = by_e[pick.choice(grown_members)]
                grown = yield Op(
                    "join",
                    lambda st=standing, e=e_new: nike.join(pp, st, e),
                    lambda g, gm=grown_members, v=verifier: _rederived(pp, gm, v, g),
                )
                if grown is not None:
                    standing = grown
                continue
            if pick.random() < 0.25:
                back = pick.choice(sorted(revoked))
                revoked.discard(back)
                revoked.add(pick.choice([u for u in order if u not in revoked and u != back]))
            active = [u for u in order if u not in revoked]
            ids = active[: next(sizes)]
            message = pick.randbytes(pick.randint(*self.payload))
            members = tuple(sorted(store.records[u].e for u in ids))
            data = yield Op(
                "encrypt",
                lambda ids=ids, m=message: broadcast.ct_to_bytes(
                    broadcast.brod_encrypt(store, pp, ids, m, nonces)
                ),
                lambda d, members=members: broadcast.ct_from_bytes(d).authorized == members,
            )
            reader = store.pair(pick.choice(ids))
            yield Op(
                "decrypt",
                lambda d=data, r=reader: broadcast.brod_decrypt(pp, r, broadcast.ct_from_bytes(d)),
                lambda plain, m=message: plain == m,
            )


def _rederived(pp, members, verifier, grown) -> bool:
    """A join must equal a from-scratch derivation by a member of the grown group."""
    fresh = nike.shared_key(pp, verifier, [e for e in members if e != verifier.e])
    return grown.members == members and fresh == grown


def _run_cli(argv: list[str]) -> tuple[int, dict[str, str]]:
    """`mpnike` in-process; returns the exit code and the key=value output."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    record = dict(line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line)
    return code, record


class CliSession:
    """Short `mpnike` commands on small random groups against on-disk artifacts."""

    name = "cli-session"
    setups = 3
    # shuffled as a block so every stretch of ten operations has this mix
    block = ("derive",) * 3 + ("join",) * 2 + ("broadcast",) * 2 + ("issue",)
    group = (2, 4)
    payload = (1 << 10, 64 << 10)

    def __init__(
        self,
        seed: int,
        level: params.SecurityLevel,
        primes: tuple[int, int, int],
        workdir: str,
        roster: int = 256,
    ):
        self.seed = seed
        self.level = level
        self.primes = primes
        self.roster = roster
        self.path = {
            k: os.path.join(workdir, f)
            for k, f in (
                ("params", "params.txt"),
                ("msk", "master.txt"),
                ("keystore", "keystore.tsv"),
                ("group", "group.txt"),
                ("plain", "plain.bin"),
                ("ct", "message.ct"),
                ("out", "opened.bin"),
            )
        }

    def setup(self, i: int):
        rng = numt.Rng(sub_seed(self.seed, "setup"))
        self.pp, self.msk = _checked_setup(self.level, rng, self.primes)
        params.save_public(self.pp, self.path["params"])
        params.save_master(self.pp, self.msk, self.path["msk"])
        store = kgc.new_keystore(self.pp)
        self.pairs = {
            uid: kgc.keygen(self.pp, self.msk, store, uid, rng)
            for uid in (f"user{j:03d}" for j in range(self.roster))
        }
        kgc.store_save(store, self.path["keystore"])

    def setup_failures(self) -> int:
        return sum(
            not kgc.verify_pair(self.pp, self.msk, p.e, p.d) for p in self.pairs.values()
        )

    def _derive_check(self, group, other):
        """The printed key must equal a second member's own derivation."""

        def check(res):
            code, record = res
            peers = [self.pairs[u].e for u in group if u != other]
            fresh = nike.shared_key(self.pp, self.pairs[other], peers)
            return code == 0 and record.get("key") == fresh.K.hex()

        return check

    def _issue_check(self, uid):
        def check(res):
            code, record = res
            if code != 0:
                return False
            e, d = numt.hex_to_int(record["e"]), numt.hex_to_int(record["d"])
            self.pairs[uid] = kgc.KeyPair(uid, e, d)
            return kgc.verify_pair(self.pp, self.msk, e, d)

        return check

    def ops(self) -> Iterator[Op]:
        p = self.path
        pick = random.Random(sub_seed(self.seed, "ops"))
        common = ["--params", p["params"], "--keystore", p["keystore"], "--format", "line-record"]
        sizes = _bag(pick, range(self.group[0], self.group[1] + 1))
        last_group: Optional[list[str]] = None
        issued = 0
        n = 0
        while True:
            kinds = list(self.block)
            pick.shuffle(kinds)
            for kind in kinds:
                n += 1
                seed_hex = format(sub_seed(self.seed, f"cli{n}"), "x")
                users = sorted(self.pairs)
                if kind == "issue":
                    uid = f"new{issued:05d}"
                    issued += 1
                    argv = ["issue", "--params", p["params"], "--msk", p["msk"]]
                    argv += ["--keystore", p["keystore"], "--user", uid, "--reveal"]
                    argv += ["--seed", seed_hex, "--format", "line-record"]
                    yield Op("issue", lambda a=argv: _run_cli(a), self._issue_check(uid))
                    continue
                if kind == "join" and last_group is not None:
                    group, where = last_group, ["--group-file", p["group"]]
                else:
                    group = pick.sample(users, next(sizes))
                    where = ["--group", ",".join(group)]
                user = pick.choice(group)
                if kind == "derive":
                    argv = ["derive", *common, "--user", user, *where]
                    argv += ["--write-group", p["group"], "--reveal"]
                    other = pick.choice([u for u in group if u != user])
                    yield Op("derive", lambda a=argv: _run_cli(a), self._derive_check(group, other))
                    last_group = group
                elif kind == "join":
                    new = pick.choice([u for u in users if u not in group])
                    argv = ["join", *common, "--user", user, *where, "--new", new]
                    yield Op(
                        "join",
                        lambda a=argv: _run_cli(a),
                        lambda res: res[0] == 0 and res[1].get("consistent") == "yes",
                    )
                else:
                    message = pick.randbytes(pick.randint(*self.payload))
                    with open(p["plain"], "wb") as fh:
                        fh.write(message)
                    argv = ["broadcast-encrypt", *common, "--authorized", ",".join(group)]
                    argv += ["--in", p["plain"], "--out", p["ct"], "--seed", seed_hex]
                    yield Op("encrypt", lambda a=argv: _run_cli(a), lambda res: res[0] == 0)
                    argv = ["broadcast-decrypt", *common, "--user", user]
                    argv += ["--in", p["ct"], "--out", p["out"]]
                    yield Op(
                        "decrypt",
                        lambda a=argv: _run_cli(a),
                        lambda res, m=message: res[0] == 0 and _read(p["out"]) == m,
                    )


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()
