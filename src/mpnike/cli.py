"""Command-line front end.

Exit codes: 0 success, 1 domain or I/O failure, 2 usage error.  Secret
values (private keys, derived keys, master material) are printed only
under --reveal; by default only fingerprints appear.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import time
from typing import Optional, Sequence

from . import attacks, broadcast, kgc, legacy, nike, numt, params
from .errors import InvalidInput, MpnikeError, ParamsMismatch
from .numt import Rng, count_mod_exps

_FP_TAG = b"MPNIKE-FP"


def _emit(args: argparse.Namespace, items: list[tuple[str, str]]):
    for key, value in items:
        if args.format == "line-record":
            print(f"{key}={value}")
        else:
            print(f"{key}: {value}")


def _fingerprint(key: bytes) -> str:
    return hashlib.sha256(_FP_TAG + key).hexdigest()[:16]


def _split_ids(raw: str) -> list[str]:
    ids = [part.strip() for part in raw.split(",") if part.strip()]
    if not ids:
        raise InvalidInput("empty id list")
    return ids


def _member_view(
    args: argparse.Namespace,
) -> tuple[params.PublicParams, kgc.Keystore, kgc.KeyPair, list[int]]:
    """(params, keystore, --user's pair, the other members' public keys)."""
    pp = params.load_public(args.params)
    store = kgc.store_load(args.keystore, pp)
    pair = store.pair(args.user)
    if bool(args.group) == bool(args.group_file):
        raise InvalidInput("supply exactly one of --group / --group-file")
    if args.group_file:
        members = nike.load_group(args.group_file, pp)
    else:
        members = tuple(sorted(store.public_key(u) for u in _split_ids(args.group)))
    if pair.e not in members:
        raise InvalidInput(f"user {args.user!r} is not in the group")
    return pp, store, pair, [e for e in members if e != pair.e]


def cmd_setup(args: argparse.Namespace) -> int:
    level = params.security_level(args.security, args.toy_bits)
    pp, msk = params.setup(level, Rng(args.seed))
    params.save_public(pp, args.params)
    params.save_master(pp, msk, args.msk)
    _emit(
        args,
        [
            ("gamma", pp.gamma),
            ("modulus_bits", str(pp.N.bit_length())),
            ("m", str(pp.m)),
            ("params_digest", params.params_digest(pp)),
            ("params_file", args.params),
            ("msk_file", args.msk),
        ],
    )
    return 0


def cmd_issue(args: argparse.Namespace) -> int:
    pp = params.load_public(args.params)
    pp_m, msk = params.load_master(args.msk)
    if params.params_digest(pp_m) != params.params_digest(pp):
        raise ParamsMismatch("params file and msk file disagree")
    if os.path.exists(args.keystore):
        store = kgc.store_load(args.keystore, pp)
    else:
        store = kgc.new_keystore(pp)
    pair = kgc.keygen(pp, msk, store, args.user, Rng(args.seed))
    kgc.store_save(store, args.keystore)
    items = [("user", pair.user_id), ("e", numt.int_to_hex(pair.e))]
    if args.reveal:
        items.append(("d", numt.int_to_hex(pair.d)))
    _emit(args, items)
    return 0


def cmd_derive(args: argparse.Namespace) -> int:
    pp, _, pair, others = _member_view(args)
    state = nike.shared_key(pp, pair, others)
    if args.write_group:
        nike.save_group(pp, state.members, args.write_group)
    items = [
        ("members", str(len(state.members))),
        ("key_fingerprint", _fingerprint(state.K)),
    ]
    if args.reveal:
        items.append(("key", state.K.hex()))
    _emit(args, items)
    return 0


def cmd_join(args: argparse.Namespace) -> int:
    pp, store, pair, others = _member_view(args)
    e_new = store.public_key(args.new)
    state = nike.shared_key(pp, pair, others)
    grown = nike.join(pp, state, e_new)
    # single-exponentiation join must agree with a from-scratch derivation
    rederived = nike.shared_key(pp, pair, others + [e_new])
    items = [
        ("members", str(len(grown.members))),
        ("key_fingerprint", _fingerprint(grown.K)),
        ("consistent", "yes" if grown == rederived else "NO"),
    ]
    if args.reveal:
        items.append(("key", grown.K.hex()))
    _emit(args, items)
    return 0 if grown == rederived else 1


def cmd_broadcast_encrypt(args: argparse.Namespace) -> int:
    pp = params.load_public(args.params)
    store = kgc.store_load(args.keystore, pp)
    with open(args.infile, "rb") as fh:
        message = fh.read()
    bc = broadcast.brod_encrypt(store, pp, _split_ids(args.authorized), message, Rng(args.seed))
    broadcast.ct_save(bc, args.outfile)
    _emit(
        args,
        [
            ("authorized", str(len(bc.authorized))),
            ("ciphertext_bytes", str(len(broadcast.ct_to_bytes(bc)))),
            ("out_file", args.outfile),
        ],
    )
    return 0


def cmd_broadcast_decrypt(args: argparse.Namespace) -> int:
    pp = params.load_public(args.params)
    pair = kgc.store_load(args.keystore, pp).pair(args.user)
    bc = broadcast.ct_load(args.infile)
    message = broadcast.brod_decrypt(pp, pair, bc)
    with open(args.outfile, "wb") as fh:
        fh.write(message)
    _emit(args, [("plaintext_bytes", str(len(message))), ("out_file", args.outfile)])
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    pp = params.load_public(args.params)
    pp_m, msk = params.load_master(args.msk)
    if params.params_digest(pp_m) != params.params_digest(pp):
        _emit(args, [("error", "params and msk files disagree")])
        return 1
    report = params.validate(pp, msk)
    items = []
    for c in report.checks:
        verdict = "pass" if c.passed else "fail"
        items.append((f"check_{c.name}", verdict + (f" ({c.detail})" if c.detail else "")))
    items.append(("valid", "yes" if report.ok else "no"))
    _emit(args, items)
    return 0 if report.ok else 1


def _attack_fiatnaor(args: argparse.Namespace) -> int:
    rng = Rng(args.seed)
    fn = legacy.fn_setup(args.bits or 24, rng)
    colluder_i = legacy.fn_keygen(fn, rng)
    colluder_j = legacy.fn_keygen(fn, rng)
    targets = [legacy.fn_keygen(fn, rng) for _ in range(3)]
    recovered = attacks.fiat_naor_recover_g(
        fn.N, colluder_i.e, colluder_i.d, colluder_j.e, colluder_j.d
    )
    target_es = [t.e for t in targets]
    forged = attacks.fiat_naor_forge_key(fn.N, recovered, target_es)
    honest = legacy.fn_shared_key(fn.N, targets[0], target_es[1:])
    _, s, t = numt.ext_gcd(colluder_i.e, colluder_j.e)
    verdict = "MATCH" if recovered == fn.g % fn.N and forged == honest else "NO-MATCH"
    _emit(
        args,
        [
            ("scheme", "fiat-naor"),
            ("n", numt.int_to_hex(fn.N)),
            ("colluder_e_i", numt.int_to_hex(colluder_i.e)),
            ("colluder_e_j", numt.int_to_hex(colluder_j.e)),
            ("bezout_s", str(s)),
            ("bezout_t", str(t)),
            ("recovered_g", numt.int_to_hex(recovered)),
            ("generator_recovered", "yes" if recovered == fn.g % fn.N else "no"),
            ("forged_key", numt.int_to_hex(forged)),
            ("honest_key", numt.int_to_hex(honest)),
            ("verdict", verdict),
        ],
    )
    return 0 if verdict == "MATCH" else 1


def _attack_eskeland(args: argparse.Namespace) -> int:
    rng = Rng(args.seed)
    esk = legacy.esk_setup(args.bits or 64, rng)
    exps = []
    while len(exps) < 2 + args.group_size:
        e = numt.random_prime(17, rng)
        if e not in exps:
            exps.append(e)
    colluder_i = legacy.esk_keygen(esk, exps[0], rng)
    colluder_j = legacy.esk_keygen(esk, exps[1], rng)
    targets = [legacy.esk_keygen(esk, e, rng) for e in exps[2:]]
    c, a, b = attacks.bezout_pos(colluder_i.e, colluder_j.e)
    u_prime = attacks.eskeland_recover_u(
        colluder_i.e, colluder_i.d, colluder_j.e, colluder_j.d
    )
    target_es = [t.e for t in targets]
    forged = attacks.eskeland_forge_group_key(esk.N, esk.g, u_prime, target_es)
    honest = legacy.esk_shared_key(esk.N, esk.g, targets[0], target_es[1:])
    verdict = "MATCH" if forged == honest else "NO-MATCH"
    _emit(
        args,
        [
            ("scheme", "eskeland"),
            ("n", numt.int_to_hex(esk.N)),
            ("colluder_e_i", numt.int_to_hex(colluder_i.e)),
            ("colluder_e_j", numt.int_to_hex(colluder_j.e)),
            ("bezout_a", str(a)),
            ("bezout_b", str(b)),
            ("gcd", str(c)),
            ("u_prime_matches_u_mod_phi", "yes" if (u_prime - esk.u) % esk.phi == 0 else "no"),
            ("forged_key", numt.int_to_hex(forged)),
            ("honest_key", numt.int_to_hex(honest)),
            ("verdict", verdict),
        ],
    )
    return 0 if verdict == "MATCH" else 1


def _attack_probe(args: argparse.Namespace) -> int:
    rng = Rng(args.seed)
    level = params.security_level(args.security, args.toy_bits)
    pp, msk = params.setup(level, rng)
    store = kgc.new_keystore(pp)
    colluders = [kgc.keygen(pp, msk, store, f"colluder{i}", rng) for i in (1, 2)]
    targets = [
        kgc.keygen(pp, msk, store, f"target{i}", rng) for i in range(args.group_size)
    ]
    target_es = [t.e for t in targets]
    honest = nike.shared_key(pp, targets[0], target_es[1:])
    report = attacks.proposed_scheme_attack_probe(
        pp,
        colluders,
        target_es,
        honest_key=honest.K,
        pair_checker=lambda e, d: kgc.verify_pair(pp, msk, e, d),
    )
    verdict = "MATCH" if report.matches_honest else "NO-MATCH"
    _emit(
        args,
        [
            ("scheme", "main"),
            ("n", numt.int_to_hex(pp.N)),
            ("colluder_e_i", numt.int_to_hex(report.e_i)),
            ("colluder_e_j", numt.int_to_hex(report.e_j)),
            ("gcd", str(report.gcd)),
            ("bezout_a", str(report.a)),
            ("bezout_b", str(report.b)),
            ("combined_passes_audit", "yes" if report.combined_passes_audit else "no"),
            ("forged_key", report.forged_K.hex()),
            ("honest_key", honest.K.hex()),
            ("verdict", verdict),
        ],
    )
    # the expected outcome for this scheme is NO-MATCH
    return 0 if verdict == "NO-MATCH" else 1


def cmd_attack(args: argparse.Namespace) -> int:
    if args.scheme == "fiatnaor":
        return _attack_fiatnaor(args)
    if args.scheme == "eskeland":
        return _attack_eskeland(args)
    return _attack_probe(args)


def _parse_range(raw: str) -> tuple[int, int]:
    """lo:hi with 2 <= lo < hi; the cost-law fit needs at least two sizes."""
    lo_s, _, hi_s = raw.partition(":")
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise InvalidInput(f"bad party range {raw!r}") from None
    if lo < 2 or hi <= lo:
        raise InvalidInput(f"bad party range {raw!r}: need lo:hi with 2 <= lo < hi")
    return lo, hi


def cmd_bench(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.parties)
    rng = Rng(args.seed)
    level = params.security_level(args.security, args.toy_bits)
    pp, msk = params.setup(level, rng)
    store = kgc.new_keystore(pp)
    pairs = [kgc.keygen(pp, msk, store, f"bench{i:03d}", rng) for i in range(hi)]
    es = [p.e for p in pairs]
    rows = []
    counts_ok = True
    for size in range(lo, hi + 1):
        others = es[1:size]
        best = None
        count = 0
        for _ in range(args.reps):
            with count_mod_exps() as counter:
                t0 = time.perf_counter()
                nike.shared_key(pp, pairs[0], others)
                dt = time.perf_counter() - t0
            count = counter.count
            best = dt if best is None else min(best, dt)
        counts_ok = counts_ok and count == size - 1
        rows.append((size, count, best))
    sizes = [float(r[0]) for r in rows]
    times = [r[2] for r in rows]
    slope, _ = statistics.linear_regression(sizes, times)
    r2 = statistics.correlation(sizes, times) ** 2
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("parties,mod_exps,seconds\n")
            for size, count, secs in rows:
                fh.write(f"{size},{count},{secs:.9f}\n")
    _emit(
        args,
        [
            ("parties", f"{lo}:{hi}"),
            ("counts_match_parties_minus_one", "yes" if counts_ok else "no"),
            ("slope_ms_per_party", f"{slope * 1000:.4f}"),
            ("r_squared", f"{r2:.6f}"),
        ]
        + ([("csv_file", args.csv)] if args.csv else []),
    )
    return 0 if counts_ok else 1


def _hex(raw: str) -> int:
    return int(raw, 16)


def _int_from(lo: int):
    """argparse type for an integer no smaller than lo."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mpnike",
        description="Multi-party non-interactive key exchange toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_hex, help="hex seed for deterministic runs")
    common.add_argument(
        "--format",
        choices=("text", "line-record"),
        default="text",
        help="output style (default: text)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", parents=[common], help="generate parameters")
    p.add_argument("--security", choices=("toy", "80", "112", "128"), default="80")
    p.add_argument("--toy-bits", type=int, default=16, help="modulus bits at toy level")
    p.add_argument("--params", required=True, help="public parameter file to write")
    p.add_argument("--msk", required=True, help="master secret file to write")
    p.set_defaults(func=cmd_setup)

    p = sub.add_parser("issue", parents=[common], help="issue a member key pair")
    p.add_argument("--params", required=True)
    p.add_argument("--msk", required=True)
    p.add_argument("--keystore", required=True, help="created if missing")
    p.add_argument("--user", required=True)
    p.add_argument("--reveal", action="store_true", help="print the private key")
    p.set_defaults(func=cmd_issue)

    p = sub.add_parser("derive", parents=[common], help="derive a group key")
    p.add_argument("--params", required=True)
    p.add_argument("--keystore", required=True)
    p.add_argument("--user", required=True, help="deriving member")
    p.add_argument("--group", help="comma-separated user ids (full group)")
    p.add_argument("--group-file", help="group descriptor file instead of --group")
    p.add_argument("--write-group", help="write a group descriptor here")
    p.add_argument("--reveal", action="store_true", help="print the derived key")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("join", parents=[common], help="grow a group by one member")
    p.add_argument("--params", required=True)
    p.add_argument("--keystore", required=True)
    p.add_argument("--user", required=True, help="deriving member")
    p.add_argument("--group", help="comma-separated user ids (full group)")
    p.add_argument("--group-file", help="group descriptor file instead of --group")
    p.add_argument("--new", required=True, help="joining user id")
    p.add_argument("--reveal", action="store_true", help="print the derived key")
    p.set_defaults(func=cmd_join)

    p = sub.add_parser(
        "broadcast-encrypt", parents=[common], help="encrypt to an authorized set"
    )
    p.add_argument("--params", required=True)
    p.add_argument("--keystore", required=True)
    p.add_argument("--authorized", required=True, help="comma-separated user ids")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_broadcast_encrypt)

    p = sub.add_parser(
        "broadcast-decrypt", parents=[common], help="decrypt as an authorized user"
    )
    p.add_argument("--params", required=True)
    p.add_argument("--keystore", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_broadcast_decrypt)

    p = sub.add_parser("attack", parents=[common], help="run an attack demonstration")
    p.add_argument("scheme", choices=("fiatnaor", "eskeland", "probe"))
    p.add_argument("--bits", type=int, help="legacy modulus bits")
    p.add_argument("--group-size", type=_int_from(2), default=3, help="target group size")
    p.add_argument("--security", choices=("toy", "80", "112", "128"), default="toy")
    p.add_argument("--toy-bits", type=int, default=64, help="probe modulus bits")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("validate", parents=[common], help="check a parameter set")
    p.add_argument("--params", required=True)
    p.add_argument("--msk", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", parents=[common], help="derivation cost law")
    p.add_argument("--security", choices=("toy", "80", "112", "128"), default="80")
    p.add_argument("--toy-bits", type=int, default=16)
    p.add_argument("--parties", default="2:64", help="size range lo:hi")
    p.add_argument("--reps", type=_int_from(1), default=3)
    p.add_argument("--csv", help="write per-size rows here")
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MpnikeError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
