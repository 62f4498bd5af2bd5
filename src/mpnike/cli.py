"""Command-line front end.

Exit codes: 0 success, 1 domain or I/O failure, 2 usage error.  Secret
values (private keys, derived keys, master material) are printed only
under --reveal; by default only fingerprints appear.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Optional, Sequence

from . import artifact, attacks, broadcast, kgc, legacy, nike, numt, params
from .errors import InvalidInput, MpnikeError, ParamsMismatch
from .numt import Rng

_FP_TAG = b"MPNIKE-FP"
MAX_COLLUDERS = 4  # `attack collude` adds colluders up to this many until c divides prod e_W


def _emit(args: argparse.Namespace, items: list[tuple[str, str]]):
    sep = "=" if args.format == "line-record" else ": "
    for key, value in items:
        print(f"{key}{sep}{value}")


def _fingerprint(key: bytes) -> str:
    return hashlib.sha256(_FP_TAG + key).hexdigest()[:16]


def _split_ids(raw: str) -> list[str]:
    ids = [part.strip() for part in raw.split(",") if part.strip()]
    if not ids:
        raise InvalidInput("empty id list")
    return ids


def _member_view(
    args: argparse.Namespace, *named: str
) -> tuple[params.PublicParams, dict[str, kgc.KeyPair], kgc.KeyPair, list[int]]:
    """(params, the decoded pairs, --user's pair, the other members' public keys).

    Every keystore row is checked; only the pairs of --user, the --group ids
    and `named` are decoded.
    """
    if bool(args.group) == bool(args.group_file):
        raise InvalidInput("supply exactly one of --group / --group-file")
    group_ids = [] if args.group_file else _split_ids(args.group)
    pp = params.load_public(args.params)
    pairs = kgc.load_pairs(args.keystore, pp, [args.user, *group_ids, *named])
    pair = pairs[args.user]
    if args.group_file:
        members = nike.load_group(args.group_file, pp)
    else:
        members = tuple(sorted(pairs[u].e for u in group_ids))
    if pair.e not in members:
        raise InvalidInput(f"user {args.user!r} is not in the group")
    return pp, pairs, pair, [e for e in members if e != pair.e]


def _level(args: argparse.Namespace) -> params.SecurityLevel:
    """--security's level; --toy-bits (default: the command's toy_default) goes with toy only."""
    if args.toy_bits is not None and args.security != "toy":
        raise InvalidInput(f"--toy-bits is an error with --security {args.security}")
    bits = args.toy_default if args.toy_bits is None else args.toy_bits
    return params.security_level(args.security, bits)


def cmd_setup(args: argparse.Namespace) -> int:
    pp, msk = params.setup(_level(args), Rng(args.seed))
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


def _issuer_view(args: argparse.Namespace) -> tuple[params.PublicParams, params.MasterSecret]:
    """(params, master secret) from --params and --msk, which must describe one set."""
    pp = params.load_public(args.params)
    pp_m, msk = params.load_master(args.msk)
    if params.params_digest(pp_m) != params.params_digest(pp):
        raise ParamsMismatch("params file and msk file disagree")
    return pp, msk


def cmd_issue(args: argparse.Namespace) -> int:
    """Add --user's row to --keystore: one check of the rows and one new row encoded,
    whatever the roster size (`kgc.store_issue`)."""
    pp, msk = _issuer_view(args)
    pair = kgc.store_issue(args.keystore, pp, msk, args.user, Rng(args.seed))
    items = [("user", pair.user_id), ("e", numt.int_to_hex(pair.e))]
    if args.reveal:
        items.append(("d", numt.int_to_hex(pair.d)))
    _emit(args, items)
    return 0


def _key_report(args: argparse.Namespace, state: nike.GroupKeyState, *extra: tuple[str, str]):
    """members, key_fingerprint, the extra rows, then the key under --reveal."""
    fingerprint = _fingerprint(state.K)
    items = [("members", str(len(state.members))), ("key_fingerprint", fingerprint), *extra]
    if args.reveal:
        items.append(("key", state.K.hex()))
    _emit(args, items)


def cmd_derive(args: argparse.Namespace) -> int:
    pp, _, pair, others = _member_view(args)
    state = nike.shared_key(pp, pair, others)
    if args.write_group:
        nike.save_group(pp, state.members, args.write_group)
    _key_report(args, state)
    return 0


def cmd_join(args: argparse.Namespace) -> int:
    pp, pairs, pair, others = _member_view(args, args.new)
    newcomer = pairs[args.new]
    grown = nike.join(pp, nike.shared_key(pp, pair, others), newcomer.e)
    # the single-exponentiation join must agree with the newcomer's own derivation
    consistent = grown == nike.shared_key(pp, newcomer, [pair.e, *others])
    _key_report(args, grown, ("consistent", "yes" if consistent else "NO"))
    return 0 if consistent else 1


def cmd_broadcast_encrypt(args: argparse.Namespace) -> int:
    pp = params.load_public(args.params)
    ids = _split_ids(args.authorized)
    # a transient keystore of the authorized pairs, never saved: it sends through the first's d
    store = kgc.Keystore(params.params_digest(pp), kgc.load_pairs(args.keystore, pp, ids))
    message = artifact.read(args.infile)
    bc = broadcast.brod_encrypt(store, pp, ids, message, Rng(args.seed))
    written = broadcast.ct_save(bc, args.outfile)
    _emit(
        args,
        [
            ("authorized", str(len(bc.authorized))),
            ("ciphertext_bytes", str(len(written))),
            ("out_file", args.outfile),
        ],
    )
    return 0


def cmd_broadcast_decrypt(args: argparse.Namespace) -> int:
    pp = params.load_public(args.params)
    pair = kgc.load_pairs(args.keystore, pp, [args.user])[args.user]
    bc = broadcast.ct_load(args.infile)
    message = broadcast.brod_decrypt(pp, pair, bc)
    artifact.write(args.outfile, message, private=True)
    _emit(args, [("plaintext_bytes", str(len(message))), ("out_file", args.outfile)])
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    pp, msk = _issuer_view(args)
    report = params.validate(pp, msk)
    items = []
    for c in report.checks:
        verdict = "pass" if c.passed else "fail"
        items.append((f"check_{c.name}", verdict + (f" ({c.detail})" if c.detail else "")))
    items.append(("valid", "yes" if report.ok else "no"))
    _emit(args, items)
    return 0 if report.ok else 1


def _attack_report(args, scheme, n, e_i, e_j, details, forged, honest, match):
    """Print one attack transcript, the same shape for every scheme: the scheme, n and the
    colluders' e; the scheme's own details rows; the forged and honest keys and the verdict.
    Returns the exit code: 0 on MATCH, 1 otherwise."""

    def row(key: str, value) -> tuple[str, str]:
        return key, value.hex() if isinstance(value, bytes) else numt.int_to_hex(value)

    head = [("scheme", scheme), row("n", n), row("colluder_e_i", e_i), row("colluder_e_j", e_j)]
    tail = [row("forged_key", forged), row("honest_key", honest)]
    _emit(args, head + details + tail + [("verdict", "MATCH" if match else "NO-MATCH")])
    return 0 if match else 1


def _attack_fiatnaor(args: argparse.Namespace) -> int:
    rng = Rng(args.seed)
    fn = legacy.fn_setup(args.bits, rng)
    i, j = legacy.fn_keygen(fn, rng), legacy.fn_keygen(fn, rng)
    targets = [legacy.fn_keygen(fn, rng) for _ in range(3)]
    # fn_keygen's e are distinct primes, so c = 1 and the combination is g itself
    _, s, b, g = attacks.collude(fn.N, i.e, i.d, j.e, j.d)
    found = g == fn.g % fn.N
    target_es = [t.e for t in targets]
    forged = attacks.fiat_naor_forge_key(fn.N, g, target_es)
    honest = legacy.fn_shared_key(fn.N, targets[0], target_es[1:])
    details = [("bezout_s", str(s)), ("bezout_t", str(-b)), ("recovered_g", numt.int_to_hex(g)),
               ("generator_recovered", "yes" if found else "no")]
    return _attack_report(args, "fiat-naor", fn.N, i.e, j.e, details, forged, honest,
                          found and forged == honest)


def _attack_eskeland(args: argparse.Namespace) -> int:
    rng = Rng(args.seed)
    esk = legacy.esk_setup(args.bits, rng)
    taken: set[int] = set()
    exps = [legacy.fresh_prime(17, taken, rng) for _ in range(2 + args.group_size)]
    i, j = legacy.esk_keygen(esk, exps[0], rng), legacy.esk_keygen(esk, exps[1], rng)
    targets = [legacy.esk_keygen(esk, e, rng) for e in exps[2:]]
    # the exps are distinct primes, so c = 1 and u' is u modulo phi(N)
    c, a, b, u_prime = attacks.eskeland_collude(i.e, i.d, j.e, j.d)
    target_es = [t.e for t in targets]
    forged = attacks.eskeland_forge_group_key(esk.N, esk.g, u_prime, target_es)
    honest = legacy.esk_shared_key(esk.N, esk.g, targets[0], target_es[1:])
    details = [("bezout_a", str(a)), ("bezout_b", str(b)), ("gcd", str(c)),
               ("u_prime_matches_u_mod_phi", "yes" if (u_prime - esk.u) % esk.phi == 0 else "no")]
    return _attack_report(args, "eskeland", esk.N, i.e, j.e, details, forged, honest,
                          forged == honest)


def _attack_collude(args: argparse.Namespace) -> int:
    rng = Rng(args.seed)
    pp, msk = params.setup(_level(args), rng)
    store = kgc.new_keystore(pp)
    i, j = (kgc.keygen(pp, msk, store, f"colluder{k}", rng) for k in (1, 2))
    targets = [kgc.keygen(pp, msk, store, f"target{k}", rng) for k in range(args.group_size)]
    target_es = [t.e for t in targets]
    honest = nike.shared_key(pp, targets[0], target_es[1:])
    c, _, _, hc = attacks.collude(pp.N, i.e, i.d, j.e, j.d)
    colluders, F = 2, attacks.forge_by_division(pp.N, c, hc, target_es)
    while F is None and colluders < MAX_COLLUDERS:
        colluders += 1
        more = kgc.keygen(pp, msk, store, f"colluder{colluders}", rng)
        c, _, _, hc = attacks.collude(pp.N, c, hc, more.e, more.d)
        F = attacks.forge_by_division(pp.N, c, hc, target_es)
    if F is None:  # without the division the colluders reach only F**c
        F = numt.exp_chain(hc, target_es, pp.N)
    forged = nike.kdf(pp, F)
    details = [("gcd", str(c)), ("colluders", str(colluders)),
               ("combined_passes_audit", "yes" if kgc.verify_pair(pp, msk, c, hc) else "no")]
    return _attack_report(args, "main", pp.N, i.e, j.e, details, forged, honest.K,
                          forged == honest.K)


def _hex(raw: str) -> int:
    if not raw or not set(raw) <= set("0123456789abcdef"):
        raise argparse.ArgumentTypeError(f"not a hex number: {raw!r}")
    return int(raw, 16)


def _group_size(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {value}")
    return value


# every option, declared once: flag -> add_argument keywords
_OPTIONS = {
    "--seed": dict(type=_hex, help="hex seed for deterministic runs"),
    "--format": dict(
        choices=("text", "line-record"), default="text", help="output style (default: text)"
    ),
    "--params": dict(required=True, help="public parameter file"),
    "--keystore": dict(required=True, help="keystore file (issue creates it)"),
    "--user": dict(required=True, help="acting member's user id"),
    "--msk": dict(required=True, help="master secret file"),
    "--security": dict(choices=("toy", *params._LEVEL_BITS)),
    "--toy-bits": dict(type=int, help="modulus bits (toy only)"),
    "--reveal": dict(action="store_true", help="print the private or derived key"),
    "--write-group": dict(help="write a group descriptor here"),
    "--group": dict(help="comma-separated user ids (full group)"),
    "--group-file": dict(help="group descriptor file instead of --group"),
    "--new": dict(required=True, help="joining user id"),
    "--authorized": dict(required=True, help="comma-separated user ids"),
    "--in": dict(dest="infile", required=True),
    "--out": dict(dest="outfile", required=True),
    "--bits": dict(type=int, help="legacy modulus bits"),
    "--group-size": dict(type=_group_size, default=3, help="target group size"),
}


class Command:
    """A table row: a summary and a handler with its options and defaults, or a nested table."""

    def __init__(self, summary: str, run, *options: str, **defaults):
        self.summary, self.run, self.options, self.defaults = summary, run, options, defaults


def _commands() -> Command:
    """The command table; every command also takes --format, and a command
    that draws randomness lists --seed among its options.

    Built per `main` call, not at import, so that a handler rebound on this
    module (as perfbench's recorder does) is the one that runs.
    """
    member = ("--params", "--keystore", "--user")
    group = ("--reveal", "--group", "--group-file")
    schemes = {
        "fiatnaor": Command("break Fiat-Naor", _attack_fiatnaor, "--seed", "--bits", bits=24),
        "eskeland": Command("break Eskeland", _attack_eskeland, "--seed", "--bits", "--group-size",
                            bits=64),
        "collude": Command("break the main scheme", _attack_collude, "--seed", "--security",
                           "--toy-bits", "--group-size", security="toy", toy_default=64),
    }
    return Command("Multi-party non-interactive key exchange toolkit", {
        "setup": Command("generate parameters", cmd_setup, "--seed", "--params", "--security",
                         "--toy-bits", "--msk", security="80", toy_default=16),
        "issue": Command("issue a member key pair", cmd_issue, "--seed", *member, "--msk",
                         "--reveal"),
        "derive": Command("derive a group key", cmd_derive, *member, "--write-group", *group),
        "join": Command("grow a group by one member", cmd_join, *member, "--new", *group),
        "broadcast-encrypt": Command("encrypt to an authorized set", cmd_broadcast_encrypt,
                                     "--seed", "--params", "--keystore", "--authorized", "--in",
                                     "--out"),
        "broadcast-decrypt": Command("decrypt as an authorized user", cmd_broadcast_decrypt,
                                     *member, "--in", "--out"),
        "attack": Command("run an attack demonstration", schemes),
        "validate": Command("check a parameter set", cmd_validate, "--params", "--msk"),
    })


def _parse(prog: str, cmd: Command, argv: Optional[Sequence[str]], level: str):
    """Parse argv for cmd with one parser per level: a table level reads only the
    name of the next entry and leaves the rest of argv to that entry's parser."""
    if isinstance(cmd.run, dict):
        listing = "".join(f"\n  {name:<20}{sub.summary}" for name, sub in cmd.run.items())
        ap = argparse.ArgumentParser(
            prog=prog, description=cmd.summary, epilog=f"{level}s:{listing}",
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        ap.add_argument(level, nargs=argparse.PARSER, choices=cmd.run)
        name, *rest = getattr(ap.parse_args(argv), level)
        return _parse(f"{prog} {name}", cmd.run[name], rest, "scheme")
    ap = argparse.ArgumentParser(prog=prog)
    for flag in ("--format", *cmd.options):
        ap.add_argument(flag, **_OPTIONS[flag])
    ap.set_defaults(func=cmd.run, **cmd.defaults)
    return ap.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse("mpnike", _commands(), argv, "command")
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
