import contextlib
import io
import itertools
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpnike import cli, kgc, params
from mpnike.cli import main

from oracles import issuance_exponents


def kv(out: str) -> dict[str, str]:
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    paths = {
        "pp": str(d / "pp.txt"),
        "msk": str(d / "msk.txt"),
        "ks": str(d / "ks.tsv"),
        "dir": d,
    }
    assert (
        main(
            [
                "setup", "--security", "toy", "--toy-bits", "16",
                "--seed", "beef", "--params", paths["pp"], "--msk", paths["msk"],
            ]
        )
        == 0
    )
    for user, seed in [("alice", "01"), ("bob", "02"), ("carol", "03"), ("dave", "04")]:
        assert (
            main(
                [
                    "issue", "--params", paths["pp"], "--msk", paths["msk"],
                    "--keystore", paths["ks"], "--user", user, "--seed", seed,
                ]
            )
            == 0
        )
    return paths


class TestDerive:
    def test_every_member_gets_same_key(self, ws, capsys):
        keys = set()
        for user in ("alice", "bob", "carol"):
            code, out, _ = run(
                capsys,
                "derive", "--params", ws["pp"], "--keystore", ws["ks"],
                "--user", user, "--group", "alice,bob,carol",
                "--reveal", "--format", "line-record",
            )
            assert code == 0
            keys.add(kv(out)["key"])
        assert len(keys) == 1

    def test_no_key_without_reveal(self, ws, capsys):
        code, out, _ = run(
            capsys,
            "derive", "--params", ws["pp"], "--keystore", ws["ks"],
            "--user", "alice", "--group", "alice,bob,carol",
            "--format", "line-record",
        )
        assert code == 0
        record = kv(out)
        assert "key" not in record
        assert len(record["key_fingerprint"]) == 16

    def test_group_file_flow(self, ws, capsys):
        group_path = str(ws["dir"] / "g.txt")
        code, out, _ = run(
            capsys,
            "derive", "--params", ws["pp"], "--keystore", ws["ks"],
            "--user", "alice", "--group", "alice,bob",
            "--write-group", group_path, "--reveal", "--format", "line-record",
        )
        assert code == 0
        key_direct = kv(out)["key"]
        code, out, _ = run(
            capsys,
            "derive", "--params", ws["pp"], "--keystore", ws["ks"],
            "--user", "bob", "--group-file", group_path,
            "--reveal", "--format", "line-record",
        )
        assert code == 0
        assert kv(out)["key"] == key_direct

    def test_user_must_be_in_group(self, ws, capsys):
        code, _, err = run(
            capsys,
            "derive", "--params", ws["pp"], "--keystore", ws["ks"],
            "--user", "dave", "--group", "alice,bob",
        )
        assert code == 1
        assert "InvalidInput" in err

    def test_unknown_member(self, ws, capsys):
        code, _, err = run(
            capsys,
            "derive", "--params", ws["pp"], "--keystore", ws["ks"],
            "--user", "alice", "--group", "alice,ghost",
        )
        assert code == 1
        assert "UnknownUser" in err


class TestJoin:
    def test_join_consistent(self, ws, capsys):
        code, out, _ = run(
            capsys,
            "join", "--params", ws["pp"], "--keystore", ws["ks"],
            "--user", "alice", "--group", "alice,bob", "--new", "carol",
            "--reveal", "--format", "line-record",
        )
        assert code == 0
        record = kv(out)
        assert record["consistent"] == "yes"
        code, out, _ = run(
            capsys,
            "derive", "--params", ws["pp"], "--keystore", ws["ks"],
            "--user", "carol", "--group", "alice,bob,carol",
            "--reveal", "--format", "line-record",
        )
        assert kv(out)["key"] == record["key"]

    def test_join_disagrees_with_a_wrong_newcomer_key(self, ws, tmp_path, capsys):
        # carol's row carries bob's d, so carol's own derivation misses alice's join
        header, *rows = Path(ws["ks"]).read_text().splitlines()
        cols = {row.split("\t")[0]: row.split("\t") for row in rows}  # user id -> user, e, d
        cols["carol"][2] = cols["bob"][2]
        ks = tmp_path / "ks.tsv"
        ks.write_text("\n".join([header, *map("\t".join, cols.values())]) + "\n")
        code, out, err = run(
            capsys,
            "join", "--params", ws["pp"], "--keystore", str(ks),
            "--user", "alice", "--group", "alice,bob", "--new", "carol",
            "--format", "line-record",
        )
        assert code == 1
        assert kv(out)["consistent"] == "NO"
        assert err == ""


class TestBroadcast:
    def test_roundtrip_and_exclusion(self, ws, capsys):
        msg = ws["dir"] / "msg.bin"
        msg.write_bytes(b"broadcast me")
        ct = str(ws["dir"] / "ct.bin")
        code, _, _ = run(
            capsys,
            "broadcast-encrypt", "--params", ws["pp"], "--keystore", ws["ks"],
            "--authorized", "alice,carol,dave", "--in", str(msg), "--out", ct,
            "--seed", "aa",
        )
        assert code == 0
        for user in ("alice", "carol", "dave"):
            out_path = str(ws["dir"] / f"pt-{user}.bin")
            code, _, _ = run(
                capsys,
                "broadcast-decrypt", "--params", ws["pp"], "--keystore", ws["ks"],
                "--user", user, "--in", ct, "--out", out_path,
            )
            assert code == 0
            assert Path(out_path).read_bytes() == b"broadcast me"
        code, _, err = run(
            capsys,
            "broadcast-decrypt", "--params", ws["pp"], "--keystore", ws["ks"],
            "--user", "bob", "--in", ct, "--out", str(ws["dir"] / "no.bin"),
        )
        assert code == 1
        assert "NotAuthorized" in err


class TestValidate:
    def test_good_params(self, ws, capsys):
        code, out, _ = run(
            capsys, "validate", "--params", ws["pp"], "--msk", ws["msk"],
            "--format", "line-record",
        )
        assert code == 0
        assert kv(out)["valid"] == "yes"

    def test_mismatched_files(self, ws, tmp_path, capsys):
        other_pp = str(tmp_path / "pp2.txt")
        other_msk = str(tmp_path / "msk2.txt")
        assert (
            run(
                capsys,
                "setup", "--security", "toy", "--toy-bits", "16", "--seed", "cafe",
                "--params", other_pp, "--msk", other_msk,
            )[0]
            == 0
        )
        code, out, err = run(
            capsys, "validate", "--params", ws["pp"], "--msk", other_msk,
            "--format", "line-record",
        )
        assert code == 1
        assert "error[ParamsMismatch]" in err
        assert out == ""


class TestAttacks:
    def test_fiatnaor(self, capsys):
        code, out, _ = run(
            capsys, "attack", "fiatnaor", "--seed", "05", "--format", "line-record"
        )
        assert code == 0
        record = kv(out)
        assert record["verdict"] == "MATCH"
        assert record["generator_recovered"] == "yes"

    def test_eskeland(self, capsys):
        code, out, _ = run(
            capsys, "attack", "eskeland", "--seed", "06", "--format", "line-record"
        )
        assert code == 0
        record = kv(out)
        assert record["verdict"] == "MATCH"
        assert record["u_prime_matches_u_mod_phi"] == "yes"

    def test_probe(self, capsys):
        code, out, _ = run(
            capsys, "attack", "probe", "--seed", "07", "--format", "line-record"
        )
        assert code == 0
        record = kv(out)
        assert record["verdict"] == "NO-MATCH"
        assert record["combined_passes_audit"] == "yes"
        assert int(record["gcd"]) >= 2


class TestDeterminism:
    def test_same_seed_same_files(self, tmp_path, capsys):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            files = _setup(capsys, d, "16")
            for user, seed in (("alice", "01"), ("bob", "02")):
                assert _issue(capsys, files, user, seed) == 0
            outs.append([Path(files[k]).read_bytes() for k in ("pp", "msk", "ks")])
        assert outs[0] == outs[1]


def _setup(capsys, d, bits: str) -> dict[str, str]:
    files = {"pp": str(d / "pp.txt"), "msk": str(d / "msk.txt"), "ks": str(d / "ks.tsv")}
    code, _, _ = run(
        capsys,
        "setup", "--security", "toy", "--toy-bits", bits, "--seed", "feed",
        "--params", files["pp"], "--msk", files["msk"],
    )
    assert code == 0
    return files


def _issue(capsys, files, user: str, seed: str) -> int:
    return run(
        capsys,
        "issue", "--params", files["pp"], "--msk", files["msk"],
        "--keystore", files["ks"], "--user", user, "--seed", seed,
    )[0]


def _derive(capsys, files, group: str) -> tuple[int, str, str]:
    return run(
        capsys,
        "derive", "--params", files["pp"], "--keystore", files["ks"],
        "--user", group.split(",")[0], "--group", group,
    )


class TestKeystoreFile:
    def test_rows_hold_only_key_pairs(self, tmp_path, capsys):
        # 64-bit system: hex(y) and hex(k) are 8 digits, too long to match by chance
        files = _setup(capsys, tmp_path, "64")
        for user, seed in (("alice", "01"), ("bob", "02"), ("carol", "03")):
            assert _issue(capsys, files, user, seed) == 0
        text = Path(files["ks"]).read_text()
        rows = [line.split("\t") for line in text.splitlines()[1:]]
        assert [len(row) for row in rows] == [3, 3, 3]
        _, msk = params.load_master(files["msk"])
        for pair in kgc.store_load(files["ks"], params.load_public(files["pp"])).records.values():
            y, k = issuance_exponents(msk, pair.e)
            assert format(y, "x") not in text
            assert format(k, "x") not in text

    def test_unicode_line_break_in_user_id(self, tmp_path, capsys):
        files = _setup(capsys, tmp_path, "16")
        assert _issue(capsys, files, "alice", "01") == 0
        code, _, err = run(
            capsys,
            "issue", "--params", files["pp"], "--msk", files["msk"],
            "--keystore", files["ks"], "--user", "b\u2028ob", "--seed", "02",
        )
        assert code == 1
        assert "error[InvalidInput]" in err
        assert "Traceback" not in err
        assert _issue(capsys, files, "carol", "03") == 0
        assert _derive(capsys, files, "alice,carol")[0] == 0

    @pytest.mark.parametrize("user", ["dave,eve", " frank", "frank "])
    def test_user_id_an_id_list_cannot_name(self, tmp_path, capsys, user):
        # --group and --authorized split on "," and strip each id
        files = _setup(capsys, tmp_path, "16")
        code, _, err = run(
            capsys,
            "issue", "--params", files["pp"], "--msk", files["msk"],
            "--keystore", files["ks"], "--user", user, "--seed", "04",
        )
        assert code == 1
        assert "error[InvalidInput]" in err
        assert "Traceback" not in err

    def test_version_1_keystore_rejected(self, tmp_path, capsys):
        files = _setup(capsys, tmp_path, "16")
        for user, seed in (("alice", "01"), ("bob", "02")):
            assert _issue(capsys, files, user, seed) == 0
        # the old layout: y, k and a timestamp after user_id, e, d
        header, *rows = Path(files["ks"]).read_text().splitlines()
        old = [header.replace("/2\t", "/1\t")]
        old += [f"{row}\t3\t5\t2026-01-01T00:00:00+00:00" for row in rows]
        with open(files["ks"], "w") as fh:
            fh.write("\n".join(old) + "\n")
        code, _, err = _derive(capsys, files, "alice,bob")
        assert code == 1
        assert "error[FormatError]" in err
        assert "Traceback" not in err


class TestHygiene:
    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["derive"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "derive", "--params", str(tmp_path / "nope.txt"),
            "--keystore", str(tmp_path / "nope.tsv"),
            "--user", "a", "--group", "a,b",
        )
        assert code == 1
        assert "error" in err

    def test_group_flags_exclusive(self, ws, capsys):
        code, _, err = run(
            capsys,
            "derive", "--params", ws["pp"], "--keystore", ws["ks"],
            "--user", "alice",
        )
        assert code == 1
        assert "InvalidInput" in err
        # and --group must name at least one id
        code, _, err = run(
            capsys,
            "derive", "--params", ws["pp"], "--keystore", ws["ks"],
            "--user", "alice", "--group", ",",
        )
        assert code == 1
        assert "error[InvalidInput]: empty id list" in err

    def test_no_master_secrets_leak(self, tmp_path, capsys):
        # 64-bit system so secret values are long enough that substring
        # collisions are implausible
        d = tmp_path
        pp_path, msk_path, ks = str(d / "pp.txt"), str(d / "msk.txt"), str(d / "ks.tsv")
        run(capsys, "setup", "--security", "toy", "--toy-bits", "64", "--seed", "1234",
            "--params", pp_path, "--msk", msk_path)
        for user in ("alice", "bob", "carol"):
            run(capsys, "issue", "--params", pp_path, "--msk", msk_path,
                "--keystore", ks, "--user", user, "--seed", user.encode().hex())
        _, msk = params.load_master(msk_path)
        secrets = [format(v, "x") for v in (msk.p, msk.z, msk.q, msk.g, msk.p_prime, msk.q_prime)]
        group_path = str(d / "g.txt")
        msg = d / "m.bin"
        msg.write_bytes(b"payload")
        ct = str(d / "ct.bin")
        transcripts = []
        for argv in (
            ["derive", "--params", pp_path, "--keystore", ks, "--user", "alice",
             "--group", "alice,bob,carol", "--write-group", group_path],
            ["broadcast-encrypt", "--params", pp_path, "--keystore", ks,
             "--authorized", "alice,bob", "--in", str(msg), "--out", ct, "--seed", "99"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 0
            transcripts.append(out + err)
        public_artifacts = [
            Path(pp_path).read_text(),
            Path(group_path).read_text(),
            Path(ct).read_bytes().hex(),
            *transcripts,
        ]
        for blob in public_artifacts:
            for secret in secrets:
                assert secret not in blob

    def test_msk_file_permissions(self, ws):
        assert os.stat(ws["msk"]).st_mode & 0o777 == 0o600

    def test_nul_in_hash_id_is_a_format_error(self, tmp_path, capsys):
        files = _setup(capsys, tmp_path, "16")
        assert _issue(capsys, files, "alice", "01") == 0
        assert _issue(capsys, files, "bob", "02") == 0
        text = Path(files["pp"]).read_text()
        with open(files["pp"], "w") as fh:
            fh.write(text.replace("hash_id = sha256", "hash_id = s\x00ha256"))
        code, _, err = _derive(capsys, files, "alice,bob")
        assert code == 1
        assert "error[FormatError]" in err
        assert "Traceback" not in err

    def test_readme_names_every_subcommand(self):
        # command lines in code blocks, and `mpnike <cmd>` in backticks
        named = set(re.findall(r"(?:^|`)mpnike ([a-z][a-z-]*)", _readme(), re.M))
        assert named == set(_COMMANDS)

    def test_readme_names_every_attack_scheme(self):
        named = set(re.findall(r"(?:^|`)mpnike attack ([a-z]+)", _readme(), re.M))
        assert named == set(_SCHEMES)

    def test_readme_attack_table_lists_each_schemes_options(self):
        table = _readme().split("| scheme | options |\n", 1)[1].split("\n\n", 1)[0]
        rows = re.findall(r"^\| `([a-z]+)` \| (.*) \|$", table, re.M)
        listed = {name: set(re.findall(r"`(--[a-z-]+)`", cell)) for name, cell in rows}
        assert listed == {name: set(s.options) for name, s in _SCHEMES.items()}


_COMMANDS = cli._commands().run
_SCHEMES = _COMMANDS["attack"].run


def _readme() -> str:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(path) as fh:
        return fh.read()


@pytest.mark.parametrize(
    "argv, prog, bad",
    [
        (["attack", "probe", "--bits", "64"], "mpnike attack probe", "--bits"),
        (["validate", "--params", "x", "--msk", "y", "--bogus"], "mpnike validate", "--bogus"),
        (
            ["derive", "--params", "x", "--keystore", "y", "--user", "a", "--bogus"],
            "mpnike derive",
            "--bogus",
        ),
        # a command that draws no randomness takes no --seed
        (
            ["derive", "--params", "x", "--keystore", "y", "--user", "a", "--seed", "01"],
            "mpnike derive",
            "--seed 01",
        ),
        (
            ["join", "--params", "x", "--keystore", "y", "--user", "a", "--new", "b",
             "--seed", "01"],
            "mpnike join",
            "--seed 01",
        ),
        (
            ["broadcast-decrypt", "--params", "x", "--keystore", "y", "--user", "a",
             "--in", "c", "--out", "d", "--seed", "01"],
            "mpnike broadcast-decrypt",
            "--seed 01",
        ),
        (
            ["validate", "--params", "x", "--msk", "y", "--seed", "01"],
            "mpnike validate",
            "--seed 01",
        ),
    ],
)
def test_usage_error_names_the_subcommand(capsys, argv, prog, bad):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {prog} ")
    assert f"unrecognized arguments: {bad}" in err


@pytest.mark.parametrize("path", [[], ["attack"]], ids=["mpnike", "attack"])
def test_help_lists_every_entry_with_its_summary(capsys, path):
    table = _SCHEMES if path else _COMMANDS
    with pytest.raises(SystemExit) as exc:
        main([*path, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, entry in table.items():
        assert re.search(rf"^  {name} +{re.escape(entry.summary)}$", out, re.M), name


@pytest.mark.parametrize(
    "path",
    [[name] for name in _COMMANDS if name != "attack"] + [["attack", s] for s in _SCHEMES],
    ids=" ".join,
)
def test_main_builds_one_parser_per_level(monkeypatch, capsys, path):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting)
    with pytest.raises(SystemExit):
        main([*path, "-h"])
    capsys.readouterr()
    assert len(built) == len(path) + 1, built


def _bad(*argv, message=None):
    return pytest.param(list(argv), message, id=" ".join(argv))


@pytest.mark.parametrize(
    "argv, message",
    [
        _bad("attack", "fiatnaor", "--seed", "zz", message="--seed: not a hex number: 'zz'"),
        _bad("attack", "probe", "--group-size", "0"),
        _bad("attack", "probe", "--group-size", "-1"),
        _bad("attack", "eskeland", "--group-size", "0"),
        # more targets than there are 17-bit primes
        _bad("attack", "eskeland", "--group-size", "6000", message="error[ExhaustedAttempts]"),
        # options of another scheme
        _bad("attack", "probe", "--bits", "64"),
        _bad("attack", "fiatnaor", "--group-size", "5"),
        _bad("attack", "fiatnaor", "--security", "80"),
        _bad("attack", "eskeland", "--toy-bits", "32"),
        # removed subcommand: argparse's invalid-choice error
        _bad("bench", "--reps", "0"),
        _bad("bench", "--parties", "5:5"),
        # a custom type names the input it expects, not its Python function
        _bad("setup", "--seed", "0x", message="--seed: not a hex number: '0x'"),
        _bad("attack", "eskeland", "--seed", "", message="--seed: not a hex number: ''"),
        _bad("attack", "probe", "--group-size", "x", message="--group-size: not an integer: 'x'"),
        _bad("attack", "eskeland", "--group-size", "2.5", message="not an integer: '2.5'"),
        # a seed is written one way: lowercase hex digits, leading zeros allowed
        _bad("attack", "fiatnaor", "--seed", "0x05", message="--seed: not a hex number: '0x05'"),
        _bad("attack", "probe", "--seed", " 5", message="--seed: not a hex number: ' 5'"),
        _bad("setup", "--seed", "0_5", message="--seed: not a hex number: '0_5'"),
        _bad("attack", "eskeland", "--seed=-5", message="--seed: not a hex number: '-5'"),
    ],
)
def test_bad_arguments_exit_without_traceback(argv, message):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mpnike", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode in (1, 2), proc.stderr
    if message is not None:
        assert message in proc.stderr
        assert "_hex" not in proc.stderr and "_group_size" not in proc.stderr
    assert "Traceback" not in proc.stderr


# the fuzzed argv below runs in a copy of this toy-16 workspace
_USERS = ("alice", "bob", "carol", "nobody", "alice,bob", "")
_SETS = ("alice,bob", "alice,bob,carol", "alice", "bob,nobody", ",", "")
_FILES = ("pp.txt", "msk.txt", "ks.tsv", "group.txt", "plain.bin", "msg.ct", "missing", "")


def _mostly(good, pool):
    """Values to draw from: the good ones half the time, else any of pool."""
    return good * (len(pool) // len(good)) + pool


# option -> values to draw: good, wrong and junk; sizes stay toy, and no value
# names a real security level, whose setup takes seconds
_VALUES = {
    "--seed": ("1", "beef", "2", "zz"),
    "--format": ("text", "line-record", "xml"),
    "--security": ("toy", "80x"),
    "--toy-bits": ("16", "24", "8", "x"),
    "--bits": ("8", "16", "5", "x"),
    "--group-size": ("2", "3", "1", "x"),
    "--user": _mostly(("alice",), _USERS),
    "--new": _mostly(("carol",), _USERS),
    "--group": _mostly(("alice,bob",), _SETS),
    "--authorized": _mostly(("alice,carol",), _SETS),
    "--params": _mostly(("pp.txt",), _FILES),
    "--msk": _mostly(("msk.txt",), _FILES),
    "--keystore": _mostly(("ks.tsv",), _FILES),
    "--group-file": _mostly(("group.txt",), _FILES),
    "--in": _mostly(("plain.bin", "msg.ct"), _FILES),
    "--out": _mostly(("out.bin",), _FILES),
    "--write-group": _mostly(("out.bin",), _FILES),
}
_JUNK = ("junk", "-x", "--bogus", "--", "-h", "alice", "=", "--seed=zz", "-1")
_PATHS = [[name] for name in _COMMANDS if name != "attack"]
_PATHS += [["attack", s] for s in _SCHEMES] + [["attack"], ["bench"], []]


@pytest.fixture(scope="module")
def fuzz_home(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    files = {name: str(d / name) for name in _FILES if name}
    issuer = ["--params", files["pp.txt"], "--msk", files["msk.txt"]]
    assert main(["setup", "--security", "toy", "--toy-bits", "16", "--seed", "5", *issuer]) == 0
    for user in ("alice", "bob", "carol"):
        assert main(["issue", *issuer, "--keystore", files["ks.tsv"], "--user", user]) == 0
    member = ["--params", files["pp.txt"], "--keystore", files["ks.tsv"]]
    argv = ["derive", *member, "--user", "alice", "--group", "alice,bob"]
    assert main(argv + ["--write-group", files["group.txt"]]) == 0
    (d / "plain.bin").write_bytes(b"fuzz")
    argv = ["broadcast-encrypt", *member, "--authorized", "alice,carol"]
    assert main(argv + ["--in", files["plain.bin"], "--out", files["msg.ct"]]) == 0
    return d


@st.composite
def _argv(draw):
    """A path through the command table, mostly its own options, then foreign flags and junk."""
    path = draw(st.sampled_from(_PATHS))
    cmd = _COMMANDS.get(path[0]) if path else None
    if cmd is not None and isinstance(cmd.run, dict):
        cmd = cmd.run.get(path[1]) if len(path) > 1 else None
    own = ("--format", *cmd.options) if cmd is not None else ()
    tokens = []
    for flag in own:
        # required options always, so that most argvs reach their handler
        if cli._OPTIONS[flag].get("required") or draw(st.booleans()):
            value = () if flag == "--reveal" else (draw(st.sampled_from(_VALUES[flag])),)
            tokens.append([flag, *value])
    if not draw(st.integers(0, 2)):
        extra = st.sampled_from([*cli._OPTIONS, *_JUNK]).map(lambda t: [t])
        tokens += draw(st.lists(extra, min_size=1, max_size=3))
    tokens = draw(st.permutations(tokens))
    # an own --security drawn later overrides the toy level, never with a real one
    lead = ["--security", "toy"] if "--security" in own else []
    return [*path, *lead, *itertools.chain.from_iterable(tokens)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
def test_fuzzed_argv_keeps_the_exit_contract(fuzz_home, argv):
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        shutil.copytree(fuzz_home, d, dirs_exist_ok=True)
        os.chdir(d)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(here)
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
