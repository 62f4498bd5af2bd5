import os
import subprocess
import sys

import pytest

from mpnike import params
from mpnike.cli import main


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
            assert open(out_path, "rb").read() == b"broadcast me"
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
        code, out, _ = run(
            capsys, "validate", "--params", ws["pp"], "--msk", other_msk,
            "--format", "line-record",
        )
        assert code == 1


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


class TestBench:
    def test_toy_bench(self, tmp_path, capsys):
        csv_path = str(tmp_path / "bench.csv")
        code, out, _ = run(
            capsys,
            "bench", "--security", "toy", "--toy-bits", "16",
            "--parties", "2:8", "--reps", "1", "--seed", "11",
            "--csv", csv_path, "--format", "line-record",
        )
        assert code == 0
        assert kv(out)["counts_match_parties_minus_one"] == "yes"
        rows = open(csv_path).read().strip().splitlines()
        assert rows[0] == "parties,mod_exps,seconds"
        assert len(rows) == 8
        for row in rows[1:]:
            size, count, _ = row.split(",")
            assert int(count) == int(size) - 1


class TestDeterminism:
    def test_same_seed_same_files(self, tmp_path, capsys):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            run(
                capsys,
                "setup", "--security", "toy", "--toy-bits", "16", "--seed", "feed",
                "--params", str(d / "pp.txt"), "--msk", str(d / "msk.txt"),
            )
            outs.append((d / "pp.txt").read_bytes() + (d / "msk.txt").read_bytes())
        assert outs[0] == outs[1]


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
            open(pp_path).read(),
            open(group_path).read(),
            open(ct, "rb").read().hex(),
            *transcripts,
        ]
        for blob in public_artifacts:
            for secret in secrets:
                assert secret not in blob

    def test_msk_file_permissions(self, ws):
        assert os.stat(ws["msk"]).st_mode & 0o777 == 0o600


@pytest.mark.parametrize(
    "argv",
    [
        ["attack", "fiatnaor", "--seed", "zz"],
        ["attack", "probe", "--group-size", "0"],
        ["attack", "probe", "--group-size", "-1"],
        ["attack", "eskeland", "--group-size", "0"],
        ["bench", "--reps", "0"],
        ["bench", "--parties", "5:5"],
    ],
    ids=" ".join,
)
def test_bad_arguments_exit_without_traceback(argv):
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
    assert "Traceback" not in proc.stderr
