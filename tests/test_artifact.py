import ast
import glob
import os
import re

import pytest

from mpnike import artifact, params
from mpnike.cli import main

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "mpnike")


def mode(path) -> int:
    return os.stat(path).st_mode & 0o777


@pytest.fixture
def ws(tmp_path, capsys):
    """A toy parameter set, two issued users and one ciphertext for both."""
    p = {k: str(tmp_path / f) for k, f in (
        ("pp", "pp.txt"), ("msk", "msk.txt"), ("ks", "ks.tsv"), ("group", "group.txt"),
        ("msg", "msg.bin"), ("ct", "msg.ct"), ("out", "out.bin"),
    )}
    assert main(["setup", "--security", "toy", "--toy-bits", "16", "--seed", "a1",
                 "--params", p["pp"], "--msk", p["msk"]]) == 0
    for user in ("alice", "bob"):
        assert main(["issue", "--params", p["pp"], "--msk", p["msk"], "--keystore", p["ks"],
                     "--user", user, "--seed", user.encode().hex()]) == 0
    artifact.write(p["msg"], b"payload")
    member = ["--params", p["pp"], "--keystore", p["ks"]]
    assert main(["derive", *member, "--user", "alice", "--group", "alice,bob",
                 "--write-group", p["group"]]) == 0
    assert main(["broadcast-encrypt", *member, "--authorized", "alice,bob",
                 "--in", p["msg"], "--out", p["ct"], "--seed", "5"]) == 0
    assert main(["broadcast-decrypt", *member, "--user", "bob",
                 "--in", p["ct"], "--out", p["out"]]) == 0
    capsys.readouterr()
    return p


def test_secret_files_are_private(ws):
    assert artifact.read(ws["out"]) == b"payload"
    for key in ("ks", "msk", "out"):
        assert mode(ws[key]) == 0o600, key


def test_public_files_follow_umask(ws):
    umask = os.umask(0)
    os.umask(umask)
    for key in ("pp", "group", "ct"):
        assert mode(ws[key]) == 0o666 & ~umask, key


def test_master_file_private_when_overwriting_a_public_file(toy16, tmp_path):
    pp, msk = toy16
    path = str(tmp_path / "msk.txt")
    with open(path, "w") as fh:
        fh.write("old\n")
    os.chmod(path, 0o644)
    params.save_master(pp, msk, path)
    assert mode(path) == 0o600
    assert params.load_master(path) == (pp, msk)


def test_failed_rename_raises_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "target"
    target.mkdir()
    with pytest.raises(OSError):
        artifact.write(str(target), b"data", private=True)
    assert os.listdir(tmp_path) == ["target"]  # no *.tmp file left behind


def test_write_replaces_existing_content(tmp_path):
    path = str(tmp_path / "f")
    artifact.write(path, b"a much longer first version")
    artifact.write(path, "short")
    assert artifact.read(path) == b"short"


@pytest.mark.parametrize("victim", ["pp", "ks", "group"])
def test_non_utf8_file_is_a_format_error(ws, capsys, victim):
    artifact.write(ws[victim], b"\xff\xfe not utf-8\n")
    code = main(["derive", "--params", ws["pp"], "--keystore", ws["ks"], "--user", "alice",
                 "--group-file", ws["group"]])
    err = capsys.readouterr().err
    assert code == 1
    assert "error[FormatError]" in err
    assert "Traceback" not in err


def _src_lines_matching(pattern: str, exempt: tuple[str, ...] = ()) -> list[str]:
    regex = re.compile(pattern)
    offenders = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) in exempt:
            continue
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if regex.search(line):
                    offenders.append(f"{os.path.basename(path)}:{lineno}: {line.strip()}")
    return offenders


def test_only_artifact_opens_files():
    assert not _src_lines_matching(r"\bopen\(|os\.(open|fdopen)", exempt=("artifact.py",))


def test_kgc_imports_nothing_from_the_layers_that_use_it():
    # the keystore holds the sender memo of broadcast, but not its type or policy
    with open(os.path.join(SRC, "kgc.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {part for alias in node.names for part in alias.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            imported |= set((node.module or "").split("."))
            if node.module in (None, "mpnike"):  # from . import x, from mpnike import x
                imported |= {alias.name for alias in node.names}
    assert not imported & {"nike", "broadcast", "cli"}


def test_no_module_picks_a_hash_by_name():
    # the version-1 formats fix H to SHA-256; hashlib.new would let a name choose it
    assert not _src_lines_matching(r"hashlib\.new\(")
