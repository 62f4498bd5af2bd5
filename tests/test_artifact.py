import ast
import glob
import os
import re
import subprocess
import sys

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


def _src_lines_matching(pattern: str) -> list[str]:
    regex = re.compile(pattern)
    offenders = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if regex.search(line):
                    offenders.append(f"{os.path.basename(path)}:{lineno}: {line.strip()}")
    return offenders


# what opens, renames or removes a file: outside `artifact`, a write could skip
# its 0600 mode or its atomic rename
_FILE_OPS = {"open", "os.open", "os.fdopen", "os.replace", "os.rename", "os.unlink", "os.remove"}
# an `open` or `fdopen` reached through any receiver or import: io.open,
# codecs.open, builtins.open, Path(p).open, from io import open
_OPENERS = {"open", "fdopen"}


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_only_artifact_opens_files():
    offenders = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "artifact.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {f"os.{alias.name}" for alias in node.names if node.module == "os"}
                names |= {alias.name for alias in node.names} & _OPENERS
            elif isinstance(node, ast.Attribute) and node.attr in _OPENERS:
                names = {_dotted(node) or f"<expr>.{node.attr}"}
            else:
                names = {_dotted(node)}
            offenders += [f"{os.path.basename(path)}:{node.lineno}: {n}"
                          for n in names if n in _FILE_OPS or n.rsplit(".", 1)[-1] in _OPENERS]
    assert not offenders


def test_kgc_imports_nothing_from_the_layers_that_use_it():
    # broadcast calls kgc.group_element and reads Keystore.issuer; kgc knows nothing of broadcast
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


def _modular_pows(tree: ast.AST):
    """Each three-argument builtin `pow` call under tree that is not a modular inverse."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _dotted(node.func) == "pow":
            args = dict(zip(("base", "exp", "mod"), node.args))
            args |= {kw.arg: kw.value for kw in node.keywords}
            if "mod" in args and ast.unparse(args["exp"]) != "-1":
                yield node


def test_only_the_issuer_exponentiates_outside_numt():
    # every other modular exponentiation runs on numt's backend; kgc._issuer_pow's
    # docstring says why it keeps the builtin pow
    offenders = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)
        if module == "numt.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            if module == "kgc.py" and getattr(top, "name", None) == "_issuer_pow":
                continue
            offenders += [f"{module}:{node.lineno}" for node in _modular_pows(top)]
    assert not offenders


# a fresh interpreter runs every command, a broadcast round trip last, and reports after each
# one whether `cryptography` was loaded: AES-GCM runs on numt's libcrypto, so none loads it
_NO_CRYPTOGRAPHY_PROBE = """
import sys
import mpnike, mpnike.cli
from mpnike.cli import main
ws = sys.argv[1] + "/"
pp, msk, ks = ["--params", ws + "pp"], ["--msk", ws + "msk"], ["--keystore", ws + "ks"]
commands = [["setup", "--security", "toy", "--toy-bits", "16", "--seed", "a1", *pp, *msk]]
commands += [["issue", *pp, *msk, *ks, "--user", u, "--seed", s] for u, s in
             (("alice", "1"), ("bob", "2"), ("carol", "3"))]
commands += [["derive", *pp, *ks, "--user", "alice", "--group", "alice,bob",
              "--write-group", ws + "group"],
             ["join", *pp, *ks, "--user", "alice", "--group-file", ws + "group", "--new", "carol"],
             ["validate", *pp, *msk],
             ["broadcast-encrypt", *pp, *ks, "--authorized", "alice,bob", "--in", ws + "msg",
              "--out", ws + "ct", "--seed", "5"],
             ["broadcast-decrypt", *pp, *ks, "--user", "bob", "--in", ws + "ct",
              "--out", ws + "pt"]]
with open(ws + "msg", "wb") as fh:
    fh.write(b"payload")
loaded = []
for argv in commands:
    assert main(argv) == 0, argv
    loaded.append(f"{argv[0]}={'cryptography' in sys.modules}")
with open(ws + "pt", "rb") as fh:
    assert fh.read() == b"payload"
print(" ".join(loaded))
"""


def test_no_command_loads_cryptography(tmp_path):
    src = os.path.join(SRC, os.pardir)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _NO_CRYPTOGRAPHY_PROBE, str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert child.returncode == 0, child.stderr
    commands = ["setup", *["issue"] * 3, "derive", "join", "validate", "broadcast-encrypt",
                "broadcast-decrypt"]
    assert child.stdout.splitlines()[-1] == " ".join(f"{name}=False" for name in commands)
