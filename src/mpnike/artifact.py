"""The one place mpnike reads and writes files.

A write goes to a fresh temp file beside the target, is fsynced and then
renamed over the target, so a reader sees the old file or the new one and
never a half-written one.  A private file (keystore, master secret,
decrypted payload) is created 0600, whatever mode an earlier file at the
same path had.  Text artifacts bound to one parameter set start with a
`tag<TAB>params_digest` header line.
"""

from __future__ import annotations

import os
from typing import Iterable

from .errors import FormatError, ParamsMismatch


def write(path: str, data: bytes | str, private: bool = False):
    """Atomically replace path with data (str is written as UTF-8)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600 if private else 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def read_text(path: str) -> str:
    try:
        return read(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def write_bound(path: str, tag: str, digest: str, lines: Iterable[str], private: bool = False):
    """Header line `tag<TAB>digest`, then one body line per item."""
    write(path, "".join(f"{line}\n" for line in (f"{tag}\t{digest}", *lines)), private)


def read_bound(path: str, tag: str, digest: str) -> list[str]:
    """Body lines of a `tag<TAB>digest` file; another digest is ParamsMismatch.

    Lines end in "\n" only (a user id may hold any other line break), and
    the last line must end in one too.
    """
    lines = read_text(path).split("\n")
    if lines.pop():
        raise FormatError(f"{path}: last line has no newline")
    header = lines[0].split("\t") if lines else []
    if len(header) != 2 or header[0] != tag:
        raise FormatError(f"{path}: missing or bad {tag} header line")
    if header[1] != digest:
        raise ParamsMismatch(f"{path}: {tag} file bound to other parameters")
    return lines[1:]
