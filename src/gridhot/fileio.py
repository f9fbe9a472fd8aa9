"""Atomic file writing, text input opening and content digests."""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from .errors import UnreadableInputError

_GZIP_MAGIC = b"\x1f\x8b"
# what reading a text input can raise, each reported as UnreadableInputError
_READ_ERRORS = (OSError, UnicodeDecodeError, EOFError, zlib.error)


def _is_gzip(path) -> bool:
    with open(path, "rb") as probe:
        return probe.read(2) == _GZIP_MAGIC


@contextmanager
def open_text(path) -> Iterator[IO[str]]:
    """Open a text file, transparently unpacking gzip (sniffed by magic bytes).

    Bytes that are not UTF-8 or a broken gzip stream raise
    :class:`UnreadableInputError` naming ``path``.  ``gzip`` is imported
    only for a gzip file.
    """
    if _is_gzip(path):
        import gzip

        opener = gzip.open
    else:
        opener = open
    with opener(path, "rt", encoding="utf-8") as handle:
        try:
            yield handle
        except _READ_ERRORS as exc:
            raise UnreadableInputError(f"cannot read {path}: {exc}") from None


@functools.cache
def _new_file_mode() -> int:
    """The mode ``open(path, "w")`` gives a new file: 0o666 less the umask,
    read once.  ``os.umask`` reads the mask only by setting another, so the
    mask is set back at once."""
    umask = os.umask(0o077)
    os.umask(umask)
    return 0o666 & ~umask


def atomic_write_text(path, text) -> None:
    """Write ``text``, a string or an iterable of strings written in order,
    via a temp file in the same directory, then rename into place.  The
    file gets the mode ``open(path, "w")`` gives a new file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        # mkstemp creates the file with mode 0o600, and the rename keeps it
        os.chmod(tmp, _new_file_mode())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class SizedChunks:
    """Text chunks whose ``len()`` is the number of characters read from
    them so far: once written, the length of the whole text, as for a str.

    Passing one to :func:`atomic_write_text` streams the text and still lets
    a caller size what was written, as the benchmark's tracer does.
    """

    def __init__(self, chunks):
        self._chunks = chunks
        self._size = 0

    def __iter__(self):
        for chunk in self._chunks:
            self._size += len(chunk)
            yield chunk

    def __len__(self) -> int:
        return self._size


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
