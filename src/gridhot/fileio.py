"""Atomic file writing, text input opening and content digests.

``hashlib``, which maps OpenSSL, is imported where a digest is first taken,
so a command holds it only from its first output or input digest on.
"""

from __future__ import annotations

import functools
import io
import os
import stat
import tempfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from .errors import UnreadableInputError

_GZIP_MAGIC = b"\x1f\x8b"
# what reading a text input can raise, each reported as UnreadableInputError
_READ_ERRORS = (OSError, UnicodeDecodeError, EOFError, zlib.error)


def _open_input(path) -> io.FileIO:
    """``path`` opened unbuffered to read bytes; UnreadableInputError names
    it unless it is a regular file, as a pipe, a FIFO or a process
    substitution loses to one read what the next would need."""
    raw = open(path, "rb", buffering=0)
    if not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
        raw.close()
        raise UnreadableInputError(f"cannot read {path}: not a regular file")
    return raw


@contextmanager
def open_text(path) -> Iterator[IO[str]]:
    """Open a text file, transparently unpacking gzip (sniffed by magic bytes).

    Bytes that are not UTF-8 or a broken gzip stream raise
    :class:`UnreadableInputError` naming ``path``, as does a ``path`` that
    is not a regular file.  ``gzip`` is imported only for a gzip file.
    """
    with _open_input(path) as raw:
        # probed unbuffered, so the text decoder's 8 KiB chunks, from which a
        # decoding error counts its byte position, still start at byte 0
        gzipped = raw.read(2) == _GZIP_MAGIC
        raw.seek(0)
        if gzipped:
            import gzip

            handle = gzip.open(raw, "rt", encoding="utf-8")
        else:
            handle = io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8")
        with handle:
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


class _HashedFile(io.FileIO):
    """A file to write that hashes the blocks its buffer hands down."""

    def __init__(self, fd: int):
        import hashlib

        super().__init__(fd, "w")
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        written = super().write(data)
        self.sha256.update(memoryview(data)[:written])
        return written


def atomic_write_text(path, text, expect: str | None = None) -> str:
    """Write ``text``, a string or an iterable of strings written in order,
    via a temp file in the same directory, then rename into place; returns
    the hex SHA-256 of the bytes, taken as they are written.  Bytes of a
    digest other than ``expect``, if given, raise ValueError before the
    rename.  The file gets the mode ``open(path, "w")`` gives a new file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        raw = _HashedFile(fd)
        with io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="\n") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        sha256 = raw.sha256.hexdigest()
        if expect is not None and sha256 != expect:
            raise ValueError(f"the bytes written to {path} lack the digest {expect}")
        # mkstemp creates the file with mode 0o600, and the rename keeps it
        os.chmod(tmp, _new_file_mode())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return sha256


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
    import hashlib

    digest = hashlib.sha256()
    with _open_input(path) as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
