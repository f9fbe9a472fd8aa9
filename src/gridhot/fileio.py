"""Atomic file writing and content digests."""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path


def atomic_write_text(path, text) -> None:
    """Write ``text``, a string or an iterable of strings written in order,
    via a temp file in the same directory, then rename into place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
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
