"""Forked workers that send marshal records back to their parent over pipes.

The one fork, pipe and reap implementation behind the parallel
shortest-path pass and the parallel activity ingest.  POSIX only: where
``os.fork`` is missing, :func:`worker_count` is 1 and callers stay in-process.
"""

from __future__ import annotations

import marshal
import os
import signal
from typing import BinaryIO, Callable

from .errors import WorkerError

# each record a child sends is its marshal bytes behind their length; whole
# records are read with two calls, where marshal.load would read per item
_FRAME_HEADER = 4

# largest pipe buffer a caller may ask for; Linux grants up to 1 MiB to any
# process (fs.pipe-max-size)
_PIPE_BYTES = 1 << 20


def worker_count() -> int:
    """Processes a parallel pass may use: the CPUs this process may run on."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class Workers:
    """``count`` forked children; child j runs ``work(j, send)`` and exits.

    ``send(obj)`` writes ``obj`` to the child's pipe as one length-prefixed
    marshal record, and :meth:`receive` reads the records of one child in
    the order it sent them.  A child exits with status 0 once ``work``
    returns and with 1 if it raises.  ``label`` names the workers in errors.
    ``pipe_bytes`` asks for pipe buffers that large, so that a child need
    not wait while its parent does other work.  Use it as a context manager:
    leaving the block reaps every child, after a SIGKILL that ends any
    still at work when the block ends early.
    """

    def __init__(
        self, label: str, count: int, work: Callable[[int, Callable], None], pipe_bytes: int = 0
    ):
        self._label = label
        self.count = count
        self._children: list[tuple[int, BinaryIO] | None] = []
        try:
            for j in range(count):
                read_fd, write_fd = os.pipe()
                if pipe_bytes:
                    _reserve_pipe(write_fd, pipe_bytes)
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
                if pid == 0:
                    self._run_child(j, work, read_fd, write_fd)
                os.close(write_fd)
                self._children.append((pid, os.fdopen(read_fd, "rb")))
        except OSError as exc:
            self.close()
            raise WorkerError(f"cannot start a {label} worker: {exc}") from None
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Reap every child, killing first any still at work."""
        for child in self._children:
            if child is not None:
                pid, reader = child
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self._children = []

    def _run_child(self, j: int, work, read_fd: int, write_fd: int) -> None:
        """Run ``work(j, send)`` in the child and leave the process."""
        status = 1
        try:
            os.close(read_fd)
            for _, reader in self._children:
                os.close(reader.fileno())
            with os.fdopen(write_fd, "wb") as out:

                def send(obj) -> None:
                    record = marshal.dumps(obj)
                    out.write(len(record).to_bytes(_FRAME_HEADER, "little") + record)
                    out.flush()

                work(j, send)
            status = 0
        finally:
            os._exit(status)

    def receive(self, j: int, what: str):
        """Child j's next record.

        Raises :class:`WorkerError` when the child ended first, after
        reaping it for its status; ``what`` says what the record was, as in
        "sending the paths from node 4".
        """
        pid, reader = self._children[j]
        record = _read_frame(reader)
        if record is not None:
            return marshal.loads(record)
        # the child closed its pipe early, so it has ended: reap it here for
        # its status, and leave the others to close()
        self._children[j] = None
        reader.close()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
        raise WorkerError(f"{self._label} worker {j + 1} of {self.count} {how} before {what}")


def _read_frame(reader: BinaryIO) -> bytes | None:
    """One length-prefixed record, or None when the stream ends first."""
    header = reader.read(_FRAME_HEADER)
    if len(header) == _FRAME_HEADER:
        size = int.from_bytes(header, "little")
        record = reader.read(size)
        if len(record) == size:
            return record
    return None


def _reserve_pipe(fd: int, nbytes: int) -> None:
    """Ask the kernel for a pipe buffer of ``nbytes``, up to ``_PIPE_BYTES``.
    Where the call is missing or refused the default buffer serves."""
    import fcntl  # POSIX only, like os.fork

    set_size = getattr(fcntl, "F_SETPIPE_SZ", None)
    if set_size is not None:
        try:
            fcntl.fcntl(fd, set_size, min(nbytes, _PIPE_BYTES))
        except OSError:
            pass
