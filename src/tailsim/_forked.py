"""One forked helper process that shares a CSV writer's or reader's work,
through ``os.fork`` and a pipe (loaded with numpy's import, so no module is
added); :func:`write_csv` is the writer both CSV writers use."""

from __future__ import annotations

import os
import stat
import threading

# bytes per read from a forked helper's pipe
PIPE_BUFFER = 1 << 16


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether a forked helper can share the CSV work: ``os.fork`` exists, two
    CPUs are usable and the Python thread count is 1 (a forked child holds
    only the calling thread, so a lock another Python thread held stays taken).
    OS threads that Python does not count are not seen: with numpy's default
    OpenBLAS threading a process has 2 while ``threading.active_count()`` is
    1.  Neither child calls BLAS, so OpenBLAS's locks are not needed there."""
    return hasattr(os, "fork") and threading.active_count() == 1 and usable_cpus() >= 2


class Child:
    """A forked helper process; what it writes arrives on the pipe ``fd``."""

    def __init__(self, pid: int, fd: int):
        self.pid = pid
        self.fd = fd
        self.ok: bool | None = None

    def read_into(self, buffer) -> bool:
        """Fill the bytes ``buffer`` from the pipe; False if it ends first."""
        view = memoryview(buffer)
        while view:
            got = os.readv(self.fd, [view])
            if not got:
                return False
            view = view[got:]
        return True

    def copy_to(self, out) -> None:
        """Copy all that the child writes to the binary file ``out`` through one
        fixed-size buffer."""
        buffer = bytearray(PIPE_BUFFER)
        view = memoryview(buffer)
        while got := os.readv(self.fd, [buffer]):
            out.write(view[:got])

    def join(self, kill: bool = False) -> bool:
        """Close the pipe and reap the child, once, first killing it if
        ``kill``; True if it exited 0 (a child still writing gets a broken
        pipe and exits non-zero)."""
        if self.ok is None:
            if kill:
                from signal import SIGKILL

                os.kill(self.pid, SIGKILL)
            os.close(self.fd)
            self.ok = os.waitpid(self.pid, 0)[1] == 0
        return self.ok


def fork(work) -> Child | None:
    """Fork a child that runs ``work(out)``, ``out`` a binary file on a pipe to
    this process; None if the fork fails.  The child never returns into its
    caller: it leaves through ``os._exit``, with status 0 once ``work`` has
    returned and ``out`` is flushed and closed, and 1 on any exception."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                work(out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return Child(pid, read_fd)


def write_csv(path, header: str, rows, n: int, chunk: int) -> None:
    """Write ``header`` and rows ``0`` to ``n`` to ``path`` as UTF-8, ``chunk``
    rows at a time; ``rows(lo, hi)`` gives rows ``lo`` to ``hi`` as strings to
    join.  A destination that is a regular file, or does not exist yet, is
    written through a temporary file beside it (named from the pid, created
    with ``O_EXCL``, given an existing file's permissions) that replaces it
    on success and is removed on any failure: a failed write leaves an
    existing file's bytes as they were and creates no file.  A FIFO or a
    device is written in place.  A symbolic link is followed to its target."""
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_rows(fh, header, rows, n, chunk)
        return
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            _write_rows(fh, header, rows, n, chunk)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_rows(fh, header: str, rows, n: int, chunk: int) -> None:
    """:func:`write_csv`'s rows into the open text file ``fh``.  From two
    chunks on, when ``fh`` is seekable and :func:`can_fork`, a forked child
    formats the second half (a row's text must depend only on its own
    values) while this process writes the first, and its bytes are copied in
    after them; if the child fails, its half is formatted here."""
    def write(start: int, stop: int) -> None:
        for lo in range(start, stop, chunk):
            fh.writelines(rows(lo, min(lo + chunk, stop)))

    fh.write(header)
    half = n // 2
    child = None
    if n >= 2 * chunk and fh.seekable() and can_fork():
        # the child formats all of its half before it writes to the pipe,
        # so it never waits on this process with work left to do
        child = fork(lambda out: out.write("".join(rows(half, n)).encode()))
    try:
        write(0, n if child is None else half)
        if child is not None:
            fh.flush()
            mark = fh.buffer.tell()
            child.copy_to(fh.buffer)
            if not child.join():
                # what arrived may be partial: drop it, format it here
                fh.buffer.seek(mark)
                fh.buffer.truncate()
                write(half, n)
    finally:
        if child is not None:
            child.join(kill=True)
