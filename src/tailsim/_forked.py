"""One forked helper process that shares a CSV writer's or reader's work,
through ``os.fork`` and a pipe (loaded with numpy's import, so no module is
added); :func:`write_csv` is the writer both CSV writers use.

A helper may also be fed while it works: :func:`fork` with ``feed`` opens a
second pipe, from this process to the child, and :func:`shared_buffer` maps
memory that both processes see, so a child forked before a run can format
the rows the run appends as their counts arrive (``tailsim run --out-log``)."""

from __future__ import annotations

import os
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


def shared_buffer(nbytes: int):
    """``nbytes`` zero bytes of anonymous shared memory: what this process
    writes there after a fork, a forked child reads.  ``mmap`` is imported
    here, as no other path needs it."""
    import mmap

    return mmap.mmap(-1, nbytes)


class Child:
    """A forked helper process; what it writes arrives on the pipe ``fd``,
    and what :meth:`send` sends leaves on the pipe ``feed`` (if it has one)."""

    def __init__(self, pid: int, fd: int, feed: int | None = None):
        self.pid = pid
        self.fd = fd
        self.feed = feed
        self.ok: bool | None = None

    def send(self, count: int) -> None:
        """Send ``count`` to the child as 8 bytes.  Before :meth:`end_feed`
        this never waits: on a full pipe it is dropped (a later count
        supersedes it).  To a child that has died it is lost, and
        :meth:`join` then reports the failure."""
        try:
            os.write(self.feed, count.to_bytes(8, "little"))
        except (BlockingIOError, BrokenPipeError):
            pass

    def end_feed(self, count: int) -> None:
        """Send the last ``count``, waiting for room if need be, and close the feed."""
        os.set_blocking(self.feed, True)
        self.send(count)
        os.close(self.feed)
        self.feed = None

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
        """Close the pipes and reap the child, once, first killing it if
        ``kill``; True if it exited 0 (a child still writing gets a broken
        pipe and exits non-zero)."""
        if self.ok is None:
            if kill:
                from signal import SIGKILL

                os.kill(self.pid, SIGKILL)
            if self.feed is not None:
                os.close(self.feed)
            os.close(self.fd)
            self.ok = os.waitpid(self.pid, 0)[1] == 0
        return self.ok


def fork(work, feed: bool = False) -> Child | None:
    """Fork a child that runs ``work(out)``, ``out`` a binary file on a pipe to
    this process; None if the fork fails.  With ``feed`` it runs ``work(out,
    feed)``, ``feed`` a binary file on a second pipe that carries what
    :meth:`Child.send` sends and ends at :meth:`Child.end_feed`.  The child
    never returns into its caller: it leaves through ``os._exit``, with status
    0 once ``work`` has returned and ``out`` is flushed and closed, and 1 on
    any exception."""
    read_fd, write_fd = os.pipe()
    feed_fds = os.pipe() if feed else ()
    try:
        pid = os.fork()
    except OSError:
        for fd in (read_fd, write_fd, *feed_fds):
            os.close(fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            args = ()
            if feed:
                os.close(feed_fds[1])
                args = (open(feed_fds[0], "rb"),)
            with open(write_fd, "wb") as out:
                work(out, *args)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    if not feed:
        return Child(pid, read_fd)
    os.close(feed_fds[0])
    os.set_blocking(feed_fds[1], False)
    return Child(pid, read_fd, feed_fds[1])


def write_csv(path, header: str, rows, n: int, chunk: int, child: Child | None = None) -> None:
    """Write ``header`` and rows ``0`` to ``n`` to ``path`` as UTF-8, ``chunk``
    rows at a time; ``rows(lo, hi)`` gives rows ``lo`` to ``hi`` as strings to
    join.  From two chunks on, when the file is seekable and :func:`can_fork`,
    a forked child formats the second half (a row's text must depend only on
    its own values) while this process writes the first, and its bytes are
    copied in after them; if the child fails, its half is formatted here.
    A ``child`` passed in is a helper already formatting all ``n`` rows: its
    bytes follow the header, and if it fails, or the file cannot seek back
    over what it sent, it is killed and the rows are formatted here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        def write(start: int, stop: int) -> None:
            for lo in range(start, stop, chunk):
                fh.writelines(rows(lo, min(lo + chunk, stop)))

        fh.write(header)
        seekable = fh.seekable()
        if child is not None and not seekable:
            child.join(kill=True)
            child = None
        split = n // 2 if child is None else 0
        if child is None and n >= 2 * chunk and seekable and can_fork():
            # the child formats all of its half before it writes to the pipe,
            # so it never waits on this process with work left to do
            child = fork(lambda out: out.write("".join(rows(split, n)).encode()))
        try:
            write(0, n if child is None else split)
            if child is not None:
                fh.flush()
                mark = fh.buffer.tell()
                child.copy_to(fh.buffer)
                if not child.join():
                    # what arrived may be partial: drop it, format it here
                    fh.buffer.seek(mark)
                    fh.buffer.truncate()
                    write(split, n)
        finally:
            if child is not None:
                child.join(kill=True)
