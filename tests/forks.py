"""Test helpers for the CSV writers and reader that fork one helper process."""

import os

import pytest

from tailsim import _forked


def use_cpus(monkeypatch, cpus: int) -> list[int]:
    """Report ``cpus`` usable CPUs; return a list that grows by one per fork."""
    monkeypatch.setattr(_forked, "usable_cpus", lambda: cpus)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record_exits(monkeypatch, directory):
    """Make ``os._exit`` first write its status to a file in ``directory``
    named by the exiting pid; return the real ``os._exit``."""
    directory.mkdir()
    real_exit = os._exit

    def recording_exit(status):
        (directory / str(os.getpid())).write_text(str(status))
        real_exit(status)

    monkeypatch.setattr(os, "_exit", recording_exit)
    return real_exit


def failing_in(pid_test, real, error):
    """``real``, raising ``error`` in any process where ``pid_test(pid)`` holds."""
    def wrapper(*args):
        if pid_test(os.getpid()):
            raise error("injected failure")
        return real(*args)
    return wrapper
