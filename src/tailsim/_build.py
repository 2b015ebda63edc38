"""Build and load the compiled RK4 kernel, ``_rk4.c``, through a per-user cache.

:func:`load` looks for the kernel's shared library in ``CACHE_DIR``
(``$XDG_CACHE_HOME/tailsim``, or ``~/.cache/tailsim``), under a name keyed
by the SHA-256 of the C source, the compile command and the interpreter's
extension suffix.  A hit loads it and spawns no process (nor imports
``subprocess``, ``sysconfig`` or ``tempfile``).  A miss compiles the source
once with ``CC`` and ``CFLAGS`` into a unique temporary file beside the
cache entry and renames it into place, so concurrent first imports never
see a partial library.  The flags are fixed, not Python's own ``CFLAGS``:
``-ffp-contract=off`` forbids fused multiply-adds and no fast-math flag
allows reassociation, so the compiled kernel keeps the bits of
:func:`tailsim.sim.advance`.  Any failure (no compiler, no Python headers,
a read-only cache, a timeout) leaves the caller on the Python kernel, with
the reason.
"""

from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

try:   # CPython's own SHA-256: hashlib would load OpenSSL, several ms of every import
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

SOURCE = Path(__file__).with_name("_rk4.c")
CC = "cc"
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")
TIMEOUT_S = 60.0
CACHE_DIR: Path | None = None   # None: $XDG_CACHE_HOME/tailsim or ~/.cache/tailsim


def _cache_dir() -> Path:
    if CACHE_DIR is not None:
        return CACHE_DIR
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache") / "tailsim"


def _compile(command: list[str], path: Path) -> None:
    """Compile ``SOURCE`` to ``path`` through a unique temporary file."""
    import signal
    import subprocess
    import sysconfig
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=path.suffix, dir=path.parent)
    os.close(fd)
    try:
        cmd = [*command, "-I", sysconfig.get_paths()["include"], str(SOURCE), "-o", tmp]
        # its own process group, so that a timeout kills cc1 and as with the driver
        with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, start_new_session=True) as proc:
            try:
                out = proc.communicate(timeout=TIMEOUT_S)[0]
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                raise
        if proc.returncode != 0:
            lines = out.decode(errors="replace").strip().splitlines() or ["no output"]
            raise RuntimeError(f"{command[0]} exited with {proc.returncode}: {lines[-1]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load() -> tuple[object | None, str]:
    """``(module, "compiled: <path>")``, or ``(None, "python: <why not>")``."""
    try:
        command = [CC, *CFLAGS]
        suffix = EXTENSION_SUFFIXES[0]
        key = sha256(SOURCE.read_bytes() + "\0".join([*command, suffix]).encode()).hexdigest()
        path = _cache_dir() / f"_rk4-{key}{suffix}"
        if not path.exists():
            _compile(command, path)
        loader = ExtensionFileLoader("tailsim._rk4", str(path))
        module = module_from_spec(spec_from_file_location("tailsim._rk4", path, loader=loader))
        loader.exec_module(module)
        return module, f"compiled: {path}"
    except Exception as exc:   # any failure leaves the Python kernel in charge
        return None, f"python: {type(exc).__name__}: {exc}"
