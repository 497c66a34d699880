"""The compiled kernel library: `native.c`, built with `cc` on first use
and loaded with ctypes, and `kernels`, the one place that chooses
between it and the Python twins.

The library holds the kernels that `refine` runs: the refinement
`refine`, the session probe `session_push` (rollback, split and
journaled refinement in one call), the remainder's dive loop
`dive_pairs` with its port of CPython's MT19937 generator, and the
coloring check `valid_coloring`.  It also holds the DIMACS reader
`parse`, the writer `emit` and the canonical-clause check `ascending`
that `cnf` runs.  Each of these seven entry points has a Python twin
that takes the same parameters in the same order, arrays where C takes
addresses: `refine`'s `_refine_kernel`, `_session_push`, `_dive_pairs`
(drawing from a `random.Random`) and `_valid_coloring`, and `cnf`'s
`_parse`, `_emit` and `_ascending`.  The twins are the reference the
tests compare the library against and the fallback where no compiler is
found.  This module imports nothing else of symbreak at load time, so
`cnf` and `refine` can both import it.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

_KERNEL_SRC = Path(__file__).with_name("native.c")
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep
_CFLAGS = ("-O2", "-shared", "-fPIC")


def _cache_dir() -> Path:
    """Per-user directory for the compiled kernel.  Whatever lies there
    is loaded into the process, so it must belong to this user and be
    writable by nobody else."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(root) / "symbreak"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.stat()
    if info.st_uid != os.getuid() or \
            info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise OSError(f"{path} is not a private directory of this user")
    return path


def _compiled_kernel() -> Path:
    """Path of the compiled C kernel, compiling it if the cache lacks it.
    The file name carries a hash of the source, the flags, the compiler
    and the machine, so a stale or foreign build is never picked up."""
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler `cc` on PATH")
    src = _KERNEL_SRC.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [src, " ".join(_CFLAGS).encode(), cc.encode(),
         f"{sys.platform}-{platform.machine()}".encode()])).hexdigest()[:20]
    lib = _cache_dir() / f"native-{key}.so"
    if not lib.exists():
        # build under a private name, then rename: a concurrent first use
        # sees either no library or a whole one
        fd, tmp = tempfile.mkstemp(prefix=lib.stem, suffix=".tmp",
                                   dir=lib.parent)
        os.close(fd)
        try:
            subprocess.run([cc, *_CFLAGS, "-o", tmp, "-x", "c", "-"],
                           input=src, capture_output=True, check=True,
                           timeout=300)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


@functools.lru_cache(maxsize=None)
def native_kernel():
    """The C kernels loaded with ctypes, or None when they cannot be built
    here; then, after one RuntimeWarning, refinement, the remainder
    dives and DIMACS I/O run their Python kernels.  The warning names
    the innermost line outside the symbreak package that led here."""
    try:
        lib = ctypes.CDLL(str(_compiled_kernel()))
    except (OSError, subprocess.SubprocessError) as exc:
        stderr = getattr(exc, "stderr", None) or b""
        reason = " ".join(filter(None, [
            str(exc), stderr.decode(errors="replace").strip()[-300:]]))
        level, frame = 1, sys._getframe()
        while frame is not None and \
                frame.f_code.co_filename.startswith(_PACKAGE_DIR):
            level, frame = level + 1, frame.f_back
        warnings.warn(f"symbreak: cannot build the C kernels ({reason}); "
                      f"using the much slower Python kernel for refinement, "
                      f"remainder dives and DIMACS I/O",
                      RuntimeWarning, stacklevel=level)
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.refine.argtypes = [ptr] * 9 + [i64] * 3 + [ptr] * 7 + [i64] * 4
    lib.refine.restype = None
    lib.session_push.argtypes = [ptr] * 9 + [i64] + [ptr] * 10 + [i64] * 6
    lib.session_push.restype = ctypes.c_int
    lib.dive_pairs.argtypes = [ptr] * 9 + [i64] + [ptr] * 12 + [i64] * 3 \
        + [ptr] * 2
    lib.dive_pairs.restype = None
    lib.valid_coloring.argtypes = [i64] + [ptr] * 4
    lib.valid_coloring.restype = ctypes.c_int
    lib.parse.argtypes = [ctypes.c_char_p, i64] + [ptr] * 3
    lib.parse.restype = ctypes.c_int
    lib.emit.argtypes = [ptr, i64, ptr, i64, ptr]
    lib.emit.restype = i64
    lib.ascending.argtypes = [ptr, i64, ptr]
    lib.ascending.restype = ctypes.c_int
    return lib


def _ptrs(*arrays):
    """The arrays' addresses, None passing as a NULL pointer."""
    return [None if a is None else a.ctypes.data for a in arrays]


def kernels():
    """The kernels to run and what each array argument passes as: the C
    library and the arrays' addresses, or, where it does not load, the
    Python twins under the C names and the arrays themselves."""
    lib = native_kernel()
    if lib is not None:
        return lib, _ptrs
    # imported here: both modules import this one, and the C path
    # needs neither
    from .cnf import _ascending, _emit, _parse
    from .refine import (_dive_pairs, _refine_kernel, _session_push,
                         _valid_coloring)
    return SimpleNamespace(refine=_refine_kernel, session_push=_session_push,
                           dive_pairs=_dive_pairs,
                           valid_coloring=_valid_coloring, parse=_parse,
                           emit=_emit, ascending=_ascending), \
        lambda *arrays: arrays
