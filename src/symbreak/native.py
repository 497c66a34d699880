"""The compiled kernel library: `native.c`, built with `cc` on first use
and loaded with ctypes.

It holds the kernels that `refine` runs: the refinement `refine`, the
session probe `session_push` (rollback, split and journaled refinement
in one call) and the remainder's dive loop `dive_pairs` with its port
of CPython's MT19937 generator.  It also holds the DIMACS reader and
writer and the canonical-clause check `ascending` that `cnf` runs.
Each has a Python counterpart (for `refine`, `session_push`,
`dive_pairs` and `valid_coloring`, the twins in `refine` that take the
same parameters, `_dive_pairs` drawing from a `random.Random`; for
`ascending`, the sort it skips), which is the reference the tests
compare it against and the fallback where no compiler is found.  This
module imports nothing else of symbreak, so `cnf` and `refine` can both
import it.
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

_KERNEL_SRC = Path(__file__).with_name("native.c")
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
    dives and DIMACS I/O run their Python kernels."""
    try:
        lib = ctypes.CDLL(str(_compiled_kernel()))
    except (OSError, subprocess.SubprocessError) as exc:
        stderr = getattr(exc, "stderr", None) or b""
        reason = " ".join(filter(None, [
            str(exc), stderr.decode(errors="replace").strip()[-300:]]))
        warnings.warn(f"symbreak: cannot build the C kernels ({reason}); "
                      f"using the much slower Python kernel for refinement, "
                      f"remainder dives and DIMACS I/O",
                      RuntimeWarning, stacklevel=2)
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
