"""The one loader of the five native kernels: the scans ``dfacc``,
``globcc`` and ``stdcc``, the transcripts derive in
``sources/transcripts.py`` and the string hash in
``functions/hashing.py``.

Each kernel is one C source string, compiled once per machine with
``gcc -O2`` into a ``.so`` named by the md5 of its source in the temp
directory, published with an atomic ``os.replace`` (concurrent Ray workers
race benignly) and dlopened.  The library is held here, at module level:
miner objects are shipped to Ray tasks by value, so none of them may own a
ctypes handle.

``NXR_NO_CC=1`` is read on every call, so it switches every kernel off
(the callers then run their Python engines) even after a kernel loaded.
A failed build keeps gcc's stderr in :attr:`Kernel.error`.
:func:`text_buffers` hands a kernel an Arrow string column's buffers.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np
import pyarrow as pa


class Kernel:
    """One C source, its lazily built library and its ctypes signatures:
    ``{symbol: (restype, [argtypes])}``."""

    def __init__(self, name: str, src: str, sigs: dict):
        self.name, self.src, self.sigs = name, src, sigs
        self._lib: ctypes.CDLL | None = None
        self._tried = False
        #: why the last build or load failed (gcc's stderr when it ran)
        self.error: str | None = None

    def lib(self) -> "ctypes.CDLL | None":
        if os.environ.get("NXR_NO_CC"):
            return None
        if not self._tried:
            self._tried = True
            try:
                self._lib = self._build()
            except subprocess.CalledProcessError as e:
                self.error = e.stderr.decode(errors="replace") or str(e)
            except Exception as e:  # no gcc, read-only temp dir, bad .so
                self.error = f"{type(e).__name__}: {e}"
        return self._lib

    def available(self) -> bool:
        return self.lib() is not None

    def columns(self, sym: str, width: int, cap: int, *args) -> tuple[np.ndarray, ...]:
        """Call ``sym(*args, out, cap)``, a kernel that writes up to ``cap``
        records of ``width`` int64 into ``out`` and returns how many it
        found, rerunning once at the exact size when they did not fit.
        Returns the records' ``width`` columns."""
        lib = self.lib()
        if lib is None:
            raise RuntimeError(f"native {self.name} kernel unavailable")
        while True:
            out = np.empty((cap, width), np.int64)
            m = getattr(lib, sym)(*args, out.ctypes.data, cap)
            if m <= cap:
                return tuple(out[:m, j].copy() for j in range(width))
            cap = m  # the truncated pass still counted every record

    def _build(self) -> ctypes.CDLL:
        tag = hashlib.md5(self.src.encode()).hexdigest()[:16]
        so_path = os.path.join(tempfile.gettempdir(), f"nxr_{self.name}_{tag}.so")
        if not os.path.exists(so_path):
            with tempfile.TemporaryDirectory() as td:
                c_path = os.path.join(td, f"{self.name}.c")
                tmp_so = os.path.join(td, f"{self.name}.so")
                with open(c_path, "w") as f:
                    f.write(self.src)
                subprocess.run(
                    ["gcc", "-O2", "-shared", "-fPIC", "-o", tmp_so, c_path],
                    check=True, capture_output=True, timeout=60,
                )
                os.replace(tmp_so, so_path)
        lib = ctypes.CDLL(so_path)
        for sym, (restype, argtypes) in self.sigs.items():
            fn = getattr(lib, sym)
            fn.restype, fn.argtypes = restype, argtypes
        return lib


def text_buffers(text: pa.Array):
    """``(validity bitmap or None, its bit offset, int64 row offsets,
    uint8 data)`` of a ``string`` / ``large_string`` array, read from its
    Arrow buffers without a copy of the data.  Row ``r`` is
    ``data[offsets[r]:offsets[r + 1]]``."""
    width = np.int64 if pa.types.is_large_string(text.type) else np.int32
    bufs = text.buffers()
    n = len(text)
    if n == 0 or bufs[1] is None:
        offs = np.zeros(n + 1, np.int64)
    else:
        offs = np.frombuffer(bufs[1], width)[text.offset:text.offset + n + 1].astype(np.int64)
    data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None else np.zeros(0, np.uint8)
    valid = np.frombuffer(bufs[0], np.uint8) if bufs[0] is not None and text.null_count else None
    return valid, text.offset, offs, data
