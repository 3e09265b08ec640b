"""Loader for the native sample-and-splat kernel (``_splat.c``).

On first use the C source is compiled with the system ``cc`` into a
per-user cache directory (``~/.cache/repro``), under a file name keyed by
a hash of the source, the compiler flags and the compiler binary, so an
edited source or an upgraded compiler builds afresh and every later
process just loads the cached library.  The build writes a temp file
next to its destination and lands it with ``os.replace``, so processes
building concurrently never load a partial library.

Without a working compiler the loader warns once and returns ``None``;
:func:`repro.raster.splat.rasterize_quads_sampled` then runs its numpy
body, which produces the same bytes.  ``ctypes`` releases the GIL for the
duration of each call, so render threads draw in parallel.
"""

from __future__ import annotations

import ctypes
import hashlib
import numbers
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from repro.raster.framebuffer import FrameBuffer
from repro.raster.texture import Texture

_SOURCE = Path(__file__).with_name("_splat.c")
#: Exact IEEE arithmetic in source order: no FMA contraction, no
#: fast-math, no host-specific instruction selection.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_COMPILER = "cc"
_FILTERS = {None: 0, "nearest": 1, "bilinear": 2}

_p = ctypes.c_void_p
_i = ctypes.c_int64
_ARGTYPES = [_p, _p, _p, _i, _p, _i, _i, _i, _p, _i, _i, _p, _i, _i, _p, _p, _p]


def cache_dir() -> Path:
    """Directory holding the built kernels."""
    return Path.home() / ".cache" / "repro"


def _compiler() -> Optional[str]:
    return shutil.which(_COMPILER)


def build(directory: Path) -> Path:
    """Compile the kernel into *directory* unless already there; return its path.

    Raises :class:`OSError` (no compiler, unwritable directory) or
    :class:`subprocess.CalledProcessError` (the compile failed).
    """
    cc = _compiler()
    if cc is None:
        raise FileNotFoundError(f"no C compiler named {_COMPILER!r} on PATH")
    cc = os.path.realpath(cc)
    st = os.stat(cc)
    source = _SOURCE.read_bytes()
    compiler_id = f"{cc}:{st.st_size}:{st.st_mtime_ns}".encode()
    key = hashlib.sha256(
        b"\0".join([source, " ".join(_FLAGS).encode(), compiler_id])
    ).hexdigest()[:20]
    target = directory / f"splat-{key}.so"
    if target.exists():
        return target
    directory.mkdir(parents=True, exist_ok=True, mode=0o700)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".splat-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


class SplatKernel:
    """The loaded library plus per-thread scratch reused across draws."""

    def __init__(self, path: Path):
        self.path = path
        self._fn = ctypes.CDLL(str(path)).splat_quads
        self._fn.argtypes = _ARGTYPES
        self._fn.restype = ctypes.c_int64
        self._local = threading.local()

    @staticmethod
    def supports(
        fb: FrameBuffer, texture: Optional[Texture], samples_per_edge, chunk
    ) -> bool:
        """True when the raster, texture and sizes have the layout and
        types the C code assumes (the numpy body takes the rest)."""
        data = fb.data
        if not (
            isinstance(samples_per_edge, numbers.Integral)
            and isinstance(chunk, numbers.Integral)
            and data.dtype == np.float64
            and data.shape == (fb.height, fb.width)
            and data.flags.c_contiguous
            and data.flags.writeable
        ):
            return False
        return texture is None or (
            isinstance(texture, Texture) and texture.filter in ("nearest", "bilinear")
        )

    def _scratch(self, name: str, size: int, dtype) -> np.ndarray:
        buf = getattr(self._local, name, None)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=dtype)
            setattr(self._local, name, buf)
        return buf

    def __call__(
        self,
        fb: FrameBuffer,
        q: np.ndarray,
        t: np.ndarray,
        a: np.ndarray,
        texture: Optional[Texture],
        samples_per_edge: int,
        chunk: int,
    ) -> int:
        """Render validated ``(N, 4, 2)`` quads/uvs and ``(N,)`` intensities."""
        q = np.ascontiguousarray(q, dtype=np.float64)
        t = np.ascontiguousarray(t, dtype=np.float64)
        a = np.ascontiguousarray(a, dtype=np.float64)
        n = q.shape[0]
        if texture is None:
            tex = np.zeros((1, 1))
        else:
            tex = np.ascontiguousarray(texture.data, dtype=np.float64)
        window = np.array(fb.window, dtype=np.float64)
        area = self._scratch("area", n, np.float64)
        level = self._scratch("level", n, np.uint8)
        acc = self._scratch("acc", 4 * fb.width * fb.height, np.float64)
        return int(self._fn(
            q.ctypes.data, t.ctypes.data, a.ctypes.data, n,
            tex.ctypes.data, tex.shape[1], tex.shape[0],
            _FILTERS[None if texture is None else texture.filter],
            fb.data.ctypes.data, fb.width, fb.height, window.ctypes.data,
            # Both clamps leave the result unchanged: lattices cap at 64
            # per edge, and one chunk never holds more samples than this.
            int(min(samples_per_edge, 64)), int(min(chunk, 1 << 62)),
            area.ctypes.data, level.ctypes.data, acc.ctypes.data,
        ))


_lock = threading.Lock()
_kernel: Optional[SplatKernel] = None
_tried = False


def splat_kernel() -> Optional[SplatKernel]:
    """The process's native kernel, built/loaded on first call; ``None``
    (after one :class:`RuntimeWarning`) when it cannot be built."""
    global _kernel, _tried
    if _tried:
        return _kernel
    with _lock:
        if not _tried:
            try:
                _kernel = SplatKernel(build(cache_dir()))
            except (OSError, subprocess.SubprocessError) as exc:
                stderr = getattr(exc, "stderr", None)
                detail = stderr.decode(errors="replace").strip() if stderr else exc
                warnings.warn(
                    f"native splat kernel unavailable, using the numpy renderer: {detail}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            _tried = True
    return _kernel
