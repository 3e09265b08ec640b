"""Sample-and-splat rendering for huge quad batches.

The bent-spot workloads of the paper push ~1.3-1.9 *million* textured
quadrilaterals per texture through each graphics pipe.  A per-quad Python
loop cannot sustain that, so this renderer trades exact coverage for a
simple per-sample deposit:

1. every quad is sampled on an ``s x s`` parametric lattice (bilinear
   patch interpolation of corners and texture coordinates, all quads at
   once);
2. each sample deposits ``intensity * tex(u, v) * area_px / s^2`` into the
   frame buffer with a bilinear (2x2 pixel) footprint.

The per-quad deposit therefore matches the exact rasteriser's total
(``intensity * covered-pixel-area``) while individual pixels receive an
anti-aliased estimate; for the sub-pixel to few-pixel quads of bent-spot
meshes the two renderers agree closely (tested in
``tests/raster/test_splat.py``).  Quads are processed in bounded-memory
chunks.

:func:`rasterize_quads_sampled` runs a C kernel (``_splat.c``, built and
loaded by :mod:`repro.raster._native`) once per draw.  The numpy body,
:func:`_rasterize_sampled_numpy` (deposits via ``np.bincount``), runs
when no compiler is available and is the oracle the kernel is tested
against: the kernel repeats its float operations in the same order, so
both produce the same bytes (``tests/raster/test_splat_native.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import RasterError
from repro.raster._native import splat_kernel
from repro.raster.framebuffer import FrameBuffer
from repro.raster.texture import Texture

#: Default quad-chunk size; keeps peak scratch memory around tens of MB.
_CHUNK = 1 << 18


def splat_points(fb: FrameBuffer, points: np.ndarray, values: np.ndarray) -> int:
    """Deposit *values* at world *points* with a bilinear 2x2 footprint.

    Returns the number of points that landed (at least partially) inside
    the frame buffer.  Conservation: the sum of deposited intensity equals
    the sum of the values of interior points (boundary points lose the
    share that falls off the raster).
    """
    pts = np.asarray(points, dtype=np.float64)
    val = np.asarray(values, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise RasterError(f"points must be (N, 2), got {pts.shape}")
    if val.shape != (pts.shape[0],):
        raise RasterError(f"values must be ({pts.shape[0]},), got {val.shape}")
    if pts.shape[0] == 0:
        return 0

    w, h = fb.width, fb.height
    pp = fb.world_to_pixel(pts)
    # Centre-relative continuous coordinates: pixel (i, j) centre is at
    # (i + 0.5, j + 0.5); fx in [i, i+1) means the point sits between the
    # centres of pixels i and i+1.
    fx = pp[:, 0] - 0.5
    fy = pp[:, 1] - 0.5

    ix0 = np.floor(fx).astype(np.int64)
    iy0 = np.floor(fy).astype(np.int64)
    tx = fx - ix0
    ty = fy - iy0

    landed = np.zeros(pts.shape[0], dtype=bool)
    flat = np.zeros(h * w, dtype=np.float64)
    for dx, dy, wgt in (
        (0, 0, (1 - tx) * (1 - ty)),
        (1, 0, tx * (1 - ty)),
        (0, 1, (1 - tx) * ty),
        (1, 1, tx * ty),
    ):
        ix = ix0 + dx
        iy = iy0 + dy
        ok = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h) & (wgt != 0.0)
        landed |= ok
        if not ok.any():
            continue
        idx = iy[ok] * w + ix[ok]
        flat += np.bincount(idx, weights=val[ok] * wgt[ok], minlength=h * w)
    fb.data += flat.reshape(h, w)
    return int(landed.sum())


def _pixel_areas(fb: FrameBuffer, quads: np.ndarray) -> np.ndarray:
    """Absolute quad areas in pixel units (shoelace), ``(N, 4, 2) -> (N,)``."""
    pv = fb.world_to_pixel(quads.reshape(-1, 2)).reshape(quads.shape)
    x = pv[..., 0]
    y = pv[..., 1]
    xn = np.roll(x, -1, axis=1)
    yn = np.roll(y, -1, axis=1)
    return np.abs(0.5 * np.sum(x * yn - xn * y, axis=1))


#: Largest adaptive sampling lattice per quad edge (64*64 samples max).
_MAX_SAMPLES_PER_EDGE = 64


def _render_bucket(
    fb: FrameBuffer,
    q: np.ndarray,
    t: np.ndarray,
    a: np.ndarray,
    area_px: np.ndarray,
    texture: Optional[Texture],
    s: int,
    chunk: int,
) -> int:
    """Render one same-sampling-density bucket of quads."""
    # Parametric sample lattice, cell-centred: (i + 0.5) / s.
    c = (np.arange(s) + 0.5) / s
    S, T = np.meshgrid(c, c)
    w00 = ((1 - S) * (1 - T)).ravel()  # corner 0 weight, shape (s*s,)
    w10 = (S * (1 - T)).ravel()
    w11 = (S * T).ravel()
    w01 = ((1 - S) * T).ravel()

    # Keep per-chunk sample count bounded regardless of s.
    quads_per_chunk = max(1, chunk // (s * s))
    landed = 0
    for lo in range(0, q.shape[0], quads_per_chunk):
        hi = min(lo + quads_per_chunk, q.shape[0])
        qc = q[lo:hi]
        tc = t[lo:hi]
        n = hi - lo

        # (n, s*s, 2) sample positions and uvs via the bilinear patch map.
        pos = (
            qc[:, None, 0, :] * w00[None, :, None]
            + qc[:, None, 1, :] * w10[None, :, None]
            + qc[:, None, 2, :] * w11[None, :, None]
            + qc[:, None, 3, :] * w01[None, :, None]
        )
        uv = (
            tc[:, None, 0, :] * w00[None, :, None]
            + tc[:, None, 1, :] * w10[None, :, None]
            + tc[:, None, 2, :] * w11[None, :, None]
            + tc[:, None, 3, :] * w01[None, :, None]
        )

        per_sample = a[lo:hi] * area_px[lo:hi] / (s * s)  # (n,)
        if texture is None:
            values = np.broadcast_to(per_sample[:, None], (n, s * s)).ravel()
        else:
            weights = texture.sample(uv[..., 0], uv[..., 1])
            values = (per_sample[:, None] * weights).ravel()

        landed += splat_points(fb, pos.reshape(-1, 2), values)
    return landed


def rasterize_quads_sampled(
    fb: FrameBuffer,
    quads: np.ndarray,
    uvs: np.ndarray,
    intensities: np.ndarray,
    texture: Optional[Texture] = None,
    samples_per_edge: int = 2,
    chunk: int = _CHUNK,
) -> int:
    """Render textured quads by parametric sampling; returns samples landed.

    Sampling density adapts per quad: the lattice is at least
    *samples_per_edge* wide and grows (in power-of-two buckets, capped at
    64) until samples are spaced about one pixel apart along the quad's
    longest edge, so both the sub-pixel quads of bent meshes and the
    tens-of-pixels quads of standard spots are rendered faithfully.

    Parameters
    ----------
    quads, uvs:
        ``(N, 4, 2)`` corner positions / texture coordinates, corner k at
        parametric ``(s, t)`` = (0,0), (1,0), (1,1), (0,1).
    intensities:
        ``(N,)`` spot weights.
    samples_per_edge:
        Minimum lattice resolution.
    chunk:
        Sample budget per internal batch (bounds scratch memory).
    """
    q = np.asarray(quads, dtype=np.float64)
    t = np.asarray(uvs, dtype=np.float64)
    a = np.asarray(intensities, dtype=np.float64)
    if q.ndim != 3 or q.shape[1:] != (4, 2):
        raise RasterError(f"quads must be (N, 4, 2), got {q.shape}")
    if t.shape != q.shape:
        raise RasterError(f"uvs must match quads shape {q.shape}, got {t.shape}")
    if a.shape != (q.shape[0],):
        raise RasterError(f"intensities must be ({q.shape[0]},), got {a.shape}")
    if samples_per_edge < 1:
        raise RasterError(f"samples_per_edge must be >= 1, got {samples_per_edge}")
    if chunk < 1:
        raise RasterError(f"chunk must be >= 1, got {chunk}")
    if q.shape[0] == 0:
        return 0
    kernel = splat_kernel()
    if kernel is not None and kernel.supports(fb, texture, samples_per_edge, chunk):
        return kernel(fb, q, t, a, texture, samples_per_edge, chunk)
    return _rasterize_sampled_numpy(fb, q, t, a, texture, samples_per_edge, chunk)


def _rasterize_sampled_numpy(
    fb: FrameBuffer,
    q: np.ndarray,
    t: np.ndarray,
    a: np.ndarray,
    texture: Optional[Texture],
    samples_per_edge: int,
    chunk: int,
) -> int:
    """The numpy body of :func:`rasterize_quads_sampled` (validated input).

    Runs when the native kernel cannot be built, and is the oracle the
    kernel is tested against byte for byte.
    """
    # Drop non-finite quads outright (corrupted particle positions must
    # degrade gracefully, not poison the whole deposit with NaNs).
    finite = np.isfinite(q).all(axis=(1, 2)) & np.isfinite(a)
    if not finite.all():
        q, t, a = q[finite], t[finite], a[finite]
        if q.shape[0] == 0:
            return 0

    area_px = _pixel_areas(fb, q)

    # Longest edge of each quad in pixels decides its sampling bucket.
    pv = fb.world_to_pixel(q.reshape(-1, 2)).reshape(q.shape)
    edges = np.linalg.norm(np.roll(pv, -1, axis=1) - pv, axis=2)  # (N, 4)
    longest = edges.max(axis=1)
    needed = np.maximum(np.ceil(longest), samples_per_edge)
    needed = np.clip(needed, samples_per_edge, _MAX_SAMPLES_PER_EDGE)
    # Power-of-two buckets keep the number of distinct lattices small.
    buckets = (2 ** np.ceil(np.log2(needed))).astype(np.int64)
    buckets = np.minimum(buckets, _MAX_SAMPLES_PER_EDGE)

    landed = 0
    for s in np.unique(buckets):
        sel = buckets == s
        landed += _render_bucket(
            fb, q[sel], t[sel], a[sel], area_px[sel], texture, int(s), chunk
        )
    return landed
