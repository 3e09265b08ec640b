"""Software scan conversion and blending.

This package stands in for the rasterisation stage of the InfiniteReality
pipes: textured quads go in, blended intensity rasters come out.  Three
rendering strategies are provided:

* :func:`rasterize_quads_exact` — per-quad scanline coverage with
  barycentric texture interpolation; exact, the reference oracle;
* :func:`rasterize_quads_batched` — the same scanline rasterisation,
  bit-identical pixels, but fully vectorised over the quad batch; the
  default implementation of the exact render mode
  (``SpotNoiseConfig.raster_backend``);
* :func:`rasterize_quads_sampled` — a sample-and-splat renderer that
  trades exact coverage for anti-aliased speed on the paper's ~1.3-1.9
  million bent-spot quadrilaterals per texture; the default render mode.
  Its body is a C kernel (``_splat.c``, built by the system ``cc`` on
  first use and loaded through :mod:`repro.raster._native`), with a
  numpy body producing the same bytes as fallback and test oracle.

All accumulate into a :class:`FrameBuffer` using the additive blend that
defines spot noise (``f(x) = sum a_i h(x - x_i)``).
"""

from repro.raster.framebuffer import FrameBuffer
from repro.raster.texture import Texture
from repro.raster.batched import rasterize_quads_batched
from repro.raster.rasterize import rasterize_quads_exact, rasterize_triangle
from repro.raster.splat import rasterize_quads_sampled, splat_points
from repro.raster.blend import blend_add, blend_over, blend_max, BLEND_MODES
from repro.raster.clip import clip_quads_to_rect, quad_bboxes

__all__ = [
    "FrameBuffer",
    "Texture",
    "rasterize_quads_batched",
    "rasterize_quads_exact",
    "rasterize_triangle",
    "rasterize_quads_sampled",
    "splat_points",
    "blend_add",
    "blend_over",
    "blend_max",
    "BLEND_MODES",
    "clip_quads_to_rect",
    "quad_bboxes",
]
