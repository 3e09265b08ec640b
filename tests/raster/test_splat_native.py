"""The native splat kernel against its numpy oracle, byte for byte.

Every case renders the same draw twice, once through the C kernel and
once through the numpy body of ``rasterize_quads_sampled``, and demands
identical frame-buffer bytes and identical landed-sample counts.  The
cases pin the float-operation orders the kernel must repeat (see
``_splat.c``): the finite filter, the left-to-right shoelace sum, the
ascending power-of-two buckets, the chunk boundaries with one
``fb += flat`` each, and the per-corner partial sums.
"""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest

from repro.raster import _native
from repro.raster.framebuffer import FrameBuffer
from repro.raster.splat import _rasterize_sampled_numpy, rasterize_quads_sampled
from repro.raster.texture import Texture

WIN = (-0.25, 1.25, -0.5, 1.0)
FILTERS = [None, "nearest", "bilinear"]


@pytest.fixture(scope="module")
def kernel():
    k = _native.splat_kernel()
    if k is None:
        pytest.skip("no C compiler: the numpy fallback is covered below")
    return k


def random_draw(seed, n=40, spread=0.3):
    """Quads of mixed sizes (sub-pixel to the 64-sample cap) around the window."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-0.4, 1.4, (n, 1, 2))
    scale = 10.0 ** rng.uniform(-3.0, np.log10(spread), (n, 1, 1))
    quads = centres + rng.normal(size=(n, 4, 2)) * scale
    uvs = rng.uniform(-0.2, 1.2, (n, 4, 2))
    return quads, uvs, rng.normal(size=n)


def make_texture(filter, seed=0, shape=(5, 7)):
    if filter is None:
        return None
    return Texture(np.random.default_rng(seed).random(shape), filter)


def assert_same(kernel, width, height, quads, uvs, a, texture=None,
                samples_per_edge=2, chunk=1 << 18, prefill=None, window=WIN):
    native = FrameBuffer(width, height, window)
    oracle = FrameBuffer(width, height, window)
    if prefill is not None:
        native.data[...] = prefill
        oracle.data[...] = prefill
    n_native = kernel(native, quads, uvs, a, texture, samples_per_edge, chunk)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's NaN->int casts
        n_oracle = _rasterize_sampled_numpy(
            oracle, quads, uvs, a, texture, samples_per_edge, chunk
        )
    assert n_native == n_oracle
    assert native.data.tobytes() == oracle.data.tobytes()
    return n_native


@pytest.mark.parametrize("filter", FILTERS)
@pytest.mark.parametrize("samples_per_edge", [1, 2, 3])
@pytest.mark.parametrize("chunk", [7, 64, 1 << 18])
def test_random_quads(kernel, filter, samples_per_edge, chunk):
    for seed in range(3):
        quads, uvs, a = random_draw(seed)
        landed = assert_same(kernel, 37, 29, quads, uvs, a, make_texture(filter, seed),
                             samples_per_edge, chunk)
        assert landed > 0


@pytest.mark.parametrize("filter", FILTERS)
def test_lattice_aligned_vertices(kernel, filter):
    # Corners on pixel edges and pixel centres give exact-integer sample
    # offsets, so zero-weight footprint corners must be skipped alike.
    rng = np.random.default_rng(4)
    w, h = 16, 12
    px = rng.integers(-2, w + 2, (30, 4)) + rng.choice([0.0, 0.5], (30, 4))
    py = rng.integers(-2, h + 2, (30, 4)) + rng.choice([0.0, 0.5], (30, 4))
    quads = np.stack([px / w, py / h], axis=-1)
    uvs = rng.uniform(0.0, 1.0, (30, 4, 2))
    assert_same(kernel, w, h, quads, uvs, rng.normal(size=30), make_texture(filter),
                window=(0.0, 1.0, 0.0, 1.0))


def test_zero_weight_corners_deposit_nothing(kernel):
    # One-pixel squares centred on pixel centres, in and one ring
    # outside a 6x6 raster: every sample has tx = ty = 0, so only its
    # (0,0) corner carries weight.  Samples centred outside the raster
    # must neither land nor deposit their NaN texture values inside it.
    w = 6
    centres = np.array([(i + 0.5, j + 0.5) for i in range(-1, w + 1) for j in range(-1, w + 1)])
    square = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    quads = (centres[:, None, :] + square[None]) / w
    uvs = np.broadcast_to(square + 0.5, quads.shape).copy()
    outside = (centres < 0).any(axis=1) | (centres > w).any(axis=1)
    uvs[outside] = np.nan
    landed = assert_same(kernel, w, w, quads, uvs, np.ones(len(quads)),
                         make_texture("bilinear"), samples_per_edge=1,
                         window=(0.0, 1.0, 0.0, 1.0))
    assert landed == w * w


@pytest.mark.parametrize("filter", FILTERS)
def test_non_finite_quads_and_intensities_are_dropped(kernel, filter):
    quads, uvs, a = random_draw(5)
    quads[3, 2, 0] = np.nan
    quads[7, 0, 1] = np.inf
    a[11] = np.nan
    a[12] = -np.inf
    uvs[20, 1, 0] = np.nan  # uvs are not filtered: the sample is NaN
    assert_same(kernel, 23, 17, quads, uvs, a, make_texture(filter))
    all_bad = np.full((4, 4, 2), np.nan)
    assert_same(kernel, 8, 8, all_bad, uvs[:4], a[:4], make_texture(filter))


@pytest.mark.parametrize("size", [(1, 1), (1, 9), (7, 1), (13, 5)])
@pytest.mark.parametrize("filter", FILTERS)
def test_tiny_and_odd_frame_buffers(kernel, size, filter):
    quads, uvs, a = random_draw(6, n=25, spread=1.0)
    assert_same(kernel, *size, quads, uvs, a, make_texture(filter))


@pytest.mark.parametrize("tex_shape", [(1, 1), (1, 6), (6, 1), (3, 3)])
@pytest.mark.parametrize("filter", ["nearest", "bilinear"])
def test_small_textures(kernel, tex_shape, filter):
    quads, uvs, a = random_draw(7)
    assert_same(kernel, 31, 31, quads, uvs, a, make_texture(filter, 3, tex_shape))


@pytest.mark.parametrize("chunk", [7, 64, 1 << 18])
def test_prefilled_buffer(kernel, chunk):
    # A chunk adds its flat sum to every pixel, even where nothing
    # landed: -0.0 becomes +0.0 and NaN stays NaN in both paths.
    rng = np.random.default_rng(8)
    prefill = rng.normal(size=(19, 21))
    prefill[0, :5] = -0.0
    prefill[3, 3] = np.nan
    quads, uvs, a = random_draw(8)
    assert_same(kernel, 21, 19, quads, uvs, a, make_texture("bilinear"),
                chunk=chunk, prefill=prefill)


def test_every_bucket_up_to_the_cap(kernel):
    # Squares from 0.5 to ~200 pixels per edge fill every bucket 1..64.
    sides = np.geomspace(0.5, 200.0, 24) / 64
    centres = np.random.default_rng(9).uniform(0.0, 1.0, (24, 2))
    corners = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]]) * 0.5
    quads = centres[:, None, :] + corners[None] * sides[:, None, None]
    uvs = np.broadcast_to(corners + 0.5, quads.shape).copy()
    a = np.linspace(-1.0, 1.0, 24)
    for chunk in (7, 64, 1 << 18):
        assert_same(kernel, 64, 64, quads, uvs, a, make_texture("bilinear"),
                    samples_per_edge=1, chunk=chunk, window=(0.0, 1.0, 0.0, 1.0))


def test_public_entry_point_uses_the_kernel(kernel, monkeypatch):
    calls = []
    real = _native.SplatKernel.__call__

    def spy(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(_native.SplatKernel, "__call__", spy)
    quads, uvs, a = random_draw(10)
    fb = FrameBuffer(24, 24, WIN)
    oracle = FrameBuffer(24, 24, WIN)
    tex = make_texture("bilinear")
    n = rasterize_quads_sampled(fb, quads, uvs, a, tex, samples_per_edge=3, chunk=64)
    assert len(calls) == 1
    assert n == _rasterize_sampled_numpy(oracle, quads, uvs, a, tex, 3, 64)
    assert fb.data.tobytes() == oracle.data.tobytes()


def test_threads_share_no_scratch(kernel):
    """Draws on more threads than cores (ctypes releases the GIL) each
    equal their serial render."""
    draws = [random_draw(20 + i, n=200, spread=0.1) for i in range(6)]
    tex = make_texture("bilinear")
    expected = []
    for quads, uvs, a in draws:
        fb = FrameBuffer(48 + len(expected), 40, WIN)
        kernel(fb, quads, uvs, a, tex, 2, 64)
        expected.append(fb.data.tobytes())
    results = [None] * len(draws)

    def work(i):
        for _ in range(5):
            fb = FrameBuffer(48 + i, 40, WIN)
            kernel(fb, *draws[i], tex, 2, 64)
            if fb.data.tobytes() != expected[i]:
                results[i] = "mismatch"
                return
        results[i] = "ok"

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(draws))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert results == ["ok"] * len(draws)


def test_build_is_cached_and_lands_atomically(tmp_path):
    if _native._compiler() is None:
        pytest.skip("no C compiler")
    path = _native.build(tmp_path)
    stamp = path.stat().st_mtime_ns
    assert _native.build(tmp_path) == path
    assert path.stat().st_mtime_ns == stamp  # loaded from the cache, not rebuilt
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp left over
    assert _native.SplatKernel(path).path == path


def test_missing_compiler_falls_back_to_identical_bytes(monkeypatch, tmp_path):
    quads, uvs, a = random_draw(11)
    tex = make_texture("nearest")
    reference = FrameBuffer(30, 30, WIN)
    n_ref = rasterize_quads_sampled(reference, quads, uvs, a, tex)

    monkeypatch.setattr(_native, "_COMPILER", "repro-no-such-cc")
    monkeypatch.setattr(_native, "cache_dir", lambda: tmp_path)
    monkeypatch.setattr(_native, "_kernel", None)
    monkeypatch.setattr(_native, "_tried", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):
            fb = FrameBuffer(30, 30, WIN)
            assert rasterize_quads_sampled(fb, quads, uvs, a, tex) == n_ref
            assert fb.data.tobytes() == reference.data.tobytes()
    native_warnings = [w for w in caught if "native splat kernel" in str(w.message)]
    assert len(native_warnings) == 1
    assert issubclass(native_warnings[0].category, RuntimeWarning)
    assert _native.splat_kernel() is None
    assert list(tmp_path.iterdir()) == []
