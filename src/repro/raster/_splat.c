/* Native body of repro.raster.splat.rasterize_quads_sampled.
 *
 * Bit-identical to the numpy body (_rasterize_sampled_numpy) by
 * construction: every float operation below is the one numpy performs,
 * in the same order, so the build must not reassociate or contract
 * (-ffp-contract=off, never -ffast-math).  The orders that matter:
 *
 * - a quad is dropped when any corner coordinate or its intensity is
 *   not finite;
 * - the shoelace area sums its four cross terms left to right;
 * - quads fall into power-of-two buckets of samples per edge, visited in
 *   ascending order, keeping batch order within a bucket;
 * - a bucket is cut into chunks of max(1, chunk / s^2) quads, and each
 *   chunk ends with one fb += flat over the whole raster;
 * - flat sums per-corner partial sums in the order (0,0), (1,0), (0,1),
 *   (1,1); each partial sum adds its deposits in sample order, skipping
 *   out-of-bounds and zero-weight ones (np.bincount's order).
 *
 * Float-to-int64 casts follow x86's cvttsd2si, as numpy's astype does
 * there: NaN and out-of-range values give INT64_MIN.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define MAX_LEVEL 6 /* 64 samples per edge */
#define SKIP 0xFF

static int64_t to_i64(double x)
{
    if (x >= -9223372036854775808.0 && x < 9223372036854775808.0)
        return (int64_t)x;
    return INT64_MIN;
}

static double sample_texture(const double *tex, int64_t w, int64_t h,
                             int64_t filter, double u, double v)
{
    if (filter == 1) { /* nearest */
        int64_t ix = to_i64(u * (double)w), iy = to_i64(v * (double)h);
        ix = ix < 0 ? 0 : (ix > w - 1 ? w - 1 : ix);
        iy = iy < 0 ? 0 : (iy > h - 1 ? h - 1 : iy);
        return tex[iy * w + ix];
    }
    /* bilinear, clamp-to-edge; comparisons keep NaN like np.minimum/maximum */
    double fx = u * (double)w - 0.5, fy = v * (double)h - 0.5;
    fx = fx < 0.0 ? 0.0 : fx;
    fx = fx > (double)w - 1.0 ? (double)w - 1.0 : fx;
    fy = fy < 0.0 ? 0.0 : fy;
    fy = fy > (double)h - 1.0 ? (double)h - 1.0 : fy;
    int64_t ix0 = to_i64(fx), iy0 = to_i64(fy);
    ix0 = ix0 < 0 ? 0 : ix0;
    iy0 = iy0 < 0 ? 0 : iy0;
    ix0 = w > 1 ? (ix0 < w - 2 ? ix0 : w - 2) : 0;
    iy0 = h > 1 ? (iy0 < h - 2 ? iy0 : h - 2) : 0;
    double tx = fx - (double)ix0, ty = fy - (double)iy0;
    int64_t ix1 = ix0 + 1 < w - 1 ? ix0 + 1 : w - 1;
    int64_t iy1 = iy0 + 1 < h - 1 ? iy0 + 1 : h - 1;
    double v00 = tex[iy0 * w + ix0], v01 = tex[iy0 * w + ix1];
    double v10 = tex[iy1 * w + ix0], v11 = tex[iy1 * w + ix1];
    return (v00 * (1 - tx) + v01 * tx) * (1 - ty) + (v10 * (1 - tx) + v11 * tx) * ty;
}

/* fb += flat, flat[p] = sum of the four corner partial sums; re-zeroes acc. */
static void flush(double *fb, double *acc, int64_t npix)
{
    for (int64_t p = 0; p < npix; p++) {
        double *c = acc + 4 * p;
        fb[p] += ((c[0] + c[1]) + c[2]) + c[3];
        c[0] = c[1] = c[2] = c[3] = 0.0;
    }
}

/* Render n quads ((n, 4, 2) corners and uvs, (n,) intensities) into the
 * (height, width) raster fb over window (x0, x1, y0, y1).  filter: 0 no
 * texture, 1 nearest, 2 bilinear.  Scratch: area[n], level[n] and
 * acc[4 * width * height].  Returns the number of samples landed. */
int64_t splat_quads(const double *quads, const double *uvs, const double *intensity,
                    int64_t n, const double *tex, int64_t tex_w, int64_t tex_h,
                    int64_t filter, double *fb, int64_t width, int64_t height,
                    const double *window, int64_t samples_per_edge, int64_t chunk,
                    double *area, uint8_t *level, double *acc)
{
    const double x0 = window[0], sx = window[1] - window[0];
    const double y0 = window[2], sy = window[3] - window[2];
    const double W = (double)width, H = (double)height;
    const int64_t npix = width * height;
    int64_t count[MAX_LEVEL + 1] = {0};

    /* Pass 1: finite filter, pixel-space area and sampling bucket. */
    for (int64_t i = 0; i < n; i++) {
        const double *q = quads + 8 * i;
        int finite = isfinite(intensity[i]);
        for (int k = 0; k < 8; k++)
            finite = finite && isfinite(q[k]);
        level[i] = SKIP;
        if (!finite)
            continue;
        double px[4], py[4], sum = 0.0, longest = 0.0;
        for (int k = 0; k < 4; k++) {
            px[k] = (q[2 * k] - x0) / sx * W;
            py[k] = (q[2 * k + 1] - y0) / sy * H;
        }
        for (int k = 0; k < 4; k++) {
            int k1 = (k + 1) & 3;
            double dx = px[k1] - px[k], dy = py[k1] - py[k];
            double len = sqrt(dx * dx + dy * dy);
            sum += px[k] * py[k1] - px[k1] * py[k];
            longest = (len > longest || isnan(len)) ? len : longest; /* NaN sticks, as in np.max */
        }
        area[i] = fabs(0.5 * sum);
        if (isnan(longest))
            continue; /* numpy renders no samples for such a quad */
        double needed = ceil(longest);
        needed = needed < (double)samples_per_edge ? (double)samples_per_edge : needed;
        needed = needed > 64.0 ? 64.0 : needed;
        int lv = 0;
        while ((double)(1 << lv) < needed)
            lv++;
        level[i] = (uint8_t)lv;
        count[lv]++;
    }

    memset(acc, 0, (size_t)(4 * npix) * sizeof(double));
    int64_t landed = 0;
    for (int lv = 0; lv <= MAX_LEVEL; lv++) {
        if (count[lv] == 0)
            continue;
        const int64_t s = (int64_t)1 << lv, ss = s * s;
        const int64_t per_chunk = chunk / ss > 1 ? chunk / ss : 1;
        double c[64], om[64]; /* lattice (j + 0.5) / s and 1 - c */
        for (int64_t j = 0; j < s; j++) {
            c[j] = ((double)j + 0.5) / (double)s;
            om[j] = 1 - c[j];
        }
        int64_t in_chunk = 0;
        for (int64_t i = 0; i < n; i++) {
            if (level[i] != lv)
                continue;
            const double *q = quads + 8 * i, *t = uvs + 8 * i;
            const double per_sample = intensity[i] * area[i] / (double)ss;
            for (int64_t r = 0; r < s; r++) {
                for (int64_t j = 0; j < s; j++) {
                    const double w00 = om[j] * om[r], w10 = c[j] * om[r];
                    const double w11 = c[j] * c[r], w01 = om[j] * c[r];
                    const double x = q[0] * w00 + q[2] * w10 + q[4] * w11 + q[6] * w01;
                    const double y = q[1] * w00 + q[3] * w10 + q[5] * w11 + q[7] * w01;
                    double val = per_sample;
                    if (filter != 0) {
                        const double u = t[0] * w00 + t[2] * w10 + t[4] * w11 + t[6] * w01;
                        const double v = t[1] * w00 + t[3] * w10 + t[5] * w11 + t[7] * w01;
                        val = per_sample * sample_texture(tex, tex_w, tex_h, filter, u, v);
                    }
                    const double fx = (x - x0) / sx * W - 0.5;
                    const double fy = (y - y0) / sy * H - 0.5;
                    const int64_t ix0 = to_i64(floor(fx)), iy0 = to_i64(floor(fy));
                    const double tx = fx - (double)ix0, ty = fy - (double)iy0;
                    const double wgt[4] = {(1 - tx) * (1 - ty), tx * (1 - ty),
                                           (1 - tx) * ty, tx * ty};
                    int hit = 0;
                    for (int k = 0; k < 4; k++) {
                        const int64_t ix = ix0 + (k & 1), iy = iy0 + (k >> 1);
                        if (ix < 0 || ix >= width || iy < 0 || iy >= height || wgt[k] == 0.0)
                            continue;
                        acc[4 * (iy * width + ix) + k] += val * wgt[k];
                        hit = 1;
                    }
                    landed += hit;
                }
            }
            if (++in_chunk == per_chunk) {
                flush(fb, acc, npix);
                in_chunk = 0;
            }
        }
        if (in_chunk > 0)
            flush(fb, acc, npix);
    }
    return landed;
}
