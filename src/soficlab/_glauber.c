/* Compiled kernels, loaded by soficlab.kernels through ctypes from one library:
 * the heat-bath sweep, the transfer oracle's nearest-pin lookup, and the same
 * lookup over percolation pasts that it draws itself.
 *
 * glauber_sweeps must stay arithmetic-identical to _glauber_py.glauber_sweeps:
 * same loop structure, same order of multiplications and additions, one
 * uniform consumed per site update, so both kernels give bitwise-equal
 * trajectories from the same inputs.  Build without FMA contraction
 * (-ffp-contract=off) and without -ffast-math, or the rounding differs from
 * Python's.
 *
 * Sweep array layouts (C order): x[n] int8, nbr_out/nbr_in[n_gen][n] int64,
 * wh[a] double, wj[n_gen][a][a] double, allowed[n_gen][a][a] uint8,
 * uniforms[sweeps * n] double, counts[sweeps] int64 or NULL.  The caller
 * checks dtypes, shapes, the uniform and count lengths and safe in [0, a);
 * this file checks every index it reads through.  When counts is not NULL,
 * counts[t] is the number of sites v with x[v] != safe after sweep t.
 *
 * transfer_lookup and percolation_lookup do no arithmetic: each reads one
 * table entry per row through lookup_row, the entry _glauber_py.transfer_lookup
 * reads.  percolation_lookup compares uniforms only; it draws them through
 * numpy's bitgen_t, one next_double per call, in the order of
 * Generator.random((n, ball_size)).
 */

#include <stdint.h>

#define KERNEL_OK 0
#define GLAUBER_BAD_ALPHABET 1
#define GLAUBER_BAD_NEIGHBOUR 2
#define GLAUBER_BAD_SYMBOL 3
#define LOOKUP_BAD_COLUMN 4
#define LOOKUP_BAD_SYMBOL 5

int glauber_sweeps(int8_t *x, const int64_t *nbr_out, const int64_t *nbr_in,
                   const double *wh, const double *wj, const uint8_t *allowed,
                   const double *uniforms, int64_t sweeps,
                   int64_t n, int64_t n_gen, int64_t a,
                   int64_t *counts, int64_t safe)
{
    double weights[64];
    int64_t t, v, s, c, i, o, xo, xi, pick, nonsafe, base = 0;
    double w, total, thr, cum;

    if (a > 64)
        return GLAUBER_BAD_ALPHABET;
    for (i = 0; i < n_gen * n; i++)
        if (nbr_out[i] < 0 || nbr_out[i] >= n || nbr_in[i] < 0 || nbr_in[i] >= n)
            return GLAUBER_BAD_NEIGHBOUR;
    for (v = 0; v < n; v++)
        if (x[v] < 0 || x[v] >= a)
            return GLAUBER_BAD_SYMBOL;

    for (t = 0; t < sweeps; t++) {
        for (v = 0; v < n; v++) {
            total = 0.0;
            for (c = 0; c < a; c++) {
                w = wh[c];
                for (s = 0; s < n_gen; s++) {
                    o = nbr_out[s * n + v];
                    if (o == v) {
                        w = w * wj[(s * a + c) * a + c];
                    } else {
                        xo = x[o];
                        if (!allowed[(s * a + c) * a + xo]) {
                            w = 0.0;
                            break;
                        }
                        w = w * wj[(s * a + c) * a + xo];
                        xi = x[nbr_in[s * n + v]];
                        if (!allowed[(s * a + xi) * a + c]) {
                            w = 0.0;
                            break;
                        }
                        w = w * wj[(s * a + xi) * a + c];
                    }
                }
                weights[c] = w;
                total = total + w;
            }
            if (total > 0.0) {
                thr = uniforms[base] * total;
                pick = a - 1;
                cum = 0.0;
                for (c = 0; c < a; c++) {
                    cum = cum + weights[c];
                    if (thr < cum) {
                        pick = c;
                        break;
                    }
                }
                x[v] = (int8_t)pick;
            }
            base++;
        }
        if (counts) {
            nonsafe = 0;
            for (v = 0; v < n; v++)
                nonsafe += x[v] != safe;
            counts[t] = nonsafe;
        }
    }
    return KERNEL_OK;
}

/* numpy's bitgen_t (numpy/random/bitgen.h), the C interface of every
 * numpy BitGenerator: Generator.random fills its output with
 * next_double(state), one call per entry in C order. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

static int sides_ok(const int64_t *sides, int64_t r_max)
{
    int64_t k;

    for (k = 0; k < 2 * r_max; k++)
        if (sides[k] < 0)
            return 0;
    return 1;
}

/* *out = tables[v0][dl][bl][dr][br] for one row of width columns (row
 * int64, mask one byte per column), column 0 the center v0.  sides[s][k]
 * (two sides of r_max, each checked non-negative by the caller) is the
 * column of the site at distance k+1 on side s, 0 left and 1 right;
 * columns at or past the width are not in the row.  On each side the first
 * pinned column in that order is the nearest pin: dl/dr is its distance and
 * bl/br its symbol, or both 0 when the side has no pin.  tables is
 * C-ordered [a][r_max+1][a][r_max+1][a] double.  On a symbol outside
 * [0, a), center first, then the left pin, then the right, *bad is set to
 * that symbol.
 */
static int lookup_row(const int64_t *row, const uint8_t *mask, int64_t width,
                      const int64_t *sides, int64_t r_max,
                      const double *tables, int64_t a,
                      double *out, int64_t *bad)
{
    int64_t s, k, col, d[2], b[2], v0;

    for (s = 0; s < 2; s++) {
        d[s] = 0;
        b[s] = 0;
        for (k = 0; k < r_max; k++) {
            col = sides[s * r_max + k];
            if (col < width && mask[col]) {
                d[s] = k + 1;
                b[s] = row[col];
                break;
            }
        }
    }
    v0 = row[0];
    if (v0 < 0 || v0 >= a) {
        *bad = v0;
        return LOOKUP_BAD_SYMBOL;
    }
    for (s = 0; s < 2; s++)
        if (b[s] < 0 || b[s] >= a) {
            *bad = b[s];
            return LOOKUP_BAD_SYMBOL;
        }
    *out = tables[(((v0 * (r_max + 1) + d[0]) * a + b[0]) * (r_max + 1) + d[1]) * a + b[1]];
    return KERNEL_OK;
}

/* out[i] = lookup_row of row i of values and masks, for n rows.
 *
 * Row i of values (int64) starts values_stride elements after row i-1, and
 * row i of masks (bool, one byte) masks_stride bytes after; each row holds
 * width contiguous columns, width >= 1.  The caller checks dtypes and
 * shapes; this function checks every column and symbol it reads through,
 * and stops at the first row with a symbol outside [0, a).
 */
int transfer_lookup(const int64_t *values, int64_t values_stride,
                    const uint8_t *masks, int64_t masks_stride,
                    int64_t n, int64_t width,
                    const int64_t *sides, int64_t r_max,
                    const double *tables, int64_t a,
                    double *out, int64_t *bad)
{
    int64_t i;
    int status;

    if (!sides_ok(sides, r_max))
        return LOOKUP_BAD_COLUMN;
    for (i = 0; i < n; i++) {
        status = lookup_row(values + i * values_stride, masks + i * masks_stride, width,
                            sides, r_max, tables, a, out + i, bad);
        if (status)
            return status;
    }
    return KERNEL_OK;
}

/* out[i] = lookup_row of patterns[(lo + i) / n_inner] under the i-th of n
 * percolation pasts drawn from bitgen, for n rows.
 *
 * A past is ball_size uniforms chi, drawn in column order; column c of the
 * mask is chi[c] < chi[0] for 1 <= c < width and column 0 is unpinned, so n
 * pasts consume the n * ball_size doubles of Generator.random((n,
 * ball_size)) and the masks are those of pasts.sample_percolation_masks cut
 * to the width.  Row j of patterns (int64) starts patterns_stride elements
 * after row j-1 and holds width contiguous columns, 1 <= width <= ball_size.
 * mask is a caller-owned workspace of width bytes.  The caller checks dtypes,
 * shapes, n_inner >= 1, lo >= 0 and that every row read is a row of
 * patterns; errors are those of transfer_lookup.
 */
int percolation_lookup(const int64_t *patterns, int64_t patterns_stride,
                       int64_t width, int64_t n_inner, int64_t lo, int64_t n,
                       int64_t ball_size, const int64_t *sides, int64_t r_max,
                       const double *tables, int64_t a, bitgen_t *bitgen,
                       uint8_t *mask, double *out, int64_t *bad)
{
    int64_t i, c;
    double chi0;
    int status;

    if (!sides_ok(sides, r_max))
        return LOOKUP_BAD_COLUMN;
    mask[0] = 0;
    for (i = 0; i < n; i++) {
        chi0 = bitgen->next_double(bitgen->state);
        for (c = 1; c < width; c++)
            mask[c] = bitgen->next_double(bitgen->state) < chi0;
        for (; c < ball_size; c++)
            bitgen->next_double(bitgen->state);
        status = lookup_row(patterns + (lo + i) / n_inner * patterns_stride, mask, width,
                            sides, r_max, tables, a, out + i, bad);
        if (status)
            return status;
    }
    return KERNEL_OK;
}
