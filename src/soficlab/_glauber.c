/* Compiled kernels, loaded by soficlab.kernels through ctypes from one library:
 * the heat-bath sweep and the transfer oracle's nearest-pin lookup.
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
 * transfer_lookup does no arithmetic: it reads one table entry per row, the
 * entry _glauber_py.transfer_lookup reads.
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

/* out[i] = tables[v0][dl][bl][dr][br] for each row i of values and masks.
 *
 * Row i of values (int64) starts values_stride elements after row i-1, and
 * row i of masks (bool, one byte) masks_stride bytes after; each row holds
 * width contiguous columns, column 0 the center v0 and width >= 1.
 * sides[s][k] (int64, two sides of r_max) is the column of the site at
 * distance k+1 on side s, 0 left and 1 right; columns at or past the width
 * are not in the row.  On each side the first pinned column in that order
 * is the nearest pin: dl/dr is its distance and bl/br its symbol, or both 0
 * when the side has no pin.  tables is C-ordered
 * [a][r_max+1][a][r_max+1][a] double.  The caller checks dtypes and shapes;
 * this function checks every column and symbol it reads through.  On a
 * symbol outside [0, a), in row order and center, left pin, right pin
 * within a row, *bad is set to that symbol.
 */
int transfer_lookup(const int64_t *values, int64_t values_stride,
                    const uint8_t *masks, int64_t masks_stride,
                    int64_t n, int64_t width,
                    const int64_t *sides, int64_t r_max,
                    const double *tables, int64_t a,
                    double *out, int64_t *bad)
{
    int64_t i, s, k, col, d[2], b[2], v0;
    const int64_t *row;
    const uint8_t *mask;

    for (k = 0; k < 2 * r_max; k++)
        if (sides[k] < 0)
            return LOOKUP_BAD_COLUMN;
    for (i = 0; i < n; i++) {
        row = values + i * values_stride;
        mask = masks + i * masks_stride;
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
        out[i] = tables[(((v0 * (r_max + 1) + d[0]) * a + b[0]) * (r_max + 1) + d[1]) * a + b[1]];
    }
    return KERNEL_OK;
}
