/* Compiled heat-bath sweep kernel, loaded by soficlab.kernels through ctypes.
 *
 * Must stay arithmetic-identical to _glauber_py.glauber_sweeps: same loop
 * structure, same order of multiplications and additions, one uniform
 * consumed per site update, so both kernels give bitwise-equal trajectories
 * from the same inputs.  Build without FMA contraction (-ffp-contract=off)
 * and without -ffast-math, or the rounding differs from Python's.
 *
 * Array layouts (C order): x[n] int8, nbr_out/nbr_in[n_gen][n] int64,
 * wh[a] double, wj[n_gen][a][a] double, allowed[n_gen][a][a] uint8,
 * uniforms[sweeps * n] double, counts[sweeps] int64 or NULL.  The caller
 * checks dtypes, shapes, the uniform and count lengths and safe in [0, a);
 * this file checks every index it reads through.  When counts is not NULL,
 * counts[t] is the number of sites v with x[v] != safe after sweep t.
 */

#include <stdint.h>

#define GLAUBER_OK 0
#define GLAUBER_BAD_ALPHABET 1
#define GLAUBER_BAD_NEIGHBOUR 2
#define GLAUBER_BAD_SYMBOL 3

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
    return GLAUBER_OK;
}
