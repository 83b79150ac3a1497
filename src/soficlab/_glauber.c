/* Compiled kernels, loaded by soficlab.kernels through ctypes from one library:
 * the heat-bath sweep, the transfer oracle's nearest-pin lookup, the same
 * lookup over percolation pasts that it draws itself, and the tree oracle's
 * hardcore ratio recursion over pasts that it draws the same way.
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
 *
 * tree_percolation draws its pasts the same way and runs the arithmetic of
 * _glauber_py.tree_batch: the same divisions and the same order of
 * multiplications per site, so its conditionals are bitwise the twin's.
 */

#include <stdint.h>

#define KERNEL_OK 0
#define GLAUBER_BAD_ALPHABET 1
#define GLAUBER_BAD_NEIGHBOUR 2
#define GLAUBER_BAD_SYMBOL 3
#define LOOKUP_BAD_COLUMN 4
#define LOOKUP_BAD_SYMBOL 5
#define TREE_BAD_GEOMETRY 6
#define TREE_CLASH 7

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

/* 1 if children[child_ptr[v]] .. children[child_ptr[v+1]-1], the children
 * of each site v < deep_start, lie in (v, n_window), with child_ptr
 * non-decreasing inside [0, n_children], and every edge end lies in
 * [0, width); else 0. */
static int tree_ok(const int64_t *child_ptr, const int64_t *children, int64_t n_children,
                   int64_t deep_start, int64_t n_window,
                   const int64_t *edges, int64_t n_edges, int64_t width)
{
    int64_t v, k;

    for (v = 0; v < deep_start; v++) {
        if (child_ptr[v] < 0 || child_ptr[v] > child_ptr[v + 1] || child_ptr[v + 1] > n_children)
            return 0;
        for (k = child_ptr[v]; k < child_ptr[v + 1]; k++)
            if (children[k] <= v || children[k] >= n_window)
                return 0;
    }
    for (k = 0; k < 2 * n_edges; k++)
        if (edges[k] < 0 || edges[k] >= width)
            return 0;
    return 1;
}

/* 1 if no past can make a row of this pattern an error: every column
 * holds 0 or 1 and no edge joins two 1s; else 0. */
static int pattern_ok(const int64_t *row, int64_t width, const int64_t *edges, int64_t n_edges)
{
    int64_t c, e;

    for (c = 0; c < width; c++)
        if ((uint64_t)row[c] > 1)
            return 0;
    for (e = 0; e < n_edges; e++)
        if (row[edges[2 * e]] == 1 && row[edges[2 * e + 1]] == 1)
            return 0;
    return 1;
}

/* The error of one row under its pins, as tree_percolation reports it. */
static int row_errors(const int64_t *row, const uint8_t *pin, int64_t width,
                      const int64_t *edges, int64_t n_edges, int64_t *bad)
{
    int64_t c, e, i, j;

    for (c = 0; c < width; c++)
        if ((c == 0 || pin[c]) && (uint64_t)row[c] > 1) {
            bad[0] = row[c];
            return LOOKUP_BAD_SYMBOL;
        }
    for (e = 0; e < n_edges; e++) {
        i = edges[2 * e];
        j = edges[2 * e + 1];
        if (pin[i] && pin[j] && row[i] == 1 && row[j] == 1) {
            bad[0] = i;
            bad[1] = j;
            return TREE_CLASH;
        }
    }
    return KERNEL_OK;
}

/* out[i] = the hardcore conditional of the center symbol of
 * patterns[(lo + i) / n_inner] under the i-th of n percolation pasts drawn
 * from bitgen, for n rows, by the ratio recursion
 * R_v = lam[v] prod_c 1/(1+R_c) over a tree in level order.
 *
 * Site 0 is the root, the center.  The children of site v are
 * children[child_ptr[v]] .. children[child_ptr[v+1]-1], in multiplication
 * order, each of a larger index than v.  Sites deep_start .. n_window-1 are
 * the deepest level of the window; an unpinned site there has the ratio
 * free_ratio[v] of its unpinned subtree.  Pasts are drawn as
 * percolation_lookup draws them, and a pin at column c < width sets R_c to
 * 0 (symbol 0) or infinity (symbol 1).  Ratios are carried as factors
 * F = 1/(1+R), so F is 1 or 0 at a pin, and the root gives
 * p = R_0/(1+R_0), or 1 - p when the center is 0.  A pinned site's factor
 * is picked by indexing, not by a branch: pins fall at random, and a
 * mispredicted branch per site costs more than the division it would save.
 *
 * The center and every pinned column must hold 0 or 1, else bad[0] is the
 * first such symbol in column order and the status LOOKUP_BAD_SYMBOL; then
 * two pinned 1s joined by an edge (edges[2e], edges[2e+1], in [0, width))
 * give TREE_CLASH with bad[0], bad[1] the first such edge.  Either stops
 * the call at the first row that has it.  pin (n_window bytes, zero) and
 * factor (3 * n_window doubles) are caller-owned workspaces.  The caller
 * checks dtypes, shapes, 0 <= deep_start < width <= n_window <= the length
 * of lam and free_ratio, width <= ball_size, n_inner >= 1, lo >= 0 and that
 * every row read is a row of patterns; this function checks the tree and
 * the edges (TREE_BAD_GEOMETRY).
 */
int tree_percolation(const int64_t *patterns, int64_t patterns_stride,
                     int64_t width, int64_t n_inner, int64_t lo, int64_t n,
                     int64_t ball_size, const int64_t *child_ptr, const int64_t *children,
                     int64_t n_children, int64_t deep_start, int64_t n_window,
                     const double *lam, const double *free_ratio,
                     const int64_t *edges, int64_t n_edges, bitgen_t *bitgen,
                     uint8_t *pin, double *factor, double *out, int64_t *bad)
{
    /* choice[2v] is site v's factor unpinned, choice[2v + 1] pinned */
    double *choice = factor + n_window, pair[2];
    const int64_t *row = patterns;
    int64_t i, c, v, k, j, checked = -1;
    double chi0, r, p;
    int ok = 0, status;

    if (!tree_ok(child_ptr, children, n_children, deep_start, n_window, edges, n_edges, width))
        return TREE_BAD_GEOMETRY;
    for (v = 0; v < n_window; v++) {
        choice[2 * v] = v >= deep_start ? 1.0 / (1.0 + free_ratio[v]) : 0.0;
        choice[2 * v + 1] = 1.0;
    }
    for (i = 0; i < n; i++) {
        chi0 = bitgen->next_double(bitgen->state);
        for (c = 1; c < width; c++)
            pin[c] = bitgen->next_double(bitgen->state) < chi0;
        for (; c < ball_size; c++)
            bitgen->next_double(bitgen->state);
        j = (lo + i) / n_inner;
        if (j != checked) {
            row = patterns + j * patterns_stride;
            ok = pattern_ok(row, width, edges, n_edges);
            for (c = 1; c < width; c++)
                choice[2 * c + 1] = row[c] == 1 ? 0.0 : 1.0;
            checked = j;
        }
        if (!ok) {
            status = row_errors(row, pin, width, edges, n_edges, bad);
            if (status)
                return status;
        }
        for (v = deep_start; v < n_window; v++)
            factor[v] = choice[2 * v + pin[v]];
        /* children have larger indices, so they are done before their parent */
        for (v = deep_start - 1; v > 0; v--) {
            r = lam[v];
            for (k = child_ptr[v]; k < child_ptr[v + 1]; k++)
                r = r * factor[children[k]];
            pair[0] = 1.0 / (1.0 + r);
            pair[1] = choice[2 * v + 1];
            factor[v] = pair[pin[v]];
        }
        if (deep_start == 0) {
            r = free_ratio[0];
        } else {
            r = lam[0];
            for (k = child_ptr[0]; k < child_ptr[1]; k++)
                r = r * factor[children[k]];
        }
        p = r / (1.0 + r);
        out[i] = row[0] == 1 ? p : 1.0 - p;
    }
    return KERNEL_OK;
}
