/* The five compiled kernels, loaded by soficlab.kernels through ctypes from
 * one library: the heat-bath sweep, the transfer oracle's nearest-pin lookup
 * over percolation pasts that it draws itself, the tree oracle's hardcore
 * ratio recursion over pasts that it draws the same way, the windows of the
 * stationary transfer chain (markov_windows) and the permutations of the
 * random_perm sofic builder (pcg64_permutations); and pcg64_fill, the
 * uniform draw of soficlab.kernels.Pcg64.
 *
 * glauber_sweeps must stay arithmetic-identical to _glauber_py.glauber_sweeps:
 * the same order of multiplications and additions per candidate weight, the
 * same first-candidate pick, one uniform consumed per site update, so both
 * kernels give bitwise-equal trajectories from the same inputs.  All weight
 * arithmetic is in site_weights; a call either tabulates it once for every
 * neighbourhood key or runs it at every site update, and the two routes
 * give bitwise the same trajectory.  Build without FMA contraction
 * (-ffp-contract=off) and without -ffast-math, or the rounding differs from
 * Python's.  The table route is one body (table_sweeps) compiled once per
 * shape and stream form, with the alphabet, the generator count and the
 * form as constants: two symbols on one, two or three generators (the
 * Z^1-Z^3 tori and F_2, F_3 maps of hardcore and Ising models), and one
 * instance that reads any other shape from its arguments.  Its pick of
 * symbol 0 or not is a predicted branch, never a setcc or cmov: the next
 * site's key mostly reads the symbol just picked, so a branchless pick
 * would chain each update of a sweep on the one before; among the other
 * symbols it counts (see pick).
 *
 * Sweep array layouts (C order): x[n] int8, nbr_out/nbr_in[n_gen][n] int64,
 * wh[a] double, wj[n_gen][a][a] double, allowed[n_gen][a][a] uint8,
 * uniforms[sweeps * n] double or NULL, counts[sweeps] int64 or NULL, and
 * the workspaces table[keys * a] double and pair[2 * n_gen] int64.  keys is
 * the caller's choice of route: the number of neighbourhood keys,
 * (a*a + 1)^n_gen, for the table route, or 0 for the direct route.  When
 * uniforms is NULL the kernel steps the PCG64 state pcg itself, one
 * Generator.random double per site update, as the percolation kernels do.
 * The caller checks dtypes, shapes, the uniform and count lengths, keys and
 * safe in [0, a); this file checks every index it reads through.  When
 * counts is not NULL, counts[t] is the number of sites v with x[v] != safe
 * after sweep t.
 *
 * percolation_lookup does no arithmetic: it reads one table entry per row,
 * the entry _glauber_py.transfer_lookup reads, and compares uniforms only,
 * as their exact 53-bit integers.  It is one body (lookup_rows) compiled
 * twice: a scalar instance, also exported as percolation_lookup_scalar, and
 * on x86_64 builds by gcc or clang an AVX-512F/DQ instance that draws the
 * first columns of both sides of a row in one vector step.  Each call picks
 * the AVX-512 instance when the CPU has both extensions (lookup_isa, by
 * __builtin_cpu_supports), else the scalar one.  The stepping is integer
 * arithmetic mod 2^128 in both, so both give bitwise the same conditionals
 * and end state.  markov_windows counts, per uniform, the
 * cumulative probabilities at or below it, as _glauber_py.markov_windows
 * does, and pcg64_permutations repeats numpy's Generator.permutation draw
 * for draw.  Every kernel steps numpy's PCG64 itself, on the state and
 * increment words of a soficlab.kernels.Pcg64, which it advances in
 * place.  The past of a row is one uniform per column of the pattern,
 * width uniforms in the order of Generator.random((n, width)): a
 * percolation kernel draws column c of it, only if it reads that column,
 * by its own jump of c + 1 steps from the row's start state (column_draw,
 * column_bits), and takes the row's width steps as one jump (next_row), so
 * the generator ends where those n * width draws leave it.  A call runs
 * the n rows lo .. lo + n - 1 of the caller's rows, row j reading pattern
 * j / n_inner, so that the caller can split its rows into ranges, one per
 * core.  Any other stream is refused by the caller.  The 128-bit
 * arithmetic needs unsigned __int128 (gcc, clang); without it the build
 * fails and the Python twins are used.
 *
 * tree_percolation runs the arithmetic of _glauber_py.tree_batch on the
 * same pasts: the same divisions and the same order of multiplications per
 * site, so its conditionals are bitwise the twin's.  A pinned site cuts the
 * tree, so it reads only the sites whose ancestors are all unpinned.
 *
 * The caller refuses, before the first draw, a pattern with a symbol
 * outside the alphabet or, for the tree, two adjacent 1s
 * (_glauber_py.check_patterns), so neither percolation kernel checks a
 * symbol: each sets a status only before its first draw, for a negative
 * side column or a tree whose children are not later sites of the window.
 */

#include <stdint.h>

#define KERNEL_OK 0
#define GLAUBER_BAD_ALPHABET 1
#define GLAUBER_BAD_NEIGHBOUR 2
#define GLAUBER_BAD_SYMBOL 3
#define LOOKUP_BAD_COLUMN 4
#define TREE_BAD_GEOMETRY 5

#ifndef __SIZEOF_INT128__
#error "the PCG64 stepping of the kernels needs unsigned __int128"
#endif

/* numpy's PCG64: a 128-bit LCG s' = A s + inc whose draw is the XSL-RR
 * output of the new state.  Taking k steps at once is s' = A^k s + C_k
 * with C_k = (A^(k-1) + ... + A + 1) inc (Brown 1994), so a kernel draws
 * any column of a row, or steps past the whole row, in one multiply-add and
 * the stream stays that of Generator.random. */
typedef unsigned __int128 u128;

#define PCG_MULT (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

/* a 128-bit number as two words, low word first */
static inline u128 load128(const uint64_t *w)
{
    return (u128)w[1] << 64 | w[0];
}

static inline void store128(uint64_t *w, u128 x)
{
    w[0] = (uint64_t)x;
    w[1] = (uint64_t)(x >> 64);
}

/* *state = mult * *state + plus, then numpy's next_uint64 of it: the
 * XSL-RR output of the new state */
static inline uint64_t pcg_next(u128 *state, u128 mult, u128 plus)
{
    u128 s = mult * *state + plus;
    uint64_t v = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned rot = (unsigned)(s >> 122);

    *state = s;
    return v >> rot | v << (-rot & 63);
}

/* numpy's next_double: the top 53 bits of pcg_next times 2^-53 */
static inline double pcg_double(u128 *state, u128 mult, u128 plus)
{
    return (double)(pcg_next(state, mult, plus) >> 11) * (1.0 / 9007199254740992.0);
}

/* out[0..n) = the next n doubles of the PCG64 state pcg (state, then
 * increment, see load128), in the order Generator.random fills them; the
 * state is advanced in place. */
int pcg64_fill(uint64_t *pcg, double *out, int64_t n)
{
    u128 state = load128(pcg), inc = load128(pcg + 2);
    int64_t i;

    for (i = 0; i < n; i++)
        out[i] = pcg_double(&state, PCG_MULT, inc);
    store128(pcg, state);
    return KERNEL_OK;
}

/* The number of the cumulative probabilities cum[0..a) at or below u, cut
 * to a - 1: one symbol of _glauber_py.markov_windows. */
static inline int64_t count_at_or_below(const double *cum, int64_t a, double u)
{
    int64_t c, count = 0;

    for (c = 0; c < a; c++)
        count += u >= cum[c];
    return count < a ? count : a - 1;
}

/* out[i][0..length) for i < n: windows of the stationary Markov chain on a
 * symbols, each drawing its length uniforms from the PCG64 state pcg (see
 * pcg64_fill) in the order of Generator.random((n, length)).  Symbol 0 of
 * a window counts cum_pi at or below its uniform and symbol j the row
 * cum_step[x] of the symbol x before it, each cut to a - 1
 * (count_at_or_below).  out is C-ordered [n][length] signed integers of
 * size bytes, 1, 2, 4 or 8, and cum_step C-ordered [a][a] double.  The
 * caller checks dtypes, shapes, a >= 1 and length >= 1, and picks a size
 * that holds a - 1, so nothing is checked here. */
int markov_windows(const double *cum_pi, const double *cum_step, int64_t a,
                   int64_t n, int64_t length, void *out, int64_t size, uint64_t *pcg)
{
    u128 state = load128(pcg), inc = load128(pcg + 2);
    int64_t i, j, x;

    for (i = 0; i < n * length; i += length) {
        x = 0;
        for (j = 0; j < length; j++) {
            x = count_at_or_below(j ? cum_step + x * a : cum_pi, a, pcg_double(&state, PCG_MULT, inc));
            switch (size) {
            case 1: ((int8_t *)out)[i + j] = (int8_t)x; break;
            case 2: ((int16_t *)out)[i + j] = (int16_t)x; break;
            case 4: ((int32_t *)out)[i + j] = (int32_t)x; break;
            default: ((int64_t *)out)[i + j] = x;
            }
        }
    }
    store128(pcg, state);
    return KERNEL_OK;
}

/* out[j][0..n) for j < k: k permutations of 0..n-1, each numpy's
 * Generator.permutation(n) in turn on one generator from the PCG64 state
 * pcg, which is advanced in place.  That is the Fisher-Yates shuffle of
 * Generator.shuffle, i from n - 1 down to 1 swapping entries i and j, with
 * j from numpy's random_interval(i): the smallest all-ones mask at or above
 * i, and masked draws until one is at most i.  Up to i = 2^32 - 1 a draw is
 * a uint32, the low half of a 64-bit output and then its high half, which
 * is kept for the next uint32 draw across the k permutations, as the
 * generator's buffered half is; past it a draw is a whole output.  The
 * half still kept at the end is dropped. */
int pcg64_permutations(uint64_t *pcg, int64_t *out, int64_t k, int64_t n)
{
    u128 state = load128(pcg), inc = load128(pcg + 2);
    uint64_t mask, value, half = 0;
    int64_t j, i, swap, *perm;
    int kept = 0;

    for (j = 0; j < k; j++) {
        perm = out + j * n;
        for (i = 0; i < n; i++)
            perm[i] = i;
        for (i = n - 1; i > 0; i--) {
            mask = (uint64_t)i;
            mask |= mask >> 1;
            mask |= mask >> 2;
            mask |= mask >> 4;
            mask |= mask >> 8;
            mask |= mask >> 16;
            mask |= mask >> 32;
            do {
                if ((uint64_t)i > 0xffffffffULL) {
                    value = pcg_next(&state, PCG_MULT, inc);
                } else if (kept) {
                    value = half;
                    kept = 0;
                } else {
                    value = pcg_next(&state, PCG_MULT, inc);
                    half = value >> 32;
                    value &= 0xffffffffULL;
                    kept = 1;
                }
                value &= mask;
            } while (value > (uint64_t)i);
            swap = perm[value];
            perm[value] = perm[i];
            perm[i] = swap;
        }
    }
    store128(pcg, state);
    return KERNEL_OK;
}

/* cum[c] = the sum of the weights of candidates 0..c at one site, for c
 * in [0, a), added in symbol order, so cum[a-1] is the total.  The weight
 * of c is wh[c] times, for each generator s in order, wj[s][c][c] when
 * pair[2s] < 0 (a self-loop), else wj[s][c][xo] and then wj[s][xi][c] for
 * the pair (xo, xi) = (pair[2s], pair[2s+1]) of the symbols at the site's
 * out- and in-neighbour; a pair that allowed forbids ends the product at
 * weight 0.  Every weight of a sweep comes from here, so the table and
 * direct routes of glauber_sweeps round alike. */
static void site_weights(const int64_t *pair, const double *wh, const double *wj,
                         const uint8_t *allowed, int64_t n_gen, int64_t a, double *cum)
{
    int64_t c, s, xo, xi;
    double w, total = 0.0;

    for (c = 0; c < a; c++) {
        w = wh[c];
        for (s = 0; s < n_gen; s++) {
            xo = pair[2 * s];
            if (xo < 0) {
                w = w * wj[(s * a + c) * a + c];
                continue;
            }
            if (!allowed[(s * a + c) * a + xo]) {
                w = 0.0;
                break;
            }
            w = w * wj[(s * a + c) * a + xo];
            xi = pair[2 * s + 1];
            if (!allowed[(s * a + xi) * a + c]) {
                w = 0.0;
                break;
            }
            w = w * wj[(s * a + xi) * a + c];
        }
        total = total + w;
        cum[c] = total;
    }
}

/* table[key][c] = the site_weights of every neighbourhood key.  A key has
 * one base-(a*a + 1) digit per generator, generator 0 the most
 * significant: xo * a + xi for the pair (xo, xi), or a * a for a self-loop.
 * pair is a workspace of 2 * n_gen words. */
static void fill_table(double *table, int64_t keys, int64_t *pair, const double *wh,
                       const double *wj, const uint8_t *allowed, int64_t n_gen, int64_t a)
{
    int64_t key, rest, digit, s;

    for (key = 0; key < keys; key++) {
        rest = key;
        for (s = n_gen - 1; s >= 0; s--) {
            digit = rest % (a * a + 1);
            rest /= a * a + 1;
            pair[2 * s] = digit == a * a ? -1 : digit / a;
            pair[2 * s + 1] = digit % a;
        }
        site_weights(pair, wh, wj, allowed, n_gen, a, table + key * a);
    }
}

/* The heat-bath pick from cumulative weights: the first c with
 * u * total < cum[c], else a - 1; keep when the total is not positive.
 *
 * Symbol 0 or not is a branch.  The next update's key often reads the
 * symbol just picked (on a torus, site v is the in-neighbour of v + 1),
 * so a pick by setcc or cmov chains every update of a sweep on the
 * previous one through the table load and the compare, while a predicted
 * branch lets the next updates start at once.  The empty asm on the path
 * past symbol 0 keeps gcc from turning the compare into a setcc: without
 * it the two-symbol Z^2 sweep ran about 70% slower (16x16 torus over TI's
 * grid, gcc 12 -O2, 2-vCPU x86_64 Xeon host).  Past symbol 0 the pick
 * counts, without a branch, the c in 1 .. a-2 with u * total not below
 * cum[c]: cum never decreases, so that is the first c above the uniform,
 * also when u * total is nan (0 times an infinite total) and no c is.  A
 * branch per symbol there mispredicts on three symbols and more: counting
 * took the three-symbol full shift on the 16x16 torus from 18.3 to 14.4 ns
 * per update and the four-symbol one on the 8x8x8 torus (the direct route)
 * from 43.7 to 31.4, while the two-symbol shapes, where the count is
 * empty, stayed as they were (benchmarks/BENCH_sweeps.json, same host). */
static inline int8_t pick(const double *cum, int64_t a, double u, int8_t keep)
{
    double total = cum[a - 1], thr;
    int64_t c, later = 0;

    if (!(total > 0.0))
        return keep;
    thr = u * total;
    if (a < 2 || thr < cum[0])
        return 0;
    __asm__ volatile("");
    for (c = 1; c < a - 1; c++)
        later += !(thr < cum[c]);
    return (int8_t)(1 + later);
}

/* pcg_double on a state held as two words, *lo and *hi.  Held as one
 * u128 across the update loop of table_sweeps, the state is spilled to
 * the stack by gcc 12, and each draw then waits on a store and a load. */
static inline double pcg_double_words(uint64_t *lo, uint64_t *hi, u128 inc)
{
    u128 state = (u128)*hi << 64 | *lo;
    double u = pcg_double(&state, PCG_MULT, inc);

    *lo = (uint64_t)state;
    *hi = (uint64_t)(state >> 64);
    return u;
}

/* The arguments of glauber_sweeps that its table route reads. */
struct table_call {
    int8_t *x;
    const int64_t *nbr_out, *nbr_in;
    const double *uniforms, *table;
    uint64_t *pcg;
    int64_t *counts;
    int64_t sweeps, n, n_gen, a, safe;
};

/* The table route of glauber_sweeps: each update reads the cumulative
 * weights of its neighbourhood key's row of the filled table.  Each
 * TABLE_INSTANCE inlines this body with drawn (uniforms drawn from pcg,
 * else read from uniforms) as a constant, and the fixed ones with n_gen
 * and a as constants too, so that the key loop unrolls and its
 * multiplications fold; the instances for any other shape read them from
 * the call, and their key loop is a plain loop (unrolled, a runtime trip
 * count only added a jump into the unrolled body).  The pick's symbol 0
 * stays a branch (pick), the PCG64 state stays in registers
 * (pcg_double_words) in the fixed instances (the generic drawn instance
 * keeps its high word on the stack: drawing its uniforms ahead in blocks
 * kept it off, but ran 1.5 ns per update slower on three symbols), and
 * each update counts its own site, so a sweep's count needs no second pass
 * over x. */
static inline __attribute__((always_inline)) void table_sweeps(const struct table_call *call,
                                                               int64_t n_gen, int64_t a, int drawn, int fixed)
{
    int8_t *x = call->x, y;
    const int64_t *nbr_out = call->nbr_out, *nbr_in = call->nbr_in;
    const double *uniforms = call->uniforms, *table = call->table;
    int64_t n = call->n, safe = call->safe, t, v, s, o, key, nonsafe;
    uint64_t lo = drawn ? call->pcg[0] : 0, hi = drawn ? call->pcg[1] : 0;
    u128 inc = drawn ? load128(call->pcg + 2) : 0;
    double u;

    for (t = 0; t < call->sweeps; t++) {
        nonsafe = 0;
        for (v = 0; v < n; v++) {
            u = drawn ? pcg_double_words(&lo, &hi, inc) : *uniforms++;
            key = 0;
            if (fixed) {
#pragma GCC unroll 4
                for (s = 0; s < n_gen; s++) {
                    o = nbr_out[s * n + v];
                    key = key * (a * a + 1) + (o == v ? a * a : x[o] * a + x[nbr_in[s * n + v]]);
                }
            } else {
                for (s = 0; s < n_gen; s++) {
                    o = nbr_out[s * n + v];
                    key = key * (a * a + 1) + (o == v ? a * a : x[o] * a + x[nbr_in[s * n + v]]);
                }
            }
            y = pick(table + key * a, a, u, x[v]);
            x[v] = y;
            nonsafe += y != safe;
        }
        if (call->counts)
            call->counts[t] = nonsafe;
    }
    if (drawn) {
        call->pcg[0] = lo;
        call->pcg[1] = hi;
    }
}

#define TABLE_INSTANCE(name, n_gen, a, drawn, fixed) \
    static void name(const struct table_call *call) { table_sweeps(call, n_gen, a, drawn, fixed); }

TABLE_INSTANCE(table_any_array, call->n_gen, call->a, 0, 0)
TABLE_INSTANCE(table_any_drawn, call->n_gen, call->a, 1, 0)
TABLE_INSTANCE(table_2x1_array, 1, 2, 0, 1)
TABLE_INSTANCE(table_2x1_drawn, 1, 2, 1, 1)
TABLE_INSTANCE(table_2x2_array, 2, 2, 0, 1)
TABLE_INSTANCE(table_2x2_drawn, 2, 2, 1, 1)
TABLE_INSTANCE(table_2x3_array, 3, 2, 0, 1)
TABLE_INSTANCE(table_2x3_drawn, 3, 2, 1, 1)

/* [drawn][k]: for k = 1..3 the instance of two symbols on k generators,
 * and for k = 0 the one that takes every other shape from its arguments */
static void (*const TABLE_INSTANCES[2][4])(const struct table_call *) = {
    {table_any_array, table_2x1_array, table_2x2_array, table_2x3_array},
    {table_any_drawn, table_2x1_drawn, table_2x2_drawn, table_2x3_drawn},
};

/* sweeps heat-bath sweeps over x in place, sites in index order, each
 * update drawing the next uniform: uniforms[t * n + v], or when uniforms
 * is NULL the next double of the PCG64 state pcg (state, then increment,
 * see load128), advanced in place.  When keys is not 0, table (keys * a
 * doubles) is filled once for every neighbourhood key and each update
 * reads its key's row (table_sweeps); else each update runs site_weights
 * itself.  pair is a workspace of 2 * n_gen words. */
int glauber_sweeps(int8_t *x, const int64_t *nbr_out, const int64_t *nbr_in,
                   const double *wh, const double *wj, const uint8_t *allowed,
                   const double *uniforms, uint64_t *pcg, int64_t sweeps,
                   int64_t n, int64_t n_gen, int64_t a,
                   int64_t *counts, int64_t safe,
                   double *table, int64_t keys, int64_t *pair)
{
    double row[64], u;
    u128 state = 0, inc = 0;
    int64_t t, v, s, i, o, nonsafe, base = 0;

    if (a > 64)
        return GLAUBER_BAD_ALPHABET;
    for (i = 0; i < n_gen * n; i++)
        if (nbr_out[i] < 0 || nbr_out[i] >= n || nbr_in[i] < 0 || nbr_in[i] >= n)
            return GLAUBER_BAD_NEIGHBOUR;
    for (v = 0; v < n; v++)
        if (x[v] < 0 || x[v] >= a)
            return GLAUBER_BAD_SYMBOL;
    if (keys) {
        struct table_call call = {x, nbr_out, nbr_in, uniforms, table, pcg, counts, sweeps, n, n_gen, a, safe};

        fill_table(table, keys, pair, wh, wj, allowed, n_gen, a);
        TABLE_INSTANCES[!uniforms][a == 2 && n_gen >= 1 && n_gen <= 3 ? n_gen : 0](&call);
        return KERNEL_OK;
    }
    if (!uniforms) {
        state = load128(pcg);
        inc = load128(pcg + 2);
    }

    for (t = 0; t < sweeps; t++) {
        for (v = 0; v < n; v++) {
            u = uniforms ? uniforms[base++] : pcg_double(&state, PCG_MULT, inc);
            for (s = 0; s < n_gen; s++) {
                o = nbr_out[s * n + v];
                pair[2 * s] = o == v ? -1 : x[o];
                pair[2 * s + 1] = x[nbr_in[s * n + v]];
            }
            site_weights(pair, wh, wj, allowed, n_gen, a, row);
            x[v] = pick(row, a, u, x[v]);
        }
        if (counts) {
            nonsafe = 0;
            for (v = 0; v < n; v++)
                nonsafe += x[v] != safe;
            counts[t] = nonsafe;
        }
    }
    if (!uniforms)
        store128(pcg, state);
    return KERNEL_OK;
}

/* jump[4k..4k+1] = A^k and jump[4k+2..4k+3] = C_k, for 0 <= k <= steps */
static void fill_jumps(uint64_t *jump, int64_t steps, u128 inc)
{
    u128 mult = 1, plus = 0;
    int64_t k;

    for (k = 0; k <= steps; k++) {
        store128(jump + 4 * k, mult);
        store128(jump + 4 * k + 2, plus);
        mult = mult * PCG_MULT;
        plus = plus * PCG_MULT + inc;
    }
}

/* The start state of the next row, *state, which moves past the row's
 * width steps at once by whole, the jump of width steps. */
static inline u128 next_row(u128 *state, const uint64_t *whole)
{
    u128 start = *state;

    *state = load128(whole) * start + load128(whole + 2);
    return start;
}

/* The uniform of column c of a row whose stream starts at state s: step
 * c + 1 from s, taken at once by the jump A^(c+1) s + C_(c+1). */
static inline double column_draw(u128 s, const uint64_t *jump, int64_t c)
{
    const uint64_t *j = jump + 4 * (c + 1);

    return pcg_double(&s, load128(j), load128(j + 2));
}

/* The top 53 bits of the output of column c of a row whose stream starts
 * at state s, the integer whose multiple by 2^-53 is column_draw's
 * uniform: that product is exact and increasing, so two columns compare
 * alike as these integers and as their uniforms. */
static inline uint64_t column_bits(u128 s, const uint64_t *jump, int64_t c)
{
    const uint64_t *j = jump + 4 * (c + 1);

    return pcg_next(&s, load128(j), load128(j + 2)) >> 11;
}

/* The first side columns that percolation_lookup draws on every row and
 * tests without a branch, before it scans the rest of a side one column
 * at a time.  The nearest pin is mostly among them, and a scan that stops
 * at a random column mispredicts its exit.  On Z^1 at r = 16 a row took
 * about 44 ns at 4, 47 at 2, 52 at 6 and 58 at 8, against 61 ns for the
 * plain scan (gcc 12 -O2, 2-vCPU x86_64 Xeon host, best of 25 calls of
 * 800,000 rows), with each block column drawn by its own scalar
 * multiply-add.  The 2 * LOOKUP_BLOCK = 8 block columns of a row are eight
 * 64-bit lanes, one AVX-512 vector: on a host with AVX-512F/DQ they are
 * drawn and compared in one step (avx512_block_hits), which took a row on
 * one core of that host from 64.7 to 43.8 ns in a busy spell
 * (benchmarks/BENCH_lookup.json). */
#define LOOKUP_BLOCK 4
#define BLOCK_COLUMNS (2 * LOOKUP_BLOCK)

/* The block columns of a percolation_lookup call.  Slot s * LOOKUP_BLOCK +
 * k is column k of side s: col is its column when it lies in the row, else
 * the center, which is never pinned, and bit slot of in_row says which.
 * The other four arrays hold the words of its jump A^(c+1), C_(c+1) (see
 * column_bits), one array per word, so that each is one vector. */
struct lookup_block {
    uint64_t mult_lo[BLOCK_COLUMNS] __attribute__((aligned(64)));
    uint64_t mult_hi[BLOCK_COLUMNS] __attribute__((aligned(64)));
    uint64_t plus_lo[BLOCK_COLUMNS] __attribute__((aligned(64)));
    uint64_t plus_hi[BLOCK_COLUMNS] __attribute__((aligned(64)));
    int64_t col[BLOCK_COLUMNS];
    unsigned in_row;
};

/* The hits of the block columns of the row whose stream starts at s: bit
 * slot is set when the column of that slot (see lookup_block) is pinned,
 * its 53-bit output below chi0.  One 128-bit multiply-add per column. */
static inline unsigned scalar_block_hits(u128 s, uint64_t chi0, const struct lookup_block *block)
{
    unsigned slot, hits = 0;

    for (slot = 0; slot < BLOCK_COLUMNS; slot++) {
        u128 t = s;
        uint64_t bits = pcg_next(&t, (u128)block->mult_hi[slot] << 64 | block->mult_lo[slot],
                                 (u128)block->plus_hi[slot] << 64 | block->plus_lo[slot]) >> 11;

        hits |= (unsigned)(bits < chi0) << slot;
    }
    return hits;
}

/* The arguments of percolation_lookup. */
struct lookup_call {
    const int64_t *patterns, *sides;
    const double *tables;
    double *out;
    uint64_t *pcg, *jump;
    int64_t width, n_inner, lo, n, r_max, a;
};

/* percolation_lookup's rows, with the hits of each row's block columns
 * from block_hits.  Each instance (lookup_scalar, lookup_avx512) inlines
 * this body with its own block_hits as a constant, which is inlined in
 * turn, so an instance makes no call per row.  The body itself holds no
 * vector code: gcc will not inline a function compiled for AVX-512 into
 * one that is not, so the AVX-512 intrinsics live in the helper, which
 * only the AVX-512 instance inlines. */
static inline __attribute__((always_inline)) int lookup_rows(
    const struct lookup_call *call, unsigned (*block_hits)(u128, uint64_t, const struct lookup_block *))
{
    const int64_t *sides = call->sides, *row = call->patterns + call->lo / call->n_inner * call->width;
    const uint64_t *jump = call->jump, *whole = jump + 4 * call->width, *j;
    int64_t width = call->width, r_max = call->r_max, a = call->a;
    int64_t left = call->n_inner - call->lo % call->n_inner, i, s, k, col, d[2], b[2];
    u128 state = load128(call->pcg), start;
    struct lookup_block block;
    unsigned slot, hits, side;
    uint64_t chi0;

    for (k = 0; k < 2 * r_max; k++)
        if (sides[k] < 0)
            return LOOKUP_BAD_COLUMN;
    fill_jumps(call->jump, width, load128(call->pcg + 2));
    block.in_row = 0;
    for (slot = 0; slot < BLOCK_COLUMNS; slot++) {
        s = slot / LOOKUP_BLOCK;
        k = slot % LOOKUP_BLOCK;
        col = k < r_max ? sides[s * r_max + k] : width;
        block.col[slot] = col < width ? col : 0;
        block.in_row |= (unsigned)(col < width) << slot;
        j = jump + 4 * (block.col[slot] + 1);
        block.mult_lo[slot] = j[0];
        block.mult_hi[slot] = j[1];
        block.plus_lo[slot] = j[2];
        block.plus_hi[slot] = j[3];
    }
    for (i = 0; i < call->n; i++) {
        start = next_row(&state, whole);
        chi0 = column_bits(start, jump, 0);
        hits = block_hits(start, chi0, &block) & block.in_row;
        for (s = 0; s < 2; s++) {
            side = hits >> (s * LOOKUP_BLOCK) & ((1u << LOOKUP_BLOCK) - 1);
            if (side) {
                k = __builtin_ctz(side);
                d[s] = k + 1;
                b[s] = row[block.col[s * LOOKUP_BLOCK + k]];
                continue;
            }
            d[s] = 0;
            b[s] = 0;
            for (k = LOOKUP_BLOCK; k < r_max; k++) {
                col = sides[s * r_max + k];
                if (col < width && column_bits(start, jump, col) < chi0) {
                    d[s] = k + 1;
                    b[s] = row[col];
                    break;
                }
            }
        }
        call->out[i] = call->tables[(((row[0] * (r_max + 1) + d[0]) * a + b[0]) * (r_max + 1) + d[1]) * a + b[1]];
        if (--left == 0) {
            row += width;
            left = call->n_inner;
        }
    }
    store128(call->pcg, state);
    return KERNEL_OK;
}

static int lookup_scalar(const struct lookup_call *call)
{
    return lookup_rows(call, scalar_block_hits);
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

#define AVX512 __attribute__((target("avx512f,avx512dq")))

/* scalar_block_hits in one step, the eight block columns as the eight
 * lanes: s times the jump multipliers mod 2^128, whose high word is the
 * cross products' low words (vpmullq) plus the high word of the low words'
 * product, from its four 32-bit partial products (vpmuludq); then the
 * increments, the low word's carry from an unsigned compare; then XSL-RR
 * by a per-lane rotate.  The arithmetic is integer and exact, so the bits
 * are scalar_block_hits' bit for bit. */
static inline AVX512 unsigned avx512_block_hits(u128 s, uint64_t chi0, const struct lookup_block *block)
{
    const __m512i low32 = _mm512_set1_epi64(0xffffffffLL);
    __m512i s_lo = _mm512_set1_epi64((long long)(uint64_t)s);
    __m512i s_hi = _mm512_set1_epi64((long long)(uint64_t)(s >> 64));
    __m512i m_lo = _mm512_load_si512(block->mult_lo), m_hi = _mm512_load_si512(block->mult_hi);
    __m512i c_lo = _mm512_load_si512(block->plus_lo), c_hi = _mm512_load_si512(block->plus_hi);
    __m512i s_lo_top = _mm512_srli_epi64(s_lo, 32), m_lo_top = _mm512_srli_epi64(m_lo, 32);
    __m512i p00 = _mm512_mul_epu32(s_lo, m_lo), p01 = _mm512_mul_epu32(s_lo, m_lo_top);
    __m512i p10 = _mm512_mul_epu32(s_lo_top, m_lo), p11 = _mm512_mul_epu32(s_lo_top, m_lo_top);
    __m512i mid = _mm512_add_epi64(_mm512_add_epi64(_mm512_srli_epi64(p00, 32), _mm512_and_si512(p01, low32)),
                                   _mm512_and_si512(p10, low32));
    __m512i hi = _mm512_add_epi64(_mm512_add_epi64(p11, _mm512_srli_epi64(mid, 32)),
                                  _mm512_add_epi64(_mm512_srli_epi64(p01, 32), _mm512_srli_epi64(p10, 32)));
    __m512i lo = _mm512_add_epi64(_mm512_mullo_epi64(s_lo, m_lo), c_lo);
    __mmask8 carry = _mm512_cmplt_epu64_mask(lo, c_lo);
    __m512i v;

    hi = _mm512_add_epi64(hi, _mm512_add_epi64(_mm512_mullo_epi64(s_lo, m_hi), _mm512_mullo_epi64(s_hi, m_lo)));
    hi = _mm512_add_epi64(hi, c_hi);
    hi = _mm512_mask_sub_epi64(hi, carry, hi, _mm512_set1_epi64(-1));
    v = _mm512_rorv_epi64(_mm512_xor_si512(hi, lo), _mm512_srli_epi64(hi, 58));
    return _mm512_cmplt_epu64_mask(_mm512_srli_epi64(v, 11), _mm512_set1_epi64((long long)chi0));
}

static AVX512 int lookup_avx512(const struct lookup_call *call)
{
    return lookup_rows(call, avx512_block_hits);
}
#endif

/* 1 if percolation_lookup runs its AVX-512 instance, on an x86_64 build by
 * gcc or clang on a CPU (and an OS) with AVX-512F and AVX-512DQ; else 0. */
int lookup_isa(void)
{
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
#else
    return 0;
#endif
}

/* out[i] = tables[v0][d[0]][b[0]][d[1]][b[1]] for the center symbol v0 of
 * patterns[(lo + i) / n_inner] and the distance d[s] and symbol b[s] of its
 * nearest pin on side s, 0 left and 1 right (both 0 when the side has no
 * pin), under the i-th of n percolation pasts drawn from the PCG64 state
 * pcg, for n rows.  tables is C-ordered [a][r_max+1][a][r_max+1][a] double.
 *
 * Column 0 is the center.  sides[s][k] (two sides of r_max, each
 * non-negative, else LOOKUP_BAD_COLUMN before any draw) is the column of
 * the site at distance k+1 on side s; columns at or past the width are
 * not in the row.  On each side the first pinned column in that order is
 * the nearest pin.  Column c of the mask is chi[c] < chi[0] for
 * 1 <= c < width and column 0 is unpinned, so the masks are those of
 * pasts.sample_percolation_masks.  A row draws chi[0], the first
 * LOOKUP_BLOCK columns of each side that lie in the row, and, on a side
 * with no pin among those, the columns it scans; each column is drawn by
 * its own jump, so the order of the draws changes nothing.  The uniforms
 * are compared as their 53-bit integers (column_bits).  patterns is
 * C-ordered [rows][width] int64, width >= 1.  pcg is numpy's PCG64 state,
 * then its increment (see load128), and the state is advanced in place;
 * jump (4 * (width + 1) words) is a caller-owned workspace.  The caller
 * checks dtypes, shapes, n_inner >= 1, lo >= 0, that every row read is a
 * row of patterns and that every symbol of patterns lies in [0, a); this
 * function checks every side column it reads through.
 *
 * The call runs the AVX-512 instance where lookup_isa says so, else
 * percolation_lookup_scalar; the two give bitwise the same out and end
 * state.
 */
int percolation_lookup(const int64_t *patterns, int64_t width,
                       int64_t n_inner, int64_t lo, int64_t n,
                       const int64_t *sides, int64_t r_max,
                       const double *tables, int64_t a, double *out,
                       uint64_t *pcg, uint64_t *jump)
{
    struct lookup_call call = {patterns, sides, tables, out, pcg, jump, width, n_inner, lo, n, r_max, a};

#if defined(__x86_64__) && defined(__GNUC__)
    if (lookup_isa())
        return lookup_avx512(&call);
#endif
    return lookup_scalar(&call);
}

/* percolation_lookup on the scalar instance, whatever the host. */
int percolation_lookup_scalar(const int64_t *patterns, int64_t width,
                              int64_t n_inner, int64_t lo, int64_t n,
                              const int64_t *sides, int64_t r_max,
                              const double *tables, int64_t a, double *out,
                              uint64_t *pcg, uint64_t *jump)
{
    struct lookup_call call = {patterns, sides, tables, out, pcg, jump, width, n_inner, lo, n, r_max, a};

    return lookup_scalar(&call);
}

/* 1 if children[child_ptr[v]] .. children[child_ptr[v+1]-1], the children
 * of each site v < deep_start, lie in (v, n_window), with child_ptr
 * non-decreasing inside [0, n_children]; else 0. */
static int tree_ok(const int64_t *child_ptr, const int64_t *children, int64_t n_children,
                   int64_t deep_start, int64_t n_window)
{
    int64_t v, k;

    for (v = 0; v < deep_start; v++) {
        if (child_ptr[v] < 0 || child_ptr[v] > child_ptr[v + 1] || child_ptr[v + 1] > n_children)
            return 0;
        for (k = child_ptr[v]; k < child_ptr[v + 1]; k++)
            if (children[k] <= v || children[k] >= n_window)
                return 0;
    }
    return 1;
}

/* The root's ratio R_0, for deep_start > 0, over the sites whose
 * ancestors are all unpinned, the only ones it depends on, drawing the pin
 * of each such site below width by its own jump from the row's start state
 * s, as chi[c] < chi[0]; pins of the others are neither drawn nor read.  Top down, act lists
 * the unpinned sites in level order, compacted without a branch, and each
 * child of an unpinned inner site takes choice[2c + pin[c]]: its final
 * factor when it is pinned or in the deepest level.  Bottom up, each
 * unpinned inner site then takes the product of its children's factors in
 * children order, as _glauber_py.level_ratio multiplies them. */
static double pruned_ratio(const int64_t *child_ptr, const int64_t *children,
                           int64_t deep_start, int64_t width, const double *lam,
                           const double *choice, uint8_t *pin, double *factor, int64_t *act,
                           u128 s, const uint64_t *jump)
{
    double r, chi0 = column_draw(s, jump, 0);
    int64_t q, u, c, k, na = 1;

    act[0] = 0;
    for (q = 0; q < na && act[q] < deep_start; q++) {
        u = act[q];
        for (k = child_ptr[u]; k < child_ptr[u + 1]; k++) {
            c = children[k];
            if (c < width) /* columns past the row are never pinned */
                pin[c] = column_draw(s, jump, c) < chi0;
            factor[c] = choice[2 * c + pin[c]];
            act[na] = c;
            na += !pin[c];
        }
    }
    /* act[1..q) are the unpinned inner sites below the root, parents first */
    while (--q > 0) {
        u = act[q];
        r = lam[u];
        for (k = child_ptr[u]; k < child_ptr[u + 1]; k++)
            r = r * factor[children[k]];
        factor[u] = 1.0 / (1.0 + r);
    }
    r = lam[0];
    for (k = child_ptr[0]; k < child_ptr[1]; k++)
        r = r * factor[children[k]];
    return r;
}

/* out[i] = the hardcore conditional of the center symbol of
 * patterns[(lo + i) / n_inner] under the i-th of n percolation pasts drawn
 * from the PCG64 state pcg, for n rows, by the ratio recursion
 * R_v = lam[v] prod_c 1/(1+R_c) over a tree in level order.
 *
 * Site 0 is the root, the center.  The children of site v are
 * children[child_ptr[v]] .. children[child_ptr[v+1]-1], in multiplication
 * order, each of a larger index than v.  Sites deep_start .. n_window-1 are
 * the deepest level of the window; an unpinned site there has the ratio
 * free_ratio[v] of its unpinned subtree.  The pasts are drawn as
 * percolation_lookup draws them.  A pin at column c < width sets R_c to 0
 * (symbol 0) or infinity (symbol 1).  Ratios are carried as factors
 * F = 1/(1+R), so F is 1 or 0 at a pin, and the root gives
 * p = R_0/(1+R_0), or 1 - p when the center is 0.  A pinned site's factor
 * is picked by indexing, not by a branch: pins fall at random, and a
 * mispredicted branch per site costs more than the division it would save.
 *
 * A pinned site cuts the tree, so each row draws and visits only the sites
 * whose ancestors are all unpinned (pruned_ratio), about a quarter of B_5
 * of F_2 on average.
 *
 * pcg is advanced in place as percolation_lookup advances it; pin
 * (n_window bytes, zero), factor (3 * n_window doubles), act (n_window
 * words) and jump (4 * (width + 1) words) are caller-owned workspaces.
 * The caller checks dtypes, shapes, 0 <= deep_start < width <= n_window <=
 * the length of lam and free_ratio, n_inner >= 1, lo >= 0, that every row
 * read is a row of patterns, and that the patterns
 * hold only 0 and 1 with no two 1s joined by an edge of the tree; this
 * function checks the tree (TREE_BAD_GEOMETRY).
 */
int tree_percolation(const int64_t *patterns, int64_t width,
                     int64_t n_inner, int64_t lo, int64_t n,
                     const int64_t *child_ptr, const int64_t *children,
                     int64_t n_children, int64_t deep_start, int64_t n_window,
                     const double *lam, const double *free_ratio, double *out,
                     uint8_t *pin, double *factor, int64_t *act, uint64_t *pcg, uint64_t *jump)
{
    /* choice[2v] is site v's factor unpinned, choice[2v + 1] pinned */
    double *choice = factor + n_window;
    const int64_t *row = patterns;
    const uint64_t *whole = jump + 4 * width;
    u128 state = load128(pcg), start;
    int64_t i, c, v, j, current = -1;
    double r, p;

    if (!tree_ok(child_ptr, children, n_children, deep_start, n_window))
        return TREE_BAD_GEOMETRY;
    for (v = 0; v < n_window; v++) {
        choice[2 * v] = v >= deep_start ? 1.0 / (1.0 + free_ratio[v]) : 0.0;
        choice[2 * v + 1] = 1.0;
    }
    fill_jumps(jump, width, load128(pcg + 2));
    for (i = 0; i < n; i++) {
        j = (lo + i) / n_inner;
        if (j != current) {
            row = patterns + j * width;
            for (c = 1; c < width; c++)
                choice[2 * c + 1] = row[c] == 1 ? 0.0 : 1.0;
            current = j;
        }
        start = next_row(&state, whole);
        if (deep_start == 0)
            r = free_ratio[0];
        else
            r = pruned_ratio(child_ptr, children, deep_start, width, lam, choice, pin, factor, act,
                             start, jump);
        p = r / (1.0 + r);
        out[i] = row[0] == 1 ? p : 1.0 - p;
    }
    store128(pcg, state);
    return KERNEL_OK;
}
