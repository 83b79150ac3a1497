"""Pure-Python heat-bath sweep kernel; the fallback twin of _glauber.c.

Arithmetic and uniform consumption are kept identical to the C kernel, so
trajectories agree bitwise between backends; the tests use this twin as the
reference for the C kernel.
"""


def glauber_sweeps(x, nbr_out, nbr_in, wh, wj, allowed, uniforms, sweeps, counts=None, safe=0):
    """Run `sweeps` heat-bath sweeps over x in place; if counts is given,
    counts[t] is the number of sites not equal to `safe` after sweep t."""
    n = x.shape[0]
    n_gen = nbr_out.shape[0]
    a = wh.shape[0]
    if a > 64:
        raise ValueError("alphabet too large for kernel")

    # plain python containers beat numpy scalar indexing in the inner loop
    xs = x.tolist()
    outs = [nbr_out[s].tolist() for s in range(n_gen)]
    inns = [nbr_in[s].tolist() for s in range(n_gen)]
    whl = wh.tolist()
    wjl = [wj[s].tolist() for s in range(n_gen)]
    alw = [allowed[s].tolist() for s in range(n_gen)]
    u = uniforms.tolist()
    gens = list(range(n_gen))
    symbols = list(range(a))
    weights = [0.0] * a

    base = 0
    for t in range(sweeps):
        for v in range(n):
            total = 0.0
            for c in symbols:
                w = whl[c]
                for s in gens:
                    o = outs[s][v]
                    if o == v:
                        w = w * wjl[s][c][c]
                    else:
                        xo = xs[o]
                        if not alw[s][c][xo]:
                            w = 0.0
                            break
                        w = w * wjl[s][c][xo]
                        xi = xs[inns[s][v]]
                        if not alw[s][xi][c]:
                            w = 0.0
                            break
                        w = w * wjl[s][xi][c]
                weights[c] = w
                total = total + w
            if total > 0.0:
                thr = u[base] * total
                pick = a - 1
                cum = 0.0
                for c in symbols:
                    cum = cum + weights[c]
                    if thr < cum:
                        pick = c
                        break
                xs[v] = pick
            base += 1
        if counts is not None:
            counts[t] = n - xs.count(safe)
    x[:] = xs
    return None
