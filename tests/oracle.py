"""Independent oracles the engine in hfq.fastpath is checked against."""

from itertools import product

from hfq.hankel import HankelView, Seq, rank


def value_counts_scalar(seq: Seq, l: int, monic: bool):
    """Tally psi-exponents of the quadratic form [E]^T H [E] over the vector
    family, by the literal sum: one field operation at a time."""
    ctx = seq.ctx
    e = seq.entries
    rows = [e[i : i + l + 1] for i in range(l + 1)]
    counts = [0] * ctx.p
    elems = list(ctx.elements())
    positions = l if monic else l + 1
    for tail in product(elems, repeat=positions):
        vec = tail + (ctx.one,) if monic else tail
        acc = ctx.zero
        for i in range(l + 1):
            vi = vec[i]
            if vi == ctx.zero:
                continue
            row = rows[i]
            dot = ctx.zero
            for j in range(l + 1):
                vj = vec[j]
                if vj != ctx.zero:
                    dot = ctx.add(dot, ctx.mul(row[j], vj))
            acc = ctx.add(acc, ctx.mul(vi, dot))
        counts[ctx.psi_exponent(acc)] += 1
    return counts


def gauss_profile(seq: Seq):
    """(r, rho, strict_rho) by eliminating every leading square."""
    n1, n2 = seq.n1, seq.n2
    invertible = [k for k in range(1, n1 + 1) if rank(HankelView(seq, k, k)) == k]
    r = rank(HankelView(seq, n1, n2))
    rho = max(invertible, default=0)
    strict_rho = max((k for k in invertible if k < n2), default=0)
    return r, rho, strict_rho
