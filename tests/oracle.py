"""Independent oracles, by Gaussian elimination and literal sums, that the
Berlekamp-Massey profile, the kernel polynomials and the engine in
hfq.fastpath are checked against, and the unreduced references for the
walk: a block enumerator in fq_vectors order, the batched profile of a
block with no prefix sharing, and the variance loops over every
sequence; and the walk's strict-class tally, which no library function
keeps, for the checks of the walk's strict rho."""

from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np

from hfq import charsum, fastpath
from hfq.field import CHUNK, to_digits

from hfq.hankel import (
    CharPolys,
    Seq,
    analyze,
    hankel_matrix,
    kernel_basis,
    rank,
    row_reduce,
)
from hfq.polyring import Poly, coeff_vector
from hfq.variance import ThmParams


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
        counts[ctx.trace(acc)] += 1
    return counts


def gauss_profile(seq: Seq):
    """(r, rho, strict_rho) by eliminating every leading square."""
    n1, n2 = seq.n1, seq.n2
    invertible = [k for k in range(1, n1 + 1) if rank(seq, k, k) == k]
    r = rank(seq, n1, n2)
    rho = max(invertible, default=0)
    strict_rho = max((k for k in invertible if k < n2), default=0)
    return r, rho, strict_rho


def gauss_recurrence_vector(seq: Seq, rho: int):
    """x with H_{rho,rho} x = (alpha_rho, ..., alpha_{2 rho - 1})^T."""
    ctx = seq.ctx
    e = seq.entries
    aug = [list(e[i : i + rho]) + [e[i + rho]] for i in range(rho)]
    pivots = row_reduce(aug, rho + 1, ctx)
    if pivots != list(range(rho)):
        raise AssertionError("leading square expected to be invertible")
    return tuple(row[rho] for row in aug)


def gauss_rhopi_form(seq: Seq, rows: int, cols: int):
    """The kernel-preserving row operations that expose the block shape of
    a full-length split, rows + cols - 2 = n.

    Returns (matrix, x): x solves H_{rho,rho} x = (alpha_rho, ...,
    alpha_{2 rho - 1})^T, by eliminating the leading square, and each row
    i >= rho of the matrix loses sum_j x_j times row i - rho + j; x is empty
    when no operations apply.  The result has the invertible rho x rho
    leading square on top, zeros below it, and a lower skew-triangular
    Hankel block at bottom right whose first non-zero skew-diagonal is the
    pi-th from the end.
    """
    prof = analyze(seq).profile
    mat = hankel_matrix(seq, rows, cols)
    rho = prof.rho
    if rho == 0 or 2 * rho - 1 > seq.n:
        return mat, ()
    x = gauss_recurrence_vector(seq, rho)
    ctx = seq.ctx
    for i in range(rows - 1, rho - 1, -1):
        new_row = list(mat[i])
        for j, xj in enumerate(x):
            if xj != ctx.zero:
                prev = mat[i - rho + j]
                new_row = [ctx.sub(a, ctx.mul(xj, b)) for a, b in zip(new_row, prev)]
        mat[i] = new_row
    return mat, x


def _is_a1_multiple_in_range(v: Poly, a1: Poly, max_cofactor_deg) -> bool:
    if v.is_zero:
        return True
    q, r = divmod(v, a1)
    return r.is_zero and q.degree <= max_cofactor_deg


def _view_kernel(seq: Seq, rows: int, cols: int):
    """RREF kernel basis of the rows x cols view; with no rows, the unit
    vectors."""
    if rows == 0:
        ctx = seq.ctx
        return [tuple(ctx.one if i == j else ctx.zero for i in range(cols)) for j in range(cols)]
    return kernel_basis(seq, rows, cols)


def gauss_char_polys(seq: Seq) -> CharPolys:
    """(a1, a2) by eliminating the Hankel views: a1 solves the leading
    square's recurrence system (or, in the full-rank even case, is the RREF
    kernel vector of the (n1-1) x (n1+1) view with non-zero last entry); a2
    is the first RREF kernel vector of the (r-1) x (n-r+3) view outside the
    a1-multiples, reduced top down by c T^d a1 and made monic."""
    ctx = seq.ctx
    n = seq.n
    prof = analyze(seq).profile
    r, rho = prof.r, prof.rho
    one = Poly.one(ctx)
    if r == 0:
        return CharPolys(one, Poly.zero(ctx), True)

    if rho == 0:
        a1 = one
    elif 2 * rho - 1 <= n:
        x = gauss_recurrence_vector(seq, rho)
        a1 = Poly(ctx, tuple(ctx.neg(c) for c in x) + (ctx.one,))
    else:
        # full-rank even case: pick a1 from the first kernel where it appears
        kb = _view_kernel(seq, rho - 1, n + 3 - rho)
        cand = [v for v in kb if v[-1] != ctx.zero]
        if not cand:
            raise AssertionError("no monic kernel vector of full degree")
        a1 = Poly(ctx, cand[0]).monic()

    m = n + 2 - r
    kb = _view_kernel(seq, r - 1, m + 1)
    max_cof = m - r  # degree bound for a1-multiples inside this kernel
    pick = None
    for v in kb:
        pv = Poly(ctx, v)
        if not _is_a1_multiple_in_range(pv, a1, max_cof):
            pick = pv
            break
    if pick is None:
        raise AssertionError("kernel lacks a second independent polynomial")
    # canonical reduction: remove every addable multiple c T^d a1, top down
    reduced = pick
    for d in range(n - 2 * r + 2, -1, -1):
        c = reduced.coeff(d + rho)
        if c != ctx.zero:
            reduced = reduced - a1.shift(d).scale(c)
    a2 = reduced.monic()
    return CharPolys(a1, a2, rho == r)


def blocks(ctx, width: int, zeros: int = 0):
    """The vectors of F_q^width, in the order of field.fq_vectors, as
    [N, zeros + width] code blocks with N * width at most field.CHUNK / 2;
    each vector comes behind ``zeros`` zero entries."""
    stop = ctx.q**width
    step = max(1, CHUNK // 2 // max(width, 1))
    for lo in range(0, stop, step):
        codes = np.arange(lo, min(lo + step, stop))
        block = np.zeros((len(codes), zeros + width), dtype=np.int64)
        block[:, zeros:] = to_digits(ctx.q, codes, width)
        yield block


def batched_profile(ctx, block):
    """(r, rho, strict_rho) of each row of an [N, m] block, m >= 1: the
    walk's step functions run on the whole block, one row per column, with
    no prefix sharing.  The last step, as at the walk's leaves, applies only
    the rule: r = min(L, m + 1 - L), and strict rho is rho before it."""
    m = block.shape[1]
    state = fastpath._start(ctx, m, len(block))
    for i in range(m - 1):
        d = fastpath._discrepancy(ctx, state, i, slice(None), block[:, i])
        fastpath._step(ctx, state, i, block[:, i], d)
    d = fastpath._discrepancy(ctx, state, m - 1, slice(None), block[:, m - 1])
    _, length, rho = fastpath._rule(m - 1, d, state[4], state[5])
    return np.minimum(length, m + 1 - length), rho, state[5]


def _windows(par: ThmParams):
    """(m_vec, l_m, a_vec, l_a): the monic and full sides' coefficient
    vectors and quadratic-form levels."""
    mw, m_width, l_m = par.side(True)
    aw, a_width, l_a = par.side(False)
    return coeff_vector(mw, m_width), l_m, coeff_vector(aw, a_width), l_a


def _not_near_zero(block):
    return block[block[:, :-1].any(axis=1)]  # near-zero classes carry the squared mean


def fast_variance_unreduced(par: ThmParams) -> Fraction:
    """variance_charsum's fast mode as one loop over every sequence with h
    leading zeros: code blocks, sliding products and the batched profile of
    each, with no scalar orbits and no prefix sharing."""
    ctx, q, n, h = par.u.ctx, par.u.ctx.q, par.n, par.h
    m_vec, l_m, a_vec, l_a = _windows(par)
    total = 0
    for block in blocks(ctx, n + 1 - h, zeros=h):
        block = _not_near_zero(block)
        r_x, _, srho_x = batched_profile(ctx, fastpath.odot(ctx, block, m_vec))
        r_y, _, _ = batched_profile(ctx, fastpath.odot(ctx, block, a_vec))
        e_x = charsum.magsq_exponents(l_m, r_x, r_x - srho_x, True)
        e_y = charsum.magsq_exponents(l_a, r_y, None, False)
        keep = e_x >= 0
        total += sum(q**e for e in (e_x[keep] + e_y[keep]).tolist())
    return Fraction(4 * q ** (2 * h), q ** (2 * n + 1)) * total


def exact_variance_unreduced(par: ThmParams) -> Fraction:
    """variance_charsum's exact mode as one loop over every sequence with h
    leading zeros: both character sums of each, with no orbits."""
    ctx, q, n, h = par.u.ctx, par.u.ctx.q, par.n, par.h
    m_vec, l_m, a_vec, l_a = _windows(par)
    total = 0
    for block in blocks(ctx, n + 1 - h, zeros=h):
        block = _not_near_zero(block)
        x = fastpath.odot(ctx, block, m_vec)
        y = fastpath.odot(ctx, block, a_vec)
        mm = fastpath.magsq(fastpath.qform_counts(ctx, x, l_m, True)).tolist()
        ma = fastpath.magsq(fastpath.qform_counts(ctx, y, l_a, False)).tolist()
        total += sum(a * b for a, b in zip(mm, ma))
    return Fraction(4 * q ** (2 * h), q ** (2 * n + 1)) * total


def walk_strict_tally(ctx, n: int, h: int, workers: int = 1) -> dict:
    """{(r, strict rho, strict pi): count} over the sequences in F_q^{n+1}
    with h leading zeros, read off fastpath.walk's leaves as the census
    reads them: each leaf stands for its q - 1 multiples, and the zero
    sequence is added.  The top level is split into ``workers`` slices,
    as the census's process pool splits it."""
    tally = Counter({(0, 0, 0): 1})
    for i in range(workers):
        tops = slice(i, None, workers)
        for (r, _, strict_rho), _ in fastpath.walk(ctx, n + 1 - h, h, ((1,),), tops):
            for key in zip(r.tolist(), strict_rho.tolist()):
                tally[(*key, key[0] - key[1])] += ctx.q - 1
    return dict(tally)
