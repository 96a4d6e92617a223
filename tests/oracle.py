"""Independent oracles, by Gaussian elimination and literal sums, that the
Berlekamp-Massey profile, the kernel polynomials and the engine in
hfq.fastpath are checked against."""

from itertools import product

from hfq.hankel import (
    CharPolys,
    HankelView,
    Seq,
    _kernel_basis_raw,
    _row_reduce,
    profile,
    rank,
)
from hfq.polyring import Poly


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


def _hankel_rows(entries, rows: int, cols: int):
    return [list(entries[i : i + cols]) for i in range(rows)]


def gauss_recurrence_vector(seq: Seq, rho: int):
    """x with H_{rho,rho} x = (alpha_rho, ..., alpha_{2 rho - 1})^T."""
    ctx = seq.ctx
    e = seq.entries
    aug = [list(e[i : i + rho]) + [e[i + rho]] for i in range(rho)]
    pivots = _row_reduce(aug, rho + 1, ctx)
    if pivots != list(range(rho)):
        raise AssertionError("leading square expected to be invertible")
    return tuple(row[rho] for row in aug)


def gauss_rhopi_form(view: HankelView):
    """rhopi_form with x from eliminating the leading rho x rho square."""
    seq = view.seq
    prof = profile(seq)
    mat = view.matrix()
    rho = prof.rho
    if rho == 0 or 2 * rho - 1 > seq.n:
        return mat, ()
    x = gauss_recurrence_vector(seq, rho)
    ctx = seq.ctx
    for i in range(view.rows - 1, rho - 1, -1):
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


def gauss_char_polys(seq: Seq) -> CharPolys:
    """(a1, a2) by eliminating the Hankel views: a1 solves the leading
    square's recurrence system (or, in the full-rank even case, is the RREF
    kernel vector of the (n1-1) x (n1+1) view with non-zero last entry); a2
    is the first RREF kernel vector of the (r-1) x (n-r+3) view outside the
    a1-multiples, reduced top down by c T^d a1 and made monic."""
    ctx = seq.ctx
    n = seq.n
    prof = profile(seq)
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
        kb = _kernel_basis_raw(
            _hankel_rows(seq.entries, rho - 1, n + 3 - rho), n + 3 - rho, ctx
        )
        cand = [v for v in kb if v[-1] != ctx.zero]
        if not cand:
            raise AssertionError("no monic kernel vector of full degree")
        a1 = Poly(ctx, cand[0]).monic()

    m = n + 2 - r
    if r >= 2:
        kb = _kernel_basis_raw(_hankel_rows(seq.entries, r - 1, m + 1), m + 1, ctx)
    else:
        kb = [
            tuple(ctx.one if i == j else ctx.zero for i in range(m + 1))
            for j in range(m + 1)
        ]
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
