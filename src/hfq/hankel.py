"""Hankel matrices attached to finite sequences over F_q.

A sequence alpha = (alpha_0, ..., alpha_n) determines the (l+1) x (m+1)
Hankel matrix with entry (i, j) = alpha_{i+j} whenever l + m <= n (shorter
views use the truncated sequence).  This module computes ranks and kernels,
the (r, rho, pi) characteristic and its strict variant, the block form
reached by kernel-preserving row operations, the pair of coprime kernel
polynomials, class-size formulas with their exhaustive census oracle, the
sliding dot product against a padded coefficient vector, and the bijection
between full-recurrence classes and coprime polynomial pairs.

Conventions: rho is the size of the largest invertible leading square
submatrix (capped at n_1 = floor((n+2)/2); the strict variant caps at
n_2 - 1 with n_2 = floor((n+3)/2)), r is the rank of the n_1 x n_2 matrix,
and pi = r - rho.

The characteristic and the kernel polynomials come from one
Berlekamp-Massey pass, O(n^2) per sequence; the census runs the same pass
batched (fastpath.profile).  Gaussian elimination serves only rank and
kernel_basis, the ranks and kernels of explicit views: it is the
independent side that the pass is checked against.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fastpath
from .errors import (
    NotPiZeroError,
    PreconditionViolatedError,
    ShapeTooSmallError,
    TooShortError,
    WidthTooSmallError,
    WrongClassError,
    check_guard,
)
from .field import FieldCtx, FqElem
from .polyring import Poly, coeff_vector, gcd, laurent_expand


class Seq:
    """Finite sequence alpha_0..alpha_n of F_q codes (length n+1 >= 1)."""

    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: FieldCtx, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("sequence needs at least one entry")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Seq is immutable")

    @classmethod
    def from_literal(cls, ctx: FieldCtx, text: str) -> "Seq":
        return cls(ctx, ctx.parse_literal(text))

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    @property
    def n1(self) -> int:
        return (self.n + 2) // 2

    @property
    def n2(self) -> int:
        return (self.n + 3) // 2

    def truncate(self, n_prime: int) -> "Seq":
        if not 0 <= n_prime <= self.n:
            raise ValueError("truncation index out of range")
        return Seq(self.ctx, self.entries[: n_prime + 1])

    def leading_zeros(self) -> int:
        z = 0
        zero = self.ctx.zero
        for e in self.entries:
            if e != zero:
                break
            z += 1
        return z

    def is_zero(self) -> bool:
        return self.leading_zeros() == len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Seq)
            and self.ctx == other.ctx
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "Seq(" + ",".join(self.ctx.format_elem(e) for e in self.entries) + ")"


class HankelView:
    """The rows x cols Hankel matrix of a sequence, entry (i,j) = alpha_{i+j}.

    rows + cols - 2 may be smaller than the sequence's top index; the view
    then uses the truncated sequence, matching the submatrix convention.
    """

    __slots__ = ("seq", "rows", "cols")

    def __init__(self, seq: Seq, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("views need at least one row and one column")
        n_prime = rows + cols - 2
        if n_prime > seq.n:
            raise ValueError("view exceeds the sequence")
        if n_prime < seq.n:
            seq = seq.truncate(n_prime)
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("HankelView is immutable")

    def entry(self, i: int, j: int) -> FqElem:
        return self.seq.entries[i + j]

    def matrix(self):
        e = self.seq.entries
        return [list(e[i : i + self.cols]) for i in range(self.rows)]


# exact linear algebra over the field


def _row_reduce(rows, ncols: int, ctx: FieldCtx):
    """In-place RREF; returns pivot column list.  Pivot rule: leftmost column,
    then topmost remaining row."""
    pivots = []
    cur = 0
    zero = ctx.zero
    for col in range(ncols):
        pr = None
        for i in range(cur, len(rows)):
            if rows[i][col] != zero:
                pr = i
                break
        if pr is None:
            continue
        rows[cur], rows[pr] = rows[pr], rows[cur]
        inv = ctx.inv(rows[cur][col])
        if inv != ctx.one:
            rows[cur] = [ctx.mul(inv, x) for x in rows[cur]]
        for i in range(len(rows)):
            if i != cur and rows[i][col] != zero:
                f = rows[i][col]
                rows[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(rows[i], rows[cur])]
        pivots.append(col)
        cur += 1
        if cur == len(rows):
            break
    return pivots


def _kernel_basis_raw(rows, ncols: int, ctx: FieldCtx):
    """Kernel basis from the RREF, one vector per free column, in column order."""
    work = [list(r) for r in rows]
    pivots = _row_reduce(work, ncols, ctx)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ctx.zero] * ncols
        v[free] = ctx.one
        for i, pc in enumerate(pivots):
            v[pc] = ctx.neg(work[i][free])
        basis.append(tuple(v))
    return basis


def rank(view: HankelView) -> int:
    """Rank of the view's matrix (not the rank invariant of the sequence)."""
    return len(_row_reduce(view.matrix(), view.cols, view.seq.ctx))


def kernel_basis(view: HankelView):
    """Reduced-echelon kernel basis of the view's matrix."""
    return _kernel_basis_raw(view.matrix(), view.cols, view.seq.ctx)


@dataclass(frozen=True)
class Profile:
    """Rank/invertibility characteristic of a sequence: r = rho + pi in both
    the standard and strict readings."""

    r: int
    rho: int
    pi: int
    strict_rho: int
    strict_pi: int

    @property
    def standard(self):
        return (self.r, self.rho, self.pi)

    @property
    def strict(self):
        return (self.r, self.strict_rho, self.strict_pi)

    def as_dict(self):
        return {
            "r": self.r,
            "rho": self.rho,
            "pi": self.pi,
            "strict_rho": self.strict_rho,
            "strict_pi": self.strict_pi,
        }


def _lc_profile(entries, ctx: FieldCtx):
    """One Berlekamp-Massey pass: the linear complexities L_0..L_len of the
    prefixes, the connection polynomial cs[i] after i entries, and the final
    bs = x^shift * B.  c and bs have fixed width len + 1; each step shifts bs,
    and c is rebuilt (never mutated) whenever it changes, so cs[i] is a
    snapshot."""
    zero = ctx.zero
    width = len(entries) + 1
    c = [ctx.one] + [zero] * (width - 1)
    bs = [zero, ctx.one] + [zero] * (width - 2)
    b_inv = ctx.one
    length = 0
    out = [0]
    cs = [c]
    for i, d in enumerate(entries):
        for j in range(1, length + 1):
            if c[j] != zero:
                d = ctx.add(d, ctx.mul(c[j], entries[i - j]))
        if d != zero:
            f = ctx.mul(d, b_inv)
            prev = c
            c = [ctx.sub(x, ctx.mul(f, y)) if y != zero else x for x, y in zip(c, bs)]
            if 2 * length <= i:
                length = i + 1 - length
                b_inv = ctx.inv(d)
                bs = prev
        bs = [zero] + bs[:-1]
        out.append(length)
        cs.append(c)
    return out, cs, bs


def _profile_of(seq: Seq, lc) -> Profile:
    r = min(lc[-1], seq.n + 2 - lc[-1])
    invertible = [k for k in range(1, seq.n1 + 1) if lc[2 * k - 1] == k]
    rho = max(invertible, default=0)
    strict_rho = max((k for k in invertible if k < seq.n2), default=0)
    return Profile(r, rho, r - rho, strict_rho, r - strict_rho)


def profile(seq: Seq) -> Profile:
    """(r, rho, pi) and the strict variant, from the linear-complexity profile.

    One Berlekamp-Massey pass gives L_0..L_{n+1}.  The n_1 x n_2 matrix has
    rank r = min(L_{n+1}, n + 2 - L_{n+1}), and the leading k x k square is
    invertible iff L_{2k-1} = k.
    """
    return _profile_of(seq, _lc_profile(seq.entries, seq.ctx)[0])


def _rev(ctx: FieldCtx, c, d: int) -> Poly:
    """x^d c(1/x) for a coefficient list c of degree <= d."""
    if any(c[d + 1 :]):
        raise AssertionError(f"connection polynomial exceeds degree {d}")
    return Poly(ctx, c[d::-1])


def _first_kernel_poly(ctx: FieldCtx, n: int, rho: int, lc, cs) -> Poly:
    """a1 read off the connection polynomials of the pass (see char_polys)."""
    if rho == 0:
        return Poly.one(ctx)
    if 2 * rho - 1 <= n:
        return _rev(ctx, cs[2 * rho], rho)
    # full-rank even case, n = 2 rho - 2: the kernel of the (rho-1) x (rho+1)
    # view is spanned by A of degree rho and the monic g of the least degree
    # f0 it admits (its first free column)
    a = _rev(ctx, cs[n + 1], rho)
    f0 = min(j for j in range(rho) if lc[j + rho - 1] <= j)
    g = _rev(ctx, cs[f0 + rho - 1], f0)
    return a - g.scale(a.coeff(f0))


def rhopi_form(view: HankelView):
    """Apply the kernel-preserving row operations that expose the block shape.

    Returns (matrix, x) where x is the solution vector defining the row
    operations (empty when no operations apply): H_{rho,rho} x =
    (alpha_rho, ..., alpha_{2 rho - 1})^T, read off a1 = T^rho - sum x_j T^j.
    The result has the invertible rho x rho leading square on top, zeros
    below it, and a lower skew-triangular Hankel block at bottom right whose
    first non-zero skew-diagonal is the pi-th from the end.
    """
    seq = view.seq
    ctx = seq.ctx
    lc, cs, _ = _lc_profile(seq.entries, ctx)
    prof = _profile_of(seq, lc)
    if view.rows < prof.r or view.cols < prof.r:
        raise ShapeTooSmallError(
            f"need at least {prof.r} rows and columns, have {view.rows}x{view.cols}"
        )
    mat = view.matrix()
    rho = prof.rho
    if rho == 0 or 2 * rho - 1 > seq.n:
        return mat, ()
    a1 = _first_kernel_poly(ctx, seq.n, rho, lc, cs)
    x = tuple(ctx.neg(c) for c in a1.coeffs[:rho])
    for i in range(view.rows - 1, rho - 1, -1):
        new_row = list(mat[i])
        for j, xj in enumerate(x):
            if xj != ctx.zero:
                prev = mat[i - rho + j]
                new_row = [ctx.sub(a, ctx.mul(xj, b)) for a, b in zip(new_row, prev)]
        mat[i] = new_row
    return mat, x


@dataclass(frozen=True)
class CharPolys:
    """The coprime pair (a1, a2) whose bounded-degree multiples span every
    kernel of the sequence's Hankel family; canonical is True when a2 is the
    unique reduced representative (possible precisely when rho = r)."""

    a1: Poly
    a2: Poly
    canonical: bool


def char_polys(seq: Seq) -> CharPolys:
    """First and second kernel polynomials of the sequence, read off the
    connection polynomials cs[i] of one Berlekamp-Massey pass, with
    rev_d(c) = x^d c(1/x).

    a1 is monic of degree rho: rev_rho(cs[2 rho]) when 2 rho - 1 <= n.  In
    the full-rank case with even n (n = 2 rho - 2) no leading square fixes
    it, and a1 is the kernel vector of the (rho-1) x (rho+1) view with last
    coefficient 1 and coefficient 0 at the view's first free column f0 =
    min{j : L_{j+rho-1} <= j}: A - A_f0 g with A = rev_rho(cs[n+1]) and
    g = rev_f0(cs[f0+rho-1]).

    a2 is monic of degree <= m = n - r + 2 (zero for the zero sequence):
    rev_m of the final shifted auxiliary polynomial when L_{n+1} = r, and of
    cs[n+1] otherwise, reduced canonically by the allowed a1-multiple
    additions.  Any kernel vector of the (r-1) x (m+1) view outside the
    a1-multiples reduces to the same a2.
    """
    ctx = seq.ctx
    n = seq.n
    lc, cs, bs = _lc_profile(seq.entries, ctx)
    prof = _profile_of(seq, lc)
    r, rho = prof.r, prof.rho
    if r == 0:
        return CharPolys(Poly.one(ctx), Poly.zero(ctx), True)
    a1 = _first_kernel_poly(ctx, n, rho, lc, cs)
    reduced = _rev(ctx, bs if lc[-1] == r else cs[-1], n + 2 - r)
    # canonical reduction: remove every addable multiple c T^d a1, top down
    for d in range(n - 2 * r + 2, -1, -1):
        c = reduced.coeff(d + rho)
        if c != ctx.zero:
            reduced = reduced - a1.shift(d).scale(c)
    return CharPolys(a1, reduced.monic(), rho == r)


def seq_extend(seq: Seq, extra: int) -> Seq:
    """Append entries following the order-r recurrence; requires pi = 0."""
    prof = profile(seq)
    if prof.pi != 0:
        raise NotPiZeroError("sequence admits no full-length recurrence (pi > 0)")
    if extra < 0:
        raise ValueError("extension length must be >= 0")
    ctx = seq.ctx
    r = prof.r
    a1 = char_polys(seq).a1
    entries = list(seq.entries)
    for _ in range(extra):
        if r == 0:
            entries.append(ctx.zero)
            continue
        acc = ctx.zero
        for i in range(r):
            acc = ctx.add(acc, ctx.mul(a1.coeff(i), entries[len(entries) - r + i]))
        entries.append(ctx.neg(acc))
    return Seq(ctx, entries)


# class sizes


def census_formula(n: int, h: int, r: int, rho: int, pi: int, q: int) -> int:
    """Number of sequences in F_q^{n+1} with h leading zeros and the given
    standard characteristic; 0 for parameter combinations no class attains."""
    if n < 0 or not 0 <= h <= n + 1:
        raise ValueError("need n >= 0 and 0 <= h <= n+1")
    if min(r, rho, pi) < 0 or r != rho + pi:
        return 0
    n1 = (n + 2) // 2
    even_ind = 1 if n % 2 == 0 else 0
    if rho == 0:
        if r <= min(n1 - even_ind, n - h + 1):
            return 1 if r == 0 else (q - 1) * q ** (r - 1)
        return 0
    if rho == n1:
        if pi == 0 and h + 1 <= n1:
            return (q - 1) * q ** (n - h)
        return 0
    if h + 1 <= rho <= n1 - 1 and 0 <= pi <= n1 - rho - even_ind:
        if pi == 0:
            return (q - 1) * q ** (2 * rho - h - 1)
        return (q - 1) ** 2 * q ** (2 * rho + pi - h - 2)
    return 0


def census_formula_total(n: int, h: int, r: int, q: int) -> int:
    """Number of sequences with h leading zeros and rank invariant r."""
    if n < 0 or not 0 <= h <= n + 1:
        raise ValueError("need n >= 0 and 0 <= h <= n+1")
    if r < 0:
        return 0
    n1 = (n + 2) // 2
    if r == 0:
        return 1
    if 1 <= r <= min(h, n - h + 1):
        return (q - 1) * q ** (r - 1)
    if h + 1 <= r <= n1 - 1:
        return (q * q - 1) * q ** (2 * r - h - 2)
    if r == n1 and h + 1 <= n1:
        return q ** (n - h + 1) - q ** (2 * n1 - h - 2)
    return 0


@dataclass
class CensusTally:
    standard: dict
    strict: dict
    total: int


def _census_chunk(args):
    """Class tallies of the sequences with codes start..stop-1, indexed by
    r * side + rho (row 0) and r * side + strict rho (row 1)."""
    ctx, n, h, start, stop, side = args
    tallies = np.zeros((2, side * side), dtype=np.int64)
    for block in fastpath.blocks(ctx, n + 1 - h, zeros=h, start=start, stop=stop):
        r, rho, strict_rho = fastpath.profile(ctx, block)
        for tally, key in zip(tallies, (rho, strict_rho)):
            tally += np.bincount(r * side + key, minlength=side * side)
    return tallies


def census_enumerate(
    ctx: FieldCtx, n: int, h: int, cap: int = 10**8, workers: int = 1
) -> CensusTally:
    """Exhaustive tallies of the standard and strict classes over all
    sequences in F_q^{n+1} with h leading zeros."""
    if n < 0 or not 0 <= h <= n + 1:
        raise ValueError("need n >= 0 and 0 <= h <= n+1")
    total = ctx.q ** (n + 1 - h)
    check_guard(total, cap, f"census of q^{n + 1 - h}", "sequences")
    side = (n + 2) // 2 + 1  # r, rho and strict rho are at most n1
    if workers <= 1 or total < 4 * workers:
        tallies = _census_chunk((ctx, n, h, 0, total, side))
    else:
        bounds = [total * i // workers for i in range(workers + 1)]
        jobs = [(ctx, n, h, bounds[i], bounds[i + 1], side) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tallies = sum(pool.map(_census_chunk, jobs))
    standard, strict = (
        {(c // side, c % side, c // side - c % side): int(t[c]) for c in np.flatnonzero(t).tolist()}
        for t in tallies
    )
    return CensusTally(standard, strict, total)


# sliding products and the circulant Toeplitz picture


def odot(seq: Seq, w: Poly, s: int) -> Seq:
    """Sliding dot product of the sequence against [W]_s (W padded to width
    s+1); output entry i is sum_j W_j alpha_{i+j}."""
    if w.degree > s:
        raise WidthTooSmallError(f"declared width {s} below deg W = {w.degree}")
    if s > seq.n:
        raise TooShortError("sequence shorter than the sliding window")
    ctx = seq.ctx
    wv = coeff_vector(w, s)
    e = seq.entries
    out = []
    for i in range(seq.n - s + 1):
        acc = ctx.zero
        for j, wj in enumerate(wv):
            if wj != ctx.zero:
                acc = ctx.add(acc, ctx.mul(wj, e[i + j]))
        out.append(acc)
    return Seq(ctx, out)


def toeplitz_mat(w: Poly, s: int, k: int):
    """(k+s) x k banded matrix whose column j holds [W]_s shifted down j rows.

    Acting on length-k coefficient vectors it multiplies by W: the product
    against the vector of B (deg B < k) is the length-(k+s) vector of W*B,
    and H_{l,k+s}(alpha) times this matrix is H_{l,k}(alpha odot [W]_s).
    """
    if w.degree > s:
        raise WidthTooSmallError(f"declared width {s} below deg W = {w.degree}")
    if k < 1:
        raise ValueError("need at least one column")
    ctx = w.ctx
    wv = coeff_vector(w, s)
    return [
        [wv[i - j] if 0 <= i - j <= s else ctx.zero for j in range(k)]
        for i in range(k + s)
    ]


@dataclass(frozen=True)
class ReductionPrediction:
    """Predicted standard characteristic and first kernel polynomial of
    alpha odot [W]_s, without computing the reduced sequence."""

    r: int
    rho: int
    pi: int
    a1: Poly


def reduction_profile(seq: Seq, w: Poly, s: int) -> ReductionPrediction:
    """Predict the characteristic of alpha odot [W]_s from alpha's own.

    Requires W != 0, deg W <= s <= n, n >= 2 and n >= 2 r(alpha) + s - 1.
    The rank drops by deg gcd(a1, W) + min(s - deg W, pi), rho drops by
    deg gcd(a1, W), and the new a1 is a1 / gcd(a1, W).
    """
    if w.is_zero:
        raise PreconditionViolatedError("W must be non-zero")
    if w.degree > s:
        raise WidthTooSmallError(f"declared width {s} below deg W = {w.degree}")
    if s > seq.n:
        raise TooShortError("sequence shorter than the sliding window")
    prof = profile(seq)
    n = seq.n
    if n < 2 or n < 2 * prof.r + s - 1:
        raise PreconditionViolatedError(
            f"need n >= max(2, 2r + s - 1); have n={n}, r={prof.r}, s={s}"
        )
    a1 = char_polys(seq).a1
    g = gcd(a1, w) if not a1.is_zero else Poly.one(seq.ctx)
    dg = g.degree
    pad = s - w.degree
    drop = min(pad, prof.pi)
    return ReductionPrediction(
        r=prof.r - dg - drop,
        rho=prof.rho - dg,
        pi=max(0, prof.pi - pad),
        a1=a1 // g,
    )


def reduction_strict_class(seq: Seq, w: Poly, s: int):
    """Strict-class preservation for the boundary class ((n-s)/2 + 1, 0, ...).

    Requires deg W = s exactly: the first surviving entry of the reduced
    sequence is W_s * alpha_{(n+s)/2}, so any zero padding would destroy the
    class.  Returns the predicted strict class of alpha odot [W]_s, which
    equals the input class.
    """
    if w.is_zero or w.degree != s:
        raise PreconditionViolatedError("need deg W = s exactly")
    n = seq.n
    if s > n:
        raise TooShortError("sequence shorter than the sliding window")
    if (n - s) % 2 != 0 or n - s < 2:
        raise PreconditionViolatedError("need n - s even and >= 2")
    half = (n - s) // 2 + 1
    prof = profile(seq)
    if prof.strict != (half, 0, half):
        raise WrongClassError(
            f"sequence has strict class {prof.strict}, need {(half, 0, half)}"
        )
    return (half, 0, half)


# the class <-> coprime pair bijection


def bijection_map(seq: Seq, h: int):
    """Map a class-(r, r, 0) sequence with h leading zeros to the coprime
    pair (a1, B) with B in A_{< r - h}.

    B is a1 times the generating series sum alpha_i T^(-i-1); placing the
    first entry at T^(-1) is what makes deg B < r - h and gcd(a1, B) = 1
    hold (with the series started at T^0 the image polynomial picks up an
    extra alpha_h T^(r-h) term and the map leaves the coprime-pair set).
    """
    prof = profile(seq)
    r = prof.r
    if prof.standard != (r, r, 0):
        raise WrongClassError(f"sequence has class {prof.standard}, need (r, r, 0)")
    if not 2 < r <= seq.n2 - 1:
        raise WrongClassError(f"rank {r} outside the bijection range (2, {seq.n2 - 1}]")
    if not 0 <= h < r:
        raise WrongClassError(f"need 0 <= h < r = {r}")
    if seq.leading_zeros() < h:
        raise WrongClassError(f"sequence has fewer than {h} leading zeros")
    ctx = seq.ctx
    a1 = char_polys(seq).a1
    e = seq.entries
    b = []
    for j in range(r):
        acc = ctx.zero
        for m in range(j + 1, r + 1):
            acc = ctx.add(acc, ctx.mul(a1.coeff(m), e[m - j - 1]))
        b.append(acc)
    bp = Poly(ctx, b)
    if bp.degree >= r - h:
        raise AssertionError("image polynomial exceeds its degree bound")
    return a1, bp


def bijection_inverse(a: Poly, b: Poly, n: int, h: int) -> Seq:
    """Rebuild the sequence from the pair: alpha_i is the T^(-i-1) Laurent
    coefficient of B/A, read off as the expansion of (T*B)/A."""
    from .errors import NotCoprimeError

    ctx = a.ctx
    r = a.degree
    if a.is_zero or not a.is_monic:
        raise WrongClassError("first component must be monic")
    n2 = (n + 3) // 2
    if not 2 < r <= n2 - 1:
        raise WrongClassError(f"degree {r} outside the bijection range (2, {n2 - 1}]")
    if not 0 <= h < r:
        raise WrongClassError(f"need 0 <= h < r = {r}")
    if b.degree >= r - h:
        raise WrongClassError(f"second component must have degree < {r - h}")
    if b.is_zero or gcd(a, b).degree != 0:
        raise NotCoprimeError("components must be coprime (and B non-zero)")
    return Seq(ctx, laurent_expand(b.shift(1), a, n))
