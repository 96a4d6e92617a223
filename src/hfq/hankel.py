"""Hankel matrices attached to finite sequences over F_q.

A sequence alpha = (alpha_0, ..., alpha_n) determines the (l+1) x (m+1)
Hankel matrix with entry (i, j) = alpha_{i+j} whenever l + m <= n (shorter
views use the truncated sequence).  This module computes ranks, the
(r, rho, pi) characteristic and its strict variant, the pair of coprime
kernel polynomials, the sliding dot product against a padded coefficient
vector, and the bijection between full-recurrence classes and coprime
polynomial pairs.  The class-size formulas and their census are in hfq.census.

Conventions: rho is the size of the largest invertible leading square
submatrix (capped at n_1 = floor((n+2)/2); the strict variant caps at
n_2 - 1 with n_2 = floor((n+3)/2)), r is the rank of the n_1 x n_2 matrix,
and pi = r - rho.

The characteristic and the kernel polynomials come from one
Berlekamp-Massey pass, analyze, the layer's only reading of a sequence:
O(n^2) time and O(n) memory.  The reduction law and the bijection take
that pass, so a caller reads each sequence once; hfq.census runs the
same pass batched over the prefix trie (fastpath.walk).  Gaussian
elimination, row_reduce and the rank of an explicit view read through it,
is the independent side that the pass is checked against.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import HfqError
from .field import FieldCtx
from .polyring import Poly, coeff_vector, gcd, laurent_expand, monics, polys_upto


class Seq:
    """Finite sequence alpha_0..alpha_n of F_q codes (length n+1 >= 1)."""

    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: FieldCtx, entries):
        entries = tuple(entries)
        if not entries:
            raise HfqError("sequence needs at least one entry")
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


# exact linear algebra over the field


def row_reduce(rows, ncols: int, ctx: FieldCtx):
    """In-place RREF; returns pivot column list.  Pivot rule: leftmost column,
    then topmost remaining row."""
    pivots = []
    cur = 0
    zero = ctx.zero
    mul, sub = ctx.mul_table, ctx.sub_table
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
            rows[cur] = [mul[inv][x] for x in rows[cur]]
        for i in range(len(rows)):
            if i != cur and rows[i][col] != zero:
                f = mul[rows[i][col]]
                rows[i] = [sub[x][f[y]] for x, y in zip(rows[i], rows[cur])]
        pivots.append(col)
        cur += 1
        if cur == len(rows):
            break
    return pivots


def hankel_matrix(seq: Seq, rows: int, cols: int) -> list:
    """The rows x cols Hankel matrix of a sequence, entry (i,j) = alpha_{i+j}.

    rows + cols - 2 may be smaller than the sequence's top index; the matrix
    then reads the truncated sequence, matching the submatrix convention.
    """
    if rows < 1 or cols < 1:
        raise HfqError("views need at least one row and one column")
    if rows + cols - 2 > seq.n:
        raise HfqError("view exceeds the sequence")
    e = seq.entries
    return [list(e[i : i + cols]) for i in range(rows)]


def rank(seq: Seq, rows: int, cols: int) -> int:
    """Rank of the rows x cols Hankel matrix (not the rank invariant of the
    sequence)."""
    return len(row_reduce(hankel_matrix(seq, rows, cols), cols, seq.ctx))


class Profile(NamedTuple):
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


def _lc_profile(entries, ctx: FieldCtx):
    """One Berlekamp-Massey pass: the linear complexities L_0..L_len of the
    prefixes and the four connection polynomials Analysis.polys reads, of
    width len + 1: the c after 2k entries for the latest k with L_{2k-1} = k
    (else the first c); (f0, the c after f0 + top - 1 entries) for the least
    f0 >= 0 with L_{f0+top-1} <= f0, top = floor((len + 1) / 2); the final
    c; and the final bs = x^shift * B.  c is rebuilt (never mutated) whenever
    it changes, so a kept c is a snapshot, and memory stays O(len)."""
    zero = ctx.zero
    add, sub, mul = ctx.add_table, ctx.sub_table, ctx.mul_table
    width = len(entries) + 1
    top = width // 2
    c = [ctx.one] + [zero] * (width - 1)
    bs = [zero, ctx.one] + [zero] * (width - 2)
    b_inv = ctx.one
    length = 0
    out = [0]
    c_rho = c
    first = (0, c) if top <= 1 else None
    for i, d in enumerate(entries):
        for j in range(1, length + 1):
            if c[j] != zero:
                d = add[d][mul[c[j]][entries[i - j]]]
        if d != zero:
            f = mul[mul[d][b_inv]]
            prev = c
            c = [sub[x][f[y]] if y != zero else x for x, y in zip(c, bs)]
            if 2 * length <= i:
                length = i + 1 - length
                b_inv = ctx.inv(d)
                bs = prev
        bs = [zero] + bs[:-1]
        out.append(length)
        if i % 2 and 2 * out[i] == i + 1:  # i + 1 = 2k entries, L_{2k-1} = k
            c_rho = c
        if first is None and length <= i + 2 - top:
            first = (i + 2 - top, c)
    return out, c_rho, first, c, bs


def _rev(ctx: FieldCtx, c, d: int) -> Poly:
    """x^d c(1/x) for a coefficient list c of degree <= d."""
    if any(c[d + 1 :]):
        raise AssertionError(f"connection polynomial exceeds degree {d}")
    return Poly(ctx, c[d::-1])


class CharPolys(NamedTuple):
    """The coprime pair (a1, a2) whose bounded-degree multiples span every
    kernel of the sequence's Hankel family; canonical is True when a2 is the
    unique reduced representative (possible precisely when rho = r)."""

    a1: Poly
    a2: Poly
    canonical: bool


class Analysis:
    """A sequence read by one Berlekamp-Massey pass (see analyze): its
    profile, and its kernel polynomials, formed from the pass on first read."""

    def __init__(self, seq: Seq, profile: Profile, kept: tuple):
        self.seq = seq
        self.profile = profile
        self.kept = kept  # what _lc_profile returns

    @cached_property
    def polys(self) -> CharPolys:
        """First and second kernel polynomials, read off the pass's
        connection polynomials with rev_d(c) = x^d c(1/x).

        a1 is monic of degree rho: rev_rho of the c after 2 rho entries when
        2 rho - 1 <= n.  In the full-rank case with even n (n = 2 rho - 2) no
        leading square fixes it, and a1 is the kernel vector of the
        (rho-1) x (rho+1) view with last coefficient 1 and coefficient 0 at
        the view's first free column f0 = min{j : L_{j+rho-1} <= j}:
        A - A_f0 g with A = rev_rho(final c) and g = rev_f0(the c after
        f0 + rho - 1 entries), the monic kernel vector of least degree f0.

        a2 is monic of degree <= m = n - r + 2 (zero for the zero sequence):
        rev_m of the final shifted auxiliary polynomial when L_{n+1} = r, and
        of the final c otherwise, reduced canonically by the allowed
        a1-multiple additions.  Any kernel vector of the (r-1) x (m+1) view
        outside the a1-multiples reduces to the same a2.
        """
        ctx, n = self.seq.ctx, self.seq.n
        lc, c_rho, first, c, bs = self.kept
        r, rho = self.profile.r, self.profile.rho
        if r == 0:
            return CharPolys(Poly.one(ctx), Poly.zero(ctx), True)
        if 2 * rho - 1 <= n:  # rho = 0 reads the first c: a1 = 1
            a1 = _rev(ctx, c_rho, rho)
        else:
            a = _rev(ctx, c, rho)
            f0, g = first
            a1 = a - _rev(ctx, g, f0).scale(a.coeff(f0))
        reduced = _rev(ctx, bs if lc[-1] == r else c, n + 2 - r)
        # canonical reduction: remove every addable multiple c T^d a1, top down
        for d in range(n - 2 * r + 2, -1, -1):
            lead = reduced.coeff(d + rho)
            if lead != ctx.zero:
                reduced = reduced - a1.shift(d).scale(lead)
        return CharPolys(a1, reduced.monic(), rho == r)

    @property
    def numerator(self) -> Poly:
        """B, the polynomial part of a1 * sum alpha_i T^(-i-1): with
        r = deg a1, B_j is the T^(j+r) coefficient of a1 * (alpha_{r-1}, ...,
        alpha_0)."""
        ctx, a1 = self.seq.ctx, self.polys.a1
        r = a1.degree
        return Poly(ctx, (a1 * Poly(ctx, self.seq.entries[:r][::-1])).coeffs[r:])


def analyze(seq: Seq) -> Analysis:
    """The Hankel layer's one reading of a sequence: one Berlekamp-Massey
    pass, O(n^2) time and O(n) memory, that gives L_0..L_{n+1} and keeps the
    few connection polynomials the kernel polynomials are read from.  The
    n_1 x n_2 matrix has rank r = min(L_{n+1}, n + 2 - L_{n+1}), and the
    leading k x k square is invertible iff L_{2k-1} = k."""
    kept = _lc_profile(seq.entries, seq.ctx)
    lc = kept[0]
    r = min(lc[-1], seq.n + 2 - lc[-1])
    invertible = [k for k in range(1, seq.n1 + 1) if lc[2 * k - 1] == k]
    rho = max(invertible, default=0)
    strict_rho = max((k for k in invertible if k < seq.n2), default=0)
    return Analysis(seq, Profile(r, rho, r - rho, strict_rho, r - strict_rho), kept)


# sliding products


def _check_window(w: Poly, s: int, n: int | None = None) -> None:
    """[W]_s is a window of width s (deg W <= s) that fits a sequence of top
    index n, when n is given."""
    if w.degree > s:
        raise HfqError(f"declared width {s} below deg W = {w.degree}")
    if n is not None and s > n:
        raise HfqError("sequence shorter than the sliding window")


def odot(seq: Seq, w: Poly, s: int) -> Seq:
    """Sliding dot product of the sequence against [W]_s (W padded to width
    s+1); output entry i is sum_j W_j alpha_{i+j}."""
    _check_window(w, s, seq.n)
    ctx = seq.ctx
    add, mul = ctx.add_table, ctx.mul_table
    wv = coeff_vector(w, s)
    e = seq.entries
    out = []
    for i in range(seq.n - s + 1):
        acc = ctx.zero
        for j, wj in enumerate(wv):
            if wj != ctx.zero:
                acc = add[acc][mul[wj][e[i + j]]]
        out.append(acc)
    return Seq(ctx, out)


def reduction_profile(an: Analysis, w: Poly, s: int):
    """Predict ((r, rho, pi), a1) of alpha odot [W]_s from alpha's own pass:
    the shape of (profile.standard, polys.a1) of the reduced sequence.

    Requires W != 0, deg W <= s <= n, n >= 2 and n >= 2 r(alpha) + s - 1.
    The rank drops by deg gcd(a1, W) + min(s - deg W, pi), rho drops by
    deg gcd(a1, W), and the new a1 is a1 / gcd(a1, W).
    """
    n, prof = an.seq.n, an.profile
    if w.is_zero:
        raise HfqError("W must be non-zero")
    _check_window(w, s, n)
    if n < 2 or n < 2 * prof.r + s - 1:
        raise HfqError(f"need n >= max(2, 2r + s - 1); have n={n}, r={prof.r}, s={s}")
    a1 = an.polys.a1
    g = gcd(a1, w)
    pad = s - w.degree
    r, rho = prof.r - g.degree - min(pad, prof.pi), prof.rho - g.degree
    return (r, rho, r - rho), a1 // g


# the class <-> coprime pair bijection


def bijection_ranks(n: int) -> range:
    """Ranks r with 2 < r <= n2 - 1, where the bijection applies to the
    length-(n+1) sequences."""
    return range(3, (n + 3) // 2)


def bijection_map(an: Analysis, h: int):
    """Map a class-(r, r, 0) sequence with h leading zeros, read by its
    pass, to the coprime pair (a1, B) with B in A_{< r - h}.

    B is a1 times the generating series sum alpha_i T^(-i-1); placing the
    first entry at T^(-1) is what makes deg B < r - h and gcd(a1, B) = 1
    hold (with the series started at T^0 the image polynomial picks up an
    extra alpha_h T^(r-h) term and the map leaves the coprime-pair set).
    """
    seq, prof = an.seq, an.profile
    r = prof.r
    if prof.standard != (r, r, 0):
        raise HfqError(f"sequence has class {prof.standard}, need (r, r, 0)")
    if r not in bijection_ranks(seq.n):
        raise HfqError(f"rank {r} outside the bijection range (2, {seq.n2 - 1}]")
    if not 0 <= h < r:
        raise HfqError(f"need 0 <= h < r = {r}")
    if seq.leading_zeros() < h:
        raise HfqError(f"sequence has fewer than {h} leading zeros")
    bp = an.numerator
    if bp.degree >= r - h:
        raise AssertionError("image polynomial exceeds its degree bound")
    return an.polys.a1, bp


def bijection_inverse(a: Poly, b: Poly, n: int, h: int) -> Seq:
    """Rebuild the sequence from the pair: alpha_i is the T^(-i-1) Laurent
    coefficient of B/A, read off as the expansion of (T*B)/A."""
    ctx = a.ctx
    r = a.degree
    if a.is_zero or not a.is_monic:
        raise HfqError("first component must be monic")
    ranks = bijection_ranks(n)
    if r not in ranks:
        raise HfqError(f"degree {r} outside the bijection range (2, {ranks.stop - 1}]")
    if not 0 <= h < r:
        raise HfqError(f"need 0 <= h < r = {r}")
    if b.degree >= r - h:
        raise HfqError(f"second component must have degree < {r - h}")
    if b.is_zero or gcd(a, b).degree != 0:
        raise HfqError("components must be coprime (and B non-zero)")
    return Seq(ctx, laurent_expand(b.shift(1), a, n))


def bijection_pairs(ctx: FieldCtx, r: int, h: int) -> dict:
    """The bijection's image at rank r with h leading zeros: each monic A of
    degree r mapped to the set of non-zero B of degree < r - h coprime to A."""
    bs = [b for b in polys_upto(ctx, r - h - 1) if not b.is_zero]
    return {a: {b for b in bs if gcd(a, b).degree == 0} for a in monics(ctx, r)}
