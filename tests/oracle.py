"""Independent oracles, by Gaussian elimination and literal sums, that the
Berlekamp-Massey profile, the kernel polynomials and the engine in
hfq.fastpath are checked against, and the unreduced references for the
walk: a block enumerator in fq_vectors order, the batched profile of a
block with no prefix sharing, and the variance loops over every
sequence; and the walk's strict-class tally, which no library function
keeps, for the checks of the walk's strict rho.

The references that no library code reads live here too: exact
arithmetic in Z[zeta_p] (CycInt) and the additive character psi; the
literal representation counts s_count and interval_sum; the
gcd-divisibility sum by enumeration of every B2, with one gcd apiece; RREF kernel
bases and the Toeplitz matrices of multiplication by W; the radical and
trial-division irreducibility; and the sieve of Eratosthenes over every
monic polynomial, whose per-degree totient sums analytic's Euler product
is checked against."""

from collections import Counter
from fractions import Fraction
from itertools import product
from typing import Optional

import numpy as np

from hfq import charsum, fastpath
from hfq.errors import GUARD, HfqError, check_guard
from hfq.field import CHUNK, FieldCtx, FqElem, from_digits, to_digits
from hfq.hankel import (
    CharPolys,
    Seq,
    _check_window,
    analyze,
    hankel_matrix,
    rank,
    row_reduce,
)
from hfq.polyring import (
    NEG_INF,
    Poly,
    coeff_vector,
    factor,
    gcd,
    monics,
    monics_upto,
    polys_upto,
)
from hfq.variance import ThmParams, validate_pair


def value_counts_scalar(seq: Seq, l: int, monic: bool):
    """Tally psi-exponents of the quadratic form [E]^T H [E] over the vector
    family, by the literal sum: one field operation at a time."""
    ctx = seq.ctx
    e = seq.entries
    rows = [e[i : i + l + 1] for i in range(l + 1)]
    counts = [0] * ctx.p
    add, mul = ctx.add_table, ctx.mul_table
    positions = l if monic else l + 1
    for tail in product(range(ctx.q), repeat=positions):
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
                    dot = add[dot][mul[row[j]][vj]]
            acc = add[acc][mul[vi][dot]]
        counts[ctx.trace_table[acc]] += 1
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
                f = ctx.mul_table[xj]
                new_row = [ctx.sub_table[a][f[b]] for a, b in zip(new_row, prev)]
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
        a1 = Poly(ctx, tuple(ctx.neg_table[c] for c in x) + (ctx.one,))
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


class CycInt:
    """Element of Z[zeta_p], stored as p integer coefficients of zeta^0..zeta^{p-1}.

    Canonical form has last coefficient 0; construction canonicalizes, so
    instances compare by coefficient tuple.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != p:
            raise HfqError(f"need {p} coefficients, got {len(coeffs)}")
        last = coeffs[-1]
        if last:
            coeffs = tuple(c - last for c in coeffs)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("CycInt is immutable")

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls(p, (0,) * p)

    @classmethod
    def from_int(cls, p: int, n: int) -> "CycInt":
        return cls(p, (n,) + (0,) * (p - 1))

    @classmethod
    def zeta_pow(cls, p: int, e: int) -> "CycInt":
        coeffs = [0] * p
        coeffs[e % p] = 1
        return cls(p, coeffs)

    def _check(self, other: "CycInt") -> None:
        if self.p != other.p:
            raise HfqError(f"cannot combine Z[zeta_{self.p}] with Z[zeta_{other.p}]")

    def __add__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.p, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.p, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.p, (-a for a in self.coeffs))

    def __mul__(self, other) -> "CycInt":
        if isinstance(other, int):
            return CycInt(self.p, (a * other for a in self.coeffs))
        self._check(other)
        p = self.p
        out = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % p] += a * b
        return CycInt(p, out)

    __rmul__ = __mul__

    def conj(self) -> "CycInt":
        """Complex conjugate: zeta^i -> zeta^{p-i}."""
        p = self.p
        out = [0] * p
        for i, a in enumerate(self.coeffs):
            out[(p - i) % p] = a
        return CycInt(p, out)

    def mag_sq(self) -> "CycInt":
        """z * conj(z); real and non-negative as a complex number."""
        return self * self.conj()

    def as_integer(self) -> Optional[int]:
        """The rational integer this equals, or None if it is not one."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycInt)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z^{i}" if i else str(c))
        return "CycInt(p=%d: %s)" % (self.p, " + ".join(terms) if terms else "0")


def psi(ctx: FieldCtx, a: FqElem) -> CycInt:
    """The canonical additive character zeta_p^Tr(a)."""
    return CycInt.zeta_pow(ctx.p, ctx.trace_table[a])


def _half_degrees(u: Poly, v: Poly, degree) -> tuple:
    """Largest deg E, deg F with deg(U E^2), deg(V F^2) <= degree (-1: just 0)."""
    if degree < 0:
        return -1, -1
    return max((degree - u.degree) // 2, -1), max((degree - v.degree) // 2, -1)


def _square_sums(u: Poly, v: Poly, degree):
    """U E^2 + V F^2 for each pair (E, F) in the box of deg <= degree.  No
    leading term cancels, as deg U E^2 and deg V F^2 differ in parity, so
    the box holds every pair of every B of degree <= degree."""
    e_max, f_max = _half_degrees(u, v, degree)
    f_squares = [v * f * f for f in polys_upto(u.ctx, f_max)]
    for e in polys_upto(u.ctx, e_max):
        ue2 = u * e * e
        for vf2 in f_squares:
            yield ue2 + vf2


def s_count(u: Poly, v: Poly, b: Poly, guard: int = GUARD) -> int:
    """Number of pairs (E, F) with B = U E^2 + V F^2, by full enumeration of
    the degree-feasible candidates."""
    validate_pair(u, v)
    e_max, f_max = _half_degrees(u, v, b.degree)
    check_guard(u.ctx.q ** (e_max + f_max + 2), guard, "s_count", "pairs")
    return sum(1 for x in _square_sums(u, v, b.degree) if x == b)


def interval_sum(u: Poly, v: Poly, a: Poly, h: int, guard: int = GUARD) -> int:
    """Sum of s_count over the q^h polynomials within distance < h of A,
    from one tally of U E^2 + V F^2 over the box of the largest member."""
    if h < 0:
        raise HfqError("interval radius must be >= 0")
    validate_pair(u, v)
    top = max(a.degree, h - 1)  # the largest deg(A + D)
    e_max, f_max = _half_degrees(u, v, top)
    work = u.ctx.q ** (h + e_max + f_max + 2)
    check_guard(work, guard, "interval_sum", "pairs")
    tally = Counter(_square_sums(u, v, top))  # once, over the largest member's box
    return sum(tally[a + d] for d in polys_upto(u.ctx, h - 1))


def gcd_divisibility_sum(w: Poly, d1: int, d2: int, monic2: bool) -> int:
    """variance.gcd_divisibility_sum by enumeration: every B2 in the box
    (monic of degree <= d2, or arbitrary including 0) with one gcd apiece,
    each adding |gcd(B2, W)| times the multiples of that gcd in A_{<= d1},
    0 included."""
    q = w.ctx.q
    total = 0
    for b2 in monics_upto(w.ctx, d2) if monic2 else polys_upto(w.ctx, d2):
        dg = gcd(b2, w).degree  # gcd(0, W) is W
        total += q**dg * q ** max(d1 - dg + 1, 0)
    return total


def _kernel_basis_raw(rows, ncols: int, ctx: FieldCtx):
    """Kernel basis from the RREF, one vector per free column, in column order."""
    work = [list(r) for r in rows]
    pivots = row_reduce(work, ncols, ctx)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ctx.zero] * ncols
        v[free] = ctx.one
        for i, pc in enumerate(pivots):
            v[pc] = ctx.neg_table[work[i][free]]
        basis.append(tuple(v))
    return basis


def kernel_basis(seq: Seq, rows: int, cols: int):
    """Reduced-echelon kernel basis of the rows x cols Hankel matrix."""
    return _kernel_basis_raw(hankel_matrix(seq, rows, cols), cols, seq.ctx)


def toeplitz_mat(w: Poly, s: int, k: int):
    """(k+s) x k banded matrix whose column j holds [W]_s shifted down j rows.

    Acting on length-k coefficient vectors it multiplies by W: the product
    against the vector of B (deg B < k) is the length-(k+s) vector of W*B,
    and H_{l,k+s}(alpha) times this matrix is H_{l,k}(alpha odot [W]_s).
    """
    _check_window(w, s)
    if k < 1:
        raise HfqError("need at least one column")
    ctx = w.ctx
    wv = coeff_vector(w, s)
    return [
        [wv[i - j] if 0 <= i - j <= s else ctx.zero for j in range(k)]
        for i in range(k + s)
    ]


def irreducible(a: Poly) -> bool:
    """Irreducibility by trial division over monic polynomials of degree <= deg/2."""
    d = a.degree
    if d is NEG_INF or d == 0:
        return False
    for e in range(1, d // 2 + 1):
        for cand in monics(a.ctx, e):
            if (a % cand).is_zero:
                return False
    return True


def rad(a: Poly) -> Poly:
    """Product of the distinct monic prime divisors of A (rad of a unit is 1)."""
    out = Poly.one(a.ctx)
    for prime, _ in factor(a):
        out = out * prime
    return out


_SIEVE_CACHE: dict = {}


def _outer_sums(acc: np.ndarray, rows: np.ndarray, j: int):
    """The digit sums ``acc`` extended by every choice of the coefficients
    j..0 of B, in blocks of at most CHUNK digits.

    acc[b, a] holds the residue digits summed so far for the prefix b of B's
    coefficients and the a-th A, and rows[c, a] those of c * A.  Coefficient
    j adds rows[c] at digit j for every c: an outer sum, taken depth first."""
    if j < 0:
        yield acc
        return
    q, n_a, width_a, k = rows.shape
    step = max(1, CHUNK // (q * n_a * acc.shape[2] * k))
    for start in range(0, len(acc), step):
        block = acc[start : start + step]
        out = np.empty((len(block), q, *block.shape[1:]), dtype=np.int64)
        out[:] = block[:, None]
        out[:, :, :, j : j + width_a] += rows
        yield from _outer_sums(out.reshape(-1, *block.shape[1:]), rows, j - 1)


def _monic_products(ctx: FieldCtx, left: np.ndarray, emax: int) -> np.ndarray:
    """Codes of A * B for every row A of ``left`` (the coefficient codes of a
    monic A, constant first) and every monic B of degree <= emax.

    For B of degree e, A * B = T^e A + sum_{j<e} b_j T^j A: from the residue
    digits of T^e A, each coefficient j = e-1..0 of B adds the q rows c T^j A
    as an outer sum (_outer_sums).  The digit sums mod p are the product's
    residues; products below degree deg A + emax carry zero digits on top,
    which leave their codes unchanged."""
    q, p, k = ctx.q, ctx.p, ctx.k
    prod_digits = to_digits(p, ctx.mul_table, k)  # [c, a] -> residues of c * a
    n_left, width_a = left.shape
    width = width_a + emax
    codes = np.empty(n_left * ((q ** (emax + 1) - 1) // (q - 1)), dtype=np.int64)
    pos = 0
    step = max(1, CHUNK // (q * width * k))
    for start in range(0, n_left, step):
        rows = prod_digits[:, left[start : start + step]]  # [c, a] -> digits of c * A
        for e in range(emax + 1):
            acc = np.zeros((1, rows.shape[1], width, k), dtype=np.int64)
            acc[0, :, e : e + width_a] = rows[1]
            for block in _outer_sums(acc, rows, e - 1):
                flat = block.reshape(-1, width * k)
                codes[pos : pos + len(flat)] = from_digits(p, flat % p)
                pos += len(flat)
    return codes


def _phi_array(ctx: FieldCtx, kmax: int) -> np.ndarray:
    """phi for every monic polynomial of degree <= kmax, indexed by digit code;
    the codes of non-monic vectors hold 0.

    Eratosthenes by degree: phi[M] starts at q^deg M.  For d = 1..kmax the
    primes of degree d are the monic codes of degree d whose phi is still q^d,
    since a composite of degree d has a smaller prime factor, already applied.
    Each product P * B, B monic of degree <= kmax - d, hits M once per degree-d
    prime P | M; c hits make phi[M] // q^(d c) * (q^d - 1)^c, an exact step.
    """
    cached = _SIEVE_CACHE.get(ctx)
    if cached is not None and cached[0] >= kmax:
        return cached[1]
    q = ctx.q
    phi = np.zeros(q ** (kmax + 1), dtype=np.int64)
    for d in range(kmax + 1):
        phi[q**d : 2 * q**d] = q**d
    for d in range(1, kmax + 1):
        qd = q**d
        primes = np.flatnonzero(phi[qd : 2 * qd] == qd) + qd
        products = _monic_products(ctx, to_digits(q, primes, d + 1), kmax - d)
        hits = np.bincount(products, minlength=phi.size)
        m = np.flatnonzero(hits)
        c = hits[m]
        phi[m] = phi[m] // qd**c * (qd - 1) ** c
    _SIEVE_CACHE[ctx] = (kmax, phi)
    return phi


def sieve_numerators(ctx: FieldCtx, w2: Poly, w3: Poly, kmax: int) -> list:
    """num[d] = sum of phi(B) over qualifying monic B of degree d, from the
    sieve.

    The monic multiples of degree <= kmax of a prime P are the codes of
    P * C, C monic of degree <= kmax - deg P (none when deg P > kmax): a
    monic B qualifies iff each prime's mark on its code equals the prime's
    flag.  phi is 0 on the codes of non-monic vectors.
    """
    q = ctx.q
    phi = _phi_array(ctx, kmax)[: q ** (kmax + 1)]
    keep = np.ones(phi.size, dtype=bool)
    flags = [(p, False) for p, _ in factor(w2)] + [(p, True) for p, _ in factor(w3)]
    for prime, need in flags:
        divides = np.zeros(phi.size, dtype=bool)
        if prime.degree <= kmax:
            divides[_monic_products(ctx, np.array([prime.coeffs]), kmax - prime.degree)] = True
        keep &= divides == need
    kept = phi * keep
    return [int(kept[q**d : 2 * q**d].sum()) for d in range(kmax + 1)]
