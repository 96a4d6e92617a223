"""Counting side of the short-interval variance of UE^2 + VF^2 representations.

Everything here is exact: counts are ints, all derived statistics are
fractions.Fraction, and the closed forms evaluate q to integer powers only
(the parity hypotheses guarantee every half-integer exponent cancels; the
code asserts it).

Hypotheses used throughout: U, V monic and coprime, deg U even, deg V odd,
and 0 <= h <= n.  For odd n the roles of U and V swap, which is what the
parity table in ThmParams encodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import fastpath
from .errors import (
    BadParityError,
    BoundUndefinedError,
    DegreeTooLargeError,
    ExponentNotIntegerError,
    NotCoprimeError,
    NotMonicError,
    RangeEmptyError,
    check_guard,
)
from .field import CHUNK, from_digits, to_digits
from .hankel import Seq, char_polys
from .polyring import (
    Poly,
    coeff_vector,
    divisors,
    factor,
    gcd,
    monics,
    monics_upto,
    polys_upto,
)


def validate_pair(u: Poly, v: Poly) -> None:
    if u.is_zero or not u.is_monic or v.is_zero or not v.is_monic:
        raise NotMonicError("U and V must be monic and non-zero")
    if u.degree % 2 != 0:
        raise BadParityError(f"deg U = {u.degree} must be even")
    if v.degree % 2 != 1:
        raise BadParityError(f"deg V = {v.degree} must be odd")
    if gcd(u, v).degree != 0:
        raise NotCoprimeError("U and V must be coprime")


@dataclass(frozen=True)
class ThmParams:
    """Derived parameters: the parity table for (s, t), the half-gaps
    (s', t'), and the square-matrix sizes n1, n2."""

    n: int
    h: int
    s: int
    t: int
    s_prime: int
    t_prime: int
    n1: int
    n2: int

    @property
    def even(self) -> bool:
        return self.n % 2 == 0

    @classmethod
    def compute(cls, u: Poly, v: Poly, n: int, h: int) -> "ThmParams":
        validate_pair(u, v)
        if n < 0 or not 0 <= h <= n:
            raise RangeEmptyError("need n >= 0 and 0 <= h <= n")
        if n % 2 == 0:
            s, t = u.degree, v.degree + 1
        else:
            s, t = u.degree + 1, v.degree
        if (n - s) % 2 or (n - t) % 2:
            raise ExponentNotIntegerError("parity bookkeeping failed for (n, s, t)")
        if n < max(s, t):
            raise DegreeTooLargeError(
                f"n = {n} is too small for deg U = {u.degree}, deg V = {v.degree}"
            )
        return cls(n, h, s, t, (n - s) // 2, (n - t) // 2, (n + 2) // 2, (n + 3) // 2)


def _half_degrees(u: Poly, v: Poly, degree) -> tuple:
    """Largest deg E, deg F with deg(U E^2), deg(V F^2) <= degree (-1: just 0)."""
    if degree < 0:
        return -1, -1
    return max((degree - u.degree) // 2, -1), max((degree - v.degree) // 2, -1)


def s_count(u: Poly, v: Poly, b: Poly, guard: int = 10**8) -> int:
    """Number of pairs (E, F) with B = U E^2 + V F^2, by full enumeration of
    the degree-feasible candidates."""
    validate_pair(u, v)
    ctx = u.ctx
    e_max, f_max = _half_degrees(u, v, b.degree)
    work = ctx.q ** (e_max + f_max + 2)
    check_guard(work, guard, "s_count", "pairs")
    count = 0
    f_squares = [v * f * f for f in polys_upto(ctx, f_max)]
    for e in polys_upto(ctx, e_max):
        ue2 = u * e * e
        for vf2 in f_squares:
            if ue2 + vf2 == b:
                count += 1
    return count


def mean_formula(u: Poly, v: Poly, n: int, h: int) -> Fraction:
    """Average interval sum: 2 q^(h - deg U/2 - deg V/2 + 1/2), an exact
    rational because the exponent is an integer under the parity hypotheses."""
    validate_pair(u, v)
    num = 1 - u.degree - v.degree
    if num % 2:
        raise ExponentNotIntegerError("mean exponent is not an integer")
    return 2 * Fraction(u.ctx.q) ** (h + num // 2)


def interval_sum(u: Poly, v: Poly, a: Poly, h: int, guard: int = 10**8) -> int:
    """Sum of s_count over the q^h polynomials within distance < h of A."""
    if h < 0:
        raise ValueError("interval radius must be >= 0")
    validate_pair(u, v)
    e_max, f_max = _half_degrees(u, v, max(a.degree, h - 1))  # the largest deg(A + D)
    work = u.ctx.q ** (h + e_max + f_max + 2)
    check_guard(work, guard, "interval_sum", "pairs")
    total = 0
    for d in polys_upto(u.ctx, h - 1):
        total += s_count(u, v, a + d, guard)
    return total


def _class_digits(ctx, parts, h: int, n: int) -> np.ndarray:
    """Residue digits of coefficients h..n-1 of each part, one row per part."""
    coeffs = np.array([coeff_vector(b, n)[h:n] for b in parts], dtype=np.int64)
    return to_digits(ctx.p, coeffs, ctx.k).reshape(len(parts), -1)


def _binned_interval_sums(u: Poly, v: Poly, par: ThmParams) -> np.ndarray:
    """Interval sum of every class, indexed by the code of coefficients h..n-1
    of B (the leading one is always 1).  Each pair of a monic and a free part
    adds 2, for E and -E; the pairs' digits are summed mod p and tallied into
    the q^(n-h) classes block by block, so no array grows with the pairs."""
    ctx = u.ctx
    n, h = par.n, par.h
    if par.even:
        monic_w, monic_half = u, par.s_prime
        free_w, free_half = v, par.t_prime
    else:
        monic_w, monic_half = v, par.t_prime
        free_w, free_half = u, par.s_prime
    monic_rows = _class_digits(ctx, [monic_w * e * e for e in monics(ctx, monic_half)], h, n)
    free_rows = _class_digits(ctx, [free_w * f * f for f in polys_upto(ctx, free_half)], h, n)
    n_free = len(free_rows)
    total = len(monic_rows) * n_free
    counts = np.zeros(ctx.q ** (n - h), dtype=np.int64)
    step = max(1, CHUNK // max(monic_rows.shape[1], 1))
    for start in range(0, total, step):
        t = np.arange(start, min(start + step, total))
        digits = (monic_rows[t // n_free] + free_rows[t % n_free]) % ctx.p
        np.add.at(counts, from_digits(ctx.p, digits), 1)
    return 2 * counts


def variance_bruteforce(u: Poly, v: Poly, n: int, h: int, guard: int = 10**8) -> Fraction:
    """Exact variance of the interval sums over all monic centres of degree n,
    from the sum S1 and the sum of squares S2 of every class's interval sum.
    Pairs are capped at 2^30 so that S2 <= S1^2 = (2 pairs)^2 is exact in int64."""
    par = ThmParams.compute(u, v, n, h)
    q = u.ctx.q
    pairs = q ** (par.s_prime + par.t_prime + 1)
    classes = q ** (n - h)
    check_guard(max(pairs, classes), min(guard, 2**30), "enumeration")
    counts = _binned_interval_sums(u, v, par)
    s1, s2 = int(counts.sum()), int(counts @ counts)
    mean = mean_formula(u, v, n, h)
    return (s2 - 2 * mean * s1 + classes * mean * mean) / classes


def gcd_divisibility_sum(w: Poly, d1: int, d2: int, monic2: bool) -> int:
    """Sum of |gcd(B2, W)| over B2 (monic of degree <= d2, or arbitrary
    including 0) and B1 in A_{<= d1} with gcd(B2, W) dividing B1.

    The inner B1 count collapses to the number of multiples of the gcd in
    the box, so only B2 is enumerated.
    """
    ctx = w.ctx
    q = ctx.q
    total = 0
    b2_range = monics_upto(ctx, d2) if monic2 else polys_upto(ctx, d2)
    for b2 in b2_range:
        g = w.monic() if b2.is_zero else gcd(b2, w)
        dg = g.degree
        if d1 < 0:
            mult_count = 1  # only B1 = 0
        elif dg <= d1:
            mult_count = q ** (d1 - dg + 1)
        else:
            mult_count = 1
        total += q**dg * mult_count
    return total


def _f_ranges(par: ThmParams, r1: int):
    """Degree boxes for the two gcd-divisibility sums at a given rank."""
    if par.even:
        b_args = (par.s_prime + par.s - r1, r1 - par.s_prime - 1, True)
        c_args = (par.t_prime + par.t - r1 - 1, r1 - par.t_prime - 2, False)
    else:
        b_args = (par.s_prime + par.s - r1 - 1, r1 - par.s_prime - 2, False)
        c_args = (par.t_prime + par.t - r1, r1 - par.t_prime - 1, True)
    return b_args, c_args


def _r1_range(par: ThmParams):
    lo = (par.s_prime if par.even else par.t_prime) + 1
    return lo, par.n - par.h


def f_formula(u: Poly, v: Poly, n: int, h: int) -> Fraction:
    """The double gcd-divisibility sum whose q^h multiple is the exact
    variance in the boundary range; 0 when the rank range is empty."""
    par = ThmParams.compute(u, v, n, h)
    q = u.ctx.q
    duv = u.degree + v.degree
    pref = Fraction(4 * (q - 1), q ** ((1 + duv) // 2))
    lo, hi = _r1_range(par)
    acc = Fraction(0)
    for r1 in range(lo, hi + 1):
        b_args, c_args = _f_ranges(par, r1)
        bsum = gcd_divisibility_sum(u, *b_args)
        csum = gcd_divisibility_sum(v, *c_args)
        acc += Fraction(q) ** (r1 - (n - h)) * bsum * csum
    return pref * acc


def f_bound(u: Poly, v: Poly) -> Fraction:
    """Upper bound 4 q^((deg UV + 1)/2) log_q(deg U) log_q(deg V).

    The log factors are irrational, so they are carried in double precision
    and frozen into an exact fraction; the bound has ample slack and is used
    for smoke inequalities, not identities.
    """
    if u.degree < 2 or v.degree < 2:
        raise BoundUndefinedError("bound needs deg U >= 2 and deg V >= 2")
    q = u.ctx.q
    duv = u.degree + v.degree
    logs = Fraction(math.log(u.degree, q)) * Fraction(math.log(v.degree, q))
    return 4 * Fraction(q) ** ((1 + duv) // 2) * logs


def m_factor(u: Poly, v: Poly) -> Fraction:
    """|UV|^(-1) prod over primes P | UV of (1 + (|P|-1)/(|P|+1) e_P(UV))."""
    validate_pair(u, v)
    w = u * v
    if w.degree == 0:
        raise ValueError("UV must be non-constant")
    q = u.ctx.q
    out = Fraction(1, w.abs_value())
    for prime, mult in factor(w):
        ap = q**prime.degree
        out *= 1 + Fraction(ap - 1, ap + 1) * mult
    return out


def case_classify(u: Poly, v: Poly, n: int, h: int) -> str:
    """Which closed form applies: case1, case2, case3, or uncovered.

    The three ranges are disjoint by construction; (n, h) outside all of
    them is reported honestly as uncovered.
    """
    par = ThmParams.compute(u, v, n, h)
    vanish_at = (par.s_prime + par.s) if par.even else (par.t_prime + par.t)
    if h >= vanish_at:
        return "case1"
    if par.n2 - 1 <= h:
        return "case2"
    duv = u.degree + v.degree
    if 3 * (duv + 1) <= h < min(par.s_prime, par.t_prime) - 1:
        return "case3"
    return "uncovered"


@dataclass
class VarianceReport:
    """Everything one run produces; optional fields stay None until the
    corresponding computation is requested."""

    q: int
    u: Poly
    v: Poly
    params: ThmParams
    case: str
    theorem_value: Optional[Fraction] = None
    main_term: Optional[Fraction] = None
    secondary_term: Optional[Fraction] = None
    error_scale: Optional[tuple] = None
    oracle: Optional[Fraction] = None
    charsum_value: Optional[Fraction] = None
    residual: Optional[Fraction] = None

    def finish(self) -> "VarianceReport":
        """Fill the residual from whichever exact values are present."""
        reference = self.oracle if self.oracle is not None else self.charsum_value
        if reference is not None and self.case in ("case1", "case2"):
            self.residual = reference - self.theorem_value
        elif reference is not None and self.case == "case3":
            self.residual = reference - self.main_term - self.secondary_term
        return self


def theorem_predict(u: Poly, v: Poly, n: int, h: int) -> VarianceReport:
    """Closed-form prediction for the classified case.

    case1: exact 0.  case2: exact q^h f(n, h) / |UV|.  case3: main term
    4 (1 - 1/q) q^h M(U,V) (n/2 - h) plus the secondary term
    q^(2h - (n2-1)) f(n, n1 - 1) / |UV|, with the two error-scale
    magnitudes recorded (never claimed as bounds; constants are not
    specified).

    The 1/|UV| normalization of the f terms is forced by the exact chain
    through the kernel-sum identity: collecting exponents there gives
    q^(2h - n + r1 - (deg UV + 1)/2) / |UV| per rank, and the brute-force
    oracle confirms it (e.g. q=3, U=T^2+1, V=T: variance is 24 at
    (n,h)=(6,3) and 72 at (8,4), matching q^h f / |UV| at both).
    """
    par = ThmParams.compute(u, v, n, h)
    q = u.ctx.q
    case = case_classify(u, v, n, h)
    report = VarianceReport(q=q, u=u, v=v, params=par, case=case)
    abs_uv = (u * v).abs_value()
    if case == "case1":
        report.theorem_value = Fraction(0)
    elif case == "case2":
        report.theorem_value = Fraction(q**h, abs_uv) * f_formula(u, v, n, h)
    elif case == "case3":
        report.main_term = (
            4 * (1 - Fraction(1, q)) * q**h * m_factor(u, v) * Fraction(n - 2 * h, 2)
        )
        report.secondary_term = Fraction(q) ** (2 * h - (par.n2 - 1)) * f_formula(
            u, v, n, par.n1 - 1
        ) / abs_uv
        report.theorem_value = report.main_term + report.secondary_term
        duv = u.degree + v.degree
        report.error_scale = (
            Fraction(q**h, abs_uv),
            Fraction(q ** (h + 2) * duv),
        )
    return report


def kernel_sum_identity(
    u: Poly, v: Poly, n: int, h: int, r1: int, guard: int = 10**8
):
    """Both sides of the counting identity tying the kernel-polynomial sum to
    the gcd-divisibility sums, at one rank r1.

    LHS enumerates A monic of degree n - r1 + 1 and counts the two linear
    representation systems; RHS is q^(n - r1 + 1)/|UV| times the two
    gcd-divisibility sums.  Exact equality is the contract.

    The identity needs h >= n2 - 1 on top of the rank range: below that the
    zero strata (B1 = 0 or C1 = 0, whose gcd with the modulus is the whole
    modulus regardless of degree) escape the degree-stratified count and
    the two sides genuinely differ, e.g. 15 vs 18 at (U, V, n, h, r1) =
    (1, T, 3, 0, 3) over F_3.
    """
    par = ThmParams.compute(u, v, n, h)
    if h < par.n2 - 1:
        raise RangeEmptyError(
            f"identity needs h >= n2 - 1 = {par.n2 - 1}; h = {h} is below it"
        )
    lo, hi = _r1_range(par)
    if not lo <= r1 <= hi:
        raise RangeEmptyError(f"r1 = {r1} outside [{lo}, {hi}]")
    ctx = u.ctx
    q = ctx.q
    da = n - r1 + 1
    b_args, c_args = _f_ranges(par, r1)

    if par.even:
        b_outer = list(monics(ctx, par.s_prime))
        b_inner = list(monics_upto(ctx, r1 - par.s_prime - 1))
        c_outer = list(polys_upto(ctx, par.t_prime))
        c_inner = list(polys_upto(ctx, r1 - par.t_prime - 2))
    else:
        b_outer = list(polys_upto(ctx, par.s_prime))
        b_inner = list(polys_upto(ctx, r1 - par.s_prime - 2))
        c_outer = list(monics(ctx, par.t_prime))
        c_inner = list(monics_upto(ctx, r1 - par.t_prime - 1))
    work = q**da * (len(b_outer) * len(b_inner) + len(c_outer) * len(c_inner))
    check_guard(work, guard, "identity enumeration")

    b_bound, c_bound = b_args[0], c_args[0]
    lhs = 0
    for a in monics(ctx, da):
        nb = 0
        for b in b_outer:
            ub = u * b
            for b2 in b_inner:
                if (ub - b2 * a).degree <= b_bound:
                    nb += 1
        if nb == 0:
            continue
        nc = 0
        for c in c_outer:
            vc = v * c
            for c2 in c_inner:
                if (vc - c2 * a).degree <= c_bound:
                    nc += 1
        lhs += nb * nc

    rhs = (
        Fraction(q**da, (u * v).abs_value())
        * gcd_divisibility_sum(u, *b_args)
        * gcd_divisibility_sum(v, *c_args)
    )
    return Fraction(lhs), rhs


def w_sum_identity(u: Poly, v: Poly, n: int, h: int, r: int, guard: int = 10**8):
    """Both sides of the stratified count over the full-recurrence class of
    length-n sequences: sum of |gcd(a1, U)| |gcd(a1, V)| against the
    divisor-stratified coprime-pair count with W = UV."""
    par = ThmParams.compute(u, v, n, h)
    mn = min(par.s_prime, par.t_prime)
    ctx = u.ctx
    q = ctx.q
    n2_seq = ((n - 1) + 3) // 2  # sequences below have top index n - 1
    if not (h + 1 <= r <= mn and 2 < r <= n2_seq - 1):
        raise RangeEmptyError(
            f"r = {r} outside [{h + 1}, {min(mn, n2_seq - 1)}] (and r > 2)"
        )
    check_guard(q ** (n - h), guard, "identity enumeration")

    lhs = 0
    for block in fastpath.blocks(ctx, n - h, zeros=h):
        rank, _, strict_rho = fastpath.profile(ctx, block)
        for entries in block[(rank == r) & (strict_rho == r)].tolist():  # strict (r, r, 0)
            a1 = char_polys(Seq(ctx, entries)).a1
            lhs += gcd(a1, u).abs_value() * gcd(a1, v).abs_value()

    w = u * v
    counts: dict = {}
    for a in monics(ctx, r):
        g = gcd(a, w)
        cnt = 0
        for b in polys_upto(ctx, r - h - 1):
            if not b.is_zero and gcd(a, b).degree == 0:
                cnt += 1
        counts[g] = counts.get(g, 0) + cnt
    rhs = 0
    for w1 in divisors(w):
        rhs += w1.abs_value() * counts.get(w1, 0)
    return Fraction(lhs), Fraction(rhs)
