"""Counting side of the short-interval variance of UE^2 + VF^2 representations.

Everything here is exact: counts are ints, all derived statistics are
fractions.Fraction, and the closed forms evaluate q to integer powers only
(the parity hypotheses guarantee every half-integer exponent cancels; the
code asserts it).

Hypotheses used throughout: U, V monic and coprime, deg U even, deg V odd,
and 0 <= h <= n.  For odd n the roles of U and V swap, which is what the
parity table in ThmParams encodes.  ThmParams.compute checks a point once;
every function that takes the point as ``par`` trusts it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import GUARD, HfqError, check_guard, power_count
from .field import CHUNK, from_digits, to_digits
from .polyring import (
    Poly,
    coeff_vector,
    factor,
    gcd,
    monics,
    monics_upto,
    phi,
    polys_upto,
)

if TYPE_CHECKING:
    import numpy as np


def validate_pair(u: Poly, v: Poly) -> None:
    if u.is_zero or not u.is_monic or v.is_zero or not v.is_monic:
        raise HfqError("U and V must be monic and non-zero")
    if u.degree % 2 != 0:
        raise HfqError(f"deg U = {u.degree} must be even")
    if v.degree % 2 != 1:
        raise HfqError(f"deg V = {v.degree} must be odd")
    if gcd(u, v).degree != 0:
        raise HfqError("U and V must be coprime")


class ThmParams(NamedTuple):
    """(U, V) at (n, h) and, derived from them on each read, the parity
    table (s, t), the half-gaps (s', t') and the square-matrix sizes n1, n2.
    The one reader of the parity of n: side(), the rank ranges and the case."""

    u: Poly
    v: Poly
    n: int
    h: int

    @property
    def s(self) -> int:
        return self.widths(self.u, self.v, self.n)[0]

    @property
    def t(self) -> int:
        return self.widths(self.u, self.v, self.n)[1]

    @property
    def s_prime(self) -> int:
        return (self.n - self.s) // 2

    @property
    def t_prime(self) -> int:
        return (self.n - self.t) // 2

    @property
    def n1(self) -> int:
        return (self.n + 2) // 2

    @property
    def n2(self) -> int:
        return (self.n + 3) // 2

    @property
    def even(self) -> bool:
        return self.n % 2 == 0

    def side(self, monic: bool) -> tuple:
        """(W, width, half) of the monic or the full character-sum side: the
        polynomial, its parity-table width (s or t) and half-gap (s' or t').
        The monic sum attaches to U for even n and to V for odd n."""
        if monic == self.even:
            return self.u, self.s, self.s_prime
        return self.v, self.t, self.t_prime

    def r1_ranks(self) -> range:
        """Ranks of the f-sum and the kernel-sum identity: past the monic
        side's half-gap, up to n - h."""
        _, _, half = self.side(True)
        return range(half + 1, self.n - self.h + 1)

    def w_ranks(self) -> range:
        """Ranks of the w-sum identity: h < r <= min(s', t') and r > 2, inside
        the bijection range of the length-n sequences it counts."""
        from .hankel import bijection_ranks

        start = bijection_ranks(self.n - 1).start
        return range(max(self.h + 1, start), min(self.s_prime, self.t_prime) + 1)

    @property
    def case(self) -> str:
        """Which closed form applies: case1, case2, case3, or uncovered.

        The three ranges are disjoint by construction; (n, h) outside all of
        them is reported honestly as uncovered.
        """
        _, width, half = self.side(True)
        if self.h >= half + width:
            return "case1"
        if self.n2 - 1 <= self.h:
            return "case2"
        duv = self.u.degree + self.v.degree
        if 3 * (duv + 1) <= self.h < min(self.s_prime, self.t_prime) - 1:
            return "case3"
        return "uncovered"

    @staticmethod
    def widths(u: Poly, v: Poly, n: int) -> tuple:
        """The parity table (s, t): (deg U, deg V + 1) for even n, (deg U + 1,
        deg V) for odd n.  For a valid pair n - s and n - t are both even."""
        if n % 2 == 0:
            return u.degree, v.degree + 1
        return u.degree + 1, v.degree

    @classmethod
    def domain_error(cls, u: Poly, v: Poly, n: int, h: int) -> Optional[str]:
        """Why (n, h) lies outside the theorem's domain, or None inside it.
        The domain is 0 <= h <= n with n at least max(s, t)."""
        if not 0 <= h <= n:
            return "need n >= 0 and 0 <= h <= n"
        if n < max(cls.widths(u, v, n)):
            return f"n = {n} is too small for deg U = {u.degree}, deg V = {v.degree}"
        return None

    @classmethod
    def compute(cls, u: Poly, v: Poly, n: int, h: int) -> "ThmParams":
        """The checked point: the one way a point enters the variance layer."""
        validate_pair(u, v)
        reason = cls.domain_error(u, v, n, h)
        if reason:
            raise HfqError(reason)
        return cls(u, v, n, h)


def mean_formula(par: ThmParams) -> Fraction:
    """Average interval sum: 2 q^(h - deg U/2 - deg V/2 + 1/2), an exact
    rational because deg U + deg V is odd, so the exponent is an integer."""
    num = 1 - par.u.degree - par.v.degree
    return 2 * Fraction(par.u.ctx.q) ** (par.h + num // 2)


def _class_digits(ctx, parts, h: int, n: int) -> np.ndarray:
    """Residue digits of coefficients h..n-1 of each part, one row per part."""
    coeffs = [coeff_vector(b, n)[h:n] for b in parts]
    return to_digits(ctx.p, coeffs, ctx.k).reshape(len(parts), -1)


def _binned_interval_sums(par: ThmParams) -> np.ndarray:
    """Interval sum of every class, indexed by the code of coefficients h..n-1
    of B (the leading one is always 1).  Each pair of a monic and a free part
    adds 2, for E and -E; the pairs' digits are summed mod p and tallied into
    the q^(n-h) classes block by block, so no array grows with the pairs."""
    import numpy as np

    ctx = par.u.ctx
    n, h = par.n, par.h
    monic_w, _, monic_half = par.side(True)
    free_w, _, free_half = par.side(False)
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


def variance_bruteforce(par: ThmParams, guard: int = GUARD) -> Fraction:
    """Exact variance of the interval sums over all monic centres of degree n,
    from the sum S1 and the sum of squares S2 of every class's interval sum.
    Pairs are capped at 2^30 so that S2 <= S1^2 = (2 pairs)^2 is exact in int64."""
    q, cap = par.u.ctx.q, min(guard, 2**30)
    pairs = power_count(q, par.s_prime + par.t_prime + 1, cap)
    classes = power_count(q, par.n - par.h, cap)
    check_guard(max(pairs, classes), cap, "enumeration")
    counts = _binned_interval_sums(par)
    s1, s2 = int(counts.sum()), int(counts @ counts)
    mean = mean_formula(par)
    return (s2 - 2 * mean * s1 + classes * mean * mean) / classes


def gcd_divisibility_sum(q: int, primes, d1: int, d2: int, monic2: bool) -> int:
    """Sum of |gcd(B2, W)| over B2 (monic of degree <= d2, or arbitrary
    including 0) and B1 in A_{<= d1} with gcd(B2, W) dividing B1, for W
    factored as ``primes``, with no polynomial enumerated.  The B2 with gcd
    g add q^max(d1 + 1, deg g) each and are g B' with B' coprime to W/g of
    degree <= d2 - deg g: by Mobius inversion, those divisible by a
    squarefree D | W/g, 0 included, number q^max(d2 - deg gD + 1, 0).  A
    monic box drops B2 = 0 and keeps one of each B2's q - 1 unit multiples."""
    terms = [(1, 0, 0)]  # (mu(D), deg g, deg gD) over g | W and D | W/g
    for p, e in primes:
        terms = [(-mu if b else mu, dg + a * p.degree, dgd + (a + b) * p.degree)
                 for mu, dg, dgd in terms for a in range(e + 1) for b in (0, 1) if a + b <= e]
    total = sum(mu * q ** (max(d1 + 1, dg) + max(d2 - dgd + 1, 0)) for mu, dg, dgd in terms)
    if monic2:
        total -= q ** max(d1 + 1, sum(e * p.degree for p, e in primes))  # B2 = 0: g = W
        total //= q - 1
    return total


def _boxes(par: ThmParams, r1: int):
    """Per side, monic first: the polynomial, its half-gap, and the degree
    box (d1, d2, monic) of its gcd-divisibility sum at rank r1.  The full
    side's box is one degree lower at both ends."""
    for monic in (True, False):
        w, width, half = par.side(monic)
        low = 0 if monic else 1
        yield w, half, (half + width - r1 - low, r1 - half - 1 - low, monic)


def f_formula(par: ThmParams) -> Fraction:
    """The double gcd-divisibility sum whose q^h multiple is the exact
    variance in the boundary range; 0 when the rank range is empty."""
    q = par.u.ctx.q
    duv = par.u.degree + par.v.degree
    pref = Fraction(4 * (q - 1), q ** ((1 + duv) // 2))
    primes = {w: factor(w) for w in (par.u, par.v)}
    acc = Fraction(0)
    for r1 in par.r1_ranks():
        term = Fraction(q) ** (r1 - (par.n - par.h))
        for w, _, box in _boxes(par, r1):
            term *= gcd_divisibility_sum(q, primes[w], *box)
        acc += term
    return pref * acc


def m_factor(par: ThmParams) -> Fraction:
    """|UV|^(-1) prod over primes P | UV of (1 + (|P|-1)/(|P|+1) e_P(UV));
    UV is non-constant because deg V is odd."""
    w = par.u * par.v
    q = w.ctx.q
    out = Fraction(1, w.abs_value())
    for prime, mult in factor(w):
        ap = q**prime.degree
        out *= 1 + Fraction(ap - 1, ap + 1) * mult
    return out


class VarianceReport:
    """Everything one run produces; optional fields stay None until the
    corresponding computation is requested, and the residual and the
    verdict read whichever values are present."""

    def __init__(self, params: ThmParams):
        self.params = params
        self.theorem_value: Optional[Fraction] = None
        self.main_term: Optional[Fraction] = None
        self.secondary_term: Optional[Fraction] = None
        self.error_scale: Optional[tuple] = None
        self.oracle: Optional[Fraction] = None
        self.charsum_value: Optional[Fraction] = None

    @property
    def case(self) -> str:
        return self.params.case

    @property
    def residual(self) -> Optional[Fraction]:
        """The exact variance (the oracle's, else the character sum's) less
        the closed form; None without both."""
        exact = self.oracle if self.oracle is not None else self.charsum_value
        if exact is None or self.theorem_value is None:
            return None
        return exact - self.theorem_value

    @property
    def ok(self) -> bool:
        """The verdict: the oracle equals the character sum when both ran,
        and a case-1/case-2 residual is 0 whenever an exact value exists.
        Case 3 is asymptotic and never fails."""
        both = self.oracle is not None and self.charsum_value is not None
        if both and self.oracle != self.charsum_value:
            return False
        return self.case not in ("case1", "case2") or self.residual in (None, 0)


def theorem_predict(par: ThmParams, guard: int = GUARD) -> VarianceReport:
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

    The guard charges the trial divisors of each factorization run (U, V
    and, in case 3, UV): q + ... + q^(deg W // 2) each; and limbs^2 for the
    exact values, of about (h + deg UV + 2) log2 q bits in 30-bit limbs.
    """
    q, n, h = par.u.ctx.q, par.n, par.h
    case = par.case
    duv = par.u.degree + par.v.degree
    if case in ("case2", "case3"):
        factored = (par.u, par.v, par.u * par.v)[: 3 if case == "case3" else 2]
        limbs = (h + duv + 2) * q.bit_length() // 30 + 1
        trials = sum(q**d for w in factored for d in range(1, w.degree // 2 + 1))
        check_guard(trials + limbs * limbs, guard, "closed-form evaluation")
    report = VarianceReport(par)
    abs_uv = (par.u * par.v).abs_value()
    if case == "case1":
        report.theorem_value = Fraction(0)
    elif case == "case2":
        report.theorem_value = Fraction(q**h, abs_uv) * f_formula(par)
    elif case == "case3":
        report.main_term = (
            4 * (1 - Fraction(1, q)) * q**h * m_factor(par) * Fraction(n - 2 * h, 2)
        )
        # the parity table depends on (U, V, n) alone, so only h moves
        secondary = f_formula(par._replace(h=par.n1 - 1))
        report.secondary_term = Fraction(q) ** (2 * h - (par.n2 - 1)) * secondary / abs_uv
        report.theorem_value = report.main_term + report.secondary_term
        report.error_scale = (
            Fraction(q**h, abs_uv),
            Fraction(q ** (h + 2) * duv),
        )
    return report


def kernel_sum_work(par: ThmParams, r1: int, guard: int = GUARD) -> int:
    """The steps of kernel_sum_identity at rank r1, from its lists' sizes: each
    monic A of degree n - r1 + 1 meets each side's outer B and box's B2."""
    q = par.u.ctx.q
    work = 0
    for _, half, (_, d2, monic) in _boxes(par, r1):
        inner = (q ** (d2 + 1) - 1) // (q - 1) if monic else q ** max(d2 + 1, 0)
        work += power_count(q, half + (not monic), guard) * inner
    return power_count(q, par.n - r1 + 1, guard) * work


def kernel_sum_identity(par: ThmParams, r1: int, guard: int = GUARD):
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
    if par.h < par.n2 - 1:
        raise HfqError(f"identity needs h >= n2 - 1 = {par.n2 - 1}; h = {par.h} is below it")
    ranks = par.r1_ranks()
    if r1 not in ranks:
        raise HfqError(f"r1 = {r1} outside [{ranks.start}, {ranks.stop - 1}]")
    check_guard(kernel_sum_work(par, r1, guard), guard, "identity enumeration")
    ctx = par.u.ctx
    q = ctx.q
    da = par.n - r1 + 1
    sides = []
    for w, half, box in _boxes(par, r1):
        _, d2, monic = box
        outer = list(monics(ctx, half) if monic else polys_upto(ctx, half))
        inner = list(monics_upto(ctx, d2) if monic else polys_upto(ctx, d2))
        sides.append((w, outer, inner, box))

    lhs = 0
    for a in monics(ctx, da):
        term = 1
        for w, outer, inner, (bound, _, _) in sides:
            hits = 0
            for b in outer:
                wb = w * b
                for b2 in inner:
                    if (wb - b2 * a).degree <= bound:
                        hits += 1
            term *= hits
            if term == 0:
                break
        lhs += term

    rhs = Fraction(q**da, (par.u * par.v).abs_value())
    for w, _, _, box in sides:
        rhs *= gcd_divisibility_sum(q, factor(w), *box)
    return Fraction(lhs), rhs


def w_sum_identity(par: ThmParams, r: int, guard: int = GUARD):
    """Both sides of the stratified count over the full-recurrence class of
    length-n sequences: sum of |gcd(a1, U)| |gcd(a1, V)| against the
    divisor-stratified coprime-pair count with W = UV, the sum over monic A
    of degree r of |gcd(A, W)| times the number of B of degree < r - h
    coprime to A (phi, by Mobius; B = 0 is not, as deg A >= 3)."""
    u, v, n, h = par.u, par.v, par.n, par.h
    ctx = u.ctx
    q = ctx.q
    ranks = par.w_ranks()
    if r not in ranks:
        raise HfqError(f"r = {r} outside [{h + 1}, {ranks.stop - 1}] (and r > 2)")
    check_guard(power_count(q, n - h, guard), guard, "identity enumeration")
    from . import fastpath
    from .hankel import Seq, analyze

    lhs = 0  # one sequence per scalar orbit, weighted q - 1: a1 is monic, so c * seq shares it
    for (rank, _, strict_rho), ents in fastpath.walk(ctx, n - h, h, ((1,),)):
        for entries in ents[(rank == r) & (strict_rho == r)].tolist():  # strict (r, r, 0)
            a1 = analyze(Seq(ctx, [0] * h + entries)).polys.a1
            lhs += (q - 1) * gcd(a1, u).abs_value() * gcd(a1, v).abs_value()

    w = u * v
    rhs = sum(gcd(a, w).abs_value() * phi(a, r - h) for a in monics(ctx, r))
    return Fraction(lhs), Fraction(rhs)
