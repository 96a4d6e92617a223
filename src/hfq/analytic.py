"""Exact restricted totient-ratio sums and their per-degree growth rate.

The object of interest is the sum of phi(B)/|B|^2 over non-zero B of degree
at most k whose shared prime support with a fixed W = W2*W3 is exactly the
primes of W3.  Each partial sum is an exact rational; the per-degree
increment approaches the closed-form slope
(q-1)^2/q * prod_{P|W}(1+|P|^-1)^-1 * prod_{P|W3}|P|^-1, and the
verification suite checks that numerically since the approach rate carries
an unspecified constant.

phi is computed for every monic polynomial up to the cutoff with a sieve
of Eratosthenes by degree, keyed by the base-q digit code of the coefficient
vector: the primes of each degree, the codes no smaller prime has touched,
multiply every monic cofactor at once in numpy.  The same products decide
the support condition: the monic multiples of a prime P of W are the codes
of P * C for monic C.  Unit multiples share phi, absolute value, and the
support condition, so the sum over all B is (q-1) times the sum over monic
B; that equivalence is enforced against the literal all-B enumeration in
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, List

from .errors import GUARD, HfqError, check_guard
from .field import CHUNK, FieldCtx, from_digits, to_digits
from .polyring import Poly, factor, gcd

if TYPE_CHECKING:
    import numpy as np

_SIEVE_CACHE: dict = {}


def _outer_sums(acc: np.ndarray, rows: np.ndarray, j: int):
    """The digit sums ``acc`` extended by every choice of the coefficients
    j..0 of B, in blocks of at most CHUNK digits.

    acc[b, a] holds the residue digits summed so far for the prefix b of B's
    coefficients and the a-th A, and rows[c, a] those of c * A.  Coefficient
    j adds rows[c] at digit j for every c: an outer sum, taken depth first."""
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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


def _validate(w2: Poly, w3: Poly) -> None:
    if w2.is_zero or not w2.is_monic or w3.is_zero or not w3.is_monic:
        raise HfqError("W2 and W3 must be monic and non-zero")
    if gcd(w2, w3).degree != 0:
        raise HfqError("W2 and W3 must be coprime")


def _support_flags(w2: Poly, w3: Poly):
    """The primes of W = W2 W3, each flagged True iff it divides W3, that is,
    iff it must divide B."""
    return [(p, False) for p, _ in factor(w2)] + [(p, True) for p, _ in factor(w3)]


def _degree_numerators(ctx: FieldCtx, w2: Poly, w3: Poly, kmax: int) -> List[int]:
    """num[d] = sum of phi(B) over qualifying monic B of degree d.

    The monic multiples of degree <= kmax of a prime P are the codes of
    P * C, C monic of degree <= kmax - deg P (none when deg P > kmax): a
    monic B qualifies iff each prime's mark on its code equals the prime's
    flag.  phi is 0 on the codes of non-monic vectors.
    """
    import numpy as np

    q = ctx.q
    phi = _phi_array(ctx, kmax)[: q ** (kmax + 1)]
    keep = np.ones(phi.size, dtype=bool)
    for prime, need in _support_flags(w2, w3):
        divides = np.zeros(phi.size, dtype=bool)
        if prime.degree <= kmax:
            divides[_monic_products(ctx, np.array([prime.coeffs]), kmax - prime.degree)] = True
        keep &= divides == need
    kept = phi * keep
    return [int(kept[q**d : 2 * q**d].sum()) for d in range(kmax + 1)]


def phi_slope(w2: Poly, w3: Poly) -> Fraction:
    """Per-degree limit rate of the restricted sum, as an exact rational."""
    _validate(w2, w3)
    q = w2.ctx.q
    out = Fraction((q - 1) ** 2, q)
    for p, in_w3 in _support_flags(w2, w3):
        ap = q**p.degree
        out *= Fraction(1 if in_w3 else ap, ap + 1)
    return out


@dataclass
class PhiSumReport:
    """Partial sums S(0..k_max), their increments, and the predicted slope."""

    k_max: int
    partial_sums: List[Fraction]
    increments: List[Fraction]
    slope: Fraction

    def csv_rows(self):
        """One row per k: k, S(k), increment(k), slope (rationals as num/den)."""
        slope = (self.slope.numerator, self.slope.denominator)
        return [
            (k, s.numerator, s.denominator, inc.numerator, inc.denominator, *slope)
            for k, (s, inc) in enumerate(zip(self.partial_sums, self.increments))
        ]


def convergence_report(w2: Poly, w3: Poly, k_max: int, guard: int = GUARD) -> PhiSumReport:
    """Partial sums with increments; increment(0) is S(0) itself."""
    _validate(w2, w3)
    if k_max < 0:
        raise HfqError("need k_max >= 0")
    ctx = w2.ctx
    check_guard(ctx.q ** (k_max + 1), guard, f"phi sum to degree {k_max}", "polynomials")
    nums = _degree_numerators(ctx, w2, w3, k_max)
    q = ctx.q
    increments = [Fraction((q - 1) * nums[d], q ** (2 * d)) for d in range(k_max + 1)]
    partial = list(accumulate(increments))
    return PhiSumReport(k_max, partial, increments, phi_slope(w2, w3))
