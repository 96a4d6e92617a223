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
multiply every monic cofactor at once in numpy.  Unit multiples share phi,
absolute value, and the support condition, so the sum over all B is (q-1)
times the sum over monic B; that equivalence is enforced against the
literal all-B enumeration in the tests.

The support condition is linear: B mod P is the sum of b_j (T^j mod P), so
one table row per coefficient gives the residues of every B at once, for
primes of any degree over prime and extension fields alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import List

import numpy as np

from .errors import NotCoprimeError, NotMonicError, check_guard
from .field import CHUNK, FieldCtx, from_digits, to_digits
from .polyring import Poly, coeff_vector, factor, gcd

_SIEVE_CACHE: dict = {}


def _monic_products(ctx: FieldCtx, left: np.ndarray, emax: int) -> np.ndarray:
    """Codes of A * B for every row A of ``left`` (coefficient codes, constant
    first) and every monic B of degree <= emax, as a convolution of residue
    digits summed mod p, built in blocks of CHUNK digits."""
    q, p, k = ctx.q, ctx.p, ctx.k
    prod_digits = to_digits(p, ctx.mul_table, k)  # [a, b] -> residues of a * b
    n_left, width_a = left.shape
    codes = np.empty(n_left * ((q ** (emax + 1) - 1) // (q - 1)), dtype=np.int64)
    pos = 0
    for e in range(emax + 1):
        width = width_a + e
        total = n_left * q**e
        step = max(1, CHUNK // (width * k))
        for start in range(0, total, step):
            t = np.arange(start, min(start + step, total))
            a = left[t // q**e]
            b = to_digits(q, q**e + t % q**e, e + 1)
            acc = np.zeros((t.size, width, k), dtype=np.int64)
            for i in range(width_a):
                acc[:, i : i + e + 1] += prod_digits[a[:, i, None], b]
            codes[pos : pos + t.size] = from_digits(p, (acc % p).reshape(t.size, -1))
            pos += t.size
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


def _validate(w2: Poly, w3: Poly) -> None:
    if w2.is_zero or not w2.is_monic or w3.is_zero or not w3.is_monic:
        raise NotMonicError("W2 and W3 must be monic and non-zero")
    if gcd(w2, w3).degree != 0:
        raise NotCoprimeError("W2 and W3 must be coprime")


def _support_flags(ctx: FieldCtx, w2: Poly, w3: Poly):
    """The primes of W = W2 W3 with a flag: must they divide B or must they not."""
    w3_primes = {p for p, _ in factor(w3)} if w3.degree > 0 else set()
    w = w2 * w3
    out = []
    if w.degree > 0:
        for p, _ in factor(w):
            out.append((p, p in w3_primes))
    return out


def _residue_table(ctx: FieldCtx, flags, kmax: int) -> np.ndarray:
    """lut[j, c]: the base-p residue digits of c * (T^j mod P) for every
    flagged prime P, side by side; shape (kmax + 1, q, sum of k deg P)."""
    prod_digits = to_digits(ctx.p, ctx.mul_table, ctx.k)
    one = Poly.one(ctx)
    blocks = [np.zeros((ctx.q, kmax + 1, 0), dtype=np.int64)]
    for prime, _ in flags:
        powers = [coeff_vector(one.shift(j) % prime, prime.degree - 1) for j in range(kmax + 1)]
        blocks.append(prod_digits[:, powers].reshape(ctx.q, kmax + 1, -1))
    return np.concatenate(blocks, axis=2).transpose(1, 0, 2)


def _degree_numerators(ctx: FieldCtx, w2: Poly, w3: Poly, kmax: int) -> List[int]:
    """num[d] = sum of phi(B) over qualifying monic B of degree d.

    B mod P is the sum of b_j (T^j mod P) over B's coefficients b_j, so the
    residues of every B come from one table row per coefficient: ``tails``
    holds the summed rows of each coefficient vector of length d, in code
    order, and the monic B of degree d add the row of b_d = 1.  P divides B
    iff all of its residue digits vanish mod p.
    """
    phi = _phi_array(ctx, kmax)
    flags = _support_flags(ctx, w2, w3)
    q = ctx.q
    lut = _residue_table(ctx, flags, kmax)
    tails = np.zeros((1, lut.shape[2]), dtype=np.int64)
    nums = []
    for d in range(kmax + 1):
        vanish = (tails + lut[d, 1]) % ctx.p == 0
        mask = np.ones(q**d, dtype=bool)
        start = 0
        for prime, need in flags:
            stop = start + prime.degree * ctx.k
            mask &= vanish[:, start:stop].all(axis=1) == need
            start = stop
        nums.append(int(phi[q**d : 2 * q**d][mask].sum()))
        if d < kmax:
            tails = (lut[d][:, None, :] + tails[None, :, :]).reshape(q ** (d + 1), -1)
    return nums


def phi_ratio_sum(w2: Poly, w3: Poly, k: int, guard: int = 10**8) -> Fraction:
    """Exact sum of phi(B)/|B|^2 over non-zero B of degree <= k whose prime
    support inside W = W2 W3 is exactly the primes of W3."""
    return convergence_report(w2, w3, k, guard).partial_sums[-1]


def phi_slope(w2: Poly, w3: Poly) -> Fraction:
    """Per-degree limit rate of the restricted sum, as an exact rational."""
    _validate(w2, w3)
    ctx = w2.ctx
    q = ctx.q
    out = Fraction((q - 1) ** 2, q)
    w = w2 * w3
    if w.degree > 0:
        for p, _ in factor(w):
            ap = q**p.degree
            out *= Fraction(ap, ap + 1)
    if w3.degree > 0:
        for p, _ in factor(w3):
            out *= Fraction(1, q**p.degree)
    return out


@dataclass
class PhiSumReport:
    """Partial sums S(0..k_max), their increments, and the predicted slope."""

    w2: Poly
    w3: Poly
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


def convergence_report(
    w2: Poly, w3: Poly, k_max: int, guard: int = 10**8
) -> PhiSumReport:
    """Partial sums with increments; increment(0) is S(0) itself."""
    _validate(w2, w3)
    if k_max < 0:
        raise ValueError("need k_max >= 0")
    ctx = w2.ctx
    check_guard(ctx.q ** (k_max + 1), guard, f"phi sum to degree {k_max}", "polynomials")
    nums = _degree_numerators(ctx, w2, w3, k_max)
    q = ctx.q
    increments = [Fraction((q - 1) * nums[d], q ** (2 * d)) for d in range(k_max + 1)]
    partial = list(accumulate(increments))
    return PhiSumReport(w2, w3, k_max, partial, increments, phi_slope(w2, w3))
