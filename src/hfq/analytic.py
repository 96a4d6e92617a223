"""Exact restricted totient-ratio sums and their per-degree growth rate.

The object of interest is the sum of phi(B)/|B|^2 over non-zero B of degree
at most k whose shared prime support with a fixed W = W2*W3 is exactly the
primes of W3.  Each partial sum is an exact rational; the per-degree
increment approaches the closed-form slope
(q-1)^2/q * prod_{P|W}(1+|P|^-1)^-1 * prod_{P|W3}|P|^-1, and the
verification suite checks that numerically since the approach rate carries
an unspecified constant.

phi is computed for every monic polynomial up to the cutoff with a linear
sieve (each composite is produced exactly once from its smallest-factor
decomposition), keyed by the base-q digit code of the coefficient vector.
Unit multiples share phi, absolute value, and the support condition, so the
sum over all B is (q-1) times the sum over monic B; that equivalence is
enforced against the literal all-B enumeration in the tests.

The support condition is linear: B mod P is the sum of b_j (T^j mod P), so
one table row per coefficient gives the residues of every B at once, for
primes of any degree over prime and extension fields alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List

import numpy as np

from .errors import NotCoprimeError, NotMonicError, TooLargeError
from .field import FieldCtx, fq_vectors
from .polyring import Poly, coeff_vector, factor, gcd

_SIEVE_CACHE: dict = {}


def _encode(q: int, coeffs) -> int:
    code = 0
    for c in reversed(coeffs):
        code = code * q + c
    return code


def _phi_array(ctx: FieldCtx, kmax: int) -> np.ndarray:
    """phi for every monic polynomial of degree <= kmax, indexed by digit code.

    Each composite M is reached once, as P * B with P the smallest prime
    factor of M, taken in discovery order; spf holds that factor's index in
    ``primes`` for every code, so P divides B exactly when P is B's smallest
    prime factor.
    """
    cached = _SIEVE_CACHE.get(ctx)
    if cached is not None and cached[0] >= kmax:
        return cached[1]
    q = ctx.q
    phi = np.zeros(q ** (kmax + 1), dtype=np.int64)
    spf = np.zeros(q ** (kmax + 1), dtype=np.int32)
    phi[1] = 1  # the polynomial 1
    primes: list = []  # (degree, Poly) in discovery order
    for d in range(1, kmax + 1):
        for code, coeffs in enumerate(fq_vectors(ctx, d + 1, q**d, 2 * q**d), q**d):
            b = Poly(ctx, coeffs)
            if phi[code] == 0:
                phi[code] = q**d - 1
                spf[code] = len(primes)
                primes.append((d, b))
            phi_b, spf_b = int(phi[code]), int(spf[code])
            for i, (dp, prime) in enumerate(primes):
                if dp + d > kmax:
                    break
                m_code = _encode(q, (prime * b).coeffs)
                phi[m_code] = phi_b * (q**dp if i == spf_b else q**dp - 1)
                spf[m_code] = i
                if i == spf_b:
                    break
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
    mul = np.array(ctx.mul_table, dtype=np.int64)
    digits = np.array(ctx.residues, dtype=np.int64)
    one = Poly.one(ctx)
    blocks = [np.zeros((ctx.q, kmax + 1, 0), dtype=np.int64)]
    for prime, _ in flags:
        powers = [coeff_vector(one.shift(j) % prime, prime.degree - 1) for j in range(kmax + 1)]
        blocks.append(digits[mul[:, powers]].reshape(ctx.q, kmax + 1, -1))
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
    _validate(w2, w3)
    if k < 0:
        raise ValueError("need k >= 0")
    ctx = w2.ctx
    if ctx.q ** (k + 1) > guard:
        raise TooLargeError(f"enumeration space q^{k + 1} exceeds the cap {guard}")
    nums = _degree_numerators(ctx, w2, w3, k)
    q = ctx.q
    return sum(Fraction((q - 1) * nums[d], q ** (2 * d)) for d in range(k + 1))


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
        rows = []
        for k in range(self.k_max + 1):
            s = self.partial_sums[k]
            inc = self.increments[k]
            rows.append(
                (
                    k,
                    s.numerator,
                    s.denominator,
                    inc.numerator,
                    inc.denominator,
                    self.slope.numerator,
                    self.slope.denominator,
                )
            )
        return rows


def convergence_report(
    w2: Poly, w3: Poly, k_max: int, guard: int = 10**8
) -> PhiSumReport:
    """Partial sums with increments; increment(0) is S(0) itself."""
    _validate(w2, w3)
    if k_max < 0:
        raise ValueError("need k_max >= 0")
    ctx = w2.ctx
    if ctx.q ** (k_max + 1) > guard:
        raise TooLargeError(f"enumeration space q^{k_max + 1} exceeds the cap {guard}")
    nums = _degree_numerators(ctx, w2, w3, k_max)
    q = ctx.q
    partial: List[Fraction] = []
    increments: List[Fraction] = []
    acc = Fraction(0)
    for d in range(k_max + 1):
        inc = Fraction((q - 1) * nums[d], q ** (2 * d))
        acc += inc
        increments.append(inc)
        partial.append(acc)
    return PhiSumReport(w2, w3, k_max, partial, increments, phi_slope(w2, w3))
