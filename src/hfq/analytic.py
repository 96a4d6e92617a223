"""Exact restricted totient-ratio sums and their per-degree growth rate.

The object of interest is the sum of phi(B)/|B|^2 over non-zero B of degree
at most k whose shared prime support with a fixed W = W2*W3 is exactly the
primes of W3.  Each partial sum is an exact rational; the per-degree
increment approaches the closed-form slope
(q-1)^2/q * prod_{P|W}(1+|P|^-1)^-1 * prod_{P|W3}|P|^-1, and the
verification suite checks that numerically since the approach rate carries
an unspecified constant.

The per-degree sums over monic B are the coefficients of an Euler product:
sum_B phi(B) u^deg B = (1 - qu)/(1 - q^2 u) over all monic B, whose local
factor at a prime P of degree d is (1 - u^d)/(1 - |P| u^d).  Support on W
keeps the e = 0 term of that factor for P | W2 and drops it for P | W3, so
the series is multiplied by (1 - |P| u^d)/(1 - u^d) or by
(|P| - 1) u^d/(1 - u^d), in exact integers truncated at u^kmax.  Unit
multiples share phi, absolute value, and the support condition, so the sum
over all B is (q-1) times the sum over monic B; that equivalence is
enforced against the literal all-B enumeration in the tests, and the
series against a sieve of Eratosthenes over every monic B.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import List, NamedTuple

from .errors import GUARD, HfqError, check_guard
from .polyring import Poly, factor, gcd


def _validate(w2: Poly, w3: Poly) -> None:
    if w2.is_zero or not w2.is_monic or w3.is_zero or not w3.is_monic:
        raise HfqError("W2 and W3 must be monic and non-zero")
    if gcd(w2, w3).degree != 0:
        raise HfqError("W2 and W3 must be coprime")


def _support_flags(w2: Poly, w3: Poly):
    """The primes of W = W2 W3, each flagged True iff it divides W3, that is,
    iff it must divide B."""
    return [(p, False) for p, _ in factor(w2)] + [(p, True) for p, _ in factor(w3)]


def _degree_numerators(w2: Poly, w3: Poly, kmax: int) -> List[int]:
    """num[d] = sum of phi(B) over qualifying monic B of degree d, for
    d <= kmax: the u^d coefficients of the Euler product, each prime's
    factor one shifted add and one running sum of stride deg P."""
    q = w2.ctx.q
    nums = [1] + [q ** (2 * d) - q ** (2 * d - 1) for d in range(1, kmax + 1)]
    for prime, in_w3 in _support_flags(w2, w3):
        d, norm = prime.degree, q**prime.degree
        if in_w3:  # times (|P| - 1) u^d
            nums = ([0] * d + [(norm - 1) * c for c in nums])[: kmax + 1]
        else:  # times 1 - |P| u^d
            nums = nums[:d] + [c - norm * s for c, s in zip(nums[d:], nums)]
        for i in range(d, kmax + 1):  # over 1 - u^d
            nums[i] += nums[i - d]
    return nums


def phi_slope(w2: Poly, w3: Poly) -> Fraction:
    """Per-degree limit rate of the restricted sum, as an exact rational."""
    _validate(w2, w3)
    q = w2.ctx.q
    out = Fraction((q - 1) ** 2, q)
    for p, in_w3 in _support_flags(w2, w3):
        ap = q**p.degree
        out *= Fraction(1 if in_w3 else ap, ap + 1)
    return out


class PhiSumReport(NamedTuple):
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
    """Partial sums with increments; increment(0) is S(0) itself.

    The guard charges bit operations on integers of ``bits`` bits, the size
    of q^(2 k_max), which bounds every numerator and denominator up to a
    small factor: k_max + 1 updates for each local factor (one per prime of
    W, and (1 - qu)/(1 - q^2 u)), each linear in the size, and one Fraction
    reduction per degree, quadratic in it (bits^2 / 30 with 30-bit digits)."""
    _validate(w2, w3)
    if k_max < 0:
        raise HfqError("need k_max >= 0")
    q = w2.ctx.q
    bits = 2 * k_max * q.bit_length() + 1
    work = (k_max + 1) * bits * (len(_support_flags(w2, w3)) + 1 + bits // 30)
    check_guard(work, guard, f"phi sum to degree {k_max}", "bit operations")
    nums = _degree_numerators(w2, w3, k_max)
    increments = [Fraction((q - 1) * nums[d], q ** (2 * d)) for d in range(k_max + 1)]
    partial = list(accumulate(increments))
    return PhiSumReport(k_max, partial, increments, phi_slope(w2, w3))
