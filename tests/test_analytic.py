from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np
import pytest

from hfq import analytic
from hfq.analytic import (
    _monic_products,
    _phi_array,
    convergence_report,
    phi_slope,
)
from hfq.errors import HfqError, TooLargeError
from hfq.field import CHUNK, ctx_new, to_digits
from hfq.polyring import Poly, factor, gcd, monics, monics_upto, phi, polys_upto, rad
from hfq.variance import ThmParams, m_factor

F3 = ctx_new(3)
F5 = ctx_new(5)
F9 = ctx_new(3, 2, [2, 1, 1])
ONE = Poly.one(F3)
T = Poly.t(F3)
T1 = Poly.from_ints(F3, [1, 1])


def test_sum_fixture_trivial_support():
    # W = 1: every non-zero B qualifies; at k = 0 that is the two units
    assert convergence_report(ONE, ONE, 0).partial_sums == [2]


def test_slope_fixtures():
    assert phi_slope(ONE, ONE) == Fraction(4, 3)
    assert phi_slope(T * T1, ONE) == Fraction(3, 4)
    assert phi_slope(ONE, T) == Fraction(4, 3) * Fraction(3, 4) * Fraction(1, 3)
    # a degree-2 prime on the W2 side, T on the W3 side
    assert phi_slope(T * T + ONE, T) == Fraction(3, 10)
    # a repeated prime counts once
    assert phi_slope(T * T, T1) == phi_slope(T, T1) == Fraction(1, 4)
    assert phi_slope(Poly(F9, (1, 1)) ** 2, Poly(F9, (5, 0, 1))) == Fraction(8, 125)


def test_validation():
    with pytest.raises(HfqError, match="W2 and W3 must be coprime"):
        convergence_report(T, T, 3)
    with pytest.raises(HfqError, match="W2 and W3 must be monic"):
        convergence_report(Poly.from_ints(F3, [2]), ONE, 3)
    with pytest.raises(TooLargeError):
        convergence_report(ONE, ONE, 30, guard=100)


def _direct_all_b(ctx, w2, w3, k):
    """Literal sum over every non-zero B of degree <= k."""
    w = w2 * w3
    want = rad(w3) if w3.degree > 0 else Poly.one(ctx)
    total = Fraction(0)
    for b in polys_upto(ctx, k):
        if b.is_zero:
            continue
        if rad(gcd(b, w)) != want:
            continue
        total += Fraction(phi(b.monic()), b.abs_value() ** 2)
    return total


@pytest.mark.parametrize(
    "ctx,w2,w3,k_max",
    [
        (F3, ONE, ONE, 3),
        (F3, T, ONE, 3),
        (F3, ONE, T, 3),
        (F3, T1, T, 3),
        (F3, Poly(F3, (1, 0, 1)), T, 3),
        (F3, T * T, T1, 3),
        (F5, Poly(F5, (2, 0, 1)), Poly.t(F5), 3),
        (F9, Poly(F9, (3, 0, 1)), Poly(F9, (4, 1)), 2),
        (F9, Poly(F9, (1, 1)) ** 2, Poly(F9, (5, 0, 1)), 2),
    ],
    ids=["1,1", "T,1", "1,T", "T+1,T", "T^2+1,T", "T^2,T+1", "q5-T^2+2,T",
         "q9-T^2+alpha,T+1+alpha", "q9-(T+1)^2,T^2+2+alpha"],
)
def test_matches_literal_enumeration(ctx, w2, w3, k_max):
    sums = convergence_report(w2, w3, k_max).partial_sums
    assert sums == [_direct_all_b(ctx, w2, w3, k) for k in range(k_max + 1)]


def test_partial_sums_monotone_and_prefix_stable():
    r1 = convergence_report(T, ONE, 6)
    r2 = convergence_report(T, ONE, 9)
    assert r1.partial_sums == r2.partial_sums[:7]
    assert all(x >= 0 for x in r1.increments)
    assert all(b >= a for a, b in zip(r1.partial_sums, r1.partial_sums[1:]))


def test_report_rows():
    rep = convergence_report(ONE, ONE, 5)
    rows = rep.csv_rows()
    assert len(rows) == 6
    assert rows[0][0] == 0 and rows[-1][0] == 5
    # last increment already close to the slope at this small depth
    assert rep.slope == Fraction(4, 3)


def test_increments_approach_slope():
    rep = convergence_report(ONE, T, 8)
    devs = [abs(inc / rep.slope - 1) for inc in rep.increments[4:]]
    assert devs[-1] < Fraction(1, 4)


@pytest.mark.parametrize(
    "ctx,v_degrees,pairs",
    [
        (F3, (1, 3), 111),
        (F5, (1,), 85),
        (ctx_new(7), (1,), 259),
        (ctx_new(3, 2, [1, 0, 1]), (1,), 585),
    ],
    ids=["q3", "q5", "q7", "q9"],
)
def test_m_factor_is_a_phi_slope_sum_for_squarefree_uv(ctx, v_degrees, pairs):
    # M(U, V) = q / ((q-1)^2 |UV|) * sum over monic W3 | UV of |W3| phi_slope(UV/W3, W3),
    # on every valid pair with U = 1 or of degree 2 and UV squarefree; a
    # repeated prime of UV is outside the identity
    q, one, seen = ctx.q, Poly.one(ctx), 0
    for u in [one, *monics(ctx, 2)]:
        for v in (v for d in v_degrees for v in monics(ctx, d)):
            w = u * v
            primes = factor(w)
            if gcd(u, v) != one or any(mult > 1 for _, mult in primes):
                continue
            divisors = [prod(c, start=one) for k in range(len(primes) + 1)
                        for c in combinations([p for p, _ in primes], k)]
            total = sum(w3.abs_value() * phi_slope(w // w3, w3) for w3 in divisors)
            par = ThmParams.compute(u, v, 2 * w.degree, 0)
            assert m_factor(par) == Fraction(q, (q - 1) ** 2 * w.abs_value()) * total, (u, v)
            seen += 1
    assert seen == pairs


F27 = ctx_new(3, 3, [1, 2, 0, 1])


@pytest.mark.parametrize(
    "ctx,kmax",
    [
        (F3, 7),
        (F5, 4),
        (F9, 3),
        (ctx_new(7), 3),
        (ctx_new(5, 2, [2, 0, 1]), 2),
        (F27, 2),
    ],
    ids=["q3", "q5", "q9", "q7", "q25", "q27"],
)
def test_sieve_matches_factored_phi(monkeypatch, ctx, kmax):
    # q3 at kmax 7 spans two blocks: its degree-1 primes times the monic B
    # of degree 6 are 3 * 3^6 products of 8 coefficients, more than CHUNK
    # digits.  A fresh cache keeps an earlier, larger sieve from answering.
    monkeypatch.setattr(analytic, "_SIEVE_CACHE", {})
    if ctx is F3:
        assert 3 * 3**6 * 8 > CHUNK
    sieve = _phi_array(ctx, kmax)
    assert sieve.shape == (ctx.q ** (kmax + 1),)
    monic = np.zeros(sieve.shape, dtype=bool)
    for a in monics_upto(ctx, kmax):
        code = sum(c * ctx.q**i for i, c in enumerate(a.coeffs))
        monic[code] = True
        assert sieve[code] == phi(a), a
    assert not sieve[~monic].any()


@pytest.mark.parametrize("ctx,d,emax", [(F3, 1, 5), (F3, 2, 3), (F9, 1, 2)], ids=["q3", "q3d2", "q9"])
def test_monic_products_in_any_blocks_are_the_products(monkeypatch, ctx, d, emax):
    # the products of every monic A of degree d (prime or not) and every
    # monic B of degree <= emax, against Poly multiplication; a CHUNK of 1
    # expands one prefix per block, and each block stays within CHUNK
    # digits once one A's q rows fit
    code = lambda a: sum(c * ctx.q**i for i, c in enumerate(a.coeffs))  # noqa: E731
    lefts = list(monics(ctx, d))
    want = sorted(code(a * b) for a in lefts for b in monics_upto(ctx, emax))
    left = to_digits(ctx.q, [code(a) for a in lefts], d + 1)
    outer_sums, sizes = analytic._outer_sums, []

    def recording(acc, rows, j):
        for block in outer_sums(acc, rows, j):
            sizes.append(block.size)
            yield block

    monkeypatch.setattr(analytic, "_outer_sums", recording)
    for chunk in (1, 64, CHUNK):
        monkeypatch.setattr(analytic, "CHUNK", chunk)
        sizes.clear()
        assert sorted(_monic_products(ctx, left, emax).tolist()) == want
        one_row = ctx.q * (d + 1 + emax) * ctx.k
        assert max(sizes) <= max(chunk, one_row)
