import random
from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np
import oracle
import pytest
from oracle import _monic_products, _phi_array, rad, sieve_numerators

from hfq.analytic import _degree_numerators, convergence_report, phi_slope
from hfq.errors import HfqError, TooLargeError
from hfq.field import CHUNK, ctx_new, to_digits
from hfq.polyring import Poly, factor, gcd, monics, monics_upto, phi, polys_upto
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


@pytest.mark.parametrize(
    "w2,w3,k_max",
    [
        (ONE, ONE, 200),
        (T * T + ONE, T, 200),
        (T1**2, T * (T * T + ONE), 150),
        (Poly(F9, (1, 1)) ** 2, Poly(F9, (5, 0, 1)), 100),
        (Poly.one(F5), Poly.t(F5), 120),
    ],
    ids=["F3-W1", "F3-W2-W3", "F3-repeated", "F9", "F5"],
)
def test_guard_charges_the_series_and_bounds_its_integers(w2, w3, k_max):
    # the guard's size, bits = the length of q^(2 k_max), bounds every
    # rational the report holds, up to the growth of S(k) with k
    q = w2.ctx.q
    bits = 2 * k_max * q.bit_length() + 1
    report = convergence_report(w2, w3, k_max)
    values = [*report.partial_sums, *report.increments]
    size = max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in values)
    assert size <= bits + (k_max + 1).bit_length() + q.bit_length()
    with pytest.raises(TooLargeError, match="bit operations"):
        convergence_report(w2, w3, 4 * k_max)


def test_guard_admits_what_the_sieve_guard_refused():
    # 3^17 polynomials exceed the default cap, but the series takes 17 numerators
    assert len(convergence_report(ONE, ONE, 16).partial_sums) == 17


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


SQUAREFREE_ENVELOPE = [
    (F3, (1, 3), 111),
    (F5, (1,), 85),
    (ctx_new(7), (1,), 259),
    (ctx_new(3, 2, [1, 0, 1]), (1,), 585),
]


def _squarefree_pairs(ctx, v_degrees):
    """Every valid (U, V) with U = 1 or monic of degree 2, V monic of a
    degree in ``v_degrees``, and UV squarefree."""
    one = Poly.one(ctx)
    for u in [one, *monics(ctx, 2)]:
        for v in (v for d in v_degrees for v in monics(ctx, d)):
            if gcd(u, v) == one and all(mult == 1 for _, mult in factor(u * v)):
                yield u, v


@pytest.mark.parametrize(
    "ctx,v_degrees,pairs", SQUAREFREE_ENVELOPE, ids=["q3", "q5", "q7", "q9"]
)
def test_m_factor_is_a_phi_slope_sum_for_squarefree_uv(ctx, v_degrees, pairs):
    # M(U, V) = q / ((q-1)^2 |UV|) * sum over monic W3 | UV of |W3| phi_slope(UV/W3, W3),
    # on every valid pair with U = 1 or of degree 2 and UV squarefree; a
    # repeated prime of UV is outside the identity
    q, one, seen = ctx.q, Poly.one(ctx), 0
    for u, v in _squarefree_pairs(ctx, v_degrees):
        w = u * v
        primes = factor(w)
        divisors = [prod(c, start=one) for k in range(len(primes) + 1)
                    for c in combinations([p for p, _ in primes], k)]
        total = sum(w3.abs_value() * phi_slope(w // w3, w3) for w3 in divisors)
        par = ThmParams.compute(u, v, 2 * w.degree, 0)
        assert m_factor(par) == Fraction(q, (q - 1) ** 2 * w.abs_value()) * total, (u, v)
        seen += 1
    assert seen == pairs


def _repeated_prime_pairs(ctx):
    """(1, T^3), ((T+1)^2, T), ((T+1)^2, T^3) and (T^2+1, T): three pairs
    with a repeated prime of UV, and one of a degree-2 U."""
    t, t1, t3 = Poly(ctx, (0, 1)), Poly(ctx, (1, 1)), Poly(ctx, (0, 0, 0, 1))
    return [(Poly.one(ctx), t3), (t1 * t1, t), (t1 * t1, t3), (Poly(ctx, (1, 0, 1)), t)]


def _times(a, b):
    return [sum(a[j] * b[i - j] for j in range(i + 1)) for i in range(len(a))]


def _weighted_series(w, kmax):
    """Coefficients to u^kmax of the sum of phi(B) |gcd(B, W)| u^deg B over
    monic B: the Euler product (1 - qu)/(1 - q^2 u), whose local factor at P
    is (1 - u^d)/(1 - |P| u^d), with each P | W's factor replaced by
    sum_e phi(P^e) |P|^min(e, m) u^(e d), m = e_P(W), d = deg P."""
    q = w.ctx.q
    series = [1] + [q ** (2 * k) - q ** (2 * k - 1) for k in range(1, kmax + 1)]
    for prime, m in factor(w):
        d, norm = prime.degree, q**prime.degree
        unweighted_inverse = [1] + [(1 - norm) * (i % d == 0) for i in range(1, kmax + 1)]
        local = [0] * (kmax + 1)
        for e in range(kmax // d + 1):
            local[e * d] = (norm**e - norm ** (e - 1) if e else 1) * norm ** min(e, m)
        series = _times(_times(series, unweighted_inverse), local)
    return series


def _weighted_residue(w):
    """(1 - q^2 u) times the weighted series' rational function, at its one
    pole u = q^-2: each local factor summed exactly, its tail past e = m a
    geometric series of ratio |P| u^d."""
    q = w.ctx.q
    u = Fraction(1, q**2)
    out = 1 - q * u
    for prime, m in factor(w):
        norm, x = q**prime.degree, u**prime.degree
        local = 1 + sum((norm**e - norm ** (e - 1)) * norm**e * x**e for e in range(1, m + 1))
        local += (norm ** (m + 1) - norm**m) * norm**m * x ** (m + 1) / (1 - norm * x)
        out *= (1 - norm * x) / (1 - x) * local
    return out


@pytest.mark.parametrize(
    "ctx,v_degrees,pairs", SQUAREFREE_ENVELOPE, ids=["q3", "q5", "q7", "q9"]
)
def test_m_factor_is_the_weighted_euler_products_residue(ctx, v_degrees, pairs):
    # the weighted increments (q-1) c_k / q^(2k) tend to (q-1) times the
    # residue, which must be (q-1)^2 |UV| M(U, V) / q, on the squarefree
    # envelope and on pairs with a repeated prime
    q, seen = ctx.q, 0
    for u, v in [*_squarefree_pairs(ctx, v_degrees), *_repeated_prime_pairs(ctx)]:
        w = u * v
        par = ThmParams.compute(u, v, 2 * w.degree, 0)
        want = Fraction((q - 1) ** 2 * w.abs_value(), q) * m_factor(par)
        assert (q - 1) * _weighted_residue(w) == want, (u, v)
        seen += 1
    assert seen == pairs + 4


@pytest.mark.parametrize("ctx,kmax", [(F3, 6), (F5, 4)], ids=["q3", "q5"])
def test_weighted_series_is_the_literal_sum(ctx, kmax):
    phis = {b: phi(b) for b in monics_upto(ctx, kmax)}
    for u, v in [(Poly.one(ctx), Poly.t(ctx)), *_repeated_prime_pairs(ctx)]:
        w = u * v
        literal = [sum(phis[b] * gcd(b, w).abs_value() for b in monics(ctx, k))
                   for k in range(kmax + 1)]
        assert _weighted_series(w, kmax) == literal, (u, v)


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
    monkeypatch.setattr(oracle, "_SIEVE_CACHE", {})
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
    outer_sums, sizes = oracle._outer_sums, []

    def recording(acc, rows, j):
        for block in outer_sums(acc, rows, j):
            sizes.append(block.size)
            yield block

    monkeypatch.setattr(oracle, "_outer_sums", recording)
    for chunk in (1, 64, CHUNK):
        monkeypatch.setattr(oracle, "CHUNK", chunk)
        sizes.clear()
        assert sorted(_monic_products(ctx, left, emax).tolist()) == want
        one_row = ctx.q * (d + 1 + emax) * ctx.k
        assert max(sizes) <= max(chunk, one_row)


def _random_coprime_pairs(ctx, max_degree, count, rng):
    """``count`` coprime (W2, W3), each a product of up to three primes of
    degree <= max_degree drawn with replacement, W2's first prime squared in
    every other pair; the first pair is (1, 1)."""
    pool = [p for d in range(1, max_degree + 1) for p in monics(ctx, d)
            if factor(p) == [(p, 1)]]
    one = Poly.one(ctx)

    def draw(repeat):
        primes = rng.choices(pool, k=rng.randrange(4))
        return prod(primes + primes[:repeat], start=one)

    pairs = [(one, one)]
    while len(pairs) < count:
        w2, w3 = draw(len(pairs) % 2), draw(0)
        if gcd(w2, w3) == one:
            pairs.append((w2, w3))
    return pairs


@pytest.mark.parametrize(
    "ctx,max_degree,kmax",
    [(F3, 3, 12), (F5, 2, 6), (ctx_new(7), 2, 4), (ctx_new(3, 2, [1, 0, 1]), 2, 4)],
    ids=["q3", "q5", "q7", "q9"],
)
def test_euler_product_numerators_match_the_sieve(ctx, max_degree, kmax):
    # the series against the sieve's support-marked sums at every depth up
    # to kmax, with primes of degree above the depth and repeated primes
    rng = random.Random(ctx.q)
    repeated = 0
    for w2, w3 in _random_coprime_pairs(ctx, max_degree, 8, rng):
        want = sieve_numerators(ctx, w2, w3, kmax)
        for k in range(kmax + 1):
            assert _degree_numerators(w2, w3, k) == want[: k + 1], (w2, w3, k)
        repeated += any(mult > 1 for w in (w2, w3) for _, mult in factor(w))
    assert repeated
