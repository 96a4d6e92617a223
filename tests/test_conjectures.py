"""Conjectures checked by data: closed forms and invariances that the exact
variance follows at every point swept, with no proof in this package.

The (1, T) law: for U = 1, V = T, write J = floor(n/2) + 1 - h and
u = 4 (q - 1) q^(h-1) / (q + 1).  Then the variance is

    u [q (n - 2h) + (q/(q+1)) (1 - q^(2-2J))]   for even n, J >= 1,
    u [q (n - 2h) + (q/(q+1)) (1 + q^(1-2J))]   for odd n,  J >= 1,
    0                                           for J <= 0.

Its leading term is 4 (q - 1) q^h M(U, V) (n/2 - h), with M(1, T) = 2/(q + 1):
a factor q above the main term theorem_predict codes for case 3.

Pattern invariance: the variance depends on (U, V) only through the
factorization pattern of U and V (prime degrees, multiplicities, and which
side each prime is on).
"""

from fractions import Fraction

from hfq.charsum import variance_charsum
from hfq.field import ctx_new
from hfq.polyring import Poly
from hfq.variance import ThmParams, m_factor, theorem_predict

F3 = ctx_new(3)
F5 = ctx_new(5)
F9 = ctx_new(3, 2, (1, 0, 1))  # modulus T^2 + 1


def one_t_law(q: int, n: int, h: int) -> Fraction:
    """The conjectured exact variance at U = 1, V = T."""
    j = n // 2 + 1 - h
    if j <= 0:
        return Fraction(0)
    u = Fraction(4 * (q - 1)) * Fraction(q) ** (h - 1) / (q + 1)
    tail = 1 - Fraction(q) ** (2 - 2 * j) if n % 2 == 0 else 1 + Fraction(q) ** (1 - 2 * j)
    return u * (q * (n - 2 * h) + Fraction(q, q + 1) * tail)


def points(pairs, ns, within):
    """The (n, h) in every pair's domain with ``within(n, h)``."""
    return [
        (n, h)
        for n in ns
        for h in range(n + 1)
        if not any(ThmParams.domain_error(u, v, n, h) for u, v in pairs) and within(n, h)
    ]


def fast(u, v, n, h) -> Fraction:
    return variance_charsum(ThmParams.compute(u, v, n, h), "fast")


def test_one_t_law_matches_the_fast_tally():
    # F_9 and F_11 are held out: the law was fitted on q = 3, 5, 7
    tally = {True: 0, False: 0}  # J >= 1
    for ctx in (F3, F5, ctx_new(7), F9, ctx_new(11)):
        q, u, v = ctx.q, Poly.one(ctx), Poly.t(ctx)
        for n, h in points([(u, v)], range(30), lambda n, h: q ** (n + 1 - h) <= 2 * 10**4):
            assert fast(u, v, n, h) == one_t_law(q, n, h), (q, n, h)
            tally[n // 2 + 1 - h >= 1] += 1
    assert tally == {True: 96, False: 666}


def test_one_t_law_matches_the_exact_character_sum():
    # exact mode sums the characters, so this side does not rest on the
    # magnitude law that the fast tally reads
    tally = {True: 0, False: 0}
    for ctx in (F3, F5, F9):
        q, u, v = ctx.q, Poly.one(ctx), Poly.t(ctx)
        for n, h in points(
            [(u, v)], range(12), lambda n, h: q ** (n + 1 - h + n // 2 + 1) <= 3 * 10**6
        ):
            par = ThmParams.compute(u, v, n, h)
            assert variance_charsum(par, "exact") == one_t_law(q, n, h), (q, n, h)
            tally[n // 2 + 1 - h >= 1] += 1
    assert tally == {True: 49, False: 81}


def test_the_one_t_law_leads_with_q_times_the_coded_main_term():
    # criterion 11's character sum, then the law's linear part u q (n - 2h),
    # which is 4 (q - 1) q^h M (n/2 - h) as M(1, T) = 2/(q + 1), against the
    # case-3 main term 4 (1 - 1/q) q^h M (n/2 - h) that theorem_predict codes
    assert one_t_law(3, 18, 6) == 9112
    for ctx in (F3, F5, ctx_new(7)):
        q = ctx.q
        for n, h in ((18, 6), (19, 6), (20, 7)):
            par = ThmParams.compute(Poly.one(ctx), Poly.t(ctx), n, h)
            assert par.case == "case3" and m_factor(par) == Fraction(2, q + 1)
            linear = 4 * (q - 1) * Fraction(q) ** (h - 1) / (q + 1) * q * (n - 2 * h)
            assert linear == q * theorem_predict(par).main_term


def p(ctx, *coeffs):
    return Poly.from_ints(ctx, coeffs)


def pattern_points(pairs):
    """n = 4..19 with q^(n+1-h) <= 2 10^4, in every pair's domain and out of
    every pair's case 1."""
    q = pairs[0][0].ctx.q

    def within(n, h):
        cases = {ThmParams.compute(u, v, n, h).case for u, v in pairs}
        return q ** (n + 1 - h) <= 2 * 10**4 and "case1" not in cases

    return points(pairs, range(4, 20), within)


def test_variance_depends_only_on_the_factorization_pattern_over_f3():
    t, one = Poly.t(F3), Poly.one(F3)
    irreducible = [p(F3, 1, 0, 1), p(F3, 2, 1, 1)]  # T^2 + 1, T^2 + T + 2
    others = [p(F3, 2, 0, 1), p(F3, 1, 2, 1)]  # (T + 1)(T + 2), (T + 1)^2
    pairs = [(w, t) for w in irreducible + others] + [(one, t), (one, p(F3, 1, 1))]
    pts = pattern_points(pairs)
    assert len(pts) == 32
    apart = []
    for n, h in pts:
        values = [fast(u, v, n, h) for u, v in pairs]
        assert values[0] == values[1]  # both U irreducible, V = T
        assert values[4] == values[5]  # U = 1, V = T or T + 1
        if len({values[2], values[3], values[0]}) == 3:  # split, square, irreducible
            apart.append((n, h))
    assert len(apart) == 20 and (4, 0) in apart


def test_variance_depends_only_on_the_factorization_pattern_over_f5():
    t = Poly.t(F5)
    split = [p(F5, 1, 0, 1), p(F5, 4, 0, 1)]  # T^2 + 1, T^2 + 4
    irreducible = p(F5, 2, 0, 1)  # T^2 + 2
    pairs = [(w, t) for w in split + [irreducible]]
    pts = pattern_points(pairs)
    assert len(pts) == 15
    differ = []
    for n, h in pts:
        a, b, c = (fast(u, v, n, h) for u, v in pairs)
        assert a == b
        if c != a:
            differ.append((n, h))
    assert differ == [(4, 0), (5, 0), (5, 1), (6, 1), (7, 2)]
