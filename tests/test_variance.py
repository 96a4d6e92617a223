import tracemalloc
from fractions import Fraction

import pytest

from hfq import variance
from hfq.errors import (
    BadParityError,
    BoundUndefinedError,
    HfqError,
    NotCoprimeError,
    NotMonicError,
    RangeEmptyError,
    TooLargeError,
)
from hfq.field import ctx_new
from hfq.polyring import Poly, monics, polys_upto
from hfq.variance import (
    ThmParams,
    case_classify,
    f_bound,
    f_formula,
    interval_sum,
    kernel_sum_identity,
    m_factor,
    mean_formula,
    s_count,
    theorem_predict,
    variance_bruteforce,
    w_sum_identity,
)

F3 = ctx_new(3)
F5 = ctx_new(5)


def p3(*coeffs):
    return Poly.from_ints(F3, coeffs)


U1, V1 = Poly.one(F3), Poly.t(F3)
U2 = p3(1, 0, 1)  # T^2 + 1
V3 = p3(0, 0, 0, 1)  # T^3


def test_thm_params_parity_table():
    par = ThmParams.compute(U2, V1, 6, 3)
    assert (par.s, par.t, par.s_prime, par.t_prime) == (2, 2, 2, 2)
    assert (par.n1, par.n2) == (4, 4)
    par = ThmParams.compute(U2, V1, 7, 0)
    assert (par.s, par.t, par.s_prime, par.t_prime) == (3, 1, 2, 3)
    assert (par.n1, par.n2) == (4, 5)


def test_hypothesis_validation():
    with pytest.raises(BadParityError):
        ThmParams.compute(Poly.t(F3), V1, 4, 0)
    with pytest.raises(BadParityError):
        ThmParams.compute(U1, p3(1, 0, 1), 4, 0)
    with pytest.raises(NotCoprimeError):
        ThmParams.compute(p3(0, 0, 1), V1, 4, 0)
    with pytest.raises(NotMonicError):
        ThmParams.compute(p3(2), V1, 4, 0)
    with pytest.raises(ValueError):
        ThmParams.compute(U1, V1, 4, 5)


def test_s_count_fixtures():
    assert s_count(U1, V1, p3(0, 1, 1)) == 4  # T^2 + T
    assert s_count(U1, V1, p3(0, 2, 1)) == 0  # T^2 + 2T
    assert sum(s_count(U1, V1, b) for b in monics(F3, 2)) == 18
    assert s_count(U1, V1, Poly.zero(F3)) == 1  # only (0, 0)


def test_mean_fixtures():
    assert mean_formula(U1, V1, 2, 0) == 2
    assert mean_formula(U1, V1, 2, 1) == 6
    assert mean_formula(U1, V1, 4, 1) == 6
    # each interval class at (n, h) = (2, 1) sums to the mean
    for rep in (p3(0, 0, 1), p3(0, 1, 1), p3(0, 2, 1)):
        assert interval_sum(U1, V1, rep, 1) == 6


def test_mean_identity_small():
    for u, v, n in ((U1, V1, 2), (U1, V1, 3), (U2, V1, 4)):
        for h in range(n + 1):
            total = sum(interval_sum(u, v, a, h) for a in monics(F3, n))
            assert total == F3.q**n * mean_formula(u, v, n, h)


def test_variance_bruteforce_fixtures():
    assert variance_bruteforce(U1, V1, 2, 0) == Fraction(40, 9)
    assert variance_bruteforce(U1, V1, 2, 1) == 0
    for h in (2, 3, 4):
        assert variance_bruteforce(U1, V1, 4, h) == 0
    with pytest.raises(TooLargeError):
        variance_bruteforce(U1, V1, 8, 0, guard=10)


def test_variance_bruteforce_memory_is_bounded_by_the_classes():
    # 3^12 (monic, free) pairs fall into 3^5 classes; a per-pair code array
    # alone would be 4 MiB
    tracemalloc.start()
    try:
        assert variance_bruteforce(U1, V1, 12, 7) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_s_count_and_interval_sum_guards(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumeration started past the guard")

    b = p3(0, 1, 1)  # T^2 + T: E of degree <= 1, F of degree <= 0, 9 * 3 pairs
    assert s_count(U1, V1, b, guard=27) == 4
    # interval of radius 1: 3 members of degree 2, 27 pairs each
    assert interval_sum(U1, V1, b, 1, guard=81) == 6
    monkeypatch.setattr(variance, "polys_upto", no_enumeration)
    with pytest.raises(TooLargeError, match="27"):
        s_count(U1, V1, b, guard=26)
    with pytest.raises(TooLargeError, match="81"):
        interval_sum(U1, V1, b, 1, guard=80)


def _literal_variance(u, v, n, h):
    """The definition: the mean over every monic A of degree n of
    (interval sum around A - mean)^2, each interval sum added up from
    s_count of its q^h members."""
    ctx = u.ctx
    s = {b.coeffs: s_count(u, v, b) for b in monics(ctx, n)}
    mean = mean_formula(u, v, n, h)
    total = Fraction(0)
    for a in monics(ctx, n):
        members = sum(s[(a + d).coeffs] for d in polys_upto(ctx, h - 1))
        total += (members - mean) ** 2
    return total / ctx.q**n


@pytest.mark.parametrize(
    "ctx,n_max",
    [(F3, 4), (F5, 3), (ctx_new(3, 2, [2, 1, 1]), 2)],
    ids=["q3", "q5", "q9"],
)
def test_variance_bruteforce_matches_definition(monkeypatch, ctx, n_max):
    t = Poly.t(ctx)
    checked = 0
    for u in (Poly.one(ctx), Poly(ctx, (ctx.one, ctx.zero, ctx.one))):
        for n in range(n_max + 1):
            for h in range(n + 1):
                try:
                    ThmParams.compute(u, t, n, h)
                except HfqError:
                    continue
                want = _literal_variance(u, t, n, h)
                assert variance_bruteforce(u, t, n, h) == want
                # blocks of 8 digits: the pairs span many blocks
                with monkeypatch.context() as m:
                    m.setattr(variance, "CHUNK", 8)
                    assert variance_bruteforce(u, t, n, h) == want
                checked += 1
    assert checked >= 2 * n_max


def test_f_formula_fixture_and_empty_range():
    assert f_formula(U2, V1, 6, 3) == 24
    assert f_formula(U1, V1, 6, 3) == 0  # empty rank range for U = 1, n even
    assert f_formula(U1, V1, 18, 9) == 0


def test_f_bound_undefined_for_small_degrees():
    with pytest.raises(BoundUndefinedError):
        f_bound(U1, V1)
    with pytest.raises(BoundUndefinedError):
        f_bound(U2, V1)


def test_f_bound_fails_on_zero_cofactor_stratum():
    # The stated bound misses the B2 = 0 / C2 = 0 strata, whose gcd is the
    # full modulus: here the C2 = 0 stratum alone pushes the inner sum to 45
    # against the bound's assumed |V| log_q(deg V) = 27, and f = 120 exceeds
    # the bound's ~68.14.  Frozen as a falsification witness.
    bound = f_bound(U2, V3)
    assert Fraction(68) < bound < Fraction(69)
    assert f_formula(U2, V3, 6, 3) == 120
    assert f_formula(U2, V3, 6, 3) > bound
    # the exact variance identity is untouched by the bound's failure
    assert theorem_predict(U2, V3, 6, 3).theorem_value == variance_bruteforce(
        U2, V3, 6, 3
    )


def test_m_factor_fixtures():
    assert m_factor(U1, V1) == Fraction(1, 2)
    assert m_factor(U1, V3) == Fraction(5, 54)
    # depends only on the product UV
    assert m_factor(U2, V1) == m_factor(U1, U2 * V1)


def test_case_classify_fixtures():
    assert case_classify(U1, V1, 4, 3) == "case1"
    assert case_classify(U2, V1, 6, 3) == "case2"
    assert case_classify(U1, V1, 2, 0) == "uncovered"
    assert case_classify(U1, V1, 18, 6) == "case3"


def test_cases_are_exclusive_and_honest():
    for n in range(2, 9):
        for h in range(n + 1):
            label = case_classify(U2, V1, n, h)
            par = ThmParams.compute(U2, V1, n, h)
            hi = par.s_prime + par.s if par.even else par.t_prime + par.t
            if label == "case1":
                assert h >= hi
            elif label == "case2":
                assert par.n2 - 1 <= h < hi
            elif label == "case3":
                assert 3 * (U2.degree + V1.degree + 1) <= h < min(par.s_prime, par.t_prime) - 1
            else:
                assert label == "uncovered"


def test_theorem_predict_case1():
    rep = theorem_predict(U1, V1, 4, 3)
    rep.oracle = variance_bruteforce(U1, V1, 4, 3)
    rep.finish()
    assert rep.case == "case1" and rep.theorem_value == 0 and rep.residual == 0


def test_theorem_predict_case2_matches_oracle():
    rep = theorem_predict(U2, V1, 6, 3)
    assert rep.case == "case2"
    assert rep.theorem_value == variance_bruteforce(U2, V1, 6, 3) == 24
    rep = theorem_predict(U2, V1, 8, 4)
    assert rep.theorem_value == variance_bruteforce(U2, V1, 8, 4) == 72


def test_theorem_predict_case3_terms():
    rep = theorem_predict(U1, V1, 18, 6)
    assert rep.case == "case3"
    assert rep.main_term == 2916
    assert rep.secondary_term == 0
    assert rep.error_scale == (Fraction(243), Fraction(6561))


def test_kernel_sum_identity_fixture():
    lhs, rhs = kernel_sum_identity(U2, V1, 6, 3, 3)
    assert lhs == rhs == 81
    with pytest.raises(RangeEmptyError):
        kernel_sum_identity(U1, V1, 4, 2, 3)
    with pytest.raises(RangeEmptyError):
        kernel_sum_identity(U2, V1, 6, 1, 3)  # below the h >= n2 - 1 domain


def test_kernel_sum_identity_odd_n():
    lhs, rhs = kernel_sum_identity(U2, V3, 7, 4, 3)
    assert lhs == rhs == 243


def test_kernel_sum_counterexample_below_domain():
    # Witness that the h >= n2 - 1 restriction is substantive: at
    # (U, V, n, h, r1) = (1, T, 3, 0, 3) the two sides differ (15 vs 18);
    # the C1 = 0 stratum has gcd(0, V) = V and escapes the degree-based
    # stratification that underlies the closed form.
    from hfq.polyring import monics, polys_upto, monics_upto, gcd

    n, h, r1 = 3, 0, 3
    lhs = 0
    for a in monics(F3, n - r1 + 1):
        nb = sum(
            1
            for b in polys_upto(F3, 1)  # B in A_{<= s'}
            for b2 in polys_upto(F3, 0)
            if (U1 * b - b2 * a).degree <= -2
        )
        nc = sum(
            1
            for c in monics(F3, 1)
            for c2 in monics_upto(F3, 1)
            if (V1 * c - c2 * a).degree <= -1
        )
        lhs += nb * nc
    rhs_b = sum(
        3 ** gcd(b2, U1).degree
        for b2 in polys_upto(F3, 0)
    )  # d1 = -2: only B1 = 0, always divisible
    rhs_c = 0
    for c2 in monics_upto(F3, 1):
        g = gcd(c2, V1)
        rhs_c += 3**g.degree  # d1 = -1: only C1 = 0
    rhs = Fraction(3 ** (n - r1 + 1), 3) * rhs_b * rhs_c
    assert lhs == 15 and rhs == 18 and lhs != rhs


def test_w_sum_identity_fixture():
    lhs, rhs = w_sum_identity(U1, V1, 8, 0, 3)
    assert lhs == rhs
    with pytest.raises(RangeEmptyError):
        w_sum_identity(U1, V1, 8, 0, 2)
    with pytest.raises(RangeEmptyError):
        w_sum_identity(U1, V1, 8, 3, 3)


def test_w_sum_strata_partition():
    # summing the stratified pair counts recovers the bijection cardinality
    from hfq.polyring import gcd, polys_upto

    n, h, r = 8, 0, 3
    w = U1 * V1
    total = 0
    for a in monics(F3, r):
        for b in polys_upto(F3, r - h - 1):
            if not b.is_zero and gcd(a, b).degree == 0:
                total += 1
    assert total == 2 * 3 ** (2 * r - h - 1)


def test_case2_and_identities_q5():
    # the 1/|UV| normalization is q-independent
    u2 = Poly.from_ints(F5, [1, 0, 1])
    v = Poly.t(F5)
    for n, h in ((6, 3), (8, 4)):
        rep = theorem_predict(u2, v, n, h)
        assert rep.case == "case2"
        assert rep.theorem_value == variance_bruteforce(u2, v, n, h)
    lhs, rhs = kernel_sum_identity(u2, v, 6, 3, 3)
    assert lhs == rhs == 625
    lhs, rhs = w_sum_identity(Poly.one(F5), v, 8, 0, 3)
    assert lhs == rhs == 20836


def test_mean_exponent_guard():
    # the parity hypotheses always make the exponent integral; the guard is
    # unreachable through the public API, so probe the formula directly
    assert mean_formula(U2, V3, 6, 0) == Fraction(2, 9)
