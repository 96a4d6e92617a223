import tracemalloc
from fractions import Fraction

import oracle
import pytest
from oracle import interval_sum, s_count

from hfq import variance
from hfq.errors import HfqError, TooLargeError
from hfq.field import ctx_new
from hfq.hankel import bijection_pairs, bijection_ranks
from hfq.polyring import Poly, gcd, monics, monics_upto, phi, polys_upto
from hfq.variance import (
    ThmParams,
    f_formula,
    kernel_sum_identity,
    m_factor,
    mean_formula,
    theorem_predict,
    variance_bruteforce,
    w_sum_identity,
)

F3 = ctx_new(3)
F5 = ctx_new(5)
F9 = ctx_new(3, 2, (1, 0, 1))


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


def test_derived_parameters_follow_n_and_h():
    # the parity table, half-gaps and sizes are derived from (U, V, n, h),
    # so a replaced point is the point compute builds, not a stale copy
    moved = ThmParams.compute(U1, V1, 6, 3)._replace(n=7)
    assert moved == ThmParams.compute(U1, V1, 7, 3)
    # deg U = 0, deg V = 1 and n odd: (s, t) = (1, 1), s' = t' = 3, (n1, n2) = (4, 5)
    assert (moved.s, moved.t, moved.s_prime, moved.t_prime) == (1, 1, 3, 3)
    assert (moved.n1, moved.n2) == (4, 5)
    assert moved.case == "uncovered" and f_formula(moved) == 8
    with pytest.raises(ValueError):  # the derived values take no argument
        moved._replace(s_prime=7)
    for n in range(1, 12):
        for h in range(n + 1):
            if ThmParams.domain_error(U2, V3, n, h) is None:
                built = ThmParams(U2, V3, n, h)
                assert built == ThmParams.compute(U2, V3, n, h)
                assert (built.s, built.t) == ThmParams.widths(U2, V3, n)


def test_domain_error_is_the_rule_compute_applies():
    # identity kernel-sum|w-sum skip exactly the (n, h) that compute refuses
    for u, v in ((U1, V1), (U2, V1), (U2, V3)):
        for n in range(-1, 9):
            for h in range(-1, n + 2):
                reason = ThmParams.domain_error(u, v, n, h)
                if reason is None:
                    assert ThmParams.compute(u, v, n, h).s_prime >= 0
                else:
                    with pytest.raises(HfqError) as exc:
                        ThmParams.compute(u, v, n, h)
                    assert str(exc.value) == reason


def test_sides_and_rank_ranges_match_the_parity_table():
    # the inline formulas they replace, written out: the monic side is U for
    # even n and V for odd n; each range's two ends are pinned, not just its
    # members, so an empty range cannot hide a moved end
    checked = 0
    for u in (U1, U2):
        for v in (V1, p3(1, 1), V3):
            for n in range(2, 13):
                for h in range(n + 1):
                    if ThmParams.domain_error(u, v, n, h):
                        continue
                    par = ThmParams.compute(u, v, n, h)
                    s, t, sp, tp = par.s, par.t, par.s_prime, par.t_prime
                    if n % 2 == 0:
                        monic, full, lo = (u, s, sp), (v, t, tp), sp + 1
                    else:
                        monic, full, lo = (v, t, tp), (u, s, sp), tp + 1
                    assert par.side(True) == monic and par.side(False) == full
                    r1 = par.r1_ranks()
                    assert (r1.start, r1.stop) == (lo, n - h + 1)
                    n2_seq = ((n - 1) + 3) // 2
                    w = par.w_ranks()
                    assert (w.start, w.stop) == (max(h + 1, 3), min(sp, tp, n2_seq - 1) + 1)
                    # min(s', t') + 1 never exceeds the bijection bound of a valid pair
                    assert min(sp, tp) + 1 <= n2_seq
                    checked += 1
    assert checked > 100
    for n in range(14):
        ranks = bijection_ranks(n)
        assert (ranks.start, ranks.stop) == (3, (n + 3) // 2)


def test_hypothesis_validation():
    with pytest.raises(HfqError, match="deg U = 1 must be even"):
        ThmParams.compute(Poly.t(F3), V1, 4, 0)
    with pytest.raises(HfqError, match="deg V = 2 must be odd"):
        ThmParams.compute(U1, p3(1, 0, 1), 4, 0)
    with pytest.raises(HfqError, match="U and V must be coprime"):
        ThmParams.compute(p3(0, 0, 1), V1, 4, 0)
    with pytest.raises(HfqError, match="U and V must be monic and non-zero"):
        ThmParams.compute(p3(2), V1, 4, 0)
    with pytest.raises(ValueError):
        ThmParams.compute(U1, V1, 4, 5)


def test_s_count_fixtures():
    assert s_count(U1, V1, p3(0, 1, 1)) == 4  # T^2 + T
    assert s_count(U1, V1, p3(0, 2, 1)) == 0  # T^2 + 2T
    assert sum(s_count(U1, V1, b) for b in monics(F3, 2)) == 18
    assert s_count(U1, V1, Poly.zero(F3)) == 1  # only (0, 0)


def test_mean_fixtures():
    assert mean_formula(ThmParams.compute(U1, V1, 2, 0)) == 2
    assert mean_formula(ThmParams.compute(U1, V1, 2, 1)) == 6
    assert mean_formula(ThmParams.compute(U1, V1, 4, 1)) == 6
    # each interval class at (n, h) = (2, 1) sums to the mean
    for rep in (p3(0, 0, 1), p3(0, 1, 1), p3(0, 2, 1)):
        assert interval_sum(U1, V1, rep, 1) == 6


def test_interval_sum_is_the_sum_over_its_members():
    # one tally serves every member, so its box must hold the largest one,
    # also when the radius reaches past deg A
    for u, v in ((U1, V1), (U2, V1), (U1, V3)):
        for a in (Poly.zero(F3), Poly.one(F3), p3(2, 1), p3(0, 1, 1), p3(1, 0, 2, 1)):
            for h in range(5):
                members = sum(s_count(u, v, a + d) for d in polys_upto(F3, h - 1))
                assert interval_sum(u, v, a, h) == members, (u, v, a, h)


def test_mean_identity_small():
    for u, v, n in ((U1, V1, 2), (U1, V1, 3), (U2, V1, 4)):
        for h in range(n + 1):
            total = sum(interval_sum(u, v, a, h) for a in monics(F3, n))
            assert total == F3.q**n * mean_formula(ThmParams.compute(u, v, n, h))


def test_variance_bruteforce_fixtures():
    assert variance_bruteforce(ThmParams.compute(U1, V1, 2, 0)) == Fraction(40, 9)
    assert variance_bruteforce(ThmParams.compute(U1, V1, 2, 1)) == 0
    for h in (2, 3, 4):
        assert variance_bruteforce(ThmParams.compute(U1, V1, 4, h)) == 0
    with pytest.raises(TooLargeError):
        variance_bruteforce(ThmParams.compute(U1, V1, 8, 0), guard=10)


def test_variance_bruteforce_memory_is_bounded_by_the_classes():
    # 3^12 (monic, free) pairs fall into 3^5 classes; a per-pair code array
    # alone would be 4 MiB
    tracemalloc.start()
    try:
        assert variance_bruteforce(ThmParams.compute(U1, V1, 12, 7)) == 0
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
    monkeypatch.setattr(oracle, "polys_upto", no_enumeration)
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
    mean = mean_formula(ThmParams.compute(u, v, n, h))
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
                if ThmParams.domain_error(u, t, n, h):
                    continue
                want = _literal_variance(u, t, n, h)
                par = ThmParams.compute(u, t, n, h)
                assert variance_bruteforce(par) == want
                # blocks of 8 digits: the pairs span many blocks
                with monkeypatch.context() as m:
                    m.setattr(variance, "CHUNK", 8)
                    assert variance_bruteforce(par) == want
                checked += 1
    assert checked >= 2 * n_max


def test_f_formula_fixture_and_empty_range():
    assert f_formula(ThmParams.compute(U2, V1, 6, 3)) == 24
    assert f_formula(ThmParams.compute(U1, V1, 6, 3)) == 0  # empty rank range for U = 1, n even
    assert f_formula(ThmParams.compute(U1, V1, 18, 9)) == 0


def test_f_bound_fails_on_zero_cofactor_stratum():
    # The printed bound f <= 4 q^((deg UV + 1)/2) log_q(deg U) log_q(deg V)
    # misses the B2 = 0 / C2 = 0 strata, whose gcd is the full modulus: here
    # the C2 = 0 stratum alone pushes the inner sum to 45 against the bound's
    # assumed |V| log_q(deg V) = 27, and f = 120 exceeds the bound, about
    # 68.14.  With q = 3, deg U = 2 and deg V = 3, log_3 2 < 2/3 (as
    # 2^3 < 3^2) and log_3 3 = 1 put the bound below 4 * 27 * 2/3 = 72,
    # exactly.  Frozen as a falsification witness.
    par = ThmParams.compute(U2, V3, 6, 3)
    assert f_formula(par) == 120
    assert f_formula(par) > 4 * 3 ** ((1 + U2.degree + V3.degree) // 2) * Fraction(2, 3)
    # the exact variance identity is untouched by the bound's failure
    assert theorem_predict(par).theorem_value == variance_bruteforce(par)


def test_m_factor_fixtures():
    assert m_factor(ThmParams.compute(U1, V1, 6, 0)) == Fraction(1, 2)
    assert m_factor(ThmParams.compute(U1, V3, 6, 0)) == Fraction(5, 54)
    # depends only on the product UV
    assert m_factor(ThmParams.compute(U2, V1, 6, 0)) == m_factor(
        ThmParams.compute(U1, U2 * V1, 6, 0)
    )


def test_case_classify_fixtures():
    assert ThmParams.compute(U1, V1, 4, 3).case == "case1"
    assert ThmParams.compute(U2, V1, 6, 3).case == "case2"
    assert ThmParams.compute(U1, V1, 2, 0).case == "uncovered"
    assert ThmParams.compute(U1, V1, 18, 6).case == "case3"


def test_cases_are_exclusive_and_honest():
    for n in range(2, 9):
        for h in range(n + 1):
            par = ThmParams.compute(U2, V1, n, h)
            label = par.case
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
    par = ThmParams.compute(U1, V1, 4, 3)
    rep = theorem_predict(par)
    rep.oracle = variance_bruteforce(par)
    assert rep.case == "case1" and rep.theorem_value == 0 and rep.residual == 0


def test_theorem_predict_case2_matches_oracle():
    par = ThmParams.compute(U2, V1, 6, 3)
    rep = theorem_predict(par)
    assert rep.case == "case2"
    assert rep.theorem_value == variance_bruteforce(par) == 24
    par = ThmParams.compute(U2, V1, 8, 4)
    rep = theorem_predict(par)
    assert rep.theorem_value == variance_bruteforce(par) == 72


def test_theorem_predict_case3_terms():
    rep = theorem_predict(ThmParams.compute(U1, V1, 18, 6))
    assert rep.case == "case3"
    assert rep.main_term == 2916
    assert rep.secondary_term == 0
    assert rep.error_scale == (Fraction(243), Fraction(6561))


def test_closed_form_guard_counts_the_enumerations(monkeypatch):
    # every polynomial theorem_predict enumerates: the f-sums' B2 (monic
    # boxes through polyring.monics, full ones through polys_upto) and
    # m_factor's trial divisors (polyring.monics); the count is exact
    # without a factorization and a bound with one
    from hfq import polyring

    seen = []

    def counted(enum):
        return lambda *args: (seen.append(x) or x for x in enum(*args))

    monkeypatch.setattr(polyring, "monics", counted(polyring.monics))
    monkeypatch.setattr(variance, "polys_upto", counted(variance.polys_upto))
    cases = set()
    u4 = p3(2, 1, 0, 0, 1)  # T^4 + T + 2
    for u, v in ((U1, V1), (U2, V1), (U1, V3), (u4, V1), (u4, p3(1, 1))):
        for n in range(2, 45):
            for h in range(n + 1):
                if ThmParams.domain_error(u, v, n, h):
                    continue
                par = ThmParams.compute(u, v, n, h)
                work = variance._closed_form_work(par)
                if work:
                    with pytest.raises(TooLargeError):
                        theorem_predict(par, guard=work - 1)
                seen.clear()
                theorem_predict(par, guard=work)
                assert len(seen) == work if par.case != "case3" else len(seen) <= work
                cases.add(par.case)
    assert cases == {"case1", "case2", "case3", "uncovered"}


def test_kernel_sum_identity_fixture():
    lhs, rhs = kernel_sum_identity(ThmParams.compute(U2, V1, 6, 3), 3)
    assert lhs == rhs == 81
    with pytest.raises(HfqError, match=r"r1 = 3 outside \[3, 2\]"):
        kernel_sum_identity(ThmParams.compute(U1, V1, 4, 2), 3)
    with pytest.raises(HfqError, match="identity needs h >= n2 - 1 = 3; h = 1 is below it"):
        kernel_sum_identity(ThmParams.compute(U2, V1, 6, 1), 3)  # below the h >= n2 - 1 domain


def test_kernel_sum_identity_odd_n():
    lhs, rhs = kernel_sum_identity(ThmParams.compute(U2, V3, 7, 4), 3)
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
    lhs, rhs = w_sum_identity(ThmParams.compute(U1, V1, 8, 0), 3)
    assert lhs == rhs
    with pytest.raises(HfqError, match=r"r = 2 outside \["):
        w_sum_identity(ThmParams.compute(U1, V1, 8, 0), 2)
    with pytest.raises(HfqError, match=r"r = 3 outside \["):
        w_sum_identity(ThmParams.compute(U1, V1, 8, 3), 3)


@pytest.mark.parametrize("ctx,r_max", [(F3, 5), (F5, 3), (F9, 2)], ids=["q3", "q5", "q9"])
def test_phi_counts_the_bijection_pairs(ctx, r_max):
    # the w-sum's Mobius count: phi(A, r - h) is the number of non-zero B of
    # degree < r - h coprime to A, the pair set of A at rank r
    for r in range(1, r_max + 1):
        for h in range(r):
            for a, bs in bijection_pairs(ctx, r, h).items():
                assert phi(a, r - h) == len(bs), (a, h)


@pytest.mark.parametrize("ctx,r", [(F5, 4), (F9, 3)], ids=["q5", "q9"])
def test_phi_counts_the_bijection_pairs_by_their_monic_members(ctx, r):
    # the same count one rank up, where the pair sets cost q^(2r) gcds
    # (5^8, 9^6): they are closed under B -> cB, so each is q - 1 times the
    # monic B of degree < r - h coprime to A
    bs = list(monics_upto(ctx, r - 1))
    for a in monics(ctx, r):
        coprime = [b.degree for b in bs if gcd(a, b).degree == 0]
        for h in range(r):
            assert phi(a, r - h) == (ctx.q - 1) * sum(d < r - h for d in coprime), (a, h)


def test_w_sum_right_side_is_the_pair_sum():
    # the right side's Mobius count against the literal sum over the
    # bijection's pair sets, at ranks 3 and 4
    p5 = lambda *c: Poly.from_ints(F5, c)
    points = [(U1, V1, 8, 0), (U2, V1, 9, 1), (U1, V3, 10, 2), (U2, V1, 10, 0)]
    points += [(p5(1), p5(0, 1), 8, 0), (p5(1, 0, 1), p5(0, 1), 9, 2)]
    ranks = set()
    for u, v, n, h in points:
        par, w = ThmParams.compute(u, v, n, h), u * v
        for r in par.w_ranks():
            pairs = bijection_pairs(u.ctx, r, h)
            want = sum(gcd(a, w).abs_value() * len(bs) for a, bs in pairs.items())
            assert w_sum_identity(par, r) == (want, want), (par, r)
            ranks.add(r)
    assert ranks == {3, 4}


def test_w_sum_strata_partition():
    # summing the stratified pair counts recovers the bijection cardinality
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
        par = ThmParams.compute(u2, v, n, h)
        rep = theorem_predict(par)
        assert rep.case == "case2"
        assert rep.theorem_value == variance_bruteforce(par)
    lhs, rhs = kernel_sum_identity(ThmParams.compute(u2, v, 6, 3), 3)
    assert lhs == rhs == 625
    lhs, rhs = w_sum_identity(ThmParams.compute(Poly.one(F5), v, 8, 0), 3)
    assert lhs == rhs == 20836


def test_mean_exponent_guard():
    # the parity hypotheses always make the exponent integral, so the
    # formula keeps no guard for it: probe it at deg U + deg V = 5
    assert mean_formula(ThmParams.compute(U2, V3, 6, 0)) == Fraction(2, 9)
