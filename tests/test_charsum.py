import random
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest
from oracle import CycInt, value_counts_scalar

from hfq import charsum, fastpath
from hfq.charsum import magsq_exponents, variance_charsum
from hfq.checks import check_quadform
from hfq.errors import HfqError, TooLargeError
from hfq.field import ctx_new
from hfq.hankel import Seq, analyze, bijection_inverse, bijection_ranks, odot
from hfq.polyring import Poly, gcd
from hfq.variance import ThmParams, variance_bruteforce

F3 = ctx_new(3)
F5 = ctx_new(5)


def seqs(ctx, n):
    for tail in iter_product(range(ctx.q), repeat=n + 1):
        yield Seq(ctx, tail)


def quad_sum(seq, l, monic):
    """The exact character sum over E of degree <= l (or monic of degree l)
    of one length-(2l+1) sequence, and its squared magnitude."""
    counts = fastpath.qform_counts(seq.ctx, np.array([seq.entries]), l, monic)
    return CycInt(seq.ctx.p, counts[0].tolist()), int(fastpath.magsq(counts)[0])


def test_quad_sum_zero_sequence():
    value, mag_sq = quad_sum(Seq(F3, (0, 0, 0)), 1, False)
    assert value == CycInt.from_int(3, 9)
    assert mag_sq == 81
    assert quad_sum(Seq(F3, (0, 0, 0)), 1, True)[1] == 9  # q^(2l), pi = 0 branch


def test_quad_sum_fixture_001():
    s = Seq.from_literal(F3, "0,0,1")
    assert quad_sum(s, 1, False)[1] == 27  # q^(2l+2-r) with r = 1
    assert quad_sum(s, 1, True)[1] == 9  # strict pi = 1 branch


@pytest.mark.parametrize("ctx,lmax", [(F3, 2), (F5, 1)], ids=["q3", "q5"])
def test_quad_magnitude_laws_small(ctx, lmax):
    q = ctx.q
    for l in range(lmax + 1):
        for s in seqs(ctx, 2 * l):
            p = analyze(s).profile
            full = quad_sum(s, l, False)[1]
            assert full == q ** (2 * l + 2 - p.r)
            got = quad_sum(s, l, True)[1]
            if p.strict_pi == 0:
                assert got == q ** (2 * l - p.r)
            elif p.strict_pi == 1:
                assert got == q ** (2 * l + 1 - p.r)
            else:
                assert got == 0
            e = magsq_exponents(l, p.r, p.strict_pi, True)
            assert got == (q**e if e >= 0 else 0)
            assert full == q ** magsq_exponents(l, p.r, None, False)


@pytest.mark.parametrize("l", [8, 9, 10])
def test_magnitude_law_beyond_the_envelope_by_class(l):
    # q=3 past QUADFORM_VERIFIED_L, at the lengths the fast case-3 variance
    # trusts through --trust-lemmas: members of every bijection class
    # (r, r, 0) with h = 0 and 1 leading zeros, each beside a copy whose
    # recurrence is broken in one of its last three entries (pi > 0)
    rng = random.Random(l)
    n = 2 * l
    rows = []
    for r in bijection_ranks(n):
        for h in (0, 1):
            for _ in range(3):
                a = Poly(F3, (*(rng.randrange(3) for _ in range(r)), 1))
                b = Poly.zero(F3)
                while b.is_zero or gcd(a, b).degree != 0:
                    b = Poly(F3, (rng.randrange(3) for _ in range(r - h)))
                s = bijection_inverse(a, b, n, h)
                assert analyze(s).profile.standard == (r, r, 0)
                broken = list(s.entries)
                i = n - rng.randrange(3)
                broken[i] = (broken[i] + rng.randrange(1, 3)) % 3
                rows += [s.entries, broken]
    profs = [analyze(Seq(F3, row)).profile for row in rows]
    rank = np.array([p.r for p in profs])
    strict_pi = np.array([p.strict_pi for p in profs])
    for monic in (True, False):
        got = fastpath.magsq(fastpath.qform_counts(F3, np.array(rows), l, monic))
        e = magsq_exponents(l, rank, strict_pi, monic)
        assert got.tolist() == [3**x if x >= 0 else 0 for x in e.tolist()]
    assert set(np.minimum(strict_pi, 2).tolist()) == {0, 1, 2}


@pytest.mark.parametrize("ctx", [F3, F5], ids=["q3", "q5"])
def test_vectorized_counts_match_scalar(ctx):
    for l in (0, 1, 2):
        for s in seqs(ctx, 2 * l):
            for monic in (False, True):
                fast = fastpath.qform_counts(ctx, np.array([s.entries]), l, monic)
                slow = value_counts_scalar(s, l, monic)
                assert fast.tolist() == [slow]
                assert fastpath.magsq(fast)[0] == CycInt(ctx.p, slow).mag_sq().as_integer()


def test_joint_sum_factorizes():
    # sum over (E, F) of psi(Q1(E) + Q2(F)) equals the product of the sums
    rng = random.Random(99)
    for _ in range(20):
        x = Seq(F3, tuple(rng.randrange(3) for _ in range(5)))
        y = Seq(F3, tuple(rng.randrange(3) for _ in range(3)))
        vx = quad_sum(x, 2, True)[0]
        vy = quad_sum(y, 1, False)[0]
        cx = value_counts_scalar(x, 2, True)
        cy = value_counts_scalar(y, 1, False)
        joint = [0, 0, 0]
        for i, a in enumerate(cx):
            for j, b in enumerate(cy):
                joint[(i + j) % 3] += a * b
        assert CycInt(3, joint) == vx * vy
        assert (
            fastpath.magsq(np.array([joint]))[0]
            == vx.mag_sq().as_integer() * vy.mag_sq().as_integer()
        )


def test_variance_charsum_fixtures():
    u, v = Poly.one(F3), Poly.t(F3)
    par = ThmParams.compute(u, v, 2, 0)
    assert variance_charsum(par, "exact") == Fraction(40, 9)
    assert variance_charsum(ThmParams.compute(u, v, 2, 1), "exact") == 0
    assert variance_charsum(par, "fast") == Fraction(40, 9)


def test_variance_modes_agree():
    for ctx, n_max in ((F3, 5), (F5, 4)):
        u, v = Poly.one(ctx), Poly.t(ctx)
        for n in range(2, n_max + 1):
            for h in range(n + 1):
                par = ThmParams.compute(u, v, n, h)
                assert variance_charsum(par, "exact") == variance_charsum(par, "fast"), (
                    ctx.q, n, h
                )
    for f9 in (ctx_new(3, 2, (1, 0, 1)), ctx_new(3, 2, (2, 1, 1))):
        u9, v9 = Poly.one(f9), Poly(f9, (3, 1))  # V = T + w
        for n in range(2, 4):
            for h in range(n + 1):
                par = ThmParams.compute(u9, v9, n, h)
                oracle = variance_bruteforce(par)
                assert variance_charsum(par, "exact") == oracle, (f9, n, h)
                assert variance_charsum(par, "fast") == oracle, (f9, n, h)
    u, v = Poly.one(F3), Poly.t(F3)
    u2 = Poly.from_ints(F3, [1, 0, 1])
    for h in (2, 3, 4):
        par = ThmParams.compute(u2, v, 6, h)
        assert variance_charsum(par, "exact") == variance_charsum(par, "fast")


def test_variance_charsum_matches_bruteforce_odd_n():
    u, v = Poly.one(F3), Poly.t(F3)
    for n in (3, 5):
        for h in range(n + 1):
            par = ThmParams.compute(u, v, n, h)
            assert variance_charsum(par, "exact") == variance_bruteforce(par)
    u2 = Poly.from_ints(F3, [1, 0, 1])
    v3 = Poly.from_ints(F3, [0, 0, 0, 1])
    par = ThmParams.compute(u2, v3, 5, 1)
    assert variance_charsum(par, "exact") == variance_bruteforce(par)


def test_variance_extension_field():
    # q = 9 walks the table-gather engine end to end
    ctx = ctx_new(3, 2, [1, 0, 1])
    u, v = Poly.one(ctx), Poly.t(ctx)
    for h in (0, 1, 2):
        par = ThmParams.compute(u, v, 2, h)
        oracle = variance_bruteforce(par)
        assert variance_charsum(par, "exact") == oracle
        assert variance_charsum(par, "fast") == oracle


def test_exact_variance_with_every_class_near_zero_sums_nothing(monkeypatch):
    # at h = n every sequence is near-zero and dropped, so no character sum
    # is formed, however wide its family of E (here l = 14)
    def no_pairs(*args):
        raise AssertionError("a character sum was formed for an empty block")

    monkeypatch.setattr(fastpath, "_qform_pairs", no_pairs)
    assert variance_charsum(ThmParams.compute(Poly.one(F3), Poly.t(F3), 28, 28), "exact") == 0


def test_variance_charsum_validation():
    with pytest.raises(HfqError, match="deg U = 1 must be even"):
        variance_charsum(ThmParams.compute(Poly.t(F3), Poly.t(F3), 4, 0))
    with pytest.raises(HfqError, match="U and V must be coprime"):
        variance_charsum(ThmParams.compute(Poly.from_ints(F3, [0, 0, 1]), Poly.t(F3), 4, 0))
    with pytest.raises(TooLargeError):
        variance_charsum(ThmParams.compute(Poly.one(F3), Poly.t(F3), 6, 0), guard=10)
    with pytest.raises(ValueError):
        variance_charsum(ThmParams.compute(Poly.one(F3), Poly.t(F3), 4, 0), mode="approximate")


def test_variance_invariant_under_character_choice():
    # replacing psi by psi(g .) permutes the value histograms; the variance
    # must not move.  g runs over the non-trivial exponent scalings.
    u, v = Poly.one(F3), Poly.t(F3)
    for n in (2, 3, 4):
        for h in (0, 1):
            par = ThmParams.compute(u, v, n, h)
            if par.even:
                mw, m_width, aw, a_width = u, par.s, v, par.t
            else:
                mw, m_width, aw, a_width = v, par.t, u, par.s
            l_m = (n - m_width) // 2
            l_a = (n - a_width) // 2
            totals = {}
            for g in (1, 2):
                total = 0
                for s in seqs(F3, n):
                    if s.leading_zeros() < h:
                        continue
                    if all(e == 0 for e in s.entries[:-1]):
                        continue
                    x = odot(s, mw, m_width)
                    y = odot(s, aw, a_width)
                    cm = value_counts_scalar(x, l_m, True)
                    ca = value_counts_scalar(y, l_a, False)
                    cm_g = CycInt(3, [cm[(j * pow(g, -1, 3)) % 3] for j in range(3)])
                    ca_g = CycInt(3, [ca[(j * pow(g, -1, 3)) % 3] for j in range(3)])
                    total += cm_g.mag_sq().as_integer() * ca_g.mag_sq().as_integer()
                totals[g] = Fraction(4 * 3 ** (2 * h), 3 ** (2 * n + 1)) * total
            assert totals[1] == totals[2]
            assert totals[1] == variance_charsum(ThmParams.compute(u, v, n, h), "exact")


def test_check_quadform_counts_a_failure_as_it_counts_a_pass(monkeypatch):
    # a law off by one fails every row: each scaled row stands for p - 1
    # sequences, failed or passed, and the zero sequence for itself alone
    law = charsum.magsq_exponents
    monkeypatch.setattr(charsum, "magsq_exponents", lambda *args: law(*args) + 1)
    res = check_quadform(ctx_new(3, 2, (1, 0, 1)), range(1))
    assert res.failed == res.checked == 18
    res = check_quadform(F3, range(3))
    assert res.failed == res.checked == 2 * sum(3 ** (2 * l + 1) for l in range(3))
