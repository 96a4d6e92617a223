import random
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest
from oracle import value_counts_scalar

from hfq import charsum, fastpath
from hfq.charsum import (
    magsq_via_profile,
    quad_sum_all,
    quad_sum_monic,
    variance_charsum,
)
from hfq.errors import BadParityError, LengthMismatchError, NotCoprimeError, TooLargeError
from hfq.field import CycInt, ctx_new
from hfq.hankel import Seq, odot, profile
from hfq.polyring import Poly
from hfq.variance import ThmParams, variance_bruteforce

F3 = ctx_new(3)
F5 = ctx_new(5)


def seqs(ctx, n):
    for tail in iter_product(range(ctx.q), repeat=n + 1):
        yield Seq(ctx, tail)


def test_quad_sum_zero_sequence():
    res = quad_sum_all(Seq(F3, (0, 0, 0)), 1)
    assert res.value == CycInt.from_int(3, 9)
    assert res.mag_sq == 81
    assert quad_sum_monic(Seq(F3, (0, 0, 0)), 1).mag_sq == 9  # q^(2l), pi = 0 branch


def test_quad_sum_fixture_001():
    s = Seq.from_literal(F3, "0,0,1")
    assert quad_sum_all(s, 1).mag_sq == 27  # q^(2l+2-r) with r = 1
    assert quad_sum_monic(s, 1).mag_sq == 9  # strict pi = 1 branch


def test_quad_sum_length_mismatch():
    with pytest.raises(LengthMismatchError):
        quad_sum_all(Seq(F3, (0, 0, 0)), 2)
    with pytest.raises(LengthMismatchError):
        quad_sum_monic(Seq(F3, (0, 0)), 1)


def test_quad_sums_run_no_scalar_profile(monkeypatch):
    # the sums come from the character tally alone
    def refuse(seq):
        raise AssertionError("scalar profile reached")

    s = Seq.from_literal(F3, "0,1,2,1,0")
    want = [magsq_via_profile(s, 2, monic) for monic in (False, True)]
    monkeypatch.setattr(charsum, "profile", refuse)
    assert [quad_sum_all(s, 2).mag_sq, quad_sum_monic(s, 2).mag_sq] == want


@pytest.mark.parametrize("ctx,lmax", [(F3, 2), (F5, 1)], ids=["q3", "q5"])
def test_quad_magnitude_laws_small(ctx, lmax):
    q = ctx.q
    for l in range(lmax + 1):
        for s in seqs(ctx, 2 * l):
            p = profile(s)
            assert quad_sum_all(s, l).mag_sq == q ** (2 * l + 2 - p.r)
            got = quad_sum_monic(s, l).mag_sq
            if p.strict_pi == 0:
                assert got == q ** (2 * l - p.r)
            elif p.strict_pi == 1:
                assert got == q ** (2 * l + 1 - p.r)
            else:
                assert got == 0
            assert got == magsq_via_profile(s, l, True)
            assert quad_sum_all(s, l).mag_sq == magsq_via_profile(s, l, False)


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
        vx = quad_sum_monic(x, 2).value
        vy = quad_sum_all(y, 1).value
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
    assert variance_charsum(u, v, 2, 0, "exact") == Fraction(40, 9)
    assert variance_charsum(u, v, 2, 1, "exact") == 0
    assert variance_charsum(u, v, 2, 0, "fast") == Fraction(40, 9)


def test_variance_modes_agree():
    for ctx, n_max in ((F3, 5), (F5, 4)):
        u, v = Poly.one(ctx), Poly.t(ctx)
        for n in range(2, n_max + 1):
            for h in range(n + 1):
                assert variance_charsum(u, v, n, h, "exact") == variance_charsum(
                    u, v, n, h, "fast"
                ), (ctx.q, n, h)
    for f9 in (ctx_new(3, 2, (1, 0, 1)), ctx_new(3, 2, (2, 1, 1))):
        u9, v9 = Poly.one(f9), Poly(f9, (3, 1))  # V = T + w
        for n in range(2, 4):
            for h in range(n + 1):
                oracle = variance_bruteforce(u9, v9, n, h)
                assert variance_charsum(u9, v9, n, h, "exact") == oracle, (f9, n, h)
                assert variance_charsum(u9, v9, n, h, "fast") == oracle, (f9, n, h)
    u, v = Poly.one(F3), Poly.t(F3)
    u2 = Poly.from_ints(F3, [1, 0, 1])
    for h in (2, 3, 4):
        assert variance_charsum(u2, v, 6, h, "exact") == variance_charsum(
            u2, v, 6, h, "fast"
        )


def test_variance_charsum_matches_bruteforce_odd_n():
    u, v = Poly.one(F3), Poly.t(F3)
    for n in (3, 5):
        for h in range(n + 1):
            assert variance_charsum(u, v, n, h, "exact") == variance_bruteforce(u, v, n, h)
    u2 = Poly.from_ints(F3, [1, 0, 1])
    v3 = Poly.from_ints(F3, [0, 0, 0, 1])
    assert variance_charsum(u2, v3, 5, 1, "exact") == variance_bruteforce(u2, v3, 5, 1)


def test_variance_extension_field():
    # q = 9 walks the table-gather engine end to end
    ctx = ctx_new(3, 2, [1, 0, 1])
    u, v = Poly.one(ctx), Poly.t(ctx)
    for h in (0, 1, 2):
        oracle = variance_bruteforce(u, v, 2, h)
        assert variance_charsum(u, v, 2, h, "exact") == oracle
        assert variance_charsum(u, v, 2, h, "fast") == oracle


def test_exact_variance_with_every_class_near_zero_sums_nothing(monkeypatch):
    # at h = n every sequence is near-zero and dropped, so no character sum
    # is formed, however wide its family of E (here l = 14)
    def no_pairs(*args):
        raise AssertionError("a character sum was formed for an empty block")

    monkeypatch.setattr(fastpath, "_qform_pairs", no_pairs)
    assert variance_charsum(Poly.one(F3), Poly.t(F3), 28, 28, "exact") == 0


def test_variance_charsum_validation():
    with pytest.raises(BadParityError):
        variance_charsum(Poly.t(F3), Poly.t(F3), 4, 0)
    with pytest.raises(NotCoprimeError):
        variance_charsum(Poly.from_ints(F3, [0, 0, 1]), Poly.t(F3), 4, 0)
    with pytest.raises(TooLargeError):
        variance_charsum(Poly.one(F3), Poly.t(F3), 6, 0, guard=10)
    with pytest.raises(ValueError):
        variance_charsum(Poly.one(F3), Poly.t(F3), 4, 0, mode="approximate")


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
            assert totals[1] == variance_charsum(u, v, n, h, "exact")
