import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import irreducible, rad

from hfq.errors import HfqError
from hfq.field import ctx_new, fq_vectors
from hfq.hankel import Seq
from hfq.polyring import (
    NEG_INF,
    Poly,
    coeff_vector,
    factor,
    gcd,
    laurent_expand,
    monics,
    monics_upto,
    phi,
    polys_upto,
)

F3 = ctx_new(3)


def p3(*coeffs):
    return Poly.from_ints(F3, coeffs)


def test_mul_fixture():
    assert p3(1, 1) * p3(2, 1) == p3(2, 0, 1)  # (T+1)(T+2) = T^2 + 2 over F_3


def test_divmod_fixture():
    q, r = divmod(p3(0, 0, 0, 1), p3(1, 0, 1))
    assert q == p3(0, 1) and r == p3(0, 2)  # T^3 = T (T^2+1) + 2T


def test_zero_handling():
    z = Poly.zero(F3)
    assert (p3(1, 2, 1) * z).is_zero
    assert z.degree == NEG_INF and z.degree < -(10**9)
    assert z.abs_value() == 0 and p3(1, 1).abs_value() == 3
    with pytest.raises(HfqError, match="polynomial division by zero"):
        divmod(p3(1), z)


def test_gcd_fixtures():
    assert gcd(p3(1, 0, 1), p3(0, 1)) == p3(1)
    assert gcd(Poly.zero(F3), p3(0, 1)) == p3(0, 1)
    assert gcd(p3(0, 2), p3(0, 1)) == p3(0, 1)
    with pytest.raises(HfqError, match=r"gcd\(0, 0\) is undefined"):
        gcd(Poly.zero(F3), Poly.zero(F3))


def test_phi_fixtures():
    assert phi(p3(0, 0, 1)) == 6
    assert phi(p3(0, 1)) == 2
    assert phi(Poly.one(F3)) == 1
    with pytest.raises(HfqError, match="phi is defined for monic polynomials"):
        phi(p3(0, 2))
    with pytest.raises(HfqError, match=r"phi\(0\) is undefined"):
        phi(Poly.zero(F3))


def test_phi_counting_definition():
    # phi(A, m) counts the C of degree < m coprime to A; phi(A), the
    # residues of lower degree
    for a in monics_upto(F3, 4):
        if a.degree < 1:
            continue
        for m in range(a.degree + 1):
            cs = polys_upto(F3, m - 1)
            count = sum(1 for c in cs if not c.is_zero and gcd(c, a).degree == 0)
            assert phi(a, m) == count, (a, m)
        assert phi(a) == phi(a, a.degree)


def test_phi_multiplicative_on_coprime_pairs():
    ms = [m for m in monics_upto(F3, 2) if m.degree >= 1]
    for a in ms:
        for b in ms:
            if gcd(a, b).degree == 0:
                assert phi(a * b) == phi(a) * phi(b)


def test_rad_and_multiplicity_fixtures():
    a = p3(0, 0, 1) * p3(1, 1)  # T^2 (T+1)
    assert rad(a) == p3(0, 1, 1)
    assert factor(a) == [(p3(0, 1), 2), (p3(1, 1), 1)]
    assert factor(p3(1, 0, 1)) == [(p3(1, 0, 1), 1)]
    assert irreducible(p3(1, 0, 1)) and not irreducible(p3(2, 0, 1))


def test_factor_reassembles():
    rng = random.Random(11)
    polys = [p for p in polys_upto(F3, 5) if not p.is_zero]
    for _ in range(60):
        a = rng.choice(polys)
        prod = Poly.one(F3)
        for prime, mult in factor(a):
            assert prime.is_monic and irreducible(prime)
            prod = prod * prime**mult
        assert prod == a.monic()


def test_enumeration_counts():
    names = [m for m in monics(F3, 1)]
    assert names == [p3(0, 1), p3(1, 1), p3(2, 1)]
    assert len(list(polys_upto(F3, 1))) == 9
    assert list(polys_upto(F3, -1)) == [Poly.zero(F3)]
    assert len(list(monics(F3, 3))) == 27
    assert list(monics(F3, -2)) == []


def test_enumeration_partitions():
    # zero, then by degree, then by leading coefficient, then by tail in the
    # code order of fq_vectors
    for ctx in (F3, ctx_new(5), ctx_new(3, 2, (2, 1, 1))):
        for n in range(-1, 4):
            everything = list(polys_upto(ctx, n))
            assert len(everything) == ctx.q ** max(n + 1, 0)
            assert len(set(everything)) == len(everything)
            pieces = [Poly.zero(ctx)]
            for m in range(n + 1):
                for lead in range(1, ctx.q):
                    pieces += [Poly(ctx, tail + (lead,)) for tail in fq_vectors(ctx, m)]
            assert everything == pieces


def test_coeff_vector():
    assert coeff_vector(p3(2, 1), 3) == (2, 1, 0, 0)
    assert coeff_vector(Poly.zero(F3), 2) == (0, 0, 0)
    assert coeff_vector(p3(0, 0, 1), 2) == (0, 0, 1)
    with pytest.raises(HfqError, match="deg 2 exceeds vector width 1"):
        coeff_vector(p3(0, 0, 1), 1)


def test_laurent_geometric_series():
    out = laurent_expand(Poly.one(F3), p3(2, 1), 4)  # 1/(T-1) over F_3
    assert out == [0, 1, 1, 1, 1]
    a = p3(1, 2, 0, 1)
    assert laurent_expand(a, a, 3) == [1, 0, 0, 0]
    assert laurent_expand(Poly.zero(F3), a, 3) == [0, 0, 0, 0]


def test_laurent_remultiplication_recovers():
    rng = random.Random(3)
    denoms = [m for m in monics_upto(F3, 4) if m.degree >= 1]
    for _ in range(100):
        a = rng.choice(denoms)
        b = rng.choice(list(polys_upto(F3, a.degree)))
        d = 5
        alphas = laurent_expand(b, a, d)
        # P = sum alpha_i T^(d-i); then B T^d - A P = A * O(T^-1)
        p = Poly(F3, tuple(reversed(alphas)))
        lhs = b.shift(d) - a * p
        assert lhs.degree < a.degree


# Ring and literal laws over a prime field and two extension fields.

RING_FIELDS = [F3, ctx_new(3, 2, [2, 2, 1]), ctx_new(5, 2, [2, 0, 1])]


@st.composite
def field_polys(draw, count):
    ctx = draw(st.sampled_from(RING_FIELDS))
    coeffs = st.lists(st.integers(0, ctx.q - 1), max_size=7)
    return ctx, [Poly(ctx, draw(coeffs)) for _ in range(count)]


@settings(max_examples=150)
@given(field_polys(2))
def test_divmod_law(case):
    ctx, (a, b) = case
    if b.is_zero:
        b = Poly.one(ctx)
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@settings(max_examples=150)
@given(field_polys(1))
def test_poly_literal_round_trip(case):
    ctx, (a,) = case
    assert Poly.from_literal(ctx, a.literal()) == a


@settings(max_examples=150)
@given(field_polys(1))
def test_seq_literal_round_trip(case):
    ctx, (a,) = case
    entries = a.coeffs or (ctx.zero,)
    text = ",".join(ctx.format_elem(e) for e in entries)
    assert Seq.from_literal(ctx, text) == Seq(ctx, entries)


@pytest.mark.parametrize("ctx", [F3, ctx_new(3, 2, [1, 0, 1])], ids=["q3", "q9"])
def test_repr_is_the_cli_literal(ctx):
    # a failure line's polynomial pastes back into --U, --V or --W; the
    # polynomials of degree <= 2 include 0, Poly(0) over F_3, Poly([0,0]) over F_9
    for a in polys_upto(ctx, 2):
        assert repr(a) == f"Poly({a.literal()})"
        assert Poly.from_literal(ctx, repr(a)[len("Poly("):-1]) == a
