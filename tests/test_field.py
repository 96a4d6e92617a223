import random
from itertools import product

import numpy as np
import pytest
from oracle import CycInt, psi

from hfq.errors import HfqError, TooLargeError
from hfq.fastpath import magsq
from hfq.field import ctx_new
from hfq.polyring import Poly


def test_ctx_new_prime_fields():
    assert ctx_new(3).q == 3
    assert ctx_new(5).q == 5


def test_ctx_new_extension_field():
    # T^2 + 1 has no root in F_3: 0^2, 1^2, 2^2 are 0, 1, 1, never -1
    assert all(pow(x, 2, 3) != 2 for x in range(3))
    ctx = ctx_new(3, 2, [1, 0, 1])
    assert ctx.q == 9
    assert len(ctx.residues) == len(ctx.mul_table) == 9


def test_field_ctx_is_a_value():
    # equality, hashing and repr read (p, k, modulus); the tables are derived
    f3, f9 = ctx_new(3), ctx_new(3, 2, [1, 0, 1])
    assert f3 == ctx_new(3) and hash(f3) == hash(ctx_new(3))
    assert f9 == ctx_new(3, 2, (1, 0, 1)) and hash(f9) == hash(ctx_new(3, 2, (1, 0, 1)))
    assert f3 != f9 and f9 != ctx_new(3, 2, [2, 2, 1]) and f3 != (3, 1, None)
    assert len({f3, ctx_new(3), f9}) == 2
    assert repr(f3) == "FieldCtx(p=3, k=1, modulus=None)"
    assert repr(f9) == "FieldCtx(p=3, k=2, modulus=(1, 0, 1))"
    with pytest.raises(AttributeError):
        f3.p = 5
    with pytest.raises(AttributeError):
        f9.mul_table = f3.mul_table
    assert f3.p == 3 and f9.mul_table[3][3] == 2  # T * T = -1, code 3 is T


def test_ctx_new_rejects_bad_parameters():
    with pytest.raises(HfqError, match="4 is not prime"):
        ctx_new(4)
    with pytest.raises(HfqError, match="characteristic 2 is not supported"):
        ctx_new(2)
    with pytest.raises(HfqError, match="modulus is reducible"):
        ctx_new(3, 2, [2, 0, 1])  # T^2 + 2 = (T+1)(T+2)
    with pytest.raises(HfqError, match="requires an explicit modulus"):
        ctx_new(3, 2, None)


def test_extension_arithmetic_round_trips():
    ctx = ctx_new(3, 2, [1, 0, 1])
    for a in range(ctx.q):
        if a != ctx.zero:
            assert ctx.mul_table[a][ctx.inv(a)] == ctx.one


def test_trace_prime_field_is_identity():
    ctx = ctx_new(3)
    assert ctx.trace_table[2] == 2
    assert ctx.trace_table[0] == 0


def test_trace_extension_matches_repeated_squaring_oracle():
    ctx = ctx_new(3, 2, [1, 0, 1])
    t = 3  # the code of T: residues (0, 1)
    # oracle: T^3 mod (T^2 + 1) computed by explicit powering
    mul = ctx.mul_table
    cube = mul[mul[t][t]][t]
    expected = ctx.add_table[t][cube]
    assert expected < ctx.p  # in the prime field
    assert ctx.trace_table[t] == expected
    assert ctx.trace_table[t] == 0


def test_trace_is_additive():
    for ctx in (ctx_new(3), ctx_new(3, 2, [1, 0, 1])):
        tr = ctx.trace_table
        for a in range(ctx.q):
            for b in range(ctx.q):
                s = tr[ctx.add_table[a][b]]
                assert s == (tr[a] + tr[b]) % ctx.p


def test_psi_exponent_prime_field():
    ctx = ctx_new(3)
    assert psi(ctx, 1) == CycInt.zeta_pow(3, 1)
    assert psi(ctx, 0) == CycInt.from_int(3, 1)


@pytest.mark.parametrize(
    "ctx",
    [ctx_new(3), ctx_new(5), ctx_new(3, 2, [1, 0, 1])],
    ids=["q3", "q5", "q9"],
)
def test_orthogonality_exact(ctx):
    # (1/q) sum_a psi(ab) is 1 at b = 0 and 0 otherwise, in exact arithmetic
    for b in range(ctx.q):
        total = CycInt.zero(ctx.p)
        for a in range(ctx.q):
            total = total + psi(ctx, ctx.mul_table[a][b])
        if b == ctx.zero:
            assert total == CycInt.from_int(ctx.p, ctx.q)
        else:
            assert total.is_zero()


def test_cyc_fixed_values():
    z1 = CycInt.zeta_pow(3, 1)
    z2 = CycInt.zeta_pow(3, 2)
    assert (z1 + z2).coeffs == (-1, 0, 0)
    assert z1 * z2 == CycInt.from_int(3, 1)
    assert CycInt.zeta_pow(5, 1).conj() == CycInt.zeta_pow(5, 4)


def test_cyc_mag_sq_values():
    three = CycInt.from_int(3, 3)
    assert three.mag_sq().as_integer() == 9
    allones = CycInt(3, (1, 1, 1))
    assert allones.is_zero() and allones.mag_sq().as_integer() == 0
    # Gauss-type sum over F_3: 1 + 2*zeta has |.|^2 = 3
    gauss = CycInt(3, (1, 2, 0))
    assert gauss.mag_sq().as_integer() == 3
    assert magsq(np.array([[1, 2, 0], [3, 0, 0]])).tolist() == [3, 9]


def test_cyc_as_integer():
    assert CycInt.from_int(3, 9).as_integer() == 9
    assert CycInt.zeta_pow(5, 1).as_integer() is None


def test_cyc_canonicalization_idempotent():
    z = CycInt(5, (4, 0, 1, 7, 7))
    again = CycInt(5, z.coeffs)
    assert z == again and z.coeffs[-1] == 0


def test_cyc_ring_axioms_random():
    rng = random.Random(20240811)
    for p in (3, 5, 7):
        for _ in range(40):
            a, b, c = (
                CycInt(p, [rng.randrange(-9, 10) for _ in range(p)]) for _ in range(3)
            )
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a * b).conj() == a.conj() * b.conj()


def test_cyc_mixed_characteristic_rejected():
    with pytest.raises(HfqError, match=r"cannot combine Z\[zeta_3\] with Z\[zeta_5\]"):
        CycInt.zeta_pow(3, 1) + CycInt.zeta_pow(5, 1)


# The tables against an independent oracle: prime-field Poly arithmetic on
# the residue vectors, reduced modulo the defining polynomial.

TABLE_FIELDS = [
    (3, 2, (1, 0, 1)),
    (3, 2, (2, 1, 1)),
    (3, 2, (2, 2, 1)),
    (5, 2, (2, 0, 1)),
    (3, 3, (1, 2, 0, 1)),
]


def _as_poly(fp, code: int, k: int) -> Poly:
    p = fp.p
    return Poly.from_ints(fp, [code // p**i % p for i in range(k)])


def _as_code(a: Poly) -> int:
    return sum(c * a.ctx.p**i for i, c in enumerate(a.coeffs))


@pytest.mark.parametrize(
    "p,k,modulus", TABLE_FIELDS, ids=["9a", "9b", "9c", "25", "27"]
)
def test_tables_match_residue_polynomial_oracle(p, k, modulus):
    ctx = ctx_new(p, k, modulus)
    fp = ctx_new(p)
    m = Poly.from_ints(fp, modulus)
    polys = [_as_poly(fp, c, k) for c in range(ctx.q)]
    for a in range(ctx.q):
        pa = polys[a]
        for b in range(ctx.q):
            assert ctx.add_table[a][b] == _as_code(pa + polys[b])
            assert ctx.mul_table[a][b] == _as_code((pa * polys[b]) % m)
        if a:
            assert (pa * polys[ctx.inv(a)]) % m == Poly.one(fp)
        tr = Poly.zero(fp)
        for i in range(k):
            tr = tr + (pa ** (p**i)) % m
        assert tr.degree <= 0
        assert ctx.trace_table[a] == _as_code(tr)


@pytest.mark.parametrize(
    "p,k,modulus", [(3, 4, (2, 1, 0, 0, 1)), (3, 4, (2, 0, 0, 1, 1))], ids=["81a", "81b"]
)
def test_trace_matches_frobenius_oracle(p, k, modulus):
    # the trace alone, Tr(a) = sum of a^(p^i) mod the modulus for i < k,
    # without the q^2 add/mul loop of the test above
    ctx = ctx_new(p, k, modulus)
    fp = ctx_new(p)
    m = Poly.from_ints(fp, modulus)
    for a in range(ctx.q):
        pa = _as_poly(fp, a, k)
        tr = Poly.zero(fp)
        for i in range(k):
            tr = tr + (pa ** (p**i)) % m
        assert tr.degree <= 0
        assert ctx.trace_table[a] == _as_code(tr)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3)], ids=["3^2", "5^2", "3^3"])
def test_ctx_new_accepts_exactly_the_rootless_moduli(p, k):
    # below degree 4 a monic polynomial is irreducible iff it has no root
    for low in product(range(p), repeat=k):
        modulus = low + (1,)
        has_root = any(
            sum(c * x**i for i, c in enumerate(modulus)) % p == 0 for x in range(p)
        )
        if has_root:
            with pytest.raises(HfqError, match="modulus is reducible"):
                ctx_new(p, k, modulus)
        else:
            assert ctx_new(p, k, modulus).q == p**k


def test_ctx_new_caps_q():
    with pytest.raises(TooLargeError):
        ctx_new(257)
    with pytest.raises(TooLargeError):
        ctx_new(3, 6, (2, 1, 0, 0, 0, 0, 1))
