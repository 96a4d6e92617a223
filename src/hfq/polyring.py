"""Polynomial arithmetic over F_q with the conventions used throughout.

Polynomials are immutable tuples of F_q codes (ints, see field), constant
term first, with no trailing zeros; the zero polynomial has an empty tuple
and degree NEG_INF.
|A| denotes q^(deg A) with |0| = 0.  Greatest common divisors are monic and
gcd(0, V) is the monic normalization of V.

Enumeration order everywhere is lexicographic on the coefficient tuple with
the constant term varying fastest, so iteration is reproducible.
"""

from __future__ import annotations

from typing import Iterator

from .errors import HfqError
from .field import FieldCtx, FqElem, fq_vectors

NEG_INF = float("-inf")


class Poly:
    """Polynomial over F_q; supports +, -, *, //, %, divmod, ** and hashing."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        cs = tuple(coeffs)
        n = len(cs)
        while n and not cs[n - 1]:
            n -= 1
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", cs[:n])

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # construction helpers

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (ctx.one,))

    @classmethod
    def t(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (ctx.zero, ctx.one))

    @classmethod
    def from_ints(cls, ctx: FieldCtx, ints) -> "Poly":
        """Coefficients given as plain ints, valid for prime fields only."""
        if ctx.k != 1:
            raise HfqError("from_ints needs a prime field")
        return cls(ctx, tuple(c % ctx.p for c in ints))

    @classmethod
    def from_literal(cls, ctx: FieldCtx, text: str) -> "Poly":
        """Parse a comma-separated literal, low-to-high; k>1 entries bracketed."""
        text = text.strip()
        return cls(ctx, ctx.parse_literal(text)) if text else cls.zero(ctx)

    # basic queries

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one

    def abs_value(self) -> int:
        """|A| = q^(deg A), with |0| = 0."""
        return 0 if self.is_zero else self.ctx.q ** (len(self.coeffs) - 1)

    def coeff(self, i: int) -> FqElem:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ctx.zero

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self.literal()})"

    def literal(self) -> str:
        """Low-to-high coefficient literal, inverse of from_literal; repr shows it."""
        return ",".join(self.ctx.format_elem(c) for c in self.coeffs or (0,))

    # arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add(out[i], c)
        return Poly(ctx, out)

    def __sub__(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        out = list(a) + [ctx.zero] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = ctx.sub(out[i], c)
        return Poly(ctx, out)

    def __mul__(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(ctx)
        add = ctx.add_table
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                row = ctx.mul_table[ai]
                for j, bj in enumerate(b):
                    out[i + j] = add[out[i + j]][row[bj]]
        return Poly(ctx, out)

    def scale(self, c: FqElem) -> "Poly":
        ctx = self.ctx
        return Poly(ctx, tuple(ctx.mul(c, x) for x in self.coeffs))

    def shift(self, k: int) -> "Poly":
        """Multiply by T^k."""
        if self.is_zero or k == 0:
            return self
        return Poly(self.ctx, (self.ctx.zero,) * k + self.coeffs)

    def __divmod__(self, other: "Poly"):
        ctx = self.ctx
        b = other.coeffs
        if not b:
            raise HfqError("polynomial division by zero")
        if len(self.coeffs) < len(b):
            return Poly.zero(ctx), self
        mul, sub = ctx.mul_table, ctx.sub_table
        inv_lead = None if other.is_monic else ctx.inv(b[-1])
        rem = list(self.coeffs)
        dd = len(b) - 1
        quot = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                f = c if inv_lead is None else mul[c][inv_lead]
                quot[i - dd] = f
                row = mul[f]
                # rem[i] cancels and is read no more
                for j in range(dd):
                    rem[i - dd + j] = sub[rem[i - dd + j]][row[b[j]]]
        return Poly(ctx, quot), Poly(ctx, rem[:dd])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        acc = Poly.one(self.ctx)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def monic(self) -> "Poly":
        if self.is_zero:
            raise HfqError("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        return self.scale(self.ctx.inv(self.coeffs[-1]))


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, V) is monic-normalized V."""
    if a.is_zero and b.is_zero:
        raise HfqError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


# enumeration


def monics(ctx: FieldCtx, n: int) -> Iterator[Poly]:
    """All monic polynomials of exact degree n (empty for n < 0)."""
    if n < 0:
        return
    for tail in fq_vectors(ctx, n):
        yield Poly(ctx, tail + (ctx.one,))


def polys_upto(ctx: FieldCtx, n: int) -> Iterator[Poly]:
    """All polynomials of degree <= n, including 0, in the code order of
    their coefficient vectors: by degree, then leading coefficient, then
    tail; just {0} for n < 0."""
    return (Poly(ctx, v) for v in fq_vectors(ctx, max(n + 1, 0)))


def monics_upto(ctx: FieldCtx, n: int) -> Iterator[Poly]:
    """All monic polynomials of degree <= n; empty for n < 0."""
    for d in range(max(n + 1, 0)):
        yield from monics(ctx, d)


def coeff_vector(b: Poly, k: int) -> tuple:
    """Width-(k+1) coefficient vector of B, requiring deg B <= k."""
    if b.degree > k:
        raise HfqError(f"deg {b.degree} exceeds vector width {k}")
    ctx = b.ctx
    return b.coeffs + (ctx.zero,) * (k + 1 - len(b.coeffs))


def laurent_expand(b: Poly, a: Poly, depth: int):
    """Coefficients alpha_0..alpha_depth of B/A = sum alpha_i T^(-i) + O(T^(-depth-1)).

    Requires A monic nonzero and deg B <= deg A, so the series starts at
    T^0 or later; alpha_i is the T^(depth-i) coefficient of the polynomial
    part (B T^depth) // A.
    """
    if a.is_zero:
        raise HfqError("expansion denominator is zero")
    if not a.is_monic:
        raise HfqError("expansion denominator must be monic")
    if b.degree > a.degree:
        raise HfqError("numerator degree exceeds denominator degree")
    quot = b.shift(depth) // a
    return [quot.coeff(depth - i) for i in range(depth + 1)]


# factorization and arithmetic functions


def factor(a: Poly):
    """Monic prime factorization [(P, multiplicity), ...] in enumeration order.

    Trial division over monic polynomials in degree order; the leading unit
    is discarded (factors multiply to the monic normalization of A).
    """
    if a.is_zero:
        raise HfqError("cannot factor 0")
    ctx = a.ctx
    rem = a.monic()
    out = []
    d = 1
    while rem.degree >= 2 * d:
        for cand in monics(ctx, d):
            if rem.degree < 2 * d:
                break
            if (rem % cand).is_zero:
                mult = 0
                while (rem % cand).is_zero:
                    rem = rem // cand
                    mult += 1
                out.append((cand, mult))
        d += 1
    if rem.degree >= 1:
        out.append((rem, 1))
    return out


def phi(a: Poly, m: int | None = None) -> int:
    """Count of C with deg C < m (deg A by default) and gcd(C, A) = 1, for
    monic A != 0.

    By Mobius inversion over the distinct primes of A: the C of degree < m
    divisible by a squarefree D, 0 included, are q^max(m - deg D, 0) (at
    m = deg A, the Euler product); the counting definition is enforced
    against this in the tests.  phi(1) = 1, so that phi is multiplicative.
    """
    if a.is_zero:
        raise HfqError("phi(0) is undefined")
    if not a.is_monic:
        raise HfqError("phi is defined for monic polynomials")
    m = a.degree if m is None else m
    terms = [(1, 0)]  # (mu(D), deg D) over the squarefree divisors D of A
    for prime, _ in factor(a):
        terms += [(-mu, d + prime.degree) for mu, d in terms]
    return sum(mu * a.ctx.q ** max(m - d, 0) for mu, d in terms)
