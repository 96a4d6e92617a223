"""Arithmetic in F_q (q = p^k, p an odd prime) and in Z[zeta_p].

Every element of F_q is an int code in 0..q-1, for prime and extension
fields alike.  The base-p digits of a code are the element's residues
modulo the defining polynomial, constant residue least significant, so a
prime field's elements are its residues and code order is lexicographic
with the constant residue fastest.  FieldCtx builds its addition,
subtraction, negation, multiplication, inversion and trace tables once;
every operation is a lookup.  The trace is read off the multiplication
table: Tr(a) is the trace of x -> a x on the residue basis w^j (code p^j),
the sum over j of residue j of a w^j, mod p.  A table has q^2 entries, so
q is capped at MAX_Q.
"""

from __future__ import annotations

import re
from itertools import product
from typing import TYPE_CHECKING, Iterator, Optional

from .errors import HfqError, TooLargeError

if TYPE_CHECKING:
    import numpy as np

FqElem = int

MAX_Q = 256

CHUNK = 1 << 14  # int64 elements in one block of array temporaries


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _mul_row(a: tuple, residues, low: tuple, p: int, code: dict) -> tuple:
    """a * b for every residue vector b: the sum of b_i (T^i a), each T^i a
    by shift-and-reduce with T^k = -low."""
    shifts = [a]
    for _ in range(len(a) - 1):
        v = shifts[-1]
        shifts.append(tuple((s - v[-1] * m) % p for s, m in zip((0,) + v[:-1], low)))
    cols = list(zip(*shifts))  # cols[j][i] = residue j of T^i a
    return tuple(
        code[tuple(sum(x * y for x, y in zip(b, col)) % p for col in cols)]
        for b in residues
    )


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise HfqError(f"not an integer: {text!r}") from None


class FieldCtx:
    """Immutable description of F_q with q = p^k; safe to share freely.

    Equality, hashing and repr use (p, k, modulus) alone; the operation
    tables are derived from them on construction, which raises
    HfqError unless every nonzero element has an inverse
    (exactly when the modulus is irreducible).
    """

    zero = 0
    one = 1

    def __init__(self, p: int, k: int, modulus: Optional[tuple]):
        """modulus: monic, length k+1, present iff k > 1."""
        q = p**k
        low = modulus[:-1] if modulus else (0,)  # F_p is F_p[T]/(T)
        residues = [v[::-1] for v in product(range(p), repeat=k)]
        code = {v: c for c, v in enumerate(residues)}
        add = tuple(
            tuple(code[tuple((x + y) % p for x, y in zip(a, b))] for b in residues)
            for a in residues
        )
        neg = tuple(code[tuple(-x % p for x in a)] for a in residues)
        mul = tuple(_mul_row(a, residues, low, p, code) for a in residues)
        units = [row.index(1) for row in mul[1:] if 1 in row]
        if len(units) != q - 1:
            raise HfqError("modulus is reducible: a nonzero residue has no inverse")
        for name, value in (
            ("p", p),
            ("k", k),
            ("modulus", modulus),
            ("q", q),
            ("residues", tuple(residues)),
            ("add_table", add),
            ("sub_table", tuple(tuple(row[b] for b in neg) for row in add)),
            ("neg_table", neg),
            ("mul_table", mul),
            ("inv_table", (None, *units)),
            ("trace_table", tuple(
                sum(row[p**j] // p**j % p for j in range(k)) % p for row in mul
            )),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldCtx is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p!r}, k={self.k!r}, modulus={self.modulus!r})"

    def elements(self) -> range:
        """All q elements in code order: lexicographic, constant residue fastest."""
        return range(self.q)

    def add(self, a: FqElem, b: FqElem) -> FqElem:
        return self.add_table[a][b]

    def sub(self, a: FqElem, b: FqElem) -> FqElem:
        return self.sub_table[a][b]

    def neg(self, a: FqElem) -> FqElem:
        return self.neg_table[a]

    def mul(self, a: FqElem, b: FqElem) -> FqElem:
        return self.mul_table[a][b]

    def inv(self, a: FqElem) -> FqElem:
        if not a:
            raise ZeroDivisionError("inverse of 0 in F_q")
        return self.inv_table[a]

    def trace(self, a: FqElem) -> int:
        """Absolute trace Tr(a) = sum of a^(p^i) for i < k, an element of F_p."""
        return self.trace_table[a]

    def format_elem(self, a: FqElem) -> str:
        if self.k == 1:
            return str(a)
        return "[" + ",".join(map(str, self.residues[a])) + "]"

    def parse_elem(self, text: str) -> FqElem:
        text = text.strip()
        if self.k == 1:
            return _parse_int(text) % self.p
        if not (text.startswith("[") and text.endswith("]")):
            raise HfqError(f"extension-field element must be bracketed: {text!r}")
        parts = text[1:-1].split(",")
        if len(parts) != self.k:
            raise HfqError(f"expected {self.k} residues, got {len(parts)}: {text!r}")
        return sum(_parse_int(x) % self.p * self.p**i for i, x in enumerate(parts))

    def parse_literal(self, text: str) -> tuple:
        """The elements of a comma-separated literal; k > 1 entries bracketed."""
        return tuple(self.parse_elem(x) for x in re.split(r",(?![^\[]*\])", text))


def fq_vectors(ctx: FieldCtx, width: int, zeros: int = 0) -> Iterator[tuple]:
    """The vectors of F_q^width, in code order.

    A vector's code has its entries as base-q digits, first entry least
    significant, so the first entry varies fastest.  Each vector comes with
    ``zeros`` zero entries in front.
    """
    prefix = (0,) * zeros
    for v in product(range(ctx.q), repeat=width):
        yield prefix + v[::-1]


def to_digits(base: int, codes, width: int) -> np.ndarray:
    """Base-``base`` digits of each code, least significant first, on a new last
    axis: an element's residues (base p) or a polynomial's coefficients (base q)."""
    import numpy as np

    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty(codes.shape + (width,), dtype=np.int64)
    for j in range(width):
        codes, out[..., j] = np.divmod(codes, base)
    return out


def from_digits(base: int, digits: np.ndarray) -> np.ndarray:
    """The inverse of to_digits over the last axis."""
    import numpy as np

    return digits @ base ** np.arange(digits.shape[-1])


def ctx_new(p: int, k: int = 1, modulus=None) -> FieldCtx:
    """Validated context for F_{p^k}; k > 1 requires an irreducible modulus."""
    if not _is_prime(p):
        raise HfqError(f"{p} is not prime")
    if p == 2:
        raise HfqError("characteristic 2 is not supported")
    if k < 1:
        raise HfqError("extension degree must be >= 1")
    if p**k > MAX_Q:
        raise TooLargeError(f"q = {p}^{k} exceeds {MAX_Q}; the field tables hold q^2 entries")
    if k == 1:
        if modulus is not None:
            raise HfqError("prime field takes no modulus")
        return FieldCtx(p, 1, None)
    if modulus is None:
        raise HfqError("extension field requires an explicit modulus")
    modulus = tuple(int(c) % p for c in modulus)
    if len(modulus) != k + 1 or modulus[-1] != 1:
        raise HfqError(f"modulus must be monic of degree {k}")
    return FieldCtx(p, k, modulus)

