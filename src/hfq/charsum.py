"""Exact additive-character sums of Hankel quadratic forms.

The two base sums attach the square Hankel matrix of a length-(2l+1)
sequence to the quadratic form [E]^T H [E] and sum psi over all E of degree
<= l, or over the monic E of degree l.  Their squared magnitudes are powers
of q determined by the sequence's characteristic alone (rank for the full
sum; rank and strict pi for the monic sum).  magsq_exponents evaluates
that law, and every caller reads it from there.

variance_charsum assembles the short-interval variance as the weighted sum
of products of two such magnitudes over all sequences with h leading zeros,
using the parity-dependent window widths; exact mode sums the characters,
fast mode trusts the closed-form magnitudes.  Both run on the fastpath
engine, over every F_q.  Everything is integer or Fraction arithmetic
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fastpath
from .errors import LengthMismatchError, check_guard
from .field import CycInt
from .hankel import Seq, profile
from .polyring import Poly, coeff_vector
from .variance import ThmParams


@dataclass(frozen=True)
class QuadSumResult:
    value: CycInt
    mag_sq: int


def _check_length(seq: Seq, l: int) -> None:
    if l < 0:
        raise LengthMismatchError("need l >= 0")
    if len(seq.entries) != 2 * l + 1:
        raise LengthMismatchError(
            f"sequence length {len(seq.entries)} does not match 2l+1 = {2 * l + 1}"
        )


def _quad_sum(seq: Seq, l: int, monic: bool) -> QuadSumResult:
    _check_length(seq, l)
    ctx = seq.ctx
    counts = fastpath.qform_counts(ctx, np.array([seq.entries]), l, monic)
    value = CycInt(ctx.p, counts[0].tolist())
    return QuadSumResult(value, int(fastpath.magsq(counts)[0]))


def quad_sum_all(seq: Seq, l: int) -> QuadSumResult:
    """Exact character sum over all E of degree <= l; |sum|^2 = q^(2l+2-r)."""
    return _quad_sum(seq, l, monic=False)


def quad_sum_monic(seq: Seq, l: int) -> QuadSumResult:
    """Exact character sum over monic E of degree l; |sum|^2 follows the
    three-branch law in the strict pi of the sequence."""
    return _quad_sum(seq, l, monic=True)


def magsq_exponents(l: int, r, strict_pi, monic: bool):
    """The closed-form law, elementwise: |sum|^2 = q^e, where e = 2l + 2 - r
    for the full sum, and for the monic sum e = 2l - r or 2l + 1 - r as the
    strict pi is 0 or 1.  e = -1 marks a vanishing monic sum (strict pi > 1).
    """
    if not monic:
        return 2 * l + 2 - r
    return np.where(strict_pi <= 1, 2 * l + strict_pi - r, -1)


def magsq_via_profile(seq: Seq, l: int, monic: bool) -> int:
    """Closed-form |sum|^2 from the sequence characteristic, without summing.

    The agreement with the direct sums is what the quadratic-form checks
    establish exhaustively before anything downstream is allowed to trust
    this path.
    """
    _check_length(seq, l)
    prof = profile(seq)
    e = int(magsq_exponents(l, prof.r, prof.strict_pi, monic))
    return seq.ctx.q**e if e >= 0 else 0


def _windows(u: Poly, v: Poly, par: ThmParams):
    """(monic-side polynomial and width, full-side polynomial and width).

    The monic sum attaches to U for even n and to V for odd n; the width is
    the parity-table value, so one side always carries a zero pad and that
    pad is load-bearing.
    """
    if par.even:
        return (u, par.s), (v, par.t)
    return (v, par.t), (u, par.s)


def variance_charsum(
    u: Poly,
    v: Poly,
    n: int,
    h: int,
    mode: str = "exact",
    guard: int = 10**8,
) -> Fraction:
    """The variance as a character sum over sequences with h leading zeros.

    Exact mode sums both quadratic-form characters per sequence; fast mode
    reads the magnitudes off the closed forms.  The two agree by the
    quadratic-form law, and the test suite enforces it.  The guard bounds
    the sequences, times the monic and full vectors summed over in exact
    mode.
    """
    if mode not in ("exact", "fast"):
        raise ValueError(f"unknown mode {mode!r}")
    par = ThmParams.compute(u, v, n, h)
    ctx = u.ctx
    q = ctx.q
    (mw, m_width), (aw, a_width) = _windows(u, v, par)
    l_m = (n - m_width) // 2
    l_a = (n - a_width) // 2
    work = q ** (n + 1 - h)
    if mode == "exact":
        work *= q**l_m + q ** (l_a + 1)
    check_guard(work, guard, "character sum")
    m_vec = coeff_vector(mw, m_width)
    a_vec = coeff_vector(aw, a_width)

    tally = np.zeros(2 * l_m + 2 * l_a + 4, dtype=np.int64)  # by exponent of q
    total = 0
    for block in fastpath.blocks(ctx, n + 1 - h, zeros=h):
        block = block[block[:, :-1].any(axis=1)]  # near-zero classes carry the squared mean
        x = fastpath.odot(ctx, block, m_vec)
        y = fastpath.odot(ctx, block, a_vec)
        if mode == "fast":
            r_x, _, srho_x = fastpath.profile(ctx, x)
            r_y, _, _ = fastpath.profile(ctx, y)
            e_x = magsq_exponents(l_m, r_x, r_x - srho_x, True)
            e_y = magsq_exponents(l_a, r_y, None, False)
            keep = e_x >= 0
            tally += np.bincount(e_x[keep] + e_y[keep], minlength=len(tally))
        else:
            mm = fastpath.magsq(fastpath.qform_counts(ctx, x, l_m, True)).tolist()
            ma = fastpath.magsq(fastpath.qform_counts(ctx, y, l_a, False)).tolist()
            total += sum(a * b for a, b in zip(mm, ma))  # Python ints: may pass 2^63
    total += sum(c * q**e for e, c in enumerate(tally.tolist()))
    return Fraction(4 * q ** (2 * h), q ** (2 * n + 1)) * total
