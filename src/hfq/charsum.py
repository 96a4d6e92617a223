"""Exact additive-character sums of Hankel quadratic forms.

The two base sums attach the square Hankel matrix of a length-(2l+1)
sequence to the quadratic form [E]^T H [E] and sum psi over all E of degree
<= l, or over the monic E of degree l.  Their squared magnitudes are powers
of q determined by the sequence's characteristic alone (rank for the full
sum; rank and strict pi for the monic sum), which is what magsq_via_profile
evaluates without summing.

variance_charsum assembles the short-interval variance as the weighted sum
of products of two such magnitudes over all sequences with h leading zeros,
using the parity-dependent window widths; exact mode computes cyclotomic
sums, fast mode trusts the closed-form magnitudes.  Everything is integer
or Fraction arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .errors import LengthMismatchError, TooLargeError
from .field import CycInt, FieldCtx, fq_vectors, mag_sq_from_counts
from .hankel import Profile, Seq, odot, profile
from .polyring import Poly, coeff_vector
from .variance import ThmParams


@dataclass(frozen=True)
class QuadSumResult:
    value: CycInt
    mag_sq: int
    profile_used: Profile


def _check_length(seq: Seq, l: int) -> None:
    if l < 0:
        raise LengthMismatchError("need l >= 0")
    if len(seq.entries) != 2 * l + 1:
        raise LengthMismatchError(
            f"sequence length {len(seq.entries)} does not match 2l+1 = {2 * l + 1}"
        )


def _value_counts_scalar(seq: Seq, l: int, monic: bool):
    """Tally psi-exponents of the quadratic form over the vector family."""
    ctx = seq.ctx
    e = seq.entries
    rows = [e[i : i + l + 1] for i in range(l + 1)]
    counts = [0] * ctx.p
    elems = list(ctx.elements())
    positions = l if monic else l + 1
    for tail in iter_product(elems, repeat=positions):
        vec = tail + (ctx.one,) if monic else tail
        acc = ctx.zero
        for i in range(l + 1):
            vi = vec[i]
            if vi == ctx.zero:
                continue
            row = rows[i]
            dot = ctx.zero
            for j in range(l + 1):
                vj = vec[j]
                if vj != ctx.zero:
                    dot = ctx.add(dot, ctx.mul(row[j], vj))
            acc = ctx.add(acc, ctx.mul(vi, dot))
        counts[ctx.psi_exponent(acc)] += 1
    return counts


def _quad_sum(seq: Seq, l: int, monic: bool) -> QuadSumResult:
    _check_length(seq, l)
    ctx = seq.ctx
    counts = _value_counts_scalar(seq, l, monic)
    value = CycInt(ctx.p, counts)
    mag = mag_sq_from_counts(ctx.p, counts)
    return QuadSumResult(value, mag, profile(seq))


def quad_sum_all(seq: Seq, l: int) -> QuadSumResult:
    """Exact character sum over all E of degree <= l; |sum|^2 = q^(2l+2-r)."""
    return _quad_sum(seq, l, monic=False)


def quad_sum_monic(seq: Seq, l: int) -> QuadSumResult:
    """Exact character sum over monic E of degree l; |sum|^2 follows the
    three-branch law in the strict pi of the sequence."""
    return _quad_sum(seq, l, monic=True)


def magsq_via_profile(seq: Seq, l: int, monic: bool) -> int:
    """Closed-form |sum|^2 from the sequence characteristic, without summing.

    The agreement with the direct sums is what the quadratic-form checks
    establish exhaustively before anything downstream is allowed to trust
    this path.
    """
    _check_length(seq, l)
    q = seq.ctx.q
    prof = profile(seq)
    if not monic:
        return q ** (2 * l + 2 - prof.r)
    if prof.strict_pi == 0:
        return q ** (2 * l - prof.r)
    if prof.strict_pi == 1:
        return q ** (2 * l + 1 - prof.r)
    return 0


def _magsq_pair_exact(ctx: FieldCtx, x: Seq, y: Seq, l_m: int, l_a: int):
    """(monic-sum magnitude^2 of x, full-sum magnitude^2 of y), exactly."""
    if ctx.k == 1:
        from . import fastpath

        cm = fastpath.qform_value_counts(ctx.p, x.entries, l_m, True)
        ca = fastpath.qform_value_counts(ctx.p, y.entries, l_a, False)
    else:
        cm = _value_counts_scalar(x, l_m, True)
        ca = _value_counts_scalar(y, l_a, False)
    return mag_sq_from_counts(ctx.p, cm), mag_sq_from_counts(ctx.p, ca)


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

    Exact mode evaluates both quadratic-form sums as cyclotomic integers per
    sequence; fast mode reads the magnitudes off the closed forms.  The two
    agree by the quadratic-form law, and the test suite enforces it.
    """
    if mode not in ("exact", "fast"):
        raise ValueError(f"unknown mode {mode!r}")
    par = ThmParams.compute(u, v, n, h)
    ctx = u.ctx
    q = ctx.q
    space = q ** (n + 1 - h)
    if space > guard:
        raise TooLargeError(f"character sum needs {space} sequences, cap {guard}")
    (mw, m_width), (aw, a_width) = _windows(u, v, par)
    l_m = (n - m_width) // 2
    l_a = (n - a_width) // 2

    if mode == "fast" and ctx.k == 1:
        from . import fastpath

        counts = fastpath.variance_exponent_counts(
            ctx.p,
            n,
            h,
            [c for c in coeff_vector(mw, m_width)],
            [c for c in coeff_vector(aw, a_width)],
        )
        total = sum(int(c) * q**e for e, c in enumerate(counts) if c)
    else:
        total = _included_sum_scalar(u, v, par, l_m, l_a, mode)
    return Fraction(4 * q ** (2 * h), q ** (2 * n + 1)) * total


def _included_sum_scalar(u: Poly, v: Poly, par: ThmParams, l_m: int, l_a: int, mode: str) -> int:
    ctx = u.ctx
    (mw, m_width), (aw, a_width) = _windows(u, v, par)
    total = 0
    for entries in fq_vectors(ctx, par.n + 1 - par.h, zeros=par.h):
        if not any(entries[:-1]):
            continue  # near-zero classes carry the squared mean
        seq = Seq(ctx, entries)
        x = odot(seq, mw, m_width)
        y = odot(seq, aw, a_width)
        if mode == "fast":
            prod = magsq_via_profile(x, l_m, True) * magsq_via_profile(y, l_a, False)
        else:
            mm, ma = _magsq_pair_exact(ctx, x, y, l_m, l_a)
            prod = mm * ma
        total += prod
    return total
