"""Exact additive-character sums of Hankel quadratic forms.

The two base sums attach the square Hankel matrix of a length-(2l+1)
sequence to the quadratic form [E]^T H [E] and sum psi over all E of degree
<= l, or over the monic E of degree l; fastpath.qform_counts tallies them
and fastpath.magsq squares their magnitudes.  Those are powers of q
determined by the sequence's characteristic alone (rank for the full sum;
rank and strict pi for the monic sum).  magsq_exponents evaluates that
law, and every caller reads it from there.

variance_charsum assembles the short-interval variance as the weighted sum
of products of two such magnitudes over all sequences with h leading zeros,
using the parity-dependent window widths; exact mode sums the characters,
fast mode trusts the closed-form magnitudes.  Both enumerate with the
fastpath walk, over every F_q.  Everything is integer or Fraction
arithmetic throughout.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import GUARD, HfqError, check_guard, power_count

if TYPE_CHECKING:
    from .variance import ThmParams

# q -> the largest l that the acceptance suite runs check_quadform to; the
# CLI trusts --fast (closed-form magnitudes) only inside this envelope.
QUADFORM_VERIFIED_L = {3: 4, 5: 3, 7: 2}


def magsq_exponents(l: int, r, strict_pi, monic: bool):
    """The closed-form law, elementwise: |sum|^2 = q^e, where e = 2l + 2 - r
    for the full sum, and for the monic sum e = 2l - r or 2l + 1 - r as the
    strict pi is 0 or 1.  e = -1 marks a vanishing monic sum (strict pi > 1).
    """
    if not monic:
        return 2 * l + 2 - r
    import numpy as np

    return np.where(strict_pi <= 1, 2 * l + strict_pi - r, -1)


def variance_charsum(par: ThmParams, mode: str = "exact", guard: int = GUARD) -> Fraction:
    """The variance as a character sum over sequences with h leading zeros.

    Exact mode sums both quadratic-form characters for one sequence per
    F_p^* orbit and weights it p - 1, which is exact (fastpath.scalings);
    fast mode reads the magnitudes off the closed forms for one sequence per
    F_q^* orbit, weighted q - 1.  The two agree by the quadratic-form law,
    and the test suite enforces it.  The guard bounds all q^(n+1-h)
    sequences, times the monic and full vectors summed over in exact mode.
    """
    from .polyring import coeff_vector

    if mode not in ("exact", "fast"):
        raise HfqError(f"unknown mode {mode!r}")
    n, h = par.n, par.h
    ctx = par.u.ctx
    q = ctx.q
    mw, m_width, l_m = par.side(True)
    aw, a_width, l_a = par.side(False)
    work = power_count(q, n + 1 - h, guard)
    if mode == "exact":
        work *= power_count(q, l_m, guard) + power_count(q, l_a + 1, guard)
    check_guard(work, guard, "character sum")
    import numpy as np

    from . import fastpath

    m_vec = coeff_vector(mw, m_width)
    a_vec = coeff_vector(aw, a_width)

    if mode == "fast":  # one sequence per scalar orbit, weighted q - 1 (see fastpath.walk)
        tally = np.zeros(2 * l_m + 2 * l_a + 4, dtype=np.int64)  # by exponent of q
        views = (m_vec, a_vec)
        for (r_x, _, srho_x), (r_y, _, _), ents in fastpath.walk(ctx, n + 1 - h, h, views):
            e_x = magsq_exponents(l_m, r_x, r_x - srho_x, True)
            e_y = magsq_exponents(l_a, r_y, None, False)
            keep = (e_x >= 0) & ents[:, :-1].any(axis=1)  # near-zero classes carry the squared mean
            tally += np.bincount(e_x[keep] + e_y[keep], minlength=len(tally))
        total = (q - 1) * sum(c * q**e for e, c in enumerate(tally.tolist()))
    else:  # one sequence per F_p^* orbit, weighted p - 1 (see fastpath.scalings)
        total = 0
        for (ents,) in fastpath.walk(ctx, n + 1 - h, h, ()):
            block = np.pad(ents[ents[:, :-1].any(axis=1)], ((0, 0), (h, 0)))  # not near-zero
            for seqs in fastpath.scalings(ctx, block):
                x = fastpath.odot(ctx, seqs, m_vec)
                y = fastpath.odot(ctx, seqs, a_vec)
                mm = fastpath.magsq(fastpath.qform_counts(ctx, x, l_m, True)).tolist()
                ma = fastpath.magsq(fastpath.qform_counts(ctx, y, l_a, False)).tolist()
                total += sum(a * b for a, b in zip(mm, ma))  # Python ints: may pass 2^63
        total *= ctx.p - 1
    return Fraction(4 * q ** (2 * h), q ** (2 * n + 1)) * total
