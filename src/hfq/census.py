"""Class sizes of the Hankel characteristic and their exhaustive census.

census_formula and census_formula_total count the sequences in F_q^{n+1}
with h leading zeros in each standard class (r, rho, pi) and of each rank
invariant r; census_enumerate tallies the standard classes of every such
sequence with the batched Berlekamp-Massey pass over the prefix trie
(fastpath.walk), the oracle the formulas are checked against.  The
conventions are hankel's.  numpy and the engine load with the first
enumeration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import GUARD, HfqError, check_guard

if TYPE_CHECKING:
    from .field import FieldCtx


def _check_box(n: int, h: int) -> None:
    """The sequences in F_q^{n+1} with h leading zeros exist."""
    if n < 0 or not 0 <= h <= n + 1:
        raise HfqError("need n >= 0 and 0 <= h <= n+1")


def census_formula(n: int, h: int, r: int, rho: int, pi: int, q: int) -> int:
    """Number of sequences in F_q^{n+1} with h leading zeros and the given
    standard characteristic; 0 for parameter combinations no class attains."""
    _check_box(n, h)
    if min(r, rho, pi) < 0 or r != rho + pi:
        return 0
    n1 = (n + 2) // 2
    even_ind = 1 if n % 2 == 0 else 0
    if rho == 0:
        if r <= min(n1 - even_ind, n - h + 1):
            return 1 if r == 0 else (q - 1) * q ** (r - 1)
        return 0
    if rho == n1:
        if pi == 0 and h + 1 <= n1:
            return (q - 1) * q ** (n - h)
        return 0
    if h + 1 <= rho <= n1 - 1 and 0 <= pi <= n1 - rho - even_ind:
        if pi == 0:
            return (q - 1) * q ** (2 * rho - h - 1)
        return (q - 1) ** 2 * q ** (2 * rho + pi - h - 2)
    return 0


def census_formula_total(n: int, h: int, r: int, q: int) -> int:
    """Number of sequences with h leading zeros and rank invariant r."""
    _check_box(n, h)
    if r < 0:
        return 0
    n1 = (n + 2) // 2
    if r == 0:
        return 1
    if 1 <= r <= min(h, n - h + 1):
        return (q - 1) * q ** (r - 1)
    if h + 1 <= r <= n1 - 1:
        return (q * q - 1) * q ** (2 * r - h - 2)
    if r == n1 and h + 1 <= n1:
        return q ** (n - h + 1) - q ** (2 * n1 - h - 2)
    return 0


def _census_chunk(args):
    """Class tallies, indexed by r * side + rho, of one representative per
    scalar orbit of the nonzero sequences below the walk's top-level nodes
    ``tops``."""
    import numpy as np

    from . import fastpath

    ctx, n, h, tops, side = args
    tally = np.zeros(side * side, dtype=np.int64)
    for (r, rho, _), _ in fastpath.walk(ctx, n + 1 - h, h, ((1,),), tops):
        tally += np.bincount(r * side + rho, minlength=side * side)
    return tally


def census_enumerate(
    ctx: FieldCtx, n: int, h: int, guard: int = GUARD, workers: int = 1
) -> dict:
    """Exhaustive tally {(r, rho, pi): count} of the standard classes over
    all sequences in F_q^{n+1} with h leading zeros."""
    _check_box(n, h)
    total = ctx.q ** (n + 1 - h)
    check_guard(total, guard, f"census of q^{n + 1 - h}", "sequences")
    side = (n + 2) // 2 + 1  # r and rho are at most n1
    if workers <= 1 or total < 4 * workers:
        tally = _census_chunk((ctx, n, h, slice(None), side))
    else:
        from concurrent.futures import ProcessPoolExecutor

        jobs = [(ctx, n, h, slice(i, None, workers), side) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tally = sum(pool.map(_census_chunk, jobs))
    tally *= ctx.q - 1  # each c * seq, c != 0, has the class of seq
    tally[0] += 1  # the zero sequence, class (0, 0, 0)
    return {
        (c // side, c % side, c // side - c % side): t for c, t in enumerate(tally.tolist()) if t
    }
