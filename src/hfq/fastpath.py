"""Vectorized exact mod-p arithmetic for the large enumeration loops.

Everything here is integer arithmetic on numpy arrays; no floating point.
The sequence profile is a batched Berlekamp-Massey pass, the same algorithm
as the scalar hankel.profile, run on a whole [N, m] block at once.  Only
prime fields are served (extension fields fall back to the scalar
implementations, which these routines must agree with -- the test suite
checks that exhaustively on small envelopes and by property tests beyond).
"""

from __future__ import annotations

import numpy as np

from .field import to_digits


def batched_profile(seqs: np.ndarray, p: int):
    """(r, strict rho) of each row of an [N, m] batch over F_p, read off the
    linear-complexity profile L_0..L_m exactly as hankel.profile does.  bs
    holds x^shift * B, so each step shifts it uniformly by one column."""
    n_seqs, m = seqs.shape
    inv = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
    c = np.zeros((n_seqs, m + 1), dtype=np.int64)
    c[:, 0] = 1
    bs = np.roll(c, 1, axis=1)
    b = np.ones(n_seqs, dtype=np.int64)
    lc = np.zeros((n_seqs, m + 1), dtype=np.int64)
    for i in range(m):
        length = lc[:, i]
        d = (c[:, : i + 1] * seqs[:, i::-1]).sum(axis=1) % p
        grow = (d != 0) & (2 * length <= i)
        prev = c
        c = (c - (d * inv[b] % p)[:, None] * bs) % p
        lc[:, i + 1] = np.where(grow, i + 1 - length, length)
        b = np.where(grow, d, b)
        bs = np.where(grow[:, None], prev, bs)
        bs[:, 1:] = bs[:, :-1].copy()
        bs[:, 0] = 0
    final = lc[:, m]
    r = np.minimum(final, m + 1 - final)
    ks = np.arange(1, (m + 2) // 2)  # k <= n2 - 1 for top index n = m - 1
    strict_rho = ((lc[:, 2 * ks - 1] == ks) * ks).max(axis=1, initial=0)
    return r, strict_rho


def batched_odot(seqs: np.ndarray, wvec, p: int) -> np.ndarray:
    """Sliding dot products against the padded coefficient vector wvec."""
    s = len(wvec) - 1
    out_len = seqs.shape[1] - s
    out = np.zeros((seqs.shape[0], out_len), dtype=np.int64)
    for j, wj in enumerate(wvec):
        if wj:
            out += wj * seqs[:, j : j + out_len]
    return out % p


def variance_exponent_counts(
    p: int,
    n: int,
    h: int,
    monic_wvec,
    all_wvec,
    chunk: int = 20000,
):
    """For every sequence with h leading zeros, the exponent e such that the
    product of the two squared character-sum magnitudes is q^e, tallied.

    Sequences whose monic-side strict pi exceeds 1 contribute zero and are
    left out of the tally, and so are the near-zero sequences (every entry
    zero except possibly the last), which carry the squared mean.
    """
    free = n + 1 - h
    total = p**free
    sm = len(monic_wvec) - 1
    sa = len(all_wvec) - 1
    l_m = (n - sm) // 2
    l_a = (n - sa) // 2
    max_e = (2 * l_m + 1) + (2 * l_a + 2) + 1
    counts = np.zeros(max_e + 1, dtype=np.int64)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        block = to_digits(p, np.arange(start, stop), free)
        if h:
            seqs = np.concatenate(
                [np.zeros((stop - start, h), dtype=np.int64), block], axis=1
            )
        else:
            seqs = block
        x = batched_odot(seqs, monic_wvec, p)
        y = batched_odot(seqs, all_wvec, p)
        r_x, srho_x = batched_profile(x, p)
        spi_x = r_x - srho_x
        r_y, _ = batched_profile(y, p)
        mask = (spi_x <= 1) & seqs[:, :-1].any(axis=1)
        exps = (2 * l_m + spi_x - r_x) + (2 * l_a + 2 - r_y)
        counts += np.bincount(exps[mask], minlength=max_e + 1)
    return counts


_QFORM_CACHE: dict = {}


def qform_vectors(p: int, l: int, monic: bool) -> np.ndarray:
    """All coefficient vectors of A_{<= l} (or of the monic degree-l set)."""
    key = (p, l, monic)
    got = _QFORM_CACHE.get(key)
    if got is not None:
        return got
    if monic:
        vecs = np.concatenate(
            [to_digits(p, np.arange(p**l), l), np.ones((p**l, 1), dtype=np.int64)],
            axis=1,
        )
    else:
        vecs = to_digits(p, np.arange(p ** (l + 1)), l + 1)
    _QFORM_CACHE[key] = vecs
    return vecs


def qform_value_counts(p: int, entries, l: int, monic: bool):
    """Histogram of the quadratic form values over the vector family."""
    e = np.asarray(entries, dtype=np.int64)
    mat = e[np.arange(l + 1)[:, None] + np.arange(l + 1)[None, :]]
    vecs = qform_vectors(p, l, monic)
    vals = ((vecs @ mat) * vecs).sum(axis=1) % p
    return np.bincount(vals, minlength=p).tolist()
