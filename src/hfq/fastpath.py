"""One exact int64 numpy engine for the exhaustive enumerations over F_q.

Prime and extension fields are served alike: elements are the int codes of
hfq.field, and every operation is a gather from a table derived, on first
use, from the FieldCtx's tables.  A sum of products is one gather from the
fused table pack[mul], whose entry for a product holds its residue digits
at base W = terms * (p - 1) + 1; an integer sum of at most ``terms`` entries
carries no digit into the next, so it unpacks digit by digit (mod p) to the
F_q sum.  Over a prime field pack is the identity: this is sum(c * s) mod p.

The functions work on [N, m] blocks of codes: blocks enumerates them in
fq_vectors order, profile and odot batch hankel.profile and hankel.odot,
qform_counts tallies the character sums of Hankel quadratic forms, and
magsq takes their squared magnitudes.  Everything is integer arithmetic.
The scalar hankel routines and the literal character sum in the test suite
are the oracles these are checked against.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import TooLargeError
from .field import CHUNK, FieldCtx, to_digits


@cache
def _tables(ctx: FieldCtx):
    """(mul, sub_q, inv, tr): the flat product table, q times the flat
    difference table, the inverses (0 at 0), and tr[c, a, b] = Tr(c w^a w^b)
    with w^a the element of code p^a."""
    mul = np.array(ctx.mul_table, dtype=np.int64)
    basis = ctx.p ** np.arange(ctx.k)
    tr = np.array(ctx.trace_table, dtype=np.int64)[mul[mul[:, basis][:, :, None], basis]]
    sub_q = ctx.q * np.array(ctx.sub_table, dtype=np.int64).ravel()
    return mul.ravel(), sub_q, np.array((0, *ctx.inv_table[1:]), dtype=np.int64), tr


@cache
def _packed(ctx: FieldCtx, terms: int):
    """(W, pack[mul]) for sums of up to ``terms`` products."""
    base = terms * (ctx.p - 1) + 1
    if base**ctx.k >= 2**63:
        raise TooLargeError(f"a sum of {terms} products over F_{ctx.q} overflows int64")
    pack = to_digits(ctx.p, np.arange(ctx.q), ctx.k) @ base ** np.arange(ctx.k)
    return base, pack[_tables(ctx)[0]]


def _unpack(ctx: FieldCtx, sums: np.ndarray, base: int) -> np.ndarray:
    """The F_q code of each packed sum: base-W digit j, mod p, is residue j."""
    code = np.zeros_like(sums)
    for j in range(ctx.k):
        sums, digit = np.divmod(sums, base)
        code += digit % ctx.p * ctx.p**j
    return code


def blocks(ctx: FieldCtx, width: int, zeros: int = 0, start: int = 0, stop=None):
    """The vectors of F_q^width with codes start..stop-1, in the order of
    field.fq_vectors, as [N, zeros + width] code blocks with N * width at
    most field.CHUNK / 2 (profile keeps about eight arrays of a block's size
    live); each vector comes behind ``zeros`` zero entries."""
    if stop is None:
        stop = ctx.q**width
    step = max(1, CHUNK // 2 // max(width, 1))
    for lo in range(start, stop, step):
        codes = np.arange(lo, min(lo + step, stop))
        block = np.zeros((len(codes), zeros + width), dtype=np.int64)
        block[:, zeros:] = to_digits(ctx.q, codes, width)
        yield block


def profile(ctx: FieldCtx, block: np.ndarray):
    """(r, rho, strict_rho) of each row of an [N, m] block, read off the
    linear-complexity profile L_0..L_m exactly as hankel.profile does.

    The pass runs on the transposed block, one sequence per column, so that
    sums over a polynomial's coefficients add whole rows.  c and
    bs = x^shift * B hold codes times q, ready to index a table row.  deg c
    <= L_i, and before step i neither c nor bs has a nonzero coefficient
    past i + 1, so only those rows are touched.  bs is a window on a zero
    buffer whose origin moves up one row per step: that is the shift.
    """
    mul, sub_q, inv, _ = _tables(ctx)
    q = ctx.q
    n_seqs, m = block.shape
    base, pack_mul = _packed(ctx, m)
    rev = np.ascontiguousarray(block[:, ::-1].T)
    c = np.zeros((m + 1, n_seqs), dtype=np.int64)
    c[0] = q
    buf = np.zeros((m + 1, n_seqs), dtype=np.int64)
    buf[m] = q  # bs = x * 1 before step 0
    b = np.ones(n_seqs, dtype=np.int64)
    length = rho = strict_rho = np.zeros(n_seqs, dtype=np.int64)
    for i in range(m):
        w = i + 2
        bs = buf[m - 1 - i :]
        top = length.max(initial=0) + 1
        d = _unpack(ctx, pack_mul[c[:top] + rev[m - 1 - i : m - 1 - i + top]].sum(axis=0), base)
        grow = (d != 0) & (2 * length <= i)
        f = mul[d * q + inv[b]]
        new = sub_q[c[:w] + mul[bs + f]]
        np.copyto(bs, c[:w], where=grow)
        c[:w] = new
        length = np.where(grow, i + 1 - length, length)
        b = np.where(grow, d, b)
        if i % 2 == 0:  # the leading k x k square is invertible iff L_{2k-1} = k
            k = i // 2 + 1  # k <= n1 = (m + 1) // 2 for top index n = m - 1
            rho = np.where(length == k, k, rho)
            if k == m // 2:  # strict rho stops at n2 - 1 = m // 2
                strict_rho = rho
    return np.minimum(length, m + 1 - length), rho, strict_rho


def odot(ctx: FieldCtx, block: np.ndarray, wvec) -> np.ndarray:
    """Sliding products of each row against the padded coefficient vector
    wvec: entry i is sum_j wvec_j row_{i+j}, as hankel.odot."""
    base, pack_mul = _packed(ctx, len(wvec))
    out_len = block.shape[1] - len(wvec) + 1
    acc = np.zeros((block.shape[0], out_len), dtype=np.int64)
    for j, wj in enumerate(wvec):
        if wj:
            acc += pack_mul[wj * ctx.q + block[:, j : j + out_len]]
    return _unpack(ctx, acc, base)


def _qform_pairs(p: int, k: int, l: int, monic: bool, lo: int, hi: int) -> np.ndarray:
    """e_d e_d' for the residue digits e of the E numbered lo..hi-1 among
    those of degree <= l, or among the monic E of degree l (its last
    coefficient has code 1)."""
    offset = monic * p ** (k * l)
    vecs = to_digits(p, np.arange(lo, hi) + offset, k * (l + 1))
    return (vecs[:, :, None] * vecs[:, None, :]).reshape(len(vecs), -1)


def qform_counts(ctx: FieldCtx, block: np.ndarray, l: int, monic: bool) -> np.ndarray:
    """[N, p] histograms of the psi-exponent Tr(sum_{i,j} x_{i+j} E_i E_j)
    over E of degree <= l (or monic of degree l), one row per row x of an
    [N, 2l+1] block.  In the residue digits e_{i,a} of E the exponent is the
    F_p-quadratic form with matrix M[(i,a),(j,b)] = Tr(x_{i+j} w^a w^b).

    The rows and the family of E are both taken in chunks, so that no
    temporary holds more than about field.CHUNK entries."""
    p, k = ctx.p, ctx.k
    dim = k * (l + 1)
    out = np.zeros((len(block), p), dtype=np.int64)
    n_vecs = p ** (k * (l + 1 - monic))
    v_step = min(n_vecs, max(1, CHUNK // (dim * dim)))
    step = max(1, CHUNK // max(dim * dim, v_step))
    idx = np.arange(l + 1)
    for lo in range(0, len(block), step):
        mats = _tables(ctx)[3][block[lo : lo + step, idx[:, None] + idx]]  # [N, i, j, a, b]
        mats = mats.transpose(0, 1, 3, 2, 4).reshape(len(mats), dim * dim)
        shift = p * np.arange(len(mats))[:, None]
        for v_lo in range(0, n_vecs, v_step):
            pairs = _qform_pairs(p, k, l, monic, v_lo, min(v_lo + v_step, n_vecs))
            vals = mats @ pairs.T % p + shift
            counts = np.bincount(vals.ravel(), minlength=len(mats) * p)
            out[lo : lo + len(mats)] += counts.reshape(len(mats), p)
    return out


def magsq(counts: np.ndarray) -> np.ndarray:
    """|sum_j counts_j zeta_p^j|^2 of each row of an [N, p] array, exactly.

    The product with the conjugate is sum_d A_d zeta^d, A the cyclic
    autocorrelation of the row; it is the integer A_0 - A_{p-1} when
    A_1 = ... = A_{p-1}, which holds for every sum this package forms.
    """
    p = counts.shape[1]
    auto = np.stack([(counts * np.roll(counts, d, axis=1)).sum(axis=1) for d in range(p)], axis=1)
    if (auto[:, 1:] != auto[:, -1:]).any():
        raise AssertionError("squared magnitude is not a rational integer")
    return auto[:, 0] - auto[:, -1]
