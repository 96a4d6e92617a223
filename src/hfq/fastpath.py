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
walk profiles all of F_q^width up to scalars with one Berlekamp-Massey step
per trie prefix, qform_counts tallies the character sums of Hankel
quadratic forms, and magsq takes their squared magnitudes.  The scalar
hankel routines, the unreduced block loop and the literal character sum in
the test suite are the oracles these are checked against.
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


def blocks(ctx: FieldCtx, width: int, zeros: int = 0):
    """The vectors of F_q^width, in the order of field.fq_vectors, as
    [N, zeros + width] code blocks with N * width at most field.CHUNK / 2 (a
    profile keeps a few arrays of a block's size live); each vector comes
    behind ``zeros`` zero entries."""
    stop = ctx.q**width
    step = max(1, CHUNK // 2 // max(width, 1))
    for lo in range(0, stop, step):
        codes = np.arange(lo, min(lo + step, stop))
        block = np.zeros((len(codes), zeros + width), dtype=np.int64)
        block[:, zeros:] = to_digits(ctx.q, codes, width)
        yield block


def _start(ctx: FieldCtx, m: int, n_cols: int) -> list:
    """The Berlekamp-Massey state of n_cols length-m sequences before step 0:
    [c, bs buffer, entries reversed, b, L, rho, strict rho], one sequence per
    column.  It is also the state after any number of zero entries (c = 1,
    L = 0, and the window of bs moves with the step index)."""
    c = np.zeros((m + 1, n_cols), dtype=np.int64)
    c[0] = ctx.q
    buf = np.zeros_like(c)
    buf[m] = ctx.q
    nil = np.zeros(n_cols, dtype=np.int64)
    return [c, buf, np.zeros((m, n_cols), dtype=np.int64), nil + 1, nil, nil, nil]


def _step(ctx: FieldCtx, state: list, i: int, entry: np.ndarray) -> None:
    """Berlekamp-Massey step i of every column of a _start state, on the
    columns' entries x_i.

    c and bs = x^shift * B hold codes times q, ready to index a table row.
    deg c <= L_i, and before step i neither c nor bs has a nonzero
    coefficient past i + 1, so only those rows are touched.  bs is a window
    on a zero buffer whose origin is row m - 1 - i at step i: that is the
    shift.  The entries are kept reversed, so the discrepancy adds whole rows.
    """
    mul, sub_q, inv, _ = _tables(ctx)
    c, buf, rev, b, length, rho, strict_rho = state
    m = len(rev)
    base, pack_mul = _packed(ctx, m)
    rev[m - 1 - i] = entry
    w = i + 2
    bs = buf[m - 1 - i :]
    top = length.max(initial=0) + 1
    d = _unpack(ctx, pack_mul[c[:top] + rev[m - 1 - i : m - 1 - i + top]].sum(axis=0), base)
    grow = (d != 0) & (2 * length <= i)
    f = mul[d * ctx.q + inv[b]]
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
    state[3:] = b, length, rho, strict_rho


def _result(state: list):
    """(r, rho, strict_rho) of a state that has seen all m entries."""
    m, length = len(state[2]), state[4]
    return np.minimum(length, m + 1 - length), state[5], state[6]


def profile(ctx: FieldCtx, block: np.ndarray):
    """(r, rho, strict_rho) of each row of an [N, m] block, read off the
    linear-complexity profile L_0..L_m exactly as hankel.profile does."""
    state = _start(ctx, block.shape[1], len(block))
    for i in range(block.shape[1]):
        _step(ctx, state, i, block[:, i])
    return _result(state)


def _take(level, cols):
    """The trie nodes ``cols`` of a level (entries, one state per view)."""
    return level[0][:, cols], [[a[..., cols] for a in state] for state in level[1]]


def _expand(ctx: FieldCtx, level, zeros: int, vecs, j: int):
    """The children of every node of a trie level: free entry j appended,
    where the all-zero prefix has only the children 0 and 1 (1 alone at the
    last level).  A view steps once its next entry x_i is known."""
    (width, n_cols), q = level[0].shape, ctx.q
    idx, new = np.repeat(np.arange(n_cols), q), np.tile(np.arange(q), n_cols)
    keep = level[0][:j].any(axis=0)[idx] | (new == 1) | (new == 0) & (j < width - 1)
    ents, views = _take(level, idx[keep])
    ents[j] = new[keep]
    for vec, state in zip(vecs, views):
        lo = j + 1 - len(vec)  # x_i = sum_t vec_t seq_{i+t}, seq_{i+t} = ents[lo + t]
        if lo + zeros >= 0:
            win = ents[max(lo, 0) : j + 1]
            _step(ctx, state, lo + zeros, odot(ctx, win.T, vec[len(vec) - len(win) :])[:, 0])
    return ents, views


def walk(ctx: FieldCtx, width: int, zeros: int, vecs, tops=slice(None)):
    """(r, rho, strict_rho) of odot(seq, vec) for each vec of ``vecs``, and
    the near-zero mask (the free entries before the last are all 0), over
    one representative seq of each scalar orbit {c * seq : c != 0} of the
    nonzero vectors of F_q^width behind ``zeros`` zero entries: the one
    whose first nonzero free entry is 1.  Profiles and near-zero status are
    constant on an orbit, so each leaf stands for q - 1 sequences.

    A level-order walk of the prefix trie: Berlekamp-Massey is online, so
    each prefix is stepped once and its children repeat its state.  The
    root holds the state after each view's known-zero entries, so those are
    never stepped.  The top prefixes are the nodes of the deepest level that
    fits a leaf block of field.CHUNK / 2 / width rows, or of the first whose
    subtrees do; the walk yields one leaf block per group of them, over the
    groups selected by ``tops``.
    """
    if width == 0:
        return
    bound = max(1, CHUNK // 2 // width)
    depth = 0  # until a subtree fits a block, and while the next level does
    while depth < width and (ctx.q ** (width - depth) > bound or ctx.q ** (depth + 1) <= bound):
        depth += 1
    views = [_start(ctx, zeros + width + 1 - len(v), 1) for v in vecs]
    level = np.zeros((width, 1), dtype=np.int64), views
    for j in range(depth):
        level = _expand(ctx, level, zeros, vecs, j)
    group = bound // ctx.q ** (width - depth)
    for lo in range(0, level[0].shape[1], group)[tops]:
        leaves = _take(level, slice(lo, lo + group))  # views: _expand copies before stepping
        for j in range(depth, width):
            leaves = _expand(ctx, leaves, zeros, vecs, j)
        yield (*map(_result, leaves[1]), ~leaves[0][:-1].any(axis=0))


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
