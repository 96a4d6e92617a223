"""One exact int64 numpy engine for the exhaustive enumerations over F_q.

Prime and extension fields are served alike: elements are the int codes of
hfq.field, and every operation is a gather from a table derived, on first
use, from the FieldCtx's tables.  A sum of products is one gather from the
fused table pack[mul], whose entry for a product holds its residue digits
at base W = terms * (p - 1) + 1; an integer sum of at most ``terms`` entries
carries no digit into the next, so it unpacks digit by digit (mod p) to the
F_q sum.  Over a prime field pack is the identity: this is sum(c * s) mod p.

The functions work on [N, m] blocks of codes: walk profiles all of
F_q^width up to scalars with one Berlekamp-Massey step per trie prefix
(depth first, each step on about half a block of prefixes), scalings
reaches each F_p^* orbit inside an F_q^* orbit, odot batches hankel.odot,
qform_counts tallies the character sums of Hankel quadratic forms, and
magsq takes their squared magnitudes.  The scalar hankel routines and the
block enumerator, unreduced batched profile and literal character sum in
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
    code = sums % base % ctx.p
    for j in range(1, ctx.k):
        sums = sums // base
        code += sums % base % ctx.p * ctx.p**j
    return code


def _start(ctx: FieldCtx, m: int, n_cols: int) -> list:
    """The Berlekamp-Massey state of n_cols length-m sequences before step 0:
    [c, bs buffer, entries reversed, b, L, rho], one sequence per column.
    It is also the state after any number of zero entries (c = 1, L = 0,
    and the window of bs moves with the step index)."""
    c = np.zeros((m + 1, n_cols), dtype=np.int64)
    c[0] = ctx.q
    buf = np.zeros_like(c)
    buf[m] = ctx.q
    nil = np.zeros(n_cols, dtype=np.int64)
    return [c, buf, np.zeros((m, n_cols), dtype=np.int64), nil + 1, nil, nil]


def _discrepancy(ctx: FieldCtx, state: list, i: int, cols, entry: np.ndarray) -> np.ndarray:
    """The discrepancy d_i = x_i + sum_{j >= 1} c_j x_{i-j} (c_0 = 1) of
    the columns ``cols`` of a state that has seen x_0..x_{i-1}, on their
    entries x_i.  The sum over j >= 1 is taken once per state column, so
    the children of a trie node share it and add only their own x_i.  The
    entries are kept reversed: x_{i-j} is row m - 1 - i + j, and the sum
    adds whole rows."""
    c, _, rev, _, length, _ = state
    m = len(rev)
    base, pack_mul = _packed(ctx, m)
    top = length.max(initial=0) + 1  # deg c <= L <= i
    earlier = pack_mul[c[1:top] + rev[m - i : m - 1 - i + top]].sum(axis=0)
    return _unpack(ctx, earlier[cols] + pack_mul[ctx.q + entry], base)


def _rule(i: int, d: np.ndarray, length: np.ndarray, rho: np.ndarray):
    """(grow, L, rho) after Berlekamp-Massey step i with discrepancy d: L
    grows to i + 1 - L where d != 0 and 2L <= i, and at an even step the
    leading k x k square, k = i / 2 + 1, is invertible iff L = k."""
    grow = (d != 0) & (2 * length <= i)
    length = np.where(grow, i + 1 - length, length)
    if i % 2 == 0:  # k <= n1 = (m + 1) // 2 for top index n = m - 1
        rho = np.where(length == i // 2 + 1, i // 2 + 1, rho)
    return grow, length, rho


def _step(ctx: FieldCtx, state: list, i: int, entry: np.ndarray, d: np.ndarray) -> None:
    """Berlekamp-Massey step i of every column of a _start state, on the
    columns' entries x_i and their discrepancies d (_discrepancy).

    c and bs = x^shift * B hold codes times q, ready to index a table row.
    Before step i neither c nor bs has a nonzero coefficient past i + 1, so
    only those rows are touched.  bs is a window on a zero buffer whose
    origin is row m - 1 - i at step i: that is the shift.
    """
    mul, sub_q, inv, _ = _tables(ctx)
    c, buf, rev, b = state[:4]
    origin, w = len(rev) - 1 - i, i + 2
    rev[origin] = entry
    bs = buf[origin:]
    grow, state[4], state[5] = _rule(i, d, *state[4:])
    new = sub_q[c[:w] + mul[bs + mul[d * ctx.q + inv[b]]]]
    np.copyto(bs, c[:w], where=grow)
    c[:w] = new
    state[3] = np.where(grow, d, b)


def _take(level, cols):
    """The trie nodes ``cols`` of a level (entries, one state per view)."""
    return level[0][:, cols], [[a[..., cols] for a in state] for state in level[1]]


def _expand(ctx: FieldCtx, level, zeros: int, vecs, j: int):
    """The children of every node of a trie level: free entry j appended,
    where the all-zero prefix has only the children 0 and 1 (1 alone at the
    last level).  A view steps once its next entry x_i is known, each node
    taking its children's share of the discrepancy once.  At the last
    entry a leaf applies only the rule, since r, rho and strict rho need no
    polynomial, and holds the view's (r, rho, strict_rho) in place of a
    state: r = min(L, m + 1 - L), and strict rho is rho before the step."""
    (width, n_cols), q = level[0].shape, ctx.q
    idx, new = np.repeat(np.arange(n_cols), q), np.tile(np.arange(q), n_cols)
    keep = level[0][:j].any(axis=0)[idx] | (new == 1) | (new == 0) & (j < width - 1)
    idx = idx[keep]
    ents = level[0][:, idx]
    ents[j] = new[keep]
    views = []
    for vec, state in zip(vecs, level[1]):
        lo = j + 1 - len(vec)  # x_i = sum_t vec_t seq_{i+t}, seq_{i+t} = ents[lo + t]
        i = lo + zeros
        if i < 0:  # the view's first entry x_0 ends past free entry j
            views.append([a[..., idx] for a in state])
            continue
        win = ents[max(lo, 0) : j + 1]
        entry = odot(ctx, win.T, vec[len(vec) - len(win) :])[:, 0]
        d = _discrepancy(ctx, state, i, idx, entry)
        if j == width - 1:
            strict_rho = state[5][idx]
            _, length, rho = _rule(i, d, state[4][idx], strict_rho)
            views.append((np.minimum(length, i + 2 - length), rho, strict_rho))
        else:
            views.append([a[..., idx] for a in state])
            _step(ctx, views[-1], i, entry, d)
    return ents, views


def walk(ctx: FieldCtx, width: int, zeros: int, vecs, tops=slice(None)):
    """(r, rho, strict_rho) of odot(seq, vec) for each vec of ``vecs``, and
    the free entries of seq ([N, width]), over one representative seq of
    each scalar orbit {c * seq : c != 0} of the nonzero vectors of F_q^width
    behind ``zeros`` zero entries: the one whose first nonzero free entry
    is 1.  Profiles are constant on an orbit, so each leaf stands for q - 1
    sequences; where a caller needs more than the profiles, scalings takes
    a leaf to one multiple per F_p^* orbit inside its own.

    A depth-first walk of the prefix trie: Berlekamp-Massey is online, so
    each prefix is stepped once and its children repeat its state, except
    the leaves, which take only the last step's rule and copy no state
    (_expand).  The root holds the state after each view's known-zero
    entries, so those are never stepped.  Leaf blocks hold at most
    field.CHUNK / 2 / width rows (at least one).  The walk expands whole
    levels while they hold at most take = block / 2q nodes; the first level
    past that is the top level, whose nodes ``tops`` selects.  From there
    on it expands ``take`` nodes of the current level at a time, so each
    step runs on about half a block.  The path it descends holds one level
    per depth, each with every view's full state per node: a whole block
    per level would raise the peak memory of small walks for little speed.
    """
    if width == 0:
        return
    bound = max(1, CHUNK // 2 // width)
    take = max(1, bound // (2 * ctx.q))
    level = np.zeros((width, 1), dtype=np.int64), [
        _start(ctx, zeros + width + 1 - len(v), 1) for v in vecs
    ]
    j = 0
    while j < width and level[0].shape[1] <= take:
        level, j = _expand(ctx, level, zeros, vecs, j), j + 1
    yield from _descend(ctx, _take(level, tops), j, zeros, vecs, bound, take)


def _descend(ctx: FieldCtx, level, j: int, zeros: int, vecs, bound: int, take: int):
    """The leaf blocks below a trie level whose next free entry is j, each
    of at most ``bound`` rows, as walk yields them, expanding ``take`` nodes
    at a time."""
    n_cols, width = level[0].shape[1], len(level[0])
    if j == width:
        for lo in range(0, n_cols, bound):
            leaves = _take(level, slice(lo, lo + bound))
            yield (*leaves[1], leaves[0].T)
        return
    for lo in range(0, n_cols, take):  # _expand copies before stepping
        children = _expand(ctx, _take(level, slice(lo, lo + take)), zeros, vecs, j)
        yield from _descend(ctx, children, j + 1, zeros, vecs, bound, take)


def scalings(ctx: FieldCtx, block: np.ndarray):
    """c * block for one c per coset of F_p^* in F_q^*: the c whose lowest
    nonzero residue digit is 1, (q - 1) / (p - 1) of them (c = 1 alone over
    a prime field).  For a in F_p^*, the psi-exponent histogram of a * x is
    that of x permuted by j -> a j mod p, so the sums of a * x are Galois
    conjugates of those of x and have the same squared magnitude, a
    rational integer (magsq asserts it): an F_q^* orbit sums as p - 1 times
    its scalings."""
    p, mul = ctx.p, _tables(ctx)[0]
    for j in range(ctx.k):
        for t in range(p ** (ctx.k - 1 - j)):  # c = p^j (1 + p t): lowest nonzero digit j
            c = p**j * (1 + p * t)
            yield block if c == 1 else mul[c * ctx.q + block]


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
