"""The engine in hfq.fastpath against its oracles: the Berlekamp-Massey
profiles (scalar hankel.analyze and the unreduced batched profile of
oracle.py) against Gaussian elimination on the Hankel squares, the
trace-form character tallies against the literal sum, the oracle's block
enumerator against fq_vectors, the prefix-trie walk against the unreduced
block loops (fast and exact variance_charsum), the orbit law behind
fastpath.scalings, and the census tally and the walk's strict classes
against a scalar-profile tally; exhaustively on small envelopes and by
property tests beyond."""

import random
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle import (
    batched_profile,
    blocks,
    exact_variance_unreduced,
    fast_variance_unreduced,
    gauss_profile,
    value_counts_scalar,
    walk_strict_tally,
)

from hfq import fastpath
from hfq.census import census_enumerate
from hfq.charsum import variance_charsum
from hfq.errors import HfqError
from hfq.field import CHUNK, ctx_new, fq_vectors
from hfq.hankel import Seq, analyze
from hfq.polyring import Poly, gcd
from hfq.variance import ThmParams

F9A = ctx_new(3, 2, (1, 0, 1))
F9B = ctx_new(3, 2, (2, 1, 1))
F25 = ctx_new(5, 2, (2, 0, 1))
F27 = ctx_new(3, 3, (1, 2, 0, 1))


def bm_profile(seq: Seq):
    p = analyze(seq).profile
    assert p.pi == p.r - p.rho and p.strict_pi == p.r - p.strict_rho
    return p.r, p.rho, p.strict_rho


def engine_profile(ctx, rows):
    """The batched profile of a block, as one (r, rho, strict_rho) per row."""
    return list(zip(*(x.tolist() for x in batched_profile(ctx, np.array(rows, dtype=np.int64)))))


@pytest.mark.parametrize(
    "ctx,n_max",
    [(ctx_new(3), 8), (ctx_new(5), 5), (ctx_new(3, 2, (1, 0, 1)), 3)],
    ids=["q3", "q5", "q9"],
)
def test_scalar_profile_matches_gauss_exhaustive(ctx, n_max):
    elems = list(ctx.elements())
    for n in range(n_max + 1):
        for entries in product(elems, repeat=n + 1):
            seq = Seq(ctx, entries)
            assert bm_profile(seq) == gauss_profile(seq), entries


@pytest.mark.parametrize(
    "ctx,len_max",
    [
        (ctx_new(3), 10),
        (ctx_new(5), 7),
        (ctx_new(7), 5),
        (F9A, 5),
        (F9B, 5),
        (F25, 3),
        (F27, 3),
    ],
    ids=["q3", "q5", "q7", "q9a", "q9b", "q25", "q27"],
)
def test_batched_profile_matches_scalar_exhaustive(ctx, len_max):
    for m in range(1, len_max + 1):
        rows = list(fq_vectors(ctx, m))
        want = [bm_profile(Seq(ctx, row)) for row in rows]
        assert engine_profile(ctx, rows) == want, (ctx, m)


_PROPERTY_FIELDS = [
    ctx_new(7),
    ctx_new(11),
    ctx_new(13),
    F9A,
    F25,
    F27,
    ctx_new(7, 2, (1, 0, 1)),
    ctx_new(5, 3, (1, 1, 0, 1)),
    ctx_new(13, 2, (2, 0, 1)),
]


@st.composite
def sequences(draw):
    ctx = draw(st.sampled_from(_PROPERTY_FIELDS))
    length = draw(st.integers(1, 24))
    zeros = draw(st.integers(0, length))
    tail = draw(
        st.lists(st.integers(0, ctx.q - 1), min_size=length - zeros, max_size=length - zeros)
    )
    return ctx, [0] * zeros + tail


@settings(max_examples=300)
@given(sequences())
def test_profiles_agree_beyond_the_envelopes(case):
    ctx, entries = case
    seq = Seq(ctx, entries)
    want = gauss_profile(seq)
    assert bm_profile(seq) == want
    assert engine_profile(ctx, [entries]) == [want]


def test_batched_profile_fixtures():
    rows = [[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0] * 5]
    r, rho, strict_rho = batched_profile(ctx_new(3), np.array(rows))
    assert r.tolist() == [1, 1, 3, 0]
    assert rho.tolist() == [0, 1, 3, 0]
    assert strict_rho.tolist() == [0, 1, 0, 0]


@pytest.mark.parametrize(
    "ctx,width,zeros",
    [
        (ctx_new(3), 10, 0),
        (ctx_new(3), 9, 2),
        (ctx_new(5), 1, 3),
        (ctx_new(3), 0, 4),
        (F9B, 4, 1),
    ],
    ids=["q3", "q3-zeros", "q5-width1", "width0", "q9"],
)
def test_blocks_concatenate_to_fq_vectors(ctx, width, zeros):
    got = list(blocks(ctx, width, zeros))
    assert all(len(b) * width <= CHUNK // 2 for b in got)
    rows = [tuple(row) for b in got for row in b.tolist()]
    assert rows == list(fq_vectors(ctx, width, zeros=zeros))


@pytest.mark.parametrize(
    "ctx",
    [ctx_new(3), ctx_new(5), F9A, F9B, F25, F27],
    ids=["q3", "q5", "q9a", "q9b", "q25", "q27"],
)
def test_qform_counts_match_literal_sum(ctx):
    # every sequence where there are few, a seeded sample where there are many
    rng = random.Random(ctx.q)
    for l in range(3):
        if ctx.q ** (2 * l + 1) <= 3125:
            rows = list(fq_vectors(ctx, 2 * l + 1))
        else:
            rows = [tuple(rng.randrange(ctx.q) for _ in range(2 * l + 1)) for _ in range(4)]
            rows.append((0,) * 2 * l + (1,))
        for monic in (False, True):
            got = fastpath.qform_counts(ctx, np.array(rows), l, monic).tolist()
            want = [value_counts_scalar(Seq(ctx, row), l, monic) for row in rows]
            assert got == want, (ctx, l, monic)


@pytest.mark.parametrize("ctx,l", [(ctx_new(3), 3), (F9B, 2)], ids=["q3", "q9"])
def test_qform_counts_stream_in_small_chunks(ctx, l, monkeypatch):
    # a tiny CHUNK splits both the rows and the family of E into many pieces
    rows = np.array(list(islice(fq_vectors(ctx, 2 * l + 1), 40)))
    want = {m: fastpath.qform_counts(ctx, rows, l, m) for m in (False, True)}
    sizes = []
    make_pairs = fastpath._qform_pairs

    def recording_pairs(*args):
        pairs = make_pairs(*args)
        sizes.append(pairs.size)
        return pairs

    monkeypatch.setattr(fastpath, "CHUNK", 64)
    monkeypatch.setattr(fastpath, "_qform_pairs", recording_pairs)
    for monic in (False, True):
        assert (fastpath.qform_counts(ctx, rows, l, monic) == want[monic]).all()
    dim_sq = (ctx.k * (l + 1)) ** 2
    assert len(sizes) > 2 and max(sizes) <= max(64, dim_sq)


def test_qform_counts_of_no_rows_builds_nothing(monkeypatch):
    def no_pairs(*args):
        raise AssertionError("the family of E was built for an empty block")

    monkeypatch.setattr(fastpath, "_qform_pairs", no_pairs)
    empty = np.zeros((0, 29), dtype=np.int64)
    assert fastpath.qform_counts(ctx_new(3), empty, 14, True).shape == (0, 3)


def _scalar_tally(ctx, n, h):
    standard, strict = {}, {}
    for entries in fq_vectors(ctx, n + 1 - h, zeros=h):
        prof = analyze(Seq(ctx, entries)).profile
        standard[prof.standard] = standard.get(prof.standard, 0) + 1
        strict[prof.strict] = strict.get(prof.strict, 0) + 1
    return standard, strict


@pytest.mark.parametrize(
    "ctx,n_max", [(ctx_new(3), 6), (ctx_new(5), 4), (F9A, 2)], ids=["q3", "q5", "q9"]
)
def test_census_tally_matches_scalar_profile(ctx, n_max):
    for n in range(n_max + 1):
        for h in range(n + 2):
            standard, strict = _scalar_tally(ctx, n, h)
            tally = census_enumerate(ctx, n, h)
            assert tally == standard, (n, h)
            assert all(type(c) is int for c in tally.values())
            assert walk_strict_tally(ctx, n, h) == strict, (n, h)


@pytest.mark.parametrize(
    "ctx,n_max", [(ctx_new(3), 6), (ctx_new(5), 4), (F9B, 2)], ids=["q3", "q5", "q9"]
)
def test_census_workers_agree(ctx, n_max):
    for n in range(n_max - 1, n_max + 1):
        for h in range(0, n + 2, 2):
            standard, strict = _scalar_tally(ctx, n, h)
            one = census_enumerate(ctx, n, h)
            two = census_enumerate(ctx, n, h, workers=2)
            assert one == two == standard, (n, h)
            assert walk_strict_tally(ctx, n, h, workers=2) == strict, (n, h)


def _valid_cases(ctx, n_max):
    """The point of every valid (U, V, n, h) with U in {1, T^2 + 1}, V in
    {T + c} and V = T^3 + T + 1, n <= n_max."""
    us = [Poly.one(ctx), Poly(ctx, (1, 0, 1))]
    vs = [Poly(ctx, (c, 1)) for c in range(ctx.q)] + [Poly(ctx, (1, 1, 0, 1))]
    for u in us:
        for v in vs:
            for n in range(n_max + 1):
                for h in range(n + 1):
                    try:
                        par = ThmParams.compute(u, v, n, h)
                    except HfqError:
                        continue
                    yield par


@pytest.mark.parametrize(
    "ctx,n_max",
    [(ctx_new(3), 8), (ctx_new(5), 5), (ctx_new(7), 4), (F9A, 3), (F9B, 3), (F25, 2), (F27, 2)],
    ids=["q3", "q5", "q7", "q9a", "q9b", "q25", "q27"],
)
def test_fast_variance_matches_unreduced_loop(ctx, n_max):
    cases = list(_valid_cases(ctx, n_max))
    assert len({(par.n, par.h) for par in cases}) == n_max * (n_max + 3) // 2  # n >= 1
    for par in cases:
        assert variance_charsum(par, "fast") == fast_variance_unreduced(par), par


@pytest.mark.parametrize(
    "ctx,n_max",
    [(ctx_new(3), 7), (ctx_new(5), 4), (ctx_new(7), 3), (F9A, 3), (F9B, 2), (F25, 1), (F27, 1)],
    ids=["q3", "q5", "q7", "q9a", "q9b", "q25", "q27"],
)
def test_exact_variance_matches_unreduced_loop(ctx, n_max):
    for par in _valid_cases(ctx, n_max):
        assert variance_charsum(par, "exact") == exact_variance_unreduced(par), par


@pytest.mark.parametrize("ctx", [ctx_new(7), F9A, F25, F27], ids=["q7", "q9", "q25", "q27"])
def test_qform_counts_permute_under_prime_field_scalars(ctx):
    # the psi-exponent histogram of a * x is that of x moved by j -> a j mod p
    rng = np.random.default_rng(ctx.q)
    mul = np.array(ctx.mul_table)
    for l in range(3):
        block = rng.integers(0, ctx.q, size=(12, 2 * l + 1))
        for monic in (False, True):
            counts = fastpath.qform_counts(ctx, block, l, monic)
            for a in range(1, ctx.p):
                moved = fastpath.qform_counts(ctx, mul[a][block], l, monic)
                assert (moved[:, a * np.arange(ctx.p) % ctx.p] == counts).all(), (l, monic, a)


@pytest.mark.parametrize(
    "ctx",
    [ctx_new(3), ctx_new(7), F9A, F9B, F25, F27, ctx_new(5, 3, (1, 1, 0, 1))],
    ids=["q3", "q7", "q9a", "q9b", "q25", "q27", "q125"],
)
def test_scalings_meet_each_prime_field_coset_once(ctx):
    cs = [int(b[0, 0]) for b in fastpath.scalings(ctx, np.ones((1, 1), dtype=np.int64))]
    assert len(cs) == (ctx.q - 1) // (ctx.p - 1)
    assert sorted(ctx.mul(a, c) for c in cs for a in range(1, ctx.p)) == list(range(1, ctx.q))


@pytest.mark.parametrize("chunk", [2, 60, 200, 400, 700, 1296, 3000, 8000, 20000, 40000])
def test_walk_blocking_leaves_results_unchanged(chunk, monkeypatch):
    # the top level is the first with more than take = leaf block / 6
    # nodes: level 1, 1, 2, 2, 3, 3, 4, 5, 6 or 7 of the 8; the descent
    # splits every level below it
    f3, width = ctx_new(3), 8
    par = ThmParams.compute(Poly.one(f3), Poly.from_ints(f3, [1, 1]), 9, 2)
    want = variance_charsum(par, "fast")
    census, strict = census_enumerate(f3, 7, 0), walk_strict_tally(f3, 7, 0)
    monkeypatch.setattr(fastpath, "CHUNK", chunk)
    ents = [out[-1] for out in fastpath.walk(f3, width, 0, ((1,),))]
    sizes = [len(e) for e in ents]
    assert all(e.shape == (len(e), width) for e in ents)
    assert sum(sizes) == (3**width - 1) // 2
    assert len(sizes) > 1 and max(sizes) <= max(1, chunk // 2 // width)
    assert variance_charsum(par, "fast") == want
    assert census_enumerate(f3, 7, 0) == census
    assert walk_strict_tally(f3, 7, 0) == strict


@pytest.mark.parametrize(
    "ctx,width,zeros,chunk",
    [(ctx_new(3), 9, 2, 1000), (ctx_new(3), 7, 0, 2), (ctx_new(5), 5, 1, 400), (F9A, 4, 0, 300)],
    ids=["q3", "q3-bound1", "q5", "q9"],
)
def test_walk_levels_stay_within_a_block(ctx, width, zeros, chunk, monkeypatch):
    # every trie level the walk builds holds at most half a leaf block of
    # nodes (q when that is narrower than q), and each prefix is built once
    built = []

    def expand(*args):
        level = real(*args)
        built.append(level[0].shape[1])
        return level

    real = fastpath._expand
    monkeypatch.setattr(fastpath, "CHUNK", chunk)
    monkeypatch.setattr(fastpath, "_expand", expand)
    vecs = ((1,), (0, 1, 0))
    rows = []
    for prof, prof_mid, ents in fastpath.walk(ctx, width, zeros, vecs):
        # each leaf's profiles are those of its free entries behind the zeros
        seqs = np.pad(ents, ((0, 0), (zeros, 0)))
        for got, want in zip((prof, prof_mid), (seqs, fastpath.odot(ctx, seqs, (0, 1, 0)))):
            assert all((g == w).all() for g, w in zip(got, batched_profile(ctx, want)))
        rows += map(tuple, ents.tolist())
    leaves = len(rows)
    bound = max(1, chunk // 2 // width)
    assert max(built) <= max(bound // 2, ctx.q)
    nodes = [1 + (ctx.q**j - 1) // (ctx.q - 1) for j in range(1, width)]  # 0 or first entry 1
    assert sum(built) == sum(nodes) + leaves and leaves == (ctx.q**width - 1) // (ctx.q - 1)
    # the leaves are the nonzero vectors whose first nonzero entry is 1, each once
    reps = [vec for vec in fq_vectors(ctx, width) if any(vec) and next(x for x in vec if x) == 1]
    assert sorted(rows) == sorted(reps)


_TALLY_FIELDS = [ctx_new(3), ctx_new(5), ctx_new(7), ctx_new(11), F9A, F9B, F25, F27]


@st.composite
def tally_cases(draw):
    ctx = draw(st.sampled_from(_TALLY_FIELDS))
    u, v = (
        Poly(ctx, tuple(draw(st.lists(st.integers(0, ctx.q - 1), min_size=d, max_size=d))) + (1,))
        for d in (draw(st.sampled_from([0, 2])), draw(st.sampled_from([1, 3])))
    )
    n = draw(st.integers(4, 22))
    width = 1
    while ctx.q ** (width + 1) <= 3000 and width <= n:
        width += 1
    h = n + 1 - draw(st.integers(1, width))
    return u, v, n, h


@settings(max_examples=60, deadline=None)
@given(tally_cases())
def test_fast_variance_matches_unreduced_loop_beyond_the_envelopes(case):
    u, v, n, h = case
    assume(gcd(u, v).degree == 0)
    par = ThmParams.compute(u, v, n, h)
    assert variance_charsum(par, "fast") == fast_variance_unreduced(par)
