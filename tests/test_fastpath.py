"""The Berlekamp-Massey profiles (scalar hankel.profile and the batched
fastpath.batched_profile) against Gaussian elimination on the Hankel
squares, exhaustively on small envelopes and by property tests beyond."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfq.fastpath import batched_profile
from hfq.field import ctx_new
from hfq.hankel import HankelView, Seq, profile, rank


def gauss_profile(seq: Seq):
    """(r, rho, strict_rho) by eliminating every leading square."""
    n1, n2 = seq.n1, seq.n2
    invertible = [k for k in range(1, n1 + 1) if rank(HankelView(seq, k, k)) == k]
    r = rank(HankelView(seq, n1, n2))
    rho = max(invertible, default=0)
    strict_rho = max((k for k in invertible if k < n2), default=0)
    return r, rho, strict_rho


def bm_profile(seq: Seq):
    p = profile(seq)
    assert p.pi == p.r - p.rho and p.strict_pi == p.r - p.strict_rho
    return p.r, p.rho, p.strict_rho


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


def _scalar_r_srho(p: int, rows: np.ndarray):
    ctx = ctx_new(p)
    profs = [profile(Seq(ctx, tuple(int(x) for x in row))) for row in rows]
    return [pr.r for pr in profs], [pr.strict_rho for pr in profs]


@pytest.mark.parametrize("p,len_max", [(3, 10), (5, 7), (7, 5)], ids=["q3", "q5", "q7"])
def test_batched_profile_matches_scalar_exhaustive(p, len_max):
    for m in range(1, len_max + 1):
        rows = np.array(list(product(range(p), repeat=m)), dtype=np.int64)
        r, srho = batched_profile(rows, p)
        want_r, want_srho = _scalar_r_srho(p, rows)
        assert r.tolist() == want_r
        assert srho.tolist() == want_srho


@st.composite
def sequences(draw):
    p = draw(st.sampled_from([7, 11, 13]))
    length = draw(st.integers(1, 24))
    zeros = draw(st.integers(0, length))
    tail = draw(st.lists(st.integers(0, p - 1), min_size=length - zeros, max_size=length - zeros))
    return p, [0] * zeros + tail


@settings(max_examples=300)
@given(sequences())
def test_profiles_agree_beyond_the_envelopes(case):
    p, entries = case
    seq = Seq(ctx_new(p), entries)
    r, rho, strict_rho = gauss_profile(seq)
    assert bm_profile(seq) == (r, rho, strict_rho)
    br, bsrho = batched_profile(np.array([entries], dtype=np.int64), p)
    assert (br[0], bsrho[0]) == (r, strict_rho)


def test_batched_profile_fixtures():
    rows = np.array([[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0] * 5])
    r, srho = batched_profile(rows, 3)
    assert r.tolist() == [1, 1, 3, 0]
    assert srho.tolist() == [0, 1, 0, 0]
