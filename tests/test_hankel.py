import random
import tracemalloc
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    _kernel_basis_raw,
    gauss_char_polys,
    gauss_rhopi_form,
    kernel_basis,
    toeplitz_mat,
    walk_strict_tally,
)

from hfq import checks, cli, hankel
from hfq.census import census_enumerate, census_formula, census_formula_total
from hfq.errors import HfqError, TooLargeError
from hfq.field import ctx_new
from hfq.hankel import (
    CharPolys,
    Seq,
    analyze,
    bijection_inverse,
    bijection_map,
    hankel_matrix,
    odot,
    rank,
    reduction_profile,
)
from hfq.polyring import Poly, coeff_vector, gcd, laurent_expand, polys_upto

F3 = ctx_new(3)
F9A = ctx_new(3, 2, (1, 0, 1))
F9B = ctx_new(3, 2, (2, 1, 1))
F25 = ctx_new(5, 2, (2, 0, 1))
F27 = ctx_new(3, 3, (1, 2, 0, 1))


def seqs(ctx, n, h=0):
    free = n + 1 - h
    for tail in iter_product(range(ctx.q), repeat=free):
        yield Seq(ctx, (0,) * h + tail)


def p3(*coeffs):
    return Poly.from_ints(F3, coeffs)


def kernel_set(seq, rows, cols):
    basis = kernel_basis(seq, rows, cols)
    ctx = seq.ctx
    out = {(ctx.zero,) * cols}
    for coeffs in iter_product(range(ctx.q), repeat=len(basis)):
        vec = [ctx.zero] * cols
        for c, b in zip(coeffs, basis):
            for i, x in enumerate(b):
                vec[i] = (vec[i] + c * x) % ctx.p
        out.add(tuple(vec))
    return frozenset(out)


def test_view_truncation_and_entries():
    s = Seq.from_literal(F3, "0,1,2,0,1")
    # reads the truncation alpha_0..alpha_2
    assert hankel_matrix(s, 2, 2) == [[0, 1], [1, 2]]
    with pytest.raises(ValueError, match="exceeds the sequence"):
        hankel_matrix(s, 4, 4)
    with pytest.raises(ValueError, match="at least one row and one column"):
        hankel_matrix(s, 0, 2)


def test_rank_fixtures():
    zero = Seq(F3, (0,) * 5)
    assert rank(zero, 3, 3) == 0
    assert len(kernel_basis(zero, 3, 3)) == 3
    s = Seq.from_literal(F3, "0,0,0,0,1")
    assert rank(s, 3, 3) == 1


def test_rank_equals_min_rule():
    # rank H_{l+1,m+1} = min{r, l+1, m+1} on full-length splits
    for n in range(5):
        for s in seqs(F3, n):
            r = analyze(s).profile.r
            for l in range(n + 1):
                m = n - l
                assert rank(s, l + 1, m + 1) == min(r, l + 1, m + 1)


def test_profile_fixtures():
    assert analyze(Seq.from_literal(F3, "0,0,0,0,1")).profile.standard == (1, 0, 1)
    assert analyze(Seq.from_literal(F3, "0,0,0,0,1")).profile.strict == (1, 0, 1)
    assert analyze(Seq.from_literal(F3, "1,0,0,0,0")).profile.standard == (1, 1, 0)
    p = analyze(Seq.from_literal(F3, "0,0,1,0,0")).profile
    assert p.standard == (3, 3, 0) and p.strict == (3, 0, 3)


def test_profile_invariants():
    for n in range(6):
        for s in seqs(F3, n):
            p = analyze(s).profile
            assert p.r == p.rho + p.pi == p.strict_rho + p.strict_pi
            assert p.rho <= s.n1 and p.strict_rho <= s.n2 - 1
            z = s.leading_zeros()
            assert p.rho == 0 or p.rho >= z + 1
            assert p.strict_rho == 0 or p.strict_rho >= z + 1


def _is_lower_skew_block(block, pi, ctx):
    """Lower skew-triangular Hankel whose first non-zero skew-diagonal is the
    pi-th from the end, with a non-zero corner value."""
    rows = len(block)
    cols = len(block[0]) if rows else 0
    if rows == 0 or cols == 0:
        return pi == 0
    diag = {}
    for i in range(rows):
        for j in range(cols):
            d = i + j
            if d in diag and diag[d] != block[i][j]:
                return False
            diag[d] = block[i][j]
    top = rows + cols - 2
    nonzero = [d for d, v in diag.items() if v != ctx.zero]
    if pi == 0:
        return not nonzero
    return bool(nonzero) and min(nonzero) == top - (pi - 1)


def test_rhopi_form_shape_exhaustive():
    # square/almost-square views first, then every split wide enough for the
    # block shape (rows and cols both at least r)
    for n in range(6):
        for s in seqs(F3, n):
            p = analyze(s).profile
            rho = p.rho
            for l in range(n + 1):
                rows, cols = l + 1, n - l + 1
                if rows < p.r or cols < p.r:
                    continue
                mat, x = gauss_rhopi_form(s, rows, cols)
                if rho == 0:
                    assert mat == hankel_matrix(s, rows, cols)
                if rho >= 1 and 2 * rho - 1 <= n:
                    assert len(x) == rho
                if rho < rows:
                    # zero bottom-left quadrant, structured bottom-right block
                    for i in range(rho, rows):
                        assert all(v == 0 for v in mat[i][:rho])
                    block = [row[rho:] for row in mat[rho:]]
                    assert _is_lower_skew_block(block, p.pi, F3)
                # row operations preserve the kernel
                before = kernel_set(s, rows, cols)
                after = kernel_set_from_basis(_kernel_basis_raw(mat, cols, F3), cols)
                assert before == after


def kernel_set_from_basis(basis, cols):
    out = {(0,) * cols}
    for coeffs in iter_product(range(3), repeat=len(basis)):
        vec = [0] * cols
        for c, b in zip(coeffs, basis):
            for i, x in enumerate(b):
                vec[i] = (vec[i] + c * x) % 3
        out.add(tuple(vec))
    return frozenset(out)


def test_char_polys_degenerate_fixtures():
    cp = analyze(Seq(F3, (0,) * 5)).polys
    assert cp.a1 == Poly.one(F3) and cp.a2.is_zero
    cp = analyze(Seq.from_literal(F3, "1,0,0,0,0")).polys
    assert cp.a1 == p3(0, 1) and cp.a2 == Poly.one(F3)
    cp = analyze(Seq.from_literal(F3, "0,0,0,0,1")).polys
    assert cp.a1 == Poly.one(F3) and cp.a2 == p3(0, 0, 0, 0, 0, 1)


def _char_polys_branches(seq):
    """The a1 branch and the a2 start vector char_polys takes on seq."""
    p = analyze(seq).profile
    if p.r == 0:
        return set()
    if p.rho == 0:
        a1 = "rho = 0"
    elif 2 * p.rho - 1 <= seq.n:
        a1 = "2 rho - 1 <= n"
    else:
        a1 = "full-rank even"
    lc = hankel._lc_profile(seq.entries, seq.ctx)[0]
    return {a1, "a2 from bs" if lc[-1] == p.r else "a2 from cs"}


@pytest.mark.parametrize(
    "ctx,n_max",
    [(F3, 7), (ctx_new(5), 4), (ctx_new(7), 3), (F9A, 3), (F9B, 3), (F25, 2), (F27, 2)],
    ids=["q3", "q5", "q7", "q9a", "q9b", "q25", "q27"],
)
def test_char_polys_match_gauss_exhaustive(ctx, n_max):
    hit = set()
    for n in range(n_max + 1):
        for s in seqs(ctx, n):
            assert analyze(s).polys == gauss_char_polys(s), s
            hit |= _char_polys_branches(s)
    assert hit == {
        "rho = 0",
        "2 rho - 1 <= n",
        "full-rank even",
        "a2 from bs",
        "a2 from cs",
    }


@st.composite
def recurrent_sequences(draw):
    """Leading zeros, then a planted low-order recurrence, then a few
    overwritten entries: breaking a recurrence late is what makes pi > 0."""
    ctx = draw(st.sampled_from([ctx_new(7), ctx_new(11), ctx_new(13), F9A, F25]))
    elem = st.integers(0, ctx.q - 1)
    length = draw(st.integers(1, 20))
    zeros = draw(st.integers(0, length))
    order = draw(st.integers(0, 4))
    coeffs = draw(st.lists(elem, min_size=order, max_size=order))
    tail = draw(st.lists(elem, min_size=order, max_size=order))
    while len(tail) < length - zeros:
        acc = ctx.zero
        for c, e in zip(coeffs, tail[-order:]):
            acc = ctx.add(acc, ctx.mul(c, e))
        tail.append(ctx.neg(acc))
    entries = ([0] * zeros + tail)[:length]
    for i, e in draw(st.lists(st.tuples(st.integers(0, length - 1), elem), max_size=2)):
        entries[i] = e
    return Seq(ctx, entries)


@settings(max_examples=300)
@given(recurrent_sequences())
def test_char_polys_match_gauss_beyond_the_envelopes(s):
    assert analyze(s).polys == gauss_char_polys(s)


def test_kernel_polys_need_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("Gaussian elimination reached")

    monkeypatch.setattr(hankel, "row_reduce", refuse)
    for n in range(6):
        for s in seqs(F3, n):
            analyze(s).polys


def test_kernel_structure_law_small():
    # acceptance runs n <= 6; keep the unit version quick
    for n in range(5):
        for s in seqs(F3, n):
            an = analyze(s)
            p, cp = an.profile, an.polys
            assert cp.a1.is_monic and cp.a1.degree == p.rho
            if not cp.a2.is_zero:
                assert gcd(cp.a1, cp.a2).degree == 0
                assert cp.a2.degree <= n - p.r + 2
            for m in range(n + 1):
                span = set()
                for b1 in polys_upto(F3, m - p.r):
                    base = b1 * cp.a1
                    for b2 in polys_upto(F3, m - (n - p.r + 2)):
                        span.add(coeff_vector(base + b2 * cp.a2, m))
                assert kernel_set(s, n - m + 1, m + 1) == frozenset(span)


@pytest.mark.parametrize(
    "ctx,n_max",
    [(F3, 4), (ctx_new(5), 3), (ctx_new(3, 2, [2, 1, 1]), 2)],
    ids=["q3", "q5", "q9"],
)
def test_check_kernel_structure_passes(ctx, n_max):
    res = checks.check_kernel_structure(ctx, range(n_max + 1))
    assert res.ok, res.lines


@pytest.mark.parametrize("which", ["a1+1", "a2+1", "a2=0"])
def test_check_kernel_structure_catches_wrong_char_polys(monkeypatch, which):
    # a generator outside the kernel fails containment; a2 = 0 keeps every
    # generator inside it and fails on rank alone
    polys = hankel.Analysis.polys.func

    def broken(an):
        cp = polys(an)
        one = Poly.one(an.seq.ctx)
        if which == "a1+1":
            return CharPolys(cp.a1 + one, cp.a2, cp.canonical)
        if which == "a2+1":
            return CharPolys(cp.a1, cp.a2 + one, cp.canonical)
        return CharPolys(cp.a1, Poly.zero(an.seq.ctx), cp.canonical)

    monkeypatch.setattr(hankel.Analysis, "polys", property(broken))
    res = checks.check_kernel_structure(F3, range(5))
    assert not res.ok and any("kernel mismatch" in line for line in res.lines)


def test_pi_zero_iff_nonzero_final_kernel_entry():
    for n in range(6):
        for s in seqs(F3, n):
            p = analyze(s).profile
            for l in range(n + 1):
                m = n - l
                if l + 1 < p.r:
                    continue
                basis = kernel_basis(s, l + 1, m + 1)
                has_final = any(v[-1] != 0 for v in basis)
                if m + 1 >= p.r + 1:
                    assert has_final == (p.pi == 0)
                if p.pi == 0 and basis:
                    vecs = kernel_set(s, l + 1, m + 1)
                    zero_final = sum(1 for v in vecs if v[-1] == 0)
                    assert len(vecs) == 3 * zero_final


def test_last_entry_removal_remark():
    for n in (2, 4):
        for s in seqs(F3, n):
            p = analyze(s).profile
            shorter = Seq(F3, s.entries[:n])
            ps = analyze(shorter).profile
            if p.strict_pi >= 1:
                assert ps.strict == (p.r - 1, p.strict_rho, p.strict_pi - 1)
            else:
                assert ps.strict == p.strict
            ker_full = 3 ** (s.n1 - rank(s, s.n1, s.n1))
            ker_short = 3 ** (s.n1 - rank(shorter, s.n1 - 1, s.n1))
            if p.strict_pi >= 1:
                assert ker_full * 3 == ker_short
            else:
                assert ker_full == ker_short


def test_strict_full_class_empty_for_even_n():
    for n in (2, 4, 6):
        n1 = (n + 2) // 2
        assert (n1, n1, 0) not in walk_strict_tally(F3, n, 0)


def _extend(seq, extra):
    """seq continued by extra entries of the expansion of B/a1, B the
    bijection's numerator (Analysis.numerator): its a1 recurrence, when
    pi = 0."""
    an = analyze(seq)
    return Seq(seq.ctx, laurent_expand(an.numerator.shift(1), an.polys.a1, seq.n + extra))


def test_seq_extend_fixtures():
    ones = _extend(Seq.from_literal(F3, "1,1,1"), 3)
    assert ones.entries == (1,) * 6
    zeros = _extend(Seq.from_literal(F3, "1,0,0,0,0"), 2)
    assert zeros.entries == (1, 0, 0, 0, 0, 0, 0)
    s = Seq.from_literal(F3, "1,2,1,2")
    assert _extend(s, 4).entries[:4] == s.entries
    # with pi > 0 no recurrence of order rho spans the sequence, and the
    # expansion loses it
    s = Seq.from_literal(F3, "0,0,0,0,1")
    assert analyze(s).profile.pi > 0
    assert _extend(s, 1).entries[:5] != s.entries


def test_seq_extend_satisfies_recurrence():
    # the extension is the expansion of B/a1, which rewrites every entry: it
    # must keep the sequence as its prefix
    for ctx, n_max in ((F3, 5), (F9A, 3)):
        for n in range(n_max + 1):
            for s in seqs(ctx, n):
                an = analyze(s)
                p = an.profile
                if p.pi != 0:
                    continue
                ext = _extend(s, 3)
                assert ext.entries[: s.n + 1] == s.entries
                a1 = an.polys.a1
                out = odot(ext, a1, max(p.r, a1.degree))
                assert all(e == 0 for e in out.entries)


def test_census_fixture_n2():
    tally = census_enumerate(F3, 2, 0)
    assert tally == {(0, 0, 0): 1, (1, 0, 1): 2, (1, 1, 0): 6, (2, 2, 0): 18}
    assert census_formula(2, 0, 2, 2, 0, 3) == 18
    assert census_formula(4, 0, 2, 1, 1, 3) == 12


def test_census_matches_formula_small():
    for n in range(6):
        n1 = (n + 2) // 2
        for h in range(n + 2):
            tally = census_enumerate(F3, n, h)
            assert sum(tally.values()) == 3 ** (n + 1 - h)
            for rho in range(n1 + 1):
                for pi in range(n1 + 1):
                    r = rho + pi
                    assert census_formula(n, h, r, rho, pi, 3) == tally.get(
                        (r, rho, pi), 0
                    )
            by_r = {}
            for (r, _, _), cnt in tally.items():
                by_r[r] = by_r.get(r, 0) + cnt
            for r in range(n1 + 2):
                assert census_formula_total(n, h, r, 3) == by_r.get(r, 0)


def test_census_h_full_leaves_zero_sequence():
    tally = census_enumerate(F3, 4, 5)
    assert tally == {(0, 0, 0): 1}


def test_census_matches_formula_other_fields():
    from hfq.field import ctx_new

    for ctx, nmax in ((ctx_new(5), 3), (ctx_new(3, 2, [1, 0, 1]), 2)):
        for n in range(nmax + 1):
            n1 = (n + 2) // 2
            for h in range(n + 2):
                tally = census_enumerate(ctx, n, h)
                for rho in range(n1 + 1):
                    for pi in range(n1 + 1):
                        r = rho + pi
                        assert census_formula(n, h, r, rho, pi, ctx.q) == (
                            tally.get((r, rho, pi), 0)
                        )
                for r in range(n1 + 2):
                    got = sum(c for (rr, _, _), c in tally.items() if rr == r)
                    assert census_formula_total(n, h, r, ctx.q) == got


def test_census_guard_and_workers():
    with pytest.raises(TooLargeError):
        census_enumerate(F3, 8, 0, guard=100)
    serial = census_enumerate(F3, 4, 1)
    parallel = census_enumerate(F3, 4, 1, workers=2)
    assert serial == parallel
    assert walk_strict_tally(F3, 4, 1, workers=2) == walk_strict_tally(F3, 4, 1)


def test_odot_fixtures():
    s = Seq.from_literal(F3, "1,2,0,1")
    assert odot(s, Poly.one(F3), 0) == s
    out = odot(Seq.from_literal(F3, "1,1,1,1"), p3(2, 1), 1)
    assert out.entries == (0, 0, 0)
    with pytest.raises(HfqError, match="declared width 1 below deg W = 2"):
        odot(s, p3(1, 0, 1), 1)
    with pytest.raises(HfqError, match="sequence shorter than the sliding window"):
        odot(Seq.from_literal(F3, "1,2"), p3(1), 2)


def test_toeplitz_fixtures():
    m = toeplitz_mat(p3(0, 1), 1, 2)
    assert m == [[0, 0], [1, 0], [0, 1]]
    assert toeplitz_mat(Poly.one(F3), 0, 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_toeplitz_multiplies_by_w():
    for w in [Poly.one(F3), p3(0, 1), p3(1, 1), p3(1, 0, 1)]:
        for s in range(w.degree, w.degree + 2):
            for k in range(1, 4):
                mat = toeplitz_mat(w, s, k)
                for b in polys_upto(F3, k - 1):
                    vec = coeff_vector(b, k - 1)
                    out = [
                        sum(mat[i][j] * vec[j] for j in range(k)) % 3
                        for i in range(k + s)
                    ]
                    assert tuple(out) == coeff_vector(w * b, k + s - 1)


def test_odot_matches_toeplitz_product():
    # H_{l,k}(alpha odot [W]_s) = H_{l,k+s}(alpha) T_{k+s,k}([W]_s)
    for n in range(2, 5):
        for s in seqs(F3, n):
            for w in [p3(0, 1), p3(1, 1)]:
                for pad in range(w.degree, min(w.degree + 2, n + 1)):
                    reduced = odot(s, w, pad)
                    for l in range(1, reduced.n + 2):
                        k = reduced.n + 2 - l
                        if k < 1 or l + k - 2 > reduced.n:
                            continue
                        mat = toeplitz_mat(w, pad, k)
                        big = hankel_matrix(s, l, k + pad)
                        prod = [
                            [
                                sum(big[i][x] * mat[x][j] for x in range(k + pad)) % 3
                                for j in range(k)
                            ]
                            for i in range(l)
                        ]
                        assert prod == hankel_matrix(reduced, l, k)


def test_reduction_profile_fixtures():
    s = Seq.from_literal(F3, "1,1,1,1,1,1,1")
    an = analyze(s)
    assert reduction_profile(an, p3(2, 1), 1) == ((0, 0, 0), Poly.one(F3))
    assert reduction_profile(an, Poly.one(F3), 0) == (an.profile.standard, an.polys.a1)


def test_reduction_profile_preconditions():
    s = Seq.from_literal(F3, "1,0,2,0,1")  # some rank-3 sequence
    r = analyze(s).profile.r
    bad_s = 2 * (s.n - 2 * r + 1) + 2  # force n < 2r + s - 1
    if bad_s <= s.n:
        with pytest.raises(HfqError, match=r"need n >= max\(2, 2r \+ s - 1\)"):
            reduction_profile(analyze(s), Poly.one(F3), bad_s)
    with pytest.raises(HfqError, match="W must be non-zero"):
        reduction_profile(analyze(s), Poly.zero(F3), 1)


def test_reduction_exhaustive_small():
    ws = [Poly.one(F3), p3(0, 1), p3(1, 1), p3(1, 0, 1)]
    for n in range(2, 5):
        for s in seqs(F3, n):
            an = analyze(s)
            for w in ws:
                for pad in range(w.degree, n + 1):
                    if n < 2 * an.profile.r + pad - 1:
                        continue
                    actual = analyze(odot(s, w, pad))
                    assert reduction_profile(an, w, pad) == (
                        actual.profile.standard, actual.polys.a1
                    )


# windows of degree 0..4 for the reduction law past the exhaustive envelope
WS_BEYOND = [Poly.one(F3), p3(0, 1), p3(1, 1), p3(1, 0, 1), p3(1, 2, 0, 1), p3(2, 0, 0, 0, 1)]


def test_reduction_law_beyond_the_envelope_by_class():
    # q=3 past the exhaustive n <= 6, at the n of criterion 11 (18) and of
    # the ladder (20): members of every bijection class (r, r, 0) with
    # h = 0, 1 and 6 leading zeros, each beside a copy whose recurrence is
    # broken in one of its last three entries (pi > 0); two members each,
    # at every width s <= 4 that W's degree allows
    rng = random.Random(20)
    classes, by_width = set(), {}
    for n in (18, 20):
        for r in hankel.bijection_ranks(n):
            for h in (0, 1, 6, 0, 1, 6):
                if h >= r:
                    continue
                a = Poly(F3, (*(rng.randrange(3) for _ in range(r)), 1))
                b = Poly.zero(F3)
                while b.is_zero or gcd(a, b).degree != 0:
                    b = Poly(F3, (rng.randrange(3) for _ in range(r - h)))
                member = bijection_inverse(a, b, n, h)
                broken = list(member.entries)
                i = n - rng.randrange(3)
                broken[i] = (broken[i] + rng.randrange(1, 3)) % 3
                for seq in (member, Seq(F3, broken)):
                    an = analyze(seq)
                    prof = an.profile
                    for w in WS_BEYOND:
                        for pad in range(w.degree, 5):
                            if n < 2 * prof.r + pad - 1:
                                continue
                            actual = analyze(odot(seq, w, pad))
                            assert reduction_profile(an, w, pad) == (
                                actual.profile.standard, actual.polys.a1
                            ), (seq, w, pad)
                            classes.add(prof.standard)
                            by_width[pad] = by_width.get(pad, 0) + 1
    # every class (r, r, 0) that meets n >= 2r - 1, and classes with pi > 0
    assert {c for c in classes if c[2] == 0} == {(r, r, 0) for r in range(3, 11)}
    assert any(c[2] > 0 for c in classes)
    assert sorted(by_width) == [0, 1, 2, 3, 4]


def test_reduction_strict_class():
    # boundary class ((n-s)/2 + 1, 0, ...) survives a full-width window
    s = Seq.from_literal(F3, "0,0,0,0,1,0,2")  # n = 6, strict class (3, 0, 3)
    assert analyze(s).profile.strict == (3, 0, 3)
    w = p3(1, 0, 1)
    assert analyze(odot(s, w, 2)).profile.strict == (3, 0, 3)


def test_reduction_strict_class_beyond_the_envelope():
    # claim 2 at q=3 past the exhaustive n <= 6: for each window W of degree
    # s with n - s even, the sequences with exactly (n + s)/2 leading zeros
    # (random tails) lie in the strict class (half, 0, half), half =
    # (n - s)/2 + 1, and their sliding products against [W]_s keep it
    rng = random.Random(24)
    widths = set()
    for n in range(18, 22):
        for w in WS_BEYOND:
            s = w.degree
            if (n - s) % 2:
                continue
            half, zeros = (n - s) // 2 + 1, (n + s) // 2
            for _ in range(20):
                tail = [rng.randrange(1, 3)] + [rng.randrange(3) for _ in range(n - zeros)]
                seq = Seq(F3, [0] * zeros + tail)
                assert analyze(seq).profile.strict == (half, 0, half), seq
                assert analyze(odot(seq, w, s)).profile.strict == (half, 0, half), (seq, w)
                widths.add(s)
    assert widths == {0, 1, 2, 3, 4}


def test_check_reduction_one_pass_per_sequence(monkeypatch):
    # one Berlekamp-Massey pass per sequence and one per reduced sequence
    # checked: the predictions reuse the sequence's own pass
    lc_profile, passes = hankel._lc_profile, []

    def counting(*args, **kwargs):
        passes.append(args)
        return lc_profile(*args, **kwargs)

    monkeypatch.setattr(hankel, "_lc_profile", counting)
    res = checks.check_reduction(F3, range(6))
    assert res.ok
    assert len(passes) == sum(3 ** (n + 1) for n in range(2, 6)) + res.checked


def test_bijection_roundtrip_class_n6():
    count = 0
    image = set()
    for s in seqs(F3, 6, 2):
        if analyze(s).profile.standard != (3, 3, 0):
            continue
        count += 1
        a, b = bijection_map(analyze(s), 2)
        assert gcd(a, b).degree == 0 and b.degree < 1
        assert bijection_inverse(a, b, 6, 2) == s
        image.add((a, b))
    assert count == 2 * 3**3  # (q-1) q^(2r-h-1)
    assert len(image) == count


def test_bijection_errors():
    with pytest.raises(HfqError, match="rank 0 outside the bijection range"):
        bijection_map(analyze(Seq(F3, (0,) * 7)), 0)
    with pytest.raises(HfqError, match="components must be coprime"):
        bijection_inverse(p3(0, 0, 0, 1), p3(0, 1), 6, 1)  # gcd = T
    with pytest.raises(HfqError, match="second component must have degree < 2"):
        bijection_inverse(p3(0, 0, 0, 1), p3(1, 1, 1), 6, 1)  # deg B >= r - h


def test_profile_keeps_no_connection_polynomial_snapshots():
    # the pass holds no snapshot of c per entry (with them, it peaks near
    # 6 MB), and reading the profile forms no kernel polynomial
    rng = random.Random(4000)
    seq = Seq(F3, [rng.randrange(3) for _ in range(1000)])
    tracemalloc.start()
    try:
        analyze(seq).profile
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_char_polys_memory_is_linear():
    # the pass keeps four connection polynomials, not one per entry: with
    # every snapshot, this call peaks near 6 MB (49 MiB at 3,000 entries)
    rng = random.Random(3000)
    seq = Seq(F3, [rng.randrange(3) for _ in range(1000)])
    tracemalloc.start()
    try:
        analyze(seq).polys
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_checks_make_one_pass_per_sequence(monkeypatch):
    # one Berlekamp-Massey pass per enumerated sequence: the bijection check
    # made 35,640 here, a second pass for each class member (the reduction
    # check is pinned by test_check_reduction_one_pass_per_sequence)
    lc_profile, passes = hankel._lc_profile, []

    def counting(entries, ctx):
        passes.append(entries)
        return lc_profile(entries, ctx)

    monkeypatch.setattr(hankel, "_lc_profile", counting)
    assert checks.check_bijection(F3, 8, 4, range(4)).ok
    assert len(passes) == 3**9 + 3**8 + 3**7 + 3**6 == 29_160
    passes.clear()
    assert checks.check_kernel_structure(F3, range(7)).ok
    assert len(passes) == sum(3 ** (n + 1) for n in range(7)) == 3_279


def test_profile_and_polys_take_one_pass(monkeypatch):
    calls = []
    lc_profile = hankel._lc_profile

    def counting(*args, **kwargs):
        calls.append(args[0])
        return lc_profile(*args, **kwargs)

    monkeypatch.setattr(hankel, "_lc_profile", counting)
    assert checks.check_kernel_structure(F3, range(4)).ok
    assert len(calls) == sum(3 ** (n + 1) for n in range(4))
    seq = bijection_inverse(Poly.from_ints(F3, [1, 2, 0, 1]), Poly.one(F3), 6, 2)
    for call in (
        lambda: reduction_profile(analyze(Seq.from_literal(F3, "1,0,0,0,0,0,0,0")), Poly.t(F3), 1),
        lambda: bijection_map(analyze(seq), 2),
        lambda: cli.main(["analyze", "--q", "3", "--alpha", "0,0,1,0,0"]),
    ):
        calls.clear()
        call()
        assert len(calls) == 1
