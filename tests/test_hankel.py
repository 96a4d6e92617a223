from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import gauss_char_polys, gauss_rhopi_form

from hfq import checks, hankel
from hfq.errors import (
    NotPiZeroError,
    PreconditionViolatedError,
    ShapeTooSmallError,
    TooLargeError,
    TooShortError,
    WidthTooSmallError,
    WrongClassError,
)
from hfq.field import ctx_new
from hfq.hankel import (
    CharPolys,
    HankelView,
    Seq,
    bijection_inverse,
    bijection_map,
    census_enumerate,
    census_formula,
    census_formula_total,
    char_polys,
    kernel_basis,
    odot,
    profile,
    rank,
    reduction_profile,
    reduction_strict_class,
    rhopi_form,
    seq_extend,
    toeplitz_mat,
)
from hfq.polyring import Poly, coeff_vector, gcd, polys_upto

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


def kernel_set(view):
    basis = kernel_basis(view)
    ctx = view.seq.ctx
    out = {(ctx.zero,) * view.cols}
    for coeffs in iter_product(range(ctx.q), repeat=len(basis)):
        vec = [ctx.zero] * view.cols
        for c, b in zip(coeffs, basis):
            for i, x in enumerate(b):
                vec[i] = (vec[i] + c * x) % ctx.p
        out.add(tuple(vec))
    return frozenset(out)


def test_view_truncation_and_entries():
    s = Seq.from_literal(F3, "0,1,2,0,1")
    v = HankelView(s, 2, 2)  # uses the truncation to alpha_0..alpha_2
    assert v.matrix() == [[0, 1], [1, 2]]
    assert v.entry(1, 1) == 2
    with pytest.raises(ValueError):
        HankelView(s, 4, 4)


def test_rank_fixtures():
    zero = Seq(F3, (0,) * 5)
    assert rank(HankelView(zero, 3, 3)) == 0
    assert len(kernel_basis(HankelView(zero, 3, 3))) == 3
    s = Seq.from_literal(F3, "0,0,0,0,1")
    assert rank(HankelView(s, 3, 3)) == 1


def test_rank_equals_min_rule():
    # rank H_{l+1,m+1} = min{r, l+1, m+1} on full-length splits
    for n in range(5):
        for s in seqs(F3, n):
            r = profile(s).r
            for l in range(n + 1):
                m = n - l
                assert rank(HankelView(s, l + 1, m + 1)) == min(r, l + 1, m + 1)


def test_profile_fixtures():
    assert profile(Seq.from_literal(F3, "0,0,0,0,1")).standard == (1, 0, 1)
    assert profile(Seq.from_literal(F3, "0,0,0,0,1")).strict == (1, 0, 1)
    assert profile(Seq.from_literal(F3, "1,0,0,0,0")).standard == (1, 1, 0)
    p = profile(Seq.from_literal(F3, "0,0,1,0,0"))
    assert p.standard == (3, 3, 0) and p.strict == (3, 0, 3)


def test_profile_invariants():
    for n in range(6):
        for s in seqs(F3, n):
            p = profile(s)
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
    from hfq.hankel import _kernel_basis_raw

    for n in range(6):
        for s in seqs(F3, n):
            p = profile(s)
            rho = p.rho
            for l in range(n + 1):
                rows, cols = l + 1, n - l + 1
                if rows < p.r or cols < p.r:
                    continue
                view = HankelView(s, rows, cols)
                mat, x = rhopi_form(view)
                if rho == 0:
                    assert mat == view.matrix()
                if rho >= 1 and 2 * rho - 1 <= n:
                    assert len(x) == rho
                if rho < rows:
                    # zero bottom-left quadrant, structured bottom-right block
                    for i in range(rho, rows):
                        assert all(v == 0 for v in mat[i][:rho])
                    block = [row[rho:] for row in mat[rho:]]
                    assert _is_lower_skew_block(block, p.pi, F3)
                # row operations preserve the kernel
                before = kernel_set(view)
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


def test_rhopi_form_shape_too_small():
    s = Seq.from_literal(F3, "0,0,1,0,0,0,0")
    assert profile(s).r == 3
    with pytest.raises(ShapeTooSmallError):
        rhopi_form(HankelView(s, 2, 6))


def test_char_polys_degenerate_fixtures():
    cp = char_polys(Seq(F3, (0,) * 5))
    assert cp.a1 == Poly.one(F3) and cp.a2.is_zero
    cp = char_polys(Seq.from_literal(F3, "1,0,0,0,0"))
    assert cp.a1 == p3(0, 1) and cp.a2 == Poly.one(F3)
    cp = char_polys(Seq.from_literal(F3, "0,0,0,0,1"))
    assert cp.a1 == Poly.one(F3) and cp.a2 == p3(0, 0, 0, 0, 0, 1)


def _char_polys_branches(seq):
    """The a1 branch and the a2 start vector char_polys takes on seq."""
    p = profile(seq)
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
            assert char_polys(s) == gauss_char_polys(s), s
            view = HankelView(s, s.n1, s.n2)
            assert rhopi_form(view) == gauss_rhopi_form(view), s
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
    assert char_polys(s) == gauss_char_polys(s)
    view = HankelView(s, s.n1, s.n2)
    assert rhopi_form(view) == gauss_rhopi_form(view)


def test_kernel_polys_need_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("Gaussian elimination reached")

    monkeypatch.setattr(hankel, "_row_reduce", refuse)
    for n in range(6):
        for s in seqs(F3, n):
            char_polys(s)
            r = profile(s).r
            for l in range(n + 1):
                if min(l + 1, n - l + 1) >= r:
                    rhopi_form(HankelView(s, l + 1, n - l + 1))


def test_kernel_structure_law_small():
    # acceptance runs n <= 6; keep the unit version quick
    for n in range(5):
        for s in seqs(F3, n):
            p = profile(s)
            cp = char_polys(s)
            assert cp.a1.is_monic and cp.a1.degree == p.rho
            if not cp.a2.is_zero:
                assert gcd(cp.a1, cp.a2).degree == 0
                assert cp.a2.degree <= n - p.r + 2
            for m in range(n + 1):
                view = HankelView(s, n - m + 1, m + 1)
                span = set()
                for b1 in polys_upto(F3, m - p.r):
                    base = b1 * cp.a1
                    for b2 in polys_upto(F3, m - (n - p.r + 2)):
                        span.add(coeff_vector(base + b2 * cp.a2, m))
                assert kernel_set(view) == frozenset(span)


@pytest.mark.parametrize(
    "ctx,n_max",
    [(F3, 4), (ctx_new(5), 3), (ctx_new(3, 2, [2, 1, 1]), 2)],
    ids=["q3", "q5", "q9"],
)
def test_check_kernel_structure_passes(ctx, n_max):
    res = checks.check_kernel_structure(ctx, n_max)
    assert res.ok, res.lines


@pytest.mark.parametrize("which", ["a1+1", "a2+1", "a2=0"])
def test_check_kernel_structure_catches_wrong_char_polys(monkeypatch, which):
    # a generator outside the kernel fails containment; a2 = 0 keeps every
    # generator inside it and fails on rank alone
    def broken(seq):
        cp = char_polys(seq)
        one = Poly.one(seq.ctx)
        if which == "a1+1":
            return CharPolys(cp.a1 + one, cp.a2, cp.canonical)
        if which == "a2+1":
            return CharPolys(cp.a1, cp.a2 + one, cp.canonical)
        return CharPolys(cp.a1, Poly.zero(seq.ctx), cp.canonical)

    monkeypatch.setattr(checks, "char_polys", broken)
    res = checks.check_kernel_structure(F3, 4)
    assert not res.ok and any("kernel mismatch" in line for line in res.lines)


def test_pi_zero_iff_nonzero_final_kernel_entry():
    for n in range(6):
        for s in seqs(F3, n):
            p = profile(s)
            for l in range(n + 1):
                m = n - l
                if l + 1 < p.r:
                    continue
                basis = kernel_basis(HankelView(s, l + 1, m + 1))
                has_final = any(v[-1] != 0 for v in basis)
                if m + 1 >= p.r + 1:
                    assert has_final == (p.pi == 0)
                if p.pi == 0 and basis:
                    vecs = kernel_set(HankelView(s, l + 1, m + 1))
                    zero_final = sum(1 for v in vecs if v[-1] == 0)
                    assert len(vecs) == 3 * zero_final


def test_last_entry_removal_remark():
    for n in (2, 4):
        for s in seqs(F3, n):
            p = profile(s)
            shorter = s.truncate(n - 1)
            ps = profile(shorter)
            if p.strict_pi >= 1:
                assert ps.strict == (p.r - 1, p.strict_rho, p.strict_pi - 1)
            else:
                assert ps.strict == p.strict
            ker_full = 3 ** (s.n1 - rank(HankelView(s, s.n1, s.n1)))
            ker_short = 3 ** (s.n1 - rank(HankelView(shorter, s.n1 - 1, s.n1)))
            if p.strict_pi >= 1:
                assert ker_full * 3 == ker_short
            else:
                assert ker_full == ker_short


def test_strict_full_class_empty_for_even_n():
    for n in (2, 4, 6):
        tally = census_enumerate(F3, n, 0)
        n1 = (n + 2) // 2
        assert (n1, n1, 0) not in tally.strict


def test_seq_extend_fixtures():
    ones = seq_extend(Seq.from_literal(F3, "1,1,1"), 3)
    assert ones.entries == (1,) * 6
    zeros = seq_extend(Seq.from_literal(F3, "1,0,0,0,0"), 2)
    assert zeros.entries == (1, 0, 0, 0, 0, 0, 0)
    s = Seq.from_literal(F3, "1,2,1,2")
    assert seq_extend(s, 4).truncate(3) == s
    with pytest.raises(NotPiZeroError):
        seq_extend(Seq.from_literal(F3, "0,0,0,0,1"), 1)


def test_seq_extend_satisfies_recurrence():
    for s in seqs(F3, 4):
        p = profile(s)
        if p.pi != 0:
            continue
        ext = seq_extend(s, 3)
        a1 = char_polys(s).a1
        out = odot(ext, a1, max(p.r, a1.degree))
        assert all(e == 0 for e in out.entries)


def test_census_fixture_n2():
    tally = census_enumerate(F3, 2, 0)
    assert tally.standard == {(0, 0, 0): 1, (1, 0, 1): 2, (1, 1, 0): 6, (2, 2, 0): 18}
    assert census_formula(2, 0, 2, 2, 0, 3) == 18
    assert census_formula(4, 0, 2, 1, 1, 3) == 12


def test_census_matches_formula_small():
    for n in range(6):
        n1 = (n + 2) // 2
        for h in range(n + 2):
            tally = census_enumerate(F3, n, h)
            assert sum(tally.standard.values()) == 3 ** (n + 1 - h)
            for rho in range(n1 + 1):
                for pi in range(n1 + 1):
                    r = rho + pi
                    assert census_formula(n, h, r, rho, pi, 3) == tally.standard.get(
                        (r, rho, pi), 0
                    )
            by_r = {}
            for (r, _, _), cnt in tally.standard.items():
                by_r[r] = by_r.get(r, 0) + cnt
            for r in range(n1 + 2):
                assert census_formula_total(n, h, r, 3) == by_r.get(r, 0)


def test_census_h_full_leaves_zero_sequence():
    tally = census_enumerate(F3, 4, 5)
    assert tally.standard == {(0, 0, 0): 1}


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
                            tally.standard.get((r, rho, pi), 0)
                        )
                for r in range(n1 + 2):
                    got = sum(c for (rr, _, _), c in tally.standard.items() if rr == r)
                    assert census_formula_total(n, h, r, ctx.q) == got


def test_census_guard_and_workers():
    with pytest.raises(TooLargeError):
        census_enumerate(F3, 8, 0, cap=100)
    serial = census_enumerate(F3, 4, 1)
    parallel = census_enumerate(F3, 4, 1, workers=2)
    assert serial.standard == parallel.standard
    assert serial.strict == parallel.strict


def test_odot_fixtures():
    s = Seq.from_literal(F3, "1,2,0,1")
    assert odot(s, Poly.one(F3), 0) == s
    out = odot(Seq.from_literal(F3, "1,1,1,1"), p3(2, 1), 1)
    assert out.entries == (0, 0, 0)
    with pytest.raises(WidthTooSmallError):
        odot(s, p3(1, 0, 1), 1)
    with pytest.raises(TooShortError):
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
                        big = HankelView(s, l, k + pad).matrix()
                        prod = [
                            [
                                sum(big[i][x] * mat[x][j] for x in range(k + pad)) % 3
                                for j in range(k)
                            ]
                            for i in range(l)
                        ]
                        assert prod == HankelView(reduced, l, k).matrix()


def test_reduction_profile_fixtures():
    s = Seq.from_literal(F3, "1,1,1,1,1,1,1")
    pred = reduction_profile(s, p3(2, 1), 1)
    assert (pred.r, pred.rho, pred.pi) == (0, 0, 0)
    assert pred.a1 == Poly.one(F3)
    ident = reduction_profile(s, Poly.one(F3), 0)
    assert (ident.r, ident.rho, ident.pi) == profile(s).standard
    assert ident.a1 == char_polys(s).a1


def test_reduction_profile_preconditions():
    s = Seq.from_literal(F3, "1,0,2,0,1")  # some rank-3 sequence
    r = profile(s).r
    bad_s = 2 * (s.n - 2 * r + 1) + 2  # force n < 2r + s - 1
    if bad_s <= s.n:
        with pytest.raises(PreconditionViolatedError):
            reduction_profile(s, Poly.one(F3), bad_s)
    with pytest.raises(PreconditionViolatedError):
        reduction_profile(s, Poly.zero(F3), 1)


def test_reduction_exhaustive_small():
    ws = [Poly.one(F3), p3(0, 1), p3(1, 1), p3(1, 0, 1)]
    for n in range(2, 5):
        for s in seqs(F3, n):
            p = profile(s)
            for w in ws:
                for pad in range(w.degree, n + 1):
                    if n < 2 * p.r + pad - 1:
                        continue
                    pred = reduction_profile(s, w, pad)
                    reduced = odot(s, w, pad)
                    actual = profile(reduced)
                    assert (pred.r, pred.rho, pred.pi) == actual.standard
                    assert pred.a1 == char_polys(reduced).a1


def test_reduction_strict_class():
    # boundary class ((n-s)/2 + 1, 0, ...) survives a full-width window
    s = Seq.from_literal(F3, "0,0,0,0,1,0,2")  # n = 6, strict class (3, 0, 3)
    assert profile(s).strict == (3, 0, 3)
    w = p3(1, 0, 1)
    pred = reduction_strict_class(s, w, 2)
    assert pred == (3, 0, 3)
    assert profile(odot(s, w, 2)).strict == pred
    with pytest.raises(PreconditionViolatedError):
        reduction_strict_class(s, Poly.one(F3), 1)  # deg W != s


def test_bijection_roundtrip_class_n6():
    count = 0
    image = set()
    for s in seqs(F3, 6, 2):
        if profile(s).standard != (3, 3, 0):
            continue
        count += 1
        a, b = bijection_map(s, 2)
        assert gcd(a, b).degree == 0 and b.degree < 1
        assert bijection_inverse(a, b, 6, 2) == s
        image.add((a, b))
    assert count == 2 * 3**3  # (q-1) q^(2r-h-1)
    assert len(image) == count


def test_bijection_errors():
    with pytest.raises(WrongClassError):
        bijection_map(Seq(F3, (0,) * 7), 0)
    from hfq.errors import NotCoprimeError

    with pytest.raises(NotCoprimeError):
        bijection_inverse(p3(0, 0, 0, 1), p3(0, 1), 6, 1)  # gcd = T
    with pytest.raises(WrongClassError):
        bijection_inverse(p3(0, 0, 0, 1), p3(1, 1, 1), 6, 1)  # deg B >= r - h
