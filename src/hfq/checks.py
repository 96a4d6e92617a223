"""Exhaustive identity checks shared by the CLI and the acceptance suite.

Each check enumerates a full parameter envelope, compares an independently
computed quantity against its closed form or contract, and reports exact
pass/fail counts.  A CheckResult never hides a failure: the first few
offending instances are kept verbatim in the lines.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, List

from .errors import GUARD, HfqError, check_guard
from .field import FieldCtx, fq_vectors

if TYPE_CHECKING:
    from .variance import ThmParams

_MAX_DETAIL = 8


class CheckResult:
    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failed = 0
        self.lines: List[str] = []

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.checked > 0

    def count(self, good: bool, detail="", weight: int = 1) -> None:
        """Tally one instance that stands for ``weight`` alike.  ``detail``
        is the failure's line, or a function that builds it; a per-sequence
        check passes a function, so that a pass formats nothing."""
        self.checked += weight
        if not good:
            self.failed += weight
            if len(self.lines) < _MAX_DETAIL:
                line = detail() if callable(detail) else detail
                self.lines.append(line or "unspecified failure")

    def summary(self) -> str:
        state = "PASS" if self.ok else "FAIL"
        return f"[{state}] {self.name}: {self.checked - self.failed}/{self.checked}"


def _all_seqs(ctx: FieldCtx, n: int, h: int = 0):
    from .hankel import Seq

    return (Seq(ctx, e) for e in fq_vectors(ctx, n + 1 - h, zeros=h))


def _sizes(ns, name: str, size):
    """size(n) for each n of ``ns``, for a guard: a negative n is refused as
    the guard's pass reaches it, before any work."""
    for n in ns:
        if n < 0:
            raise HfqError(f"need {name} >= 0, got {n}")
        yield size(n)


def check_census(
    ctx: FieldCtx, ns, hs, guard: int = GUARD, workers: int = 1, rows: list = None
) -> CheckResult:
    """Class sizes: every (n, h, class) formula against the exhaustive tally,
    the per-rank aggregates, and the partition total.

    When a list is passed as ``rows`` it collects one entry per attained
    class and per rank aggregate: (n, h, kind, key, formula, enumerated).
    """
    from .census import census_enumerate, census_formula, census_formula_total

    res = CheckResult("census formulas vs enumeration")
    q = ctx.q
    for n in ns:
        n1 = (n + 2) // 2
        for h in hs:
            if h > n + 1:
                continue
            tally = census_enumerate(ctx, n, h, guard=guard, workers=workers)
            res.count(
                sum(tally.values()) == q ** (n + 1 - h),
                f"partition total off at n={n} h={h}",
            )
            by_r: dict = {}
            for (r, rho, pi), cnt in tally.items():
                by_r[r] = by_r.get(r, 0) + cnt
            for rho in range(n1 + 1):
                for pi in range(n1 + 1):
                    r = rho + pi
                    want = census_formula(n, h, r, rho, pi, q)
                    got = tally.get((r, rho, pi), 0)
                    res.count(
                        want == got,
                        f"class (n={n},h={h},r={r},rho={rho},pi={pi}): formula {want} != tally {got}",
                    )
                    if rows is not None and (want or got):
                        rows.append((n, h, "class", (r, rho, pi), want, got))
            for r in range(n1 + 2):
                want = census_formula_total(n, h, r, q)
                got = by_r.get(r, 0)
                res.count(
                    want == got,
                    f"aggregate (n={n},h={h},r={r}): formula {want} != tally {got}",
                )
                if rows is not None and (want or got):
                    rows.append((n, h, "rank", r, want, got))
    return res


def check_kernel_structure(ctx: FieldCtx, ns, guard: int = GUARD) -> CheckResult:
    """Kernel law (Heinig-Rost): for every sequence alpha_0..alpha_n with n
    in ``ns`` and every split (l+1) x (m+1), the kernel is spanned by T^i a1
    for i <= m - r and T^j a2 for j <= m - (n - r + 2).

    Decided by containment and rank: every generator lies in the kernel (the
    view times [g]_m is the sliding product odot(alpha, g, m)), and the
    generators' coefficient vectors have rank m + 1 - rank(view), the
    kernel's dimension.
    """
    from .hankel import analyze, odot, rank, row_reduce
    from .polyring import coeff_vector, gcd

    res = CheckResult("kernel structure law")
    check_guard(_sizes(ns, "n", lambda n: ctx.q ** (n + 1)), guard, "kernel-structure check")
    for n in ns:
        for seq in _all_seqs(ctx, n):
            an = analyze(seq)
            prof, cp = an.profile, an.polys
            good_pair = (
                cp.a1.is_monic
                and cp.a1.degree == prof.rho
                and (cp.a2.is_zero or gcd(cp.a1, cp.a2).degree == 0)
            )
            if not cp.a2.is_zero and cp.a2.degree > n - prof.r + 2:
                good_pair = False
            res.count(good_pair, lambda: f"pair contract broken at {seq!r}")
            for m in range(n + 1):
                gens = [cp.a1.shift(i) for i in range(m - prof.r + 1)]
                gens += [cp.a2.shift(j) for j in range(m - (n - prof.r + 2) + 1)]
                good = all(g.degree <= m and odot(seq, g, m).is_zero() for g in gens)
                if good:
                    vecs = [list(coeff_vector(g, m)) for g in gens]
                    kernel_dim = m + 1 - rank(seq, n - m + 1, m + 1)
                    good = len(row_reduce(vecs, m + 1, ctx)) == kernel_dim
                res.count(good, lambda: f"kernel mismatch at {seq!r} split {n - m + 1}x{m + 1}")
    return res


def check_quadform(ctx: FieldCtx, ls, guard: int = GUARD) -> CheckResult:
    """Squared magnitudes of both quadratic-form sums against the closed
    forms, exhaustively at each level l in ``ls``: the zero sequence on its
    own row, and every other sequence through one multiple per F_p^* orbit,
    which has the profile and the squared magnitudes of the whole orbit
    (fastpath.scalings) and so counts p - 1 times, passed or failed."""
    res = CheckResult(f"quadratic form magnitudes (q={ctx.q})")
    q = ctx.q
    work = _sizes(ls, "l", lambda l: q ** (2 * l + 1) * (q**l + q ** (l + 1)))
    check_guard(work, guard, "quadform check")
    import numpy as np

    from . import charsum, fastpath

    for l in ls:
        zero = np.zeros((1, 2 * l + 1), dtype=np.int64)
        leaves = fastpath.walk(ctx, 2 * l + 1, 0, ((1,),))
        # the zero sequence first, alone: its r, rho and strict rho are 0
        for (r, _, strict_rho), ents in chain([((zero[:, 0],) * 3, zero)], leaves):
            weight = 1 if ents is zero else ctx.p - 1
            for seqs in [zero] if ents is zero else fastpath.scalings(ctx, ents):
                for monic, side in ((False, "all"), (True, "monic")):
                    e = charsum.magsq_exponents(l, r, r - strict_rho, monic)
                    want = np.where(e >= 0, q ** np.maximum(e, 0), 0)
                    got = fastpath.magsq(fastpath.qform_counts(ctx, seqs, l, monic))
                    res.checked += weight * int((got == want).sum())
                    for i in np.flatnonzero(got != want).tolist():
                        from .hankel import Seq

                        seq = Seq(ctx, seqs[i].tolist())
                        line = f"{side}-sum magnitude at {seq!r}: {got[i]} != {want[i]}"
                        res.count(False, line, weight)
    return res


def check_reduction(ctx: FieldCtx, ns, ws=None, guard: int = GUARD) -> CheckResult:
    """Predicted characteristic and first kernel polynomial of the sliding
    products, against direct computation, over every valid width and every
    n >= 2 in ``ns`` (claim 1); and claim 2, that alpha odot [W]_s keeps the
    strict class (half, 0, half), half = (n - s)/2 + 1, when deg W = s and
    n - s is even and >= 2.  Each sequence and each reduced sequence gets
    one Berlekamp-Massey pass: reduction_profile predicts from the
    sequence's own pass."""
    from .hankel import analyze, odot, reduction_profile
    from .polyring import Poly

    res = CheckResult("sliding-product reduction law")
    if ws is None:
        ws = [
            Poly.one(ctx),
            Poly.t(ctx),
            Poly(ctx, (ctx.one, ctx.one)),
            Poly(ctx, (ctx.one, ctx.zero, ctx.one)),
        ]
    if any(w.is_zero for w in ws):
        raise HfqError("reduction windows must be non-zero")
    check_guard((ctx.q ** (n + 1) for n in ns if n >= 2), guard, "reduction check")
    for n in ns:
        for seq in _all_seqs(ctx, n) if n >= 2 else ():
            an = analyze(seq)
            prof = an.profile
            for w in ws:
                for s in range(w.degree, n + 1):
                    if n >= 2 * prof.r + s - 1:
                        pred = reduction_profile(an, w, s)
                        actual = analyze(odot(seq, w, s))
                        got = (actual.profile.standard, actual.polys.a1)
                        res.count(
                            pred == got,
                            lambda: f"claim 1 at {seq!r}, W={w!r}, s={s}: "
                            f"predicted {pred[0]}/{pred[1]!r}, got {got[0]}/{got[1]!r}",
                        )
                s = w.degree
                half = (n - s) // 2 + 1
                if n - s >= 2 and (n - s) % 2 == 0 and prof.strict == (half, 0, half):
                    got = analyze(odot(seq, w, s)).profile.strict
                    res.count(
                        got == prof.strict,
                        lambda: f"claim 2 at {seq!r}, W={w!r}: got {got}",
                    )
    return res


def check_bijection(ctx: FieldCtx, n: int, r: int, hs, guard: int = GUARD) -> CheckResult:
    """Forward map into the coprime pairs, the inverse roundtrip, injectivity,
    and both cardinalities, with one Berlekamp-Massey pass per sequence."""
    from .census import census_formula
    from .hankel import analyze, bijection_inverse, bijection_map, bijection_pairs

    res = CheckResult(f"class/pair bijection (n={n}, r={r})")
    q = ctx.q
    # sequences, then the monic-by-bounded pairs, at each h
    check_guard((q ** (n + 1 - h) + q ** (2 * r - h) for h in hs), guard, "bijection check")
    for h in hs:
        pairs = bijection_pairs(ctx, r, h)
        image = set()
        members = 0
        for seq in _all_seqs(ctx, n, h):
            an = analyze(seq)
            if an.profile.standard != (r, r, 0):
                continue
            members += 1
            a, b = bijection_map(an, h)
            back = bijection_inverse(a, b, n, h)
            res.count(
                b in pairs.get(a, ()) and back == seq,
                lambda: f"roundtrip failed at {seq!r} (h={h}) -> ({a!r}, {b!r})",
            )
            image.add((a, b))
        want = census_formula(n, h, r, r, 0, q)
        pair_set = {(a, b) for a, bs in pairs.items() for b in bs}
        res.count(
            members == want and len(image) == members and image == pair_set,
            f"counts at h={h}: class {members}, image {len(image)}, "
            f"pairs {len(pair_set)}, formula {want}",
        )
    return res


def _check_ranks(title: str, label: str, identity, ranks, par, guard) -> CheckResult:
    """One identity at every rank of its range for one point."""
    res = CheckResult(f"{title} identity (n={par.n}, h={par.h})")
    for r in ranks:
        lhs, rhs = identity(par, r, guard=guard)
        res.count(lhs == rhs, f"{label}={r}: lhs {lhs} != rhs {rhs}")
    return res


def check_kernel_sum(par: ThmParams, guard: int = GUARD) -> CheckResult:
    """kernel_sum_identity at every feasible rank for one point."""
    from . import variance

    # below h = n2 - 1 the identity has no domain: nothing to check
    ranks = par.r1_ranks() if par.h >= par.n2 - 1 else ()
    return _check_ranks("kernel-sum", "r1", variance.kernel_sum_identity, ranks, par, guard)


def check_w_sum(par: ThmParams, guard: int = GUARD) -> CheckResult:
    """w_sum_identity at every feasible rank for one point."""
    from . import variance

    return _check_ranks("w-sum", "r", variance.w_sum_identity, par.w_ranks(), par, guard)
