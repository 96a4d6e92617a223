"""End-to-end acceptance: each criterion prints one pass/fail line.

The envelopes here are the authoritative ones; the unit tests cover the
same ground on smaller ranges.  Everything is exact except the two
explicitly numerical checks (the totient-ratio convergence rate and the
 asymptotic-regime smoke test), whose tolerances are fixed below.
"""

from fractions import Fraction

from oracle import interval_sum

from hfq import charsum, checks, variance
from hfq.analytic import convergence_report
from hfq.field import ctx_new
from hfq.polyring import Poly, monics
from hfq.variance import ThmParams, theorem_predict, variance_bruteforce

F3 = ctx_new(3)
F5 = ctx_new(5)

_RESULTS: dict = {}


def _record(key: str, result) -> None:
    _RESULTS[key] = result
    print(result.summary())
    for line in result.lines:
        print("    " + line)
    assert result.ok, result.summary()


def _pairs(ctx):
    one = Poly.one(ctx)
    t = Poly.t(ctx)
    u2 = Poly(ctx, (ctx.one, ctx.zero, ctx.one))
    return one, t, u2


def test_criterion_01_census():
    res = checks.check_census(F3, range(0, 8), range(0, 9))
    _record("census", res)


def test_criterion_02_kernel_structure():
    res = checks.check_kernel_structure(F3, range(7))
    _record("kernel-structure", res)


def test_criterion_03_quadratic_form_magnitudes():
    for q, l_max in charsum.QUADFORM_VERIFIED_L.items():
        _record(f"quadform-q{q}", checks.check_quadform(ctx_new(q), range(l_max + 1)))


def test_criterion_04_reduction_lemma():
    res = checks.check_reduction(F3, range(7))
    _record("reduction", res)


def test_criterion_05_bijection():
    res = checks.check_bijection(F3, 6, 3, [0, 1, 2])
    _record("bijection", res)


def test_criterion_06_variance_identity():
    res = checks.CheckResult("variance: brute force vs exact character sum")
    for ctx in (F3, F5):
        one, t, _ = _pairs(ctx)
        for n in range(1, 7):
            if ThmParams.domain_error(one, t, n, 0):
                continue
            for h in range(n + 1):
                par = ThmParams.compute(one, t, n, h)
                oracle = variance_bruteforce(par)
                cs = charsum.variance_charsum(par, mode="exact")
                res.count(
                    oracle == cs,
                    f"q={ctx.q} n={n} h={h}: oracle {oracle} != charsum {cs}",
                )
    one, t, _ = _pairs(F3)
    res.count(
        variance_bruteforce(ThmParams.compute(one, t, 2, 0)) == Fraction(40, 9),
        "fixture (2,0) != 40/9",
    )
    res.count(variance_bruteforce(ThmParams.compute(one, t, 2, 1)) == 0, "fixture (2,1) != 0")
    _record("variance-identity", res)


def _qualifying(u, v, n, label):
    out = []
    if ThmParams.domain_error(u, v, n, 0):
        return out
    for h in range(n + 1):
        if ThmParams.compute(u, v, n, h).case == label:
            out.append(h)
    return out


def test_criterion_07_case1_vanishing():
    res = checks.CheckResult("case 1: exact vanishing")
    one, t, u2 = _pairs(F3)
    for u, v in ((one, t), (u2, t)):
        for n in range(1, 9):
            for h in _qualifying(u, v, n, "case1"):
                got = variance_bruteforce(ThmParams.compute(u, v, n, h))
                res.count(got == 0, f"U={u!r} n={n} h={h}: variance {got} != 0")
    _record("case1", res)


def test_criterion_08_case2_exact():
    # the closed form carries 1/|UV|: the q^h f(n,h) assembly only matches
    # the oracle after that normalization, at every qualifying (n, h)
    res = checks.CheckResult("case 2: closed form vs brute force")
    one, t, u2 = _pairs(F3)
    v3 = Poly(F3, (F3.zero,) * 3 + (F3.one,))
    seen = 0
    for u, v in ((u2, t), (u2, v3)):
        for n in range(1, 9):
            for h in _qualifying(u, v, n, "case2"):
                par = ThmParams.compute(u, v, n, h)
                rep = theorem_predict(par)
                got = variance_bruteforce(par)
                res.count(
                    rep.theorem_value == got,
                    f"U={u!r} V={v!r} n={n} h={h}: predicted {rep.theorem_value}, oracle {got}",
                )
                seen += 1
    res.count(seen >= 4, "case-2 envelope unexpectedly empty")
    par = ThmParams.compute(u2, t, 6, 3)
    fixture = variance_bruteforce(par)
    res.count(
        fixture == theorem_predict(par).theorem_value == 24,
        f"fixture (6,3): {fixture}",
    )
    # the stated f-bound clause is vacuous on this envelope (deg V = 1 gives
    # BoundUndefined); its failure for deg >= 2 pairs is frozen in the unit
    # suite as a falsification witness.
    _record("case2", res)


def test_criterion_09_internal_identities():
    # the kernel-sum identity lives on h >= n2 - 1 (the zero strata break it
    # below; see the frozen witness in the unit suite), the w-sum identity
    # on h + 1 <= r <= min(s', t')
    res = checks.CheckResult("kernel-sum and w-sum identities")
    one, t, u2 = _pairs(F3)
    v3 = Poly(F3, (F3.zero,) * 3 + (F3.one,))
    for u, v in ((one, t), (u2, t), (u2, v3)):
        for n in range(2, 9):
            if ThmParams.domain_error(u, v, n, 0):
                continue
            for h in range(n + 1):
                par = ThmParams.compute(u, v, n, h)
                if h >= par.n2 - 1:
                    for r1 in par.r1_ranks():
                        lhs, rhs = variance.kernel_sum_identity(par, r1)
                        res.count(
                            lhs == rhs,
                            f"kernel-sum U={u!r} V={v!r} n={n} h={h} r1={r1}: {lhs} != {rhs}",
                        )
                for r in par.w_ranks():
                    lhs, rhs = variance.w_sum_identity(par, r)
                    res.count(
                        lhs == rhs,
                        f"w-sum U={u!r} V={v!r} n={n} h={h} r={r}: {lhs} != {rhs}",
                    )
    res.count(res.checked > 10, "identity envelope unexpectedly thin")
    _record("identities", res)


def test_criterion_10_phi_sum_convergence():
    res = checks.CheckResult("totient-ratio increments vs slope")
    one, t = Poly.one(F3), Poly.t(F3)
    t1 = Poly(F3, (F3.one, F3.one))
    for w2, w3 in ((one, one), (t, one), (one, t), (t1, t)):
        rep = convergence_report(w2, w3, 12)
        devs = [abs(rep.increments[k] / rep.slope - 1) for k in range(6, 13)]
        res.count(
            devs[-1] < Fraction(5, 100),
            f"W2={w2!r} W3={w3!r}: deviation {float(devs[-1]):.4f} at k=12",
        )
        res.count(
            all(b <= a for a, b in zip(devs, devs[1:])),
            f"W2={w2!r} W3={w3!r}: deviations not non-increasing {devs}",
        )
    _record("phisum", res)


def test_criterion_11_case3_smoke():
    # gated: the fast path assumes the quadratic-form and reduction laws
    assert _RESULTS["quadform-q3"].ok and _RESULTS["quadform-q5"].ok
    assert _RESULTS["reduction"].ok
    res = checks.CheckResult("asymptotic-regime smoke (n=18, h=6)")
    one, t, _ = _pairs(F3)
    par = ThmParams.compute(one, t, 18, 6)
    rep = theorem_predict(par)
    res.count(rep.case == "case3", f"classified {rep.case}")
    exact = charsum.variance_charsum(par, mode="fast")
    rep.charsum_value = exact
    scale = rep.error_scale[0] + rep.error_scale[1]
    res.count(
        abs(rep.residual) <= 10 * scale,
        f"residual {rep.residual} outside 10x scale {10 * scale}",
    )
    print(
        f"    exact {exact}, main {rep.main_term}, secondary {rep.secondary_term}, "
        f"ratio exact/main = {float(exact / rep.main_term):.4f}"
    )
    _record("case3-smoke", res)


def test_criterion_12_mean():
    res = checks.CheckResult("mean identity")
    for ctx in (F3, F5):
        one, t, u2 = _pairs(ctx)
        v3 = Poly(ctx, (ctx.zero,) * 3 + (ctx.one,))
        for u in (one, u2):
            for v in (t, v3):
                for n in range(1, 9):
                    if ThmParams.domain_error(u, v, n, 0):
                        continue
                    par = ThmParams.compute(u, v, n, 0)
                    tally = variance._binned_interval_sums(par)
                    total = int(tally.sum())
                    for h in range(n + 1):
                        want = ctx.q**n * variance.mean_formula(ThmParams.compute(u, v, n, h))
                        res.count(
                            ctx.q**h * total == want,
                            f"q={ctx.q} U={u!r} V={v!r} n={n} h={h}: "
                            f"{ctx.q ** h * total} != {want}",
                        )
    # tie the binned totals to the literal interval sums on small instances
    for ctx, nmax in ((F3, 3), (F5, 2)):
        one, t, _ = _pairs(ctx)
        for n in range(1, nmax + 1):
            for h in range(n + 1):
                total = sum(
                    interval_sum(one, t, a, h) for a in monics(ctx, n)
                )
                want = ctx.q**n * variance.mean_formula(ThmParams.compute(one, t, n, h))
                res.count(
                    total == want, f"literal q={ctx.q} n={n} h={h}: {total} != {want}"
                )
    _record("mean", res)
