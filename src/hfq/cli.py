"""Command-line front end: verification campaigns and machine-readable reports.

Exit codes: 0 all requested checks passed; 1 a mathematical comparison
failed (a bug or a falsified identity -- never expected on shipped
envelopes); 2 an enumeration guard tripped; 64 usage or hypothesis errors.

Polynomial flags take comma-separated coefficient literals, low-to-high
("1,0,1" is 1 + T^2); extension-field coefficients are bracketed residue
lists.  --guard sets the step cap, 10^8 by default (errors.GUARD).  Flags
are never abbreviated (--h is not --help).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import GUARD, HfqError, TooLargeError, check_guard
from .field import MAX_Q, ctx_new

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_GUARD = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _factor_prime_power(q: int):
    """(p, k) with q = p^k.  Trial division stops at MAX_Q: a q with no prime
    factor that small has no field table either, and is refused as too large."""
    if q < 2:
        raise HfqError("q must be >= 2")
    p = next((p for p in range(2, MAX_Q + 1) if q % p == 0), None)
    if p is None:
        raise TooLargeError(
            f"q = {q} has no prime factor <= {MAX_Q}; the field tables hold q^2 entries"
        )
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    if q != 1:
        raise HfqError("q must be a prime power")
    return p, k


def _build_ctx(args):
    p, k = _factor_prime_power(args.q)
    if k == 1:
        if args.modulus:
            raise HfqError(f"--modulus applies only when q = p^k, k > 1; q = {args.q} is prime")
        return ctx_new(p)
    if not args.modulus:
        raise HfqError(f"q = {args.q} needs --modulus (degree-{k} literal over F_{p})")
    return ctx_new(p, k, ctx_new(p).parse_literal(args.modulus))


def _parse_range(text: str, name: str):
    """The range N or LO..HI of the flag --name.  Every range flag counts
    a size, so an empty range or a negative bound is bad input."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise HfqError(f"bad range {text!r}; expected N or LO..HI") from None
    if lo > hi:
        raise HfqError(f"empty range {text!r}")
    if lo < 0:
        raise HfqError(f"need {name} >= 0, got {lo}")
    return range(lo, hi + 1)


def _rat(x):
    from fractions import Fraction

    if x is None:
        return None
    f = Fraction(x)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, sort_keys=True))


def _nothing_to_check(as_json: bool) -> int:
    if as_json:
        _print_json({"checked": 0, "failed": 0})
    else:
        print("nothing to check in the requested ranges")
    return EXIT_OK


def _print_result(res, as_json: bool) -> int:
    if as_json:
        _print_json(
            {"name": res.name, "checked": res.checked, "failed": res.failed, "details": res.lines}
        )
    else:
        print(res.summary())
        for line in res.lines:
            print("  " + line)
    return EXIT_OK if res.ok else EXIT_MISMATCH


def cmd_census(args) -> int:
    from . import checks

    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise HfqError(f"--workers must be in 1..{cpus}, got {args.workers}")
    ctx = _build_ctx(args)
    worst = EXIT_OK
    ns, h_range = _parse_range(args.n, "n"), _parse_range(args.h, "h")
    ranges = [(n, [h for h in h_range if h <= n + 1]) for n in ns]
    if not any(hs for _, hs in ranges):
        _nothing_to_check(args.json)
    for n, hs in ranges:
        if not hs:
            continue  # no class to count at this n
        rows: list = []
        res = checks.check_census(ctx, [n], hs, guard=args.guard, workers=args.workers, rows=rows)
        if args.json:  # a class key, a tuple, prints as a list
            fields = ("n", "h", "kind", "key", "formula", "enumerated")
            table = [dict(zip(fields, row), match=row[-2] == row[-1]) for row in rows]
            _print_json({"n": n, "rows": table, "checked": res.checked, "failed": res.failed})
        else:
            for rn, rh, kind, key, want, got in rows:
                mark = "ok" if want == got else "MISMATCH"
                print(f"n={rn} h={rh} {kind} {key}: formula {want} enumerated {got} {mark}")
            _print_result(res, False)
        worst = max(worst, EXIT_OK if res.ok else EXIT_MISMATCH)
    return worst


def _fast_envelope_ok(q: int, s_prime: int, t_prime: int) -> bool:
    """Both quadratic-form lengths, s' and t', inside the verified envelope."""
    from . import charsum

    lim = charsum.QUADFORM_VERIFIED_L.get(q)
    return lim is not None and max(s_prime, t_prime) <= lim


def cmd_variance(args) -> int:
    from . import variance
    from .polyring import Poly

    if (args.fast or args.trust_lemmas) and not args.charsum:
        raise HfqError("--fast and --trust-lemmas apply only with --charsum")
    if args.trust_lemmas and not args.fast:
        raise HfqError("--trust-lemmas applies only with --fast")
    ctx = _build_ctx(args)
    u = Poly.from_literal(ctx, args.U)
    v = Poly.from_literal(ctx, args.V)
    par = variance.ThmParams.compute(u, v, args.n, args.h)
    report = variance.theorem_predict(par, guard=args.guard)
    if args.fast and not args.trust_lemmas and not _fast_envelope_ok(
        ctx.q, par.s_prime, par.t_prime
    ):  # refused before the oracle runs
        raise HfqError(
            "--fast outside the exhaustively verified envelope; pass --trust-lemmas to proceed"
        )
    if args.oracle:
        report.oracle = variance.variance_bruteforce(par, guard=args.guard)
    if args.charsum:
        from . import charsum

        report.charsum_value = charsum.variance_charsum(
            par, mode="fast" if args.fast else "exact", guard=args.guard
        )
    payload = {
        "q": ctx.q,
        "U": u.literal(),
        "V": v.literal(),
        "n": par.n,
        "h": par.h,
        "case": report.case,
        "oracle": _rat(report.oracle),
        "charsum": _rat(report.charsum_value),
        "theorem": _rat(report.theorem_value),
        "main_term": _rat(report.main_term),
        "secondary_term": _rat(report.secondary_term),
        "error_scale": [_rat(x) for x in report.error_scale]
        if report.error_scale
        else None,
        "residual": _rat(report.residual),
    }
    _print_json(payload)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _quadform(checks, args):
    return [checks.check_quadform(_build_ctx(args), _parse_range(args.l, "l"), args.guard)]


def _kernel_structure(checks, args):
    ctx = _build_ctx(args)
    return [checks.check_kernel_structure(ctx, _parse_range(args.n, "n"), args.guard)]


def _reduction(checks, args):
    from .polyring import Poly

    ctx = _build_ctx(args)
    ws = [Poly.from_literal(ctx, w) for w in args.W] if args.W else None
    return [checks.check_reduction(ctx, _parse_range(args.n, "n"), ws, args.guard)]


def _bijection(checks, args):
    from .hankel import bijection_ranks

    if args.r < 0:
        raise HfqError(f"--r must be >= 0, got {args.r}")
    ctx = _build_ctx(args)
    hs = [h for h in _parse_range(args.h, "h") if h < args.r]
    return [
        checks.check_bijection(ctx, n, args.r, hs, args.guard)
        for n in _parse_range(args.n, "n")
        if args.r in bijection_ranks(n)
    ]


def _sums(checks, args):
    from . import variance
    from .polyring import Poly

    ctx = _build_ctx(args)
    u, v = Poly.from_literal(ctx, args.U), Poly.from_literal(ctx, args.V)
    variance.validate_pair(u, v)  # a bad pair is bad input, not an empty range
    fn = checks.check_kernel_sum if args.kind == "kernel-sum" else checks.check_w_sum
    return [
        fn(variance.ThmParams.compute(u, v, n, h), guard=args.guard)
        for n in _parse_range(args.n, "n")
        for h in _parse_range(args.h, "h")
        if variance.ThmParams.domain_error(u, v, n, h) is None
    ]


def cmd_identity(args) -> int:
    from . import checks

    results = [res for res in args.run(checks, args) if res.checked > 0]
    if not results:
        return _nothing_to_check(args.json)
    return max([_print_result(res, args.json) for res in results])


def cmd_phisum(args) -> int:
    from . import analytic
    from .polyring import Poly

    ctx = _build_ctx(args)
    w2 = Poly.from_literal(ctx, args.W2)
    w3 = Poly.from_literal(ctx, args.W3)
    if args.kmax < 0:
        raise HfqError(f"--kmax must be >= 0, got {args.kmax}")
    report = analytic.convergence_report(w2, w3, args.kmax, guard=args.guard)
    if args.json:
        _print_json(
            {
                "W2": w2.literal(),
                "W3": w3.literal(),
                "k_max": report.k_max,
                "slope": _rat(report.slope),
                "partial_sums": [_rat(s) for s in report.partial_sums],
                "increments": [_rat(s) for s in report.increments],
            }
        )
    else:
        print("k,S_num,S_den,inc_num,inc_den,slope_num,slope_den")
        for row in report.csv_rows():
            print(",".join(str(x) for x in row))
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .hankel import Seq, analyze

    ctx = _build_ctx(args)
    seq = Seq.from_literal(ctx, args.alpha)
    check_guard((seq.n + 1) ** 2, args.guard, "analyze pass")
    an = analyze(seq)
    _print_json(
        {
            "q": ctx.q,
            "alpha": [ctx.format_elem(e) for e in seq.entries],
            "n": seq.n,
            "profile": an.profile._asdict(),
            "a1": an.polys.a1.literal(),
            "a2": an.polys.a2.literal(),
            "a2_canonical": an.polys.canonical,
            "leading_zeros": seq.leading_zeros(),
        }
    )
    return EXIT_OK


def _add_common(sp, with_json: bool = False) -> None:
    sp.add_argument("--q", type=int, required=True, help="field size (prime power)")
    sp.add_argument("--modulus", help="defining polynomial over F_p when q = p^k, k > 1")
    sp.add_argument("--guard", type=int, default=GUARD, help="enumeration step cap (default 10^8)")
    if with_json:  # the commands that also print text
        sp.add_argument("--json", action="store_true", help="machine-readable output")


# Each identity kind: its runner, its help and the only flags it reads.
_IDENTITY_FLAGS = {
    "--l": dict(default="0..2", help="range"),
    "--n": dict(default="0..5", help="range"),
    "--r": dict(type=int, default=3, help="rank"),
    "--h": dict(default="0..2", help="range"),
    "--U": dict(default="1"),
    "--V": dict(default="0,1"),
    "--W": dict(action="append", help="window polynomial (repeatable)"),
}
_IDENTITY_KINDS = {
    "quadform": (_quadform, "quadratic-form magnitudes", ("--l",)),
    "kernel-structure": (_kernel_structure, "kernel structure", ("--n",)),
    "reduction": (_reduction, "reduction lemma", ("--n", "--W")),
    "bijection": (_bijection, "class/pair bijection", ("--n", "--r", "--h")),
    "kernel-sum": (_sums, "kernel-sum identity", ("--n", "--h", "--U", "--V")),
    "w-sum": (_sums, "w-sum identity", ("--n", "--h", "--U", "--V")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="hfq", description="Exact Hankel/character-sum verification")
    parser.add_argument("--version", action="version", version=f"hfq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("census", parents=[], help="class sizes vs enumeration")
    _add_common(sp, with_json=True)
    sp.add_argument("--n", required=True, help="range, e.g. 2..5")
    sp.add_argument("--h", required=True, help="range, e.g. 0..6")
    sp.add_argument("--workers", type=int, default=1, help="worker processes (1..CPU count)")
    sp.set_defaults(fn=cmd_census, parser=sp)

    sp = sub.add_parser("variance", help="oracle / character sum / closed forms")
    _add_common(sp)
    sp.add_argument("--U", required=True)
    sp.add_argument("--V", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--charsum", action="store_true")
    sp.add_argument("--fast", action="store_true", help="closed-form magnitudes")
    sp.add_argument("--trust-lemmas", action="store_true")
    sp.set_defaults(fn=cmd_variance, parser=sp)

    sp = sub.add_parser("identity", help="exhaustive checks of the supporting identities")
    kinds = sp.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind, (run, text, flags) in _IDENTITY_KINDS.items():
        kp = kinds.add_parser(kind, help=text)
        _add_common(kp, with_json=True)
        for flag in flags:
            kp.add_argument(flag, **_IDENTITY_FLAGS[flag])
        kp.set_defaults(fn=cmd_identity, run=run, parser=kp)

    sp = sub.add_parser("phisum", help="restricted totient-ratio convergence")
    _add_common(sp, with_json=True)
    sp.add_argument("--W2", required=True)
    sp.add_argument("--W3", required=True)
    sp.add_argument("--kmax", type=int, required=True)
    sp.set_defaults(fn=cmd_phisum, parser=sp)

    sp = sub.add_parser("analyze", help="profile and kernel polynomials of one sequence")
    _add_common(sp)
    sp.add_argument("--alpha", required=True, help="sequence literal, e.g. 0,0,1")
    sp.set_defaults(fn=cmd_analyze, parser=sp)

    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # refused with the usage of the subcommand that was given them
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.guard < 1:
            raise HfqError(f"--guard must be >= 1, got {args.guard}")
        return args.fn(args)
    except TooLargeError as exc:
        print(f"hfq: guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except HfqError as exc:
        print(f"hfq: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
