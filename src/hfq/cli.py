"""Command-line front end: verification campaigns and machine-readable reports.

Exit codes: 0 all requested checks passed; 1 a mathematical comparison
failed (a bug or a falsified identity -- never expected on shipped
envelopes); 2 an enumeration guard tripped; 64 usage or hypothesis errors.

Polynomial flags take comma-separated coefficient literals, low-to-high
("1,0,1" is 1 + T^2); extension-field coefficients are bracketed residue
lists.  --guard sets the step cap, 10^8 by default (errors.GUARD).

argv is read against one table, _COMMANDS (identity's flags come from
_IDENTITY_KINDS).  --flag=value and --flag value read alike: a value flag
takes the next word unless it starts with --, so --n -2..1 reads -2..1.
--W may repeat; any other flag keeps its last value.  Flags are never
abbreviated (--h is not --help).  A usage error prints the command's usage
and exits 64; -h, --help and --version exit 0, all through SystemExit.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import __version__
from .errors import GUARD, HfqError, TooLargeError, check_guard, power_count
from .field import MAX_Q, ctx_new

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_GUARD = 2
EXIT_USAGE = 64


def _build_ctx(args):
    """F_q of --q and --modulus.  Trial division stops at MAX_Q: a q with no prime
    factor that small has no field table either, and is refused as too large."""
    q = args.q
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
    if x is None:
        return None
    return {"num": str(x.numerator), "den": str(x.denominator)}


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
    # h <= n + 1 has a class to count: walk only the n and h that do
    ns = range(max(ns.start, h_range.start - 1), ns.stop)
    if not ns:
        return _nothing_to_check(args.json)
    # one guard over every (n, h), of q^lo..q^hi sequences each, before any runs
    lo, hi = max(ns.start + 1 - h_range[-1], 0), ns[-1] + 1 - h_range.start
    sizes = (power_count(ctx.q, n + 1 - h, args.guard)
             for n in ns for h in range(h_range.start, min(h_range.stop, n + 2)))
    check_guard(sizes, args.guard, f"census of q^{lo}" + f"..q^{hi}" * (hi > lo), "sequences")
    for n in ns:
        hs = range(h_range.start, min(h_range.stop, n + 2))
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
    if args.fast and not args.trust_lemmas:  # refused before the oracle runs
        from . import charsum

        # both quadratic-form lengths, s' and t', inside the verified envelope
        lim = charsum.QUADFORM_VERIFIED_L.get(ctx.q)
        if lim is None or max(par.s_prime, par.t_prime) > lim:
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
    if args.r < 0:
        raise HfqError(f"--r must be >= 0, got {args.r}")
    ctx = _build_ctx(args)
    h_range, ns = _parse_range(args.h, "h"), _parse_range(args.n, "n")
    hs = range(h_range.start, min(h_range.stop, args.r))
    # r is in hankel.bijection_ranks(n) just when r >= 3 and n >= 2r - 1
    ns = range(max(ns.start, 2 * args.r - 1), ns.stop if args.r >= 3 and hs else 0)
    work = (w for n in ns for w in checks.bijection_work(ctx.q, n, args.r, hs, args.guard))
    check_guard(work, args.guard, "bijection check")
    return [checks.check_bijection(ctx, n, args.r, hs, args.guard) for n in ns]


def _sums(checks, args):
    from . import variance
    from .polyring import Poly

    ctx = _build_ctx(args)
    u, v = Poly.from_literal(ctx, args.U), Poly.from_literal(ctx, args.V)
    variance.validate_pair(u, v)  # a bad pair is bad input, not an empty range
    fn = checks.check_kernel_sum if args.kind == "kernel-sum" else checks.check_w_sum
    ns, h_range = _parse_range(args.n, "n"), _parse_range(args.h, "h")
    ns = range(max(ns.start, h_range.start), ns.stop)  # the domain has h <= n

    def points():
        for n in ns:
            for h in range(h_range.start, min(h_range.stop, n + 1)):
                if variance.ThmParams.domain_error(u, v, n, h) is None:
                    yield variance.ThmParams.compute(u, v, n, h)

    # one guard over every point and rank, before any runs
    work = (w for par in points() for w in checks.sum_work(args.kind, par, args.guard))
    check_guard(work, args.guard, "identity enumeration")
    return [fn(par, guard=args.guard) for par in points()]


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


# A flag: (type, default, help).  An int or str flag takes one value, the
# last one given winning; a bool flag is a switch; a list flag keeps every
# value given.  The default ... marks a required flag.
_STR, _INT, _SWITCH = (str, ..., ""), (int, ..., ""), (bool, False, "")
_COMMON = {
    "--q": (int, ..., "field size (prime power)"),
    "--modulus": (str, None, "defining polynomial over F_p when q = p^k, k > 1"),
    "--guard": (int, GUARD, "enumeration step cap (default 10^8)"),
}
# the flags of the commands that also print text
_WITH_JSON = {**_COMMON, "--json": (bool, False, "machine-readable output")}

# Each identity kind: its runner, its help and the only flags it reads.
_IDENTITY_FLAGS = {
    "--l": (str, "0..2", "range"),
    "--n": (str, "0..5", "range"),
    "--r": (int, 3, "rank"),
    "--h": (str, "0..2", "range"),
    "--U": (str, "1", ""),
    "--V": (str, "0,1", ""),
    "--W": (list, None, "window polynomial (repeatable)"),
}
_IDENTITY_KINDS = {
    "quadform": (_quadform, "quadratic-form magnitudes", ("--l",)),
    "kernel-structure": (_kernel_structure, "kernel structure", ("--n",)),
    "reduction": (_reduction, "reduction lemma", ("--n", "--W")),
    "bijection": (_bijection, "class/pair bijection", ("--n", "--r", "--h")),
    "kernel-sum": (_sums, "kernel-sum identity", ("--n", "--h", "--U", "--V")),
    "w-sum": (_sums, "w-sum identity", ("--n", "--h", "--U", "--V")),
}

# Each command: its handler, its help and its flags (identity's are its KIND's).
_COMMANDS = {
    "census": (cmd_census, "class sizes vs enumeration", {
        **_WITH_JSON, "--n": (str, ..., "range, e.g. 2..5"), "--h": (str, ..., "range, e.g. 0..6"),
        "--workers": (int, 1, "worker processes (1..CPU count)")}),
    "variance": (cmd_variance, "oracle / character sum / closed forms", {
        **_COMMON, "--U": _STR, "--V": _STR, "--n": _INT, "--h": _INT, "--oracle": _SWITCH,
        "--charsum": _SWITCH, "--fast": (bool, False, "closed-form magnitudes"),
        "--trust-lemmas": _SWITCH}),
    "identity": (cmd_identity, "exhaustive checks of the supporting identities", None),
    "phisum": (cmd_phisum, "restricted totient-ratio convergence",
               {**_WITH_JSON, "--W2": _STR, "--W3": _STR, "--kmax": _INT}),
    "analyze": (cmd_analyze, "profile and kernel polynomials of one sequence",
                {**_COMMON, "--alpha": (str, ..., "sequence literal, e.g. 0,0,1")}),
}
_HELP = ("-h, --help", "show this help message and exit")


def _refuse(prog: str, usage: str, message: str):
    sys.stderr.write(f"usage: {prog} {usage}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _help(prog: str, usage: str, about: str, *sections):
    """Print the usage, the help line and each (title, rows) section; exit 0."""
    lines = [f"usage: {prog} {usage}", "", about]
    for title, rows in sections:
        width = max(len(left) for left, _ in rows) + 2
        lines += ["", f"{title}:", *(f"  {left:<{width}}{right}".rstrip() for left, right in rows)]
    print("\n".join(lines))
    raise SystemExit(EXIT_OK)


def _choose(argv, prog: str, usage: str, about: str, entries: dict, name: str):
    """The entry argv's first word names (a command or a KIND), and the
    words after it; hfq itself also reads --version there."""
    word = argv[0] if argv else None
    version = [("--version", "show program's version number and exit")] if prog == "hfq" else []
    if word in ("-h", "--help"):
        rows = [(key, entry[1]) for key, entry in entries.items()]
        _help(prog, usage, about, (f"{name.lower()}s", rows), ("options", [_HELP, *version]))
    if word == "--version" and version:
        print(f"hfq {__version__}")
        raise SystemExit(EXIT_OK)
    if word is None:
        _refuse(prog, usage, f"the following arguments are required: {name}")
    if word not in entries:
        choices = ", ".join(map(repr, entries))
        _refuse(prog, usage, f"argument {name}: invalid choice: {word!r} (choose from {choices})")
    return word, argv[1:]


def _read_flags(argv, prog: str, about: str, flags: dict) -> dict:
    """Each flag's value under its name (--trust-lemmas as trust_lemmas).  A
    value flag reads --flag=value, or the next word unless it starts with --."""
    shown = {f: f if kind is bool else f"{f} {f[2:].upper()}" for f, (kind, _, _) in flags.items()}
    usage = " ".join(["[-h]", *(s if flags[f][1] is ... else f"[{s}]" for f, s in shown.items())])
    given, unknown, words = {}, [], iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            rows = [(shown[f], text) for f, (_, _, text) in flags.items()]
            _help(prog, usage, about, ("options", [_HELP, *rows]))
        flag, eq, value = word.partition("=")
        kind = flags[flag][0] if flag in flags else None
        if kind is None:  # never abbreviated: --h is --h or nothing
            unknown.append(word)
        elif kind is bool and eq:
            _refuse(prog, usage, f"argument {flag}: ignored explicit argument {value!r}")
        elif kind is bool:
            given[flag] = True
        elif not eq and (value := next(words, "--")).startswith("--"):  # none left, or a flag
            _refuse(prog, usage, f"argument {flag}: expected one argument")
        else:
            try:
                given[flag] = [*given.get(flag, ()), value] if kind is list else kind(value)
            except ValueError:
                _refuse(prog, usage, f"argument {flag}: invalid int value: {value!r}")
    missing = [f for f, (_, default, _) in flags.items() if default is ... and f not in given]
    if missing:
        _refuse(prog, usage, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _refuse(prog, usage, f"unrecognized arguments: {' '.join(unknown)}")
    return {f[2:].replace("-", "_"): given.get(f, spec[1]) for f, spec in flags.items()}


def parse_args(argv) -> SimpleNamespace:
    """The namespace the cmd_* handlers read: the handler as ``fn`` and each
    flag of the command (or identity KIND) that argv names.  A usage error
    exits 64 with that command's usage; -h, --help and --version exit 0."""
    usage = f"[-h] [--version] {{{','.join(_COMMANDS)}}} ..."
    about = "Exact Hankel/character-sum verification"
    command, argv = _choose(argv, "hfq", usage, about, _COMMANDS, "command")
    fn, about, flags = _COMMANDS[command]
    prog, extra = f"hfq {command}", {}
    if flags is None:  # identity: the kind names the runner and the flags
        kind, argv = _choose(argv, prog, "[-h] KIND ...", about, _IDENTITY_KINDS, "KIND")
        run, about, own = _IDENTITY_KINDS[kind]
        prog, extra = f"{prog} {kind}", dict(kind=kind, run=run)
        flags = {**_WITH_JSON, **{flag: _IDENTITY_FLAGS[flag] for flag in own}}
    return SimpleNamespace(fn=fn, **extra, **_read_flags(argv, prog, about, flags))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    try:
        if digits:  # print in full each exact value the guards admit
            sys.set_int_max_str_digits(0)
        if args.guard < 1:
            raise HfqError(f"--guard must be >= 1, got {args.guard}")
        return args.fn(args)
    except TooLargeError as exc:
        print(f"hfq: guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except HfqError as exc:
        print(f"hfq: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
