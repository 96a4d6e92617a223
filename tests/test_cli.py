import concurrent.futures
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfq import checks, cli, variance
from hfq.cli import EXIT_GUARD, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from hfq.errors import HfqError
from hfq.field import ctx_new
from hfq.polyring import Poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_census_passes(capsys):
    code, out, _ = run(capsys, "census", "--q", "3", "--n", "2..3", "--h", "0..4")
    assert code == EXIT_OK
    assert "PASS" in out and "FAIL" not in out


def test_census_rejects_even_q(capsys):
    code, _, err = run(capsys, "census", "--q", "2", "--n", "2", "--h", "0")
    assert code == EXIT_USAGE
    assert "error" in err


def test_census_workers_byte_identical(capsys, monkeypatch):
    # two workers on any machine: the CPU-count bound would refuse 2 on one CPU
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    args = ("census", "--q", "3", "--n", "3", "--h", "0..2", "--json")
    code1, out1, _ = run(capsys, *args, "--workers", "1")
    code2, out2, _ = run(capsys, *args, "--workers", "2")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_census_workers_start_the_pool(capsys, monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    pool, started = concurrent.futures.ProcessPoolExecutor, []

    def recording_pool(*args, **kwargs):
        started.append(kwargs)
        return pool(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    args = ("census", "--q", "3", "--n", "4", "--h", "0")
    code1, out1, _ = run(capsys, *args, "--workers", "1")
    assert started == []  # one process runs the census in-process
    code2, out2, _ = run(capsys, *args, "--workers", "2")
    assert started == [{"max_workers": 2}]
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_variance_oracle_charsum_json(capsys):
    code, out, _ = run(
        capsys,
        "variance", "--q", "3", "--U", "1", "--V", "0,1",
        "--n", "2", "--h", "0", "--oracle", "--charsum",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["case"] == "uncovered"
    assert payload["oracle"] == {"num": "40", "den": "9"}
    assert payload["charsum"] == {"num": "40", "den": "9"}
    assert payload["theorem"] is None


def test_variance_case2_fixture(capsys):
    code, out, _ = run(
        capsys,
        "variance", "--q", "3", "--U", "1,0,1", "--V", "0,1",
        "--n", "6", "--h", "3", "--oracle",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["case"] == "case2"
    assert payload["theorem"] == payload["oracle"] == {"num": "24", "den": "1"}
    assert payload["residual"] == {"num": "0", "den": "1"}


def test_variance_case1(capsys):
    code, out, _ = run(
        capsys,
        "variance", "--q", "3", "--U", "1", "--V", "0,1",
        "--n", "4", "--h", "3", "--oracle",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["case"] == "case1"
    assert payload["theorem"] == {"num": "0", "den": "1"}
    assert payload["oracle"] == {"num": "0", "den": "1"}


@pytest.mark.parametrize("extra", [(), ("--charsum",)], ids=["oracle", "oracle-charsum"])
def test_variance_falsified_closed_form_exits_1(capsys, monkeypatch, extra):
    # the case-2 closed form off by one: the report still prints, and the
    # exit code is the comparison's
    f_formula = variance.f_formula
    monkeypatch.setattr(variance, "f_formula", lambda *args: f_formula(*args) + 1)
    code, out, _ = run(
        capsys,
        "variance", "--q", "3", "--U", "1,0,1", "--V", "0,1",
        "--n", "6", "--h", "3", "--oracle", *extra,
    )
    assert code == EXIT_MISMATCH
    payload = json.loads(out)
    assert payload["case"] == "case2"
    assert payload["theorem"] == {"num": "25", "den": "1"}
    assert payload["residual"] == {"num": "-1", "den": "1"}


@pytest.mark.parametrize(
    "argv",
    [
        # a case-2 point with both exact values
        ("--U", "1,0,1", "--V", "0,1", "--n", "6", "--h", "3", "--oracle", "--charsum"),
        # a case-3 closed form: the secondary term is f at (n, n1 - 1)
        ("--U", "1", "--V", "0,1", "--n", "17", "--h", "6"),
    ],
    ids=["case2-oracle-charsum", "case3-closed-form"],
)
def test_variance_validates_its_point_once(capsys, monkeypatch, argv):
    calls = {"validate_pair": 0, "compute": 0}
    validate_pair, compute = variance.validate_pair, variance.ThmParams.compute

    def counting_validate(*args):
        calls["validate_pair"] += 1
        return validate_pair(*args)

    def counting_compute(*args):
        calls["compute"] += 1
        return compute(*args)

    monkeypatch.setattr(variance, "validate_pair", counting_validate)
    monkeypatch.setattr(variance.ThmParams, "compute", staticmethod(counting_compute))
    code, out, _ = run(capsys, "variance", "--q", "3", *argv)
    assert code == EXIT_OK and json.loads(out)["case"] in ("case2", "case3")
    assert calls == {"validate_pair": 1, "compute": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ("variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "4", "--h", "1"),
        ("analyze", "--q", "3", "--alpha", "0,1"),
    ],
    ids=["variance", "analyze"],
)
def test_json_flag_only_where_it_is_read(capsys, argv):
    # variance and analyze always print JSON, so --json is not theirs
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json"])
    assert exc.value.code == EXIT_USAGE
    assert main(list(argv)) == EXIT_OK


# Each identity kind with a command that passes, and the flags it reads.
_IDENTITY_KINDS = {
    "quadform": (("--l", "0..0"), ("--l",)),
    "kernel-structure": (("--n", "0..2"), ("--n",)),
    "reduction": (("--n", "0..2", "--W", "1,1"), ("--n", "--W")),
    "bijection": (("--n", "4", "--r", "2", "--h", "0"), ("--n", "--r", "--h")),
    "kernel-sum": (("--U", "1,0,1", "--V", "0,1", "--n", "6", "--h", "3"),
                   ("--n", "--h", "--U", "--V")),
    "w-sum": (("--U", "1", "--V", "0,1", "--n", "6", "--h", "0"), ("--n", "--h", "--U", "--V")),
}
# a well-formed value for each identity flag
_IDENTITY_VALUES = {
    "--l": "0..0", "--n": "0..9", "--r": "7", "--h": "0..2", "--U": "1", "--V": "0,1",
    "--W": "1,1",
}


@pytest.mark.parametrize("kind", sorted(_IDENTITY_KINDS))
def test_identity_refuses_flags_its_kind_does_not_read(capsys, kind):
    # a dropped flag would let a PASS answer a question that was not asked
    argv, own = _IDENTITY_KINDS[kind]
    base = ["identity", kind, "--q", "3", *argv]
    assert main(base) == EXIT_OK
    capsys.readouterr()
    for flag in sorted(set(_IDENTITY_VALUES) - set(own)):
        with pytest.raises(SystemExit) as exc:
            main([*base, flag, _IDENTITY_VALUES[flag]])
        out = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and out.out == "" and flag in out.err, flag
        assert out.err.startswith(f"usage: hfq identity {kind} "), flag


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--q", "3", "--n", "0", "--h", "2"),
        ("identity", "kernel-sum", "--q", "3", "--n", "4", "--h", "0..1"),
    ],
    ids=["census", "identity"],
)
def test_json_with_nothing_to_check_is_one_json_object(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    assert [json.loads(line) for line in out.splitlines()] == [{"checked": 0, "failed": 0}]


def test_variance_theorem_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["variance", "--q", "3", "--U", "1,0,1", "--V", "0,1", "--n", "6", "--h", "3",
              "--oracle", "--theorem"])
    assert exc.value.code == EXIT_USAGE


def test_report_residual_and_verdict_follow_its_values():
    one, t, u2 = (Poly.from_ints(ctx_new(3), c) for c in ((1,), (0, 1), (1, 0, 1)))
    rep = variance.theorem_predict(variance.ThmParams.compute(u2, t, 6, 3))
    assert rep.case == "case2" and rep.residual is None and rep.ok
    rep.oracle = rep.theorem_value + 1
    assert rep.residual == 1 and not rep.ok
    rep.oracle = rep.theorem_value
    assert rep.residual == 0 and rep.ok
    rep.charsum_value = rep.oracle + 1  # the oracle and the character sum disagree
    assert rep.residual == 0 and not rep.ok
    par = variance.ThmParams.compute(one, t, 18, 6)
    rep = variance.theorem_predict(par)  # case 3 is asymptotic
    rep.charsum_value = rep.theorem_value + 1
    assert rep.case == "case3" and rep.residual == 1 and rep.ok


def test_variance_guard_exit(capsys):
    code, _, err = run(
        capsys,
        "variance", "--q", "3", "--U", "1", "--V", "0,1",
        "--n", "6", "--h", "0", "--oracle", "--guard", "10",
    )
    assert code == EXIT_GUARD
    assert "guard" in err


def test_closed_forms_count_against_the_guard(capsys, monkeypatch):
    # case 3 at deg U = 20: 44,291 gcds in the secondary f-sum, and at
    # most 3 + 9 + ... + 3^10 trial divisors for M(U, V)
    argv = (
        "variance", "--q", "3", "--U", "1,2,1,1,2,0,2,0,1,0,0,0,2,2,0,1,2,0,1,2,1",
        "--V", "0,1", "--n", "176", "--h", "66",
    )
    real = variance.f_formula, variance.factor

    def no_enumeration(*args):
        raise AssertionError("a closed form enumerated past the guard")

    monkeypatch.setattr(variance, "f_formula", no_enumeration)
    monkeypatch.setattr(variance, "factor", no_enumeration)
    work = 44291 + sum(3**d for d in range(1, 11))
    code, out, err = run(capsys, *argv, "--guard", str(work - 1))
    assert code == EXIT_GUARD and out == ""
    assert err == f"hfq: guard: closed-form evaluation needs {work} steps, cap {work - 1}\n"
    monkeypatch.setattr(variance, "f_formula", real[0])
    monkeypatch.setattr(variance, "factor", real[1])
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and json.loads(out)["case"] == "case3"


def test_variance_fast_needs_trust_outside_envelope(capsys):
    base = (
        "variance", "--q", "3", "--U", "1", "--V", "0,1",
        "--n", "10", "--h", "8", "--charsum", "--fast",
    )
    code, _, err = run(capsys, *base)
    assert code == EXIT_USAGE and "trust-lemmas" in err
    code, out, _ = run(capsys, *base, "--trust-lemmas")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["charsum"] == {"num": "0", "den": "1"}  # case-1 range


@pytest.mark.parametrize(
    "flags",
    [("--fast",), ("--trust-lemmas",), ("--fast", "--trust-lemmas"), ("--charsum", "--trust-lemmas")],
)
def test_variance_fast_without_charsum_exits_64(capsys, flags):
    # each flag names, in stderr, the flag it is missing
    needed = "--fast" if "--charsum" in flags else "--charsum"
    code, out, err = run(
        capsys, "variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "4", "--h", "1", *flags
    )
    assert code == EXIT_USAGE and out == "" and needed in err


def test_variance_fast_refused_before_the_oracle_runs(capsys, monkeypatch):
    from hfq import variance

    def refuse(*args, **kwargs):
        raise AssertionError("oracle ran")

    monkeypatch.setattr(variance, "variance_bruteforce", refuse)
    code, out, err = run(
        capsys, "variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "10", "--h", "8",
        "--oracle", "--charsum", "--fast",
    )
    assert code == EXIT_USAGE and out == "" and "trust-lemmas" in err


def test_identity_quadform(capsys):
    code, out, _ = run(capsys, "identity", "quadform", "--q", "3", "--l", "0..1")
    assert code == EXIT_OK and "PASS" in out


@pytest.mark.parametrize(
    "kind,n,want",
    [("kernel-structure", "3..3", "405/405"), ("reduction", "4..4", "424/424")],
)
def test_identity_checks_only_the_requested_n(capsys, kind, n, want):
    # the low end of --n counts: these are the n = 3 and n = 4 terms alone
    code, out, _ = run(capsys, "identity", kind, "--q", "3", "--n", n)
    assert code == EXIT_OK and want in out


def test_identity_bijection(capsys):
    code, out, _ = run(
        capsys,
        "identity", "bijection", "--q", "3", "--n", "6", "--r", "3", "--h", "1..2",
    )
    assert code == EXIT_OK and "PASS" in out


def test_identity_empty_ranges_are_not_failures(capsys):
    code, out, _ = run(
        capsys,
        "identity", "kernel-sum", "--q", "3", "--U", "1", "--V", "0,1",
        "--n", "4", "--h", "0..1",
    )
    assert code == EXIT_OK and "nothing to check" in out


def test_identity_kernel_sum(capsys):
    code, out, _ = run(
        capsys,
        "identity", "kernel-sum", "--q", "3", "--U", "1,0,1", "--V", "0,1",
        "--n", "6", "--h", "3",
    )
    assert code == EXIT_OK and "PASS" in out


@pytest.mark.parametrize(
    "argv,cap",
    [
        # sum over l of q^(2l+1) sequences times q^l + q^(l+1) vectors
        (("identity", "quadform", "--q", "3", "--l", "0..1"), 3 * 4 + 27 * 12),
        # q^(n+1) sequences per n
        (("identity", "kernel-structure", "--q", "3", "--n", "0..2"), 3 + 9 + 27),
        (("identity", "reduction", "--q", "3", "--n", "0..3"), 27 + 81),
        # (n+1)^2 steps of one Berlekamp-Massey pass over n + 1 entries
        (("analyze", "--q", "3", "--alpha", "0,0,1,0,0"), 5**2),
        # q^(n+1-h) sequences plus q^r * q^(r-h) pairs per h
        (
            ("identity", "bijection", "--q", "3", "--n", "6", "--r", "3", "--h", "0..2"),
            sum(3 ** (7 - h) + 3 ** (6 - h) for h in range(3)),
        ),
        # exact mode: q^(n+1-h) sequences times q^l_m monic + q^(l_a+1) full vectors
        (
            ("variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "4", "--h", "1",
             "--charsum"),
            3**4 * (3**2 + 3**2),
        ),
    ],
    ids=["quadform", "kernel-structure", "reduction", "analyze", "bijection", "charsum-exact"],
)
def test_guard_bounds_the_work(capsys, argv, cap):
    code, _, _ = run(capsys, *argv, "--guard", str(cap))
    assert code == EXIT_OK
    code, _, err = run(capsys, *argv, "--guard", str(cap - 1))
    assert code == EXIT_GUARD and "guard" in err


def test_guard_trips_before_a_huge_identity(capsys):
    code, _, err = run(capsys, "identity", "kernel-structure", "--q", "3", "--n", "0..30")
    assert code == EXIT_GUARD and "guard" in err
    code, _, err = run(capsys, "identity", "quadform", "--q", "3", "--l", "30..30")
    assert code == EXIT_GUARD and "guard" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("identity", "reduction", "--q", "3", "--n", "0..3", "--W", "0"),
        ("identity", "quadform", "--q", "3", "--l=-1..0"),
        ("identity", "kernel-structure", "--q", "3", "--n=-1..2"),
        ("identity", "kernel-sum", "--q", "3", "--U", "0,1", "--V", "0,1", "--n", "4..6"),
        ("identity", "w-sum", "--q", "3", "--U", "1", "--V", "1,0,1", "--n", "6"),
        # negative sizes, each of which an identity once ran or skipped
        ("identity", "reduction", "--q", "3", "--n=-1..3"),
        ("identity", "bijection", "--q", "3", "--n=-3..6"),
        ("identity", "bijection", "--q", "3", "--n", "6", "--r=-2"),
        ("identity", "kernel-sum", "--q", "3", "--n=-2..3"),
        ("identity", "kernel-sum", "--q", "3", "--h=-1..3"),
        ("identity", "w-sum", "--q", "3", "--h=-1..1"),
    ],
    ids=[
        "zero-window", "negative-l", "negative-n", "odd-U", "even-V", "reduction-negative-n",
        "bijection-negative-n", "bijection-negative-r", "kernel-sum-negative-n",
        "kernel-sum-negative-h", "w-sum-negative-h",
    ],
)
def test_identity_bad_input_exits_64(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == "" and "error" in err


@pytest.mark.parametrize(
    "kind,check", [("kernel-sum", "check_kernel_sum"), ("w-sum", "check_w_sum")]
)
def test_identity_error_at_a_feasible_point_exits_64(capsys, monkeypatch, kind, check):
    # an error inside a check is reported, not taken for an empty range
    real = getattr(checks, check)

    def planted(par, guard):
        if (par.u.literal(), par.v.literal(), par.n, par.h) == ("1,0,1", "0,1", 6, 3):
            raise HfqError("planted failure at n=6 h=3")
        return real(par, guard=guard)

    monkeypatch.setattr(checks, check, planted)
    code, out, err = run(
        capsys, "identity", kind, "--q", "3", "--U", "1,0,1", "--V", "0,1",
        "--n", "6", "--h", "3",
    )
    assert code == EXIT_USAGE and out == "" and err == "hfq: error: planted failure at n=6 h=3\n"


def test_phisum_csv_rows(capsys):
    code, out, _ = run(
        capsys, "phisum", "--q", "3", "--W2", "1", "--W3", "1", "--kmax", "4"
    )
    assert code == EXIT_OK
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 6  # header + kmax + 1 rows
    assert lines[0].startswith("k,")


def test_phisum_rejects_common_factor(capsys):
    code, _, err = run(
        capsys, "phisum", "--q", "3", "--W2", "0,1", "--W3", "0,1", "--kmax", "3"
    )
    assert code == EXIT_USAGE and "coprime" in err


@pytest.mark.parametrize(
    "q,want", [("10000019", EXIT_GUARD), ("1000", EXIT_USAGE), ("1", EXIT_USAGE)]
)
def test_q_refused_before_any_work(capsys, q, want):
    # a q with no prime factor <= 256 has no field table: the guard refuses it
    code, out, err = run(capsys, "analyze", "--q", q, "--alpha", "0,1")
    assert code == want and out == "" and err


def test_analyze(capsys):
    code, out, _ = run(capsys, "analyze", "--q", "3", "--alpha", "0,0,1,0,0")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["profile"] == {
        "r": 3, "rho": 3, "pi": 0, "strict_rho": 0, "strict_pi": 3,
    }
    assert payload["a1"] == "0,0,0,1"


@pytest.mark.parametrize(
    "field,alpha,want",
    [
        (("--q", "3"), "1,2,0,1,1,2",
         '{"a1": "2,0,1,1", "a2": "1,1,1", "a2_canonical": true, '
         '"alpha": ["1", "2", "0", "1", "1", "2"], "leading_zeros": 0, "n": 5, '
         '"profile": {"pi": 0, "r": 3, "rho": 3, "strict_pi": 0, "strict_rho": 3}, "q": 3}'),
        (("--q", "9", "--modulus", "1,0,1"), "[1,2],[0,1],[2,2],[0,0],[1,0]",
         '{"a1": "[0,2],[1,2],[0,0],[1,0]", "a2": "[0,2],[2,1],[1,0]", "a2_canonical": true, '
         '"alpha": ["[1,2]", "[0,1]", "[2,2]", "[0,0]", "[1,0]"], "leading_zeros": 0, "n": 4, '
         '"profile": {"pi": 0, "r": 3, "rho": 3, "strict_pi": 1, "strict_rho": 2}, "q": 9}'),
    ],
    ids=["q3", "q9"],
)
def test_analyze_json_bytes(capsys, field, alpha, want):
    # the profile is a named tuple read as a dict; sorted keys fix the bytes
    code, out, err = run(capsys, "analyze", *field, "--alpha", alpha)
    assert (code, out, err) == (EXIT_OK, want + "\n", "")


def test_check_results_do_not_share_lines():
    first, second = checks.CheckResult("first"), checks.CheckResult("second")
    first.count(False, "first failed")
    assert (first.checked, first.failed, first.lines) == (1, 1, ["first failed"])
    assert (second.checked, second.failed, second.lines) == (0, 0, [])
    assert first.summary() == "[FAIL] first: 0/1" and not second.ok


def test_analyze_guard_refuses_before_the_pass(capsys, monkeypatch):
    from hfq import hankel

    def no_pass(*args):
        raise AssertionError("pass started past the guard")

    monkeypatch.setattr(hankel, "_lc_profile", no_pass)
    alpha = ",".join("1" * 3000)
    code, out, err = run(capsys, "analyze", "--q", "3", "--alpha", alpha, "--guard", "10000")
    assert code == EXIT_GUARD and out == ""
    assert "analyze pass needs 9000000 steps, cap 10000" in err


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["variance", "--q", "3", "--U", "1"])  # missing required flags
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--q", "3", "--n", "10000", "--h", "0"),
        ("variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "20001", "--h", "0", "--oracle"),
        ("identity", "quadform", "--q", "3", "--l", "0..10000"),
    ],
    ids=["census", "variance-oracle", "quadform"],
)
def test_guard_writes_a_huge_count_by_its_size(capsys, argv):
    # each count has over 4,300 digits, more than int-to-str writes
    code, out, err = run(capsys, *argv)
    assert code == EXIT_GUARD and out == ""
    assert err.startswith("hfq: guard: ") and " needs at least 2^" in err


_COMMON_FLAGS = ("--q", "--modulus", "--guard")
# every flag each command lists in its --help, besides -h and --help
_COMMAND_FLAGS = {
    "census": (*_COMMON_FLAGS, "--json", "--n", "--h", "--workers"),
    "variance": (*_COMMON_FLAGS, "--U", "--V", "--n", "--h", "--oracle", "--charsum", "--fast",
                 "--trust-lemmas"),
    "phisum": (*_COMMON_FLAGS, "--json", "--W2", "--W3", "--kmax"),
    "analyze": (*_COMMON_FLAGS, "--alpha"),
    **{f"identity {kind}": (*_COMMON_FLAGS, "--json", *own)
       for kind, (_, own) in _IDENTITY_KINDS.items()},
}


def _help_sections(capsys, *argv) -> dict:
    """The first column of each section of ``hfq argv --help``, by title."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    out = capsys.readouterr()
    assert exc.value.code == EXIT_OK and out.err == ""
    assert out.out.startswith(f"usage: {' '.join(['hfq', *argv])} [-h]")
    sections, rows = {}, None
    for line in out.out.splitlines():
        if line.endswith(":") and not line.startswith(" "):
            rows = sections.setdefault(line[:-1], [])
        elif line.startswith("  ") and rows is not None:
            rows += line.split("  ")[1].replace(",", "").split()
    return sections


def test_help_lists_the_commands(capsys):
    sections = _help_sections(capsys)
    assert sections == {
        "commands": ["census", "variance", "identity", "phisum", "analyze"],
        "options": ["-h", "--help", "--version"],
    }
    # README: `hfq identity KIND --help` lists each kind's flags
    assert _help_sections(capsys, "identity") == {
        "kinds": list(_IDENTITY_KINDS), "options": ["-h", "--help"]
    }


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
def test_help_lists_exactly_the_flags_read(capsys, command):
    options = _help_sections(capsys, *command.split())["options"]
    flags = [word for word in options if word.startswith("-")]
    assert flags == ["-h", "--help", *_COMMAND_FLAGS[command]]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    out = capsys.readouterr()
    assert exc.value.code == EXIT_OK and out.out == "hfq 0.1.0\n" and out.err == ""


def _outcome(capsys, argv):
    """The namespace the handlers get from argv, or the code of its usage
    error, which prints only the usage and the error to stderr."""
    try:
        return vars(cli.parse_args(list(argv)))
    except SystemExit as exc:
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("usage: hfq")
        assert ": error: " in out.err.splitlines()[1]
        return exc.code


@pytest.mark.parametrize(
    "eq_form, space_form, want",
    [
        (("identity", "reduction", "--q=3", "--W=1,1", "--W=0,1"),
         ("identity", "reduction", "--q", "3", "--W", "1,1", "--W", "0,1"), ("W", ["1,1", "0,1"])),
        (("census", "--q=3", "--n=2", "--h=0", "--q=5"),
         ("census", "--q", "3", "--n", "2", "--h", "0", "--q", "5"), ("q", 5)),
        (("census", "--q=3", "--n=2", "--h=0", "--json=1"),
         ("census", "--q", "3", "--n", "2", "--h", "0", "--json", "1"), EXIT_USAGE),
        (("census", "--q=3", "--n=2", "--h"), ("census", "--q", "3", "--n", "2", "--h"),
         EXIT_USAGE),
        (("identity", "--json=1"), ("identity", "--json", "1"), EXIT_USAGE),
        (("identity",), ("identity",), EXIT_USAGE),
        (("no-such-command", "--q=3"), ("no-such-command", "--q", "3"), EXIT_USAGE),
        (("census", "--q=3", "--n=-2..1", "--h=0"),
         ("census", "--q", "3", "--n", "-2..1", "--h", "0"), ("n", "-2..1")),
    ],
    ids=["repeated-W", "last-q-wins", "json-value", "trailing-h", "identity-flag",
         "bare-identity", "unknown-command", "negative-range"],
)
def test_flag_forms_read_alike(capsys, eq_form, space_form, want):
    # --flag=value and --flag value are one reading; a value flag takes the
    # next word unless it starts with --
    got = _outcome(capsys, eq_form)
    assert _outcome(capsys, space_form) == got
    assert got == want if isinstance(want, int) else got[want[0]] == want[1]


def test_a_negative_range_value_reaches_the_range_check(capsys):
    for argv in (("--n=-2..1",), ("--n", "-2..1")):
        code, out, err = run(capsys, "census", "--q", "3", *argv, "--h", "0")
        assert code == EXIT_USAGE and out == "" and err == "hfq: error: need n >= 0, got -2\n"


def test_extension_field_census(capsys):
    code, out, _ = run(
        capsys,
        "census", "--q", "9", "--modulus", "1,0,1", "--n", "1..2", "--h", "0..1",
    )
    assert code == EXIT_OK and "FAIL" not in out


def test_variance_h_above_n_exits_64(capsys):
    # refused by the one domain rule, ThmParams.domain_error
    f3 = ctx_new(3)
    reason = variance.ThmParams.domain_error(Poly.one(f3), Poly.t(f3), 4, 5)
    for h in ("5", "6"):
        code, out, err = run(
            capsys, "variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "4", "--h", h
        )
        assert code == EXIT_USAGE and out == "" and err == f"hfq: error: {reason}\n"


def test_phisum_negative_kmax_exits_64(capsys):
    code, out, err = run(
        capsys, "phisum", "--q", "3", "--W2", "1", "--W3", "1", "--kmax", "-1"
    )
    assert code == EXIT_USAGE and out == "" and "--kmax" in err


def test_modulus_with_a_prime_q_exits_64(capsys):
    argv = ("census", "--q", "7", "--modulus", "1,0,1", "--n", "2", "--h", "0")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == "" and "--modulus" in err and "q = 7" in err


@pytest.mark.parametrize("guard", ["0", "-1"])
def test_guard_below_one_exits_64(capsys, guard):
    argv = ("census", "--q", "3", "--n", "2", "--h", "0")
    code, out, err = run(capsys, *argv, "--guard", guard)
    assert code == EXIT_USAGE and out == "" and f"--guard must be >= 1, got {guard}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--q", "3", "--alpha", "0,1", "--h", "3"),  # not --help
        ("phisum", "--q", "3", "--W2", "1", "--W3", "1", "--kmax", "2", "--h", "0"),
        ("variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "6", "--h", "2", "--or"),
        ("census", "--q", "3", "--n", "2", "--h", "0", "--work", "1"),
        ("identity", "quadform", "--q", "3", "--h", "0..2"),  # not --help
    ],
    ids=["analyze", "phisum", "variance", "census", "identity"],
)
def test_no_subcommand_takes_an_abbreviated_flag(capsys, argv):
    # refused with the usage of the subcommand that was given the flag
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and out.out == ""
    command = " ".join(argv[: 2 if argv[0] == "identity" else 1])
    assert out.err.startswith(f"usage: hfq {command} [-h] --q Q")
    assert f"hfq {command}: error: unrecognized arguments" in out.err


def test_census_h_above_every_n_is_not_a_failure(capsys):
    code, out, _ = run(capsys, "census", "--q", "3", "--n", "0", "--h", "2")
    assert code == EXIT_OK and "nothing to check" in out
    code, out, _ = run(capsys, "census", "--q", "3", "--n", "0..1", "--h", "2")
    assert code == EXIT_OK and "n=1 h=2" in out and "FAIL" not in out


def test_census_empty_range_exits_64(capsys):
    code, out, err = run(capsys, "census", "--q", "3", "--n", "5..3", "--h", "0")
    assert code == EXIT_USAGE and out == "" and "empty range" in err


@pytest.mark.parametrize(
    "ranges,want",
    [(("--n", "2", "--h=-1..0"), "need h >= 0"), (("--n=-2..1", "--h", "0"), "need n >= 0")],
    ids=["h", "n"],
)
def test_census_negative_range_exits_64(capsys, ranges, want):
    code, out, err = run(capsys, "census", "--q", "3", *ranges)
    assert code == EXIT_USAGE and out == "" and want in err


def test_census_guard_bounds_free_entries(capsys):
    # n=6, h=3 enumerates 3^4 = 81 sequences, far below q^(n+1) = 2187
    base = ("census", "--q", "3", "--n", "6", "--h", "3")
    code, out, _ = run(capsys, *base, "--guard", "81")
    assert code == EXIT_OK and "PASS" in out
    code, out, err = run(capsys, *base, "--guard", "80")
    assert code == EXIT_GUARD and out == "" and "q^4" in err


def test_bad_alpha_literal_exits_64(capsys):
    code, out, err = run(capsys, "analyze", "--q", "3", "--alpha", "1,x")
    assert code == EXIT_USAGE and out == "" and "'x'" in err


def test_extension_field_alpha_literal(capsys):
    code, out, _ = run(
        capsys, "analyze", "--q", "9", "--modulus", "1,0,1", "--alpha", "[1,2],[0,1]"
    )
    assert code == EXIT_OK
    assert json.loads(out)["alpha"] == ["[1,2]", "[0,1]"]


@pytest.mark.parametrize(
    "alpha", ["1,[0,1]", "[1,2,0],[0,1]", "[1,y],[0,1]"], ids=["bare", "three", "y"]
)
def test_bad_extension_alpha_exits_64(capsys, alpha):
    code, out, _ = run(capsys, "analyze", "--q", "9", "--modulus", "1,0,1", "--alpha", alpha)
    assert code == EXIT_USAGE and out == ""


def test_bad_modulus_literal_exits_64(capsys):
    code, out, err = run(
        capsys, "census", "--q", "9", "--modulus", "1,x,1", "--n", "1", "--h", "0"
    )
    assert code == EXIT_USAGE and out == "" and "'x'" in err


def test_bad_polynomial_literal_exits_64(capsys):
    code, out, err = run(
        capsys, "variance", "--q", "3", "--U", "1,y", "--V", "0,1", "--n", "4", "--h", "0"
    )
    assert code == EXIT_USAGE and out == "" and "'y'" in err


def test_variance_n_below_degrees_exits_64(capsys):
    code, out, err = run(
        capsys, "variance", "--q", "3", "--U", "1,0,1", "--V", "0,1", "--n", "1", "--h", "0"
    )
    assert code == EXIT_USAGE and out == "" and "too small" in err


@pytest.mark.parametrize("workers", [0, (os.cpu_count() or 1) + 1], ids=["zero", "above"])
def test_census_workers_bounded(capsys, monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, out, err = run(
        capsys, "census", "--q", "3", "--n", "3", "--h", "0", "--workers", str(workers)
    )
    assert code == EXIT_USAGE and out == "" and "--workers" in err


def test_workers_only_on_census(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--q", "3", "--alpha", "0,1", "--workers", "2"])
    assert exc.value.code == EXIT_USAGE


# Small argv for four subcommands: valid tiny values mixed with malformed
# literals, empty or reversed ranges, negative sizes and tiny guards.
_FIELD = st.sampled_from(
    [("3",), ("3",), ("5",), ("9", "--modulus", "1,0,1"), ("9",), ("4",), ("1",), ("x",)]
)
_INT = st.sampled_from(["0", "1", "2", "2", "3", "-1", "x"])
_RANGE = st.sampled_from(["0", "2", "0..2", "1..3", "3..1", "a..b", "1..", "-2..1", ""])
_POLY = st.sampled_from(
    ["1", "1", "0,1", "1,1", "1,0,1", "0,0,0,1", "[1,0]", "[0,0],[1,0]", "0", "2", "x"]
)
_VALID_UV = st.sampled_from(
    [("1", "0,1"), ("1", "1,1"), ("1,0,1", "0,1"), ("1", "0,0,0,1"), ("[1,0]", "[0,0],[1,0]")]
)
_ALPHA = st.sampled_from(["0,1", "1,2,0", "[1,2],[0,1]", "0", "1,,2", "x", ""])
_GUARD = st.sampled_from(
    [[], [], ["--guard", "1"], ["--guard", "10"], ["--guard", "0"], ["--guard", "x"]]
)
_FLAGS = {
    "census": ["--json", "--workers=1", "--workers=0", "--workers=-1"],
    "variance": ["--oracle", "--charsum", "--fast", "--trust-lemmas"],
    "phisum": ["--json"],
    "analyze": [],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, "--q", *draw(_FIELD)]
    if command == "census":
        argv += [f"--n={draw(_RANGE)}", f"--h={draw(_RANGE)}"]
    elif command == "variance":
        u, v = draw(st.one_of(_VALID_UV, st.tuples(_POLY, _POLY)))
        argv += ["--U", u, "--V", v, "--n", draw(_INT), "--h", draw(_INT)]
    elif command == "phisum":
        argv += ["--W2", draw(_POLY), "--W3", draw(_POLY), "--kmax", draw(_INT)]
    else:
        argv += ["--alpha", draw(_ALPHA)]
    options = _FLAGS[command]
    flags = draw(st.lists(st.sampled_from(options), max_size=3, unique=True)) if options else []
    return argv + flags + draw(_GUARD)


def _assert_not_a_mismatch(argv):
    # No argv here asks for a falsified identity, so 1 would mean bad input
    # was reported as a mathematical mismatch.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # the flag reader refuses a missing or mistyped flag
            code = exc.code
    assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_GUARD, EXIT_USAGE)
    assert code != EXIT_MISMATCH, argv


@settings(max_examples=300)
@given(_argv())
def test_exit_codes_property(argv):
    _assert_not_a_mismatch(argv)


# identity over the same kinds of values: every kind with only the flags it
# reads.  identity runs until its guard trips, so every example carries a
# small one.
_IDENTITY_FIELD = st.sampled_from([("3",), ("3",), ("5",), ("9", "--modulus", "2,1,1"), ("4",)])
_IDENTITY_RANGE = st.sampled_from(["0", "1..2", "0..3", "3..1", "-2..1", "-1..0", "a..b", ""])


@st.composite
def _identity_argv(draw):
    kind = draw(st.sampled_from(sorted(_IDENTITY_KINDS)))
    own = _IDENTITY_KINDS[kind][1]
    argv = ["identity", kind, "--q", *draw(_IDENTITY_FIELD)]
    for flag in ("--n", "--h", "--l"):
        if flag in own:
            argv.append(f"{flag}={draw(_IDENTITY_RANGE)}")
    if "--r" in own:
        argv.append(f"--r={draw(_INT)}")
    if "--W" in own:
        argv.append(f"--W={draw(_POLY)}")
    if "--U" in own:
        u, v = draw(st.one_of(_VALID_UV, st.tuples(_POLY, _POLY)))
        argv += ["--U", u, "--V", v]
    if draw(st.booleans()):
        argv.append("--json")
    return argv + ["--guard", draw(st.sampled_from(["500", "500", "500", "1", "-5"]))]


@settings(max_examples=300)
@given(_identity_argv())
def test_identity_exit_codes_property(argv):
    _assert_not_a_mismatch(argv)


BIG = str(10**12)


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "argv,code,clipped",
    [
        (("census", "--q", "3", "--n", "0", "--h", f"0..{BIG}"), EXIT_OK, ("--h", "0..1")),
        (("identity", "bijection", "--q", "3", "--n", f"0..{BIG}", "--r", BIG), EXIT_OK,
         ("--n", "0")),
        (("identity", "bijection", "--q", "3", "--n", "8", "--r", "4", "--h", f"0..{BIG}"),
         EXIT_OK, ("--h", "0..3")),
        (("identity", "w-sum", "--q", "3", "--n", "30..40", "--h", f"30..{BIG}"), EXIT_OK,
         ("--h", "30..40")),
        (("identity", "kernel-sum", "--q", "3", "--n", "0..3", "--h", f"0..{BIG}"), EXIT_OK,
         ("--h", "0..3")),
        (("identity", "kernel-structure", "--q", "3", "--n", f"0..{BIG}"), EXIT_GUARD, None),
        (("identity", "reduction", "--q", "3", "--n", f"0..{BIG}"), EXIT_GUARD, None),
        (("identity", "quadform", "--q", "3", "--l", f"0..{BIG}"), EXIT_GUARD, None),
    ],
    ids=["census", "bijection-r", "bijection-h", "w-sum", "kernel-sum", "kernel-structure",
         "reduction", "quadform"],
)
def test_a_wide_range_walks_only_the_points_a_check_takes(capsys, argv, code, clipped):
    # each range ends at 10^12: a command returns at once, in bounded memory,
    # and prints what the range cut to its checkable points prints
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "hfq.cli", *argv], env=env, capture_output=True, text=True,
        timeout=30, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == code, proc.stderr
    if clipped:
        flag = argv.index(clipped[0])
        want = run(capsys, *argv[:flag], *clipped, *argv[flag + 2:])
        assert want[:2] == (code, proc.stdout)


def test_a_negative_size_is_refused_before_the_guard():
    ctx = ctx_new(3)
    for check, sizes, name in ((checks.check_kernel_structure, [0, -1], "n"),
                               (checks.check_quadform, [-1], "l")):
        with pytest.raises(HfqError, match=f"need {name} >= 0, got -1") as exc:
            check(ctx, sizes)
        assert type(exc.value) is HfqError
