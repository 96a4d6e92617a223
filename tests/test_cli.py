import json
import os

import pytest

from hfq import hankel
from hfq.cli import EXIT_GUARD, EXIT_OK, EXIT_USAGE, main


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


def test_census_workers_byte_identical(capsys):
    args = ("census", "--q", "3", "--n", "3", "--h", "0..2", "--json")
    code1, out1, _ = run(capsys, *args, "--workers", "1")
    code2, out2, _ = run(capsys, *args, "--workers", "2")
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
        "--n", "6", "--h", "3", "--oracle", "--theorem",
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
        "--n", "4", "--h", "3", "--oracle", "--theorem",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["case"] == "case1"
    assert payload["theorem"] == {"num": "0", "den": "1"}
    assert payload["oracle"] == {"num": "0", "den": "1"}


def test_variance_guard_exit(capsys):
    code, _, err = run(
        capsys,
        "variance", "--q", "3", "--U", "1", "--V", "0,1",
        "--n", "6", "--h", "0", "--oracle", "--guard", "10",
    )
    assert code == EXIT_GUARD
    assert "guard" in err


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


def test_identity_quadform(capsys):
    code, out, _ = run(capsys, "identity", "quadform", "--q", "3", "--l", "0..1")
    assert code == EXIT_OK and "PASS" in out


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


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["variance", "--q", "3", "--U", "1"])  # missing required flags
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE


def test_extension_field_census(capsys):
    code, out, _ = run(
        capsys,
        "census", "--q", "9", "--modulus", "1,0,1", "--n", "1..2", "--h", "0..1",
    )
    assert code == EXIT_OK and "FAIL" not in out


def test_variance_h_above_n_exits_64(capsys):
    code, out, err = run(
        capsys, "variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "4", "--h", "6"
    )
    assert code == EXIT_USAGE and out == "" and "h <= n" in err


def test_phisum_negative_kmax_exits_64(capsys):
    code, out, err = run(
        capsys, "phisum", "--q", "3", "--W2", "1", "--W3", "1", "--kmax", "-1"
    )
    assert code == EXIT_USAGE and out == "" and "--kmax" in err


def test_bad_guard_env_exits_64(capsys, monkeypatch):
    monkeypatch.setenv("HFQ_GUARD", "abc")
    code, out, err = run(capsys, "census", "--q", "3", "--n", "2", "--h", "0")
    assert code == EXIT_USAGE and out == "" and "HFQ_GUARD" in err


def test_census_empty_range_exits_64(capsys):
    code, out, err = run(capsys, "census", "--q", "3", "--n", "5..3", "--h", "0")
    assert code == EXIT_USAGE and out == "" and "empty range" in err


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

    monkeypatch.setattr(hankel, "ProcessPoolExecutor", no_pool)
    code, out, err = run(
        capsys, "census", "--q", "3", "--n", "3", "--h", "0", "--workers", str(workers)
    )
    assert code == EXIT_USAGE and out == "" and "--workers" in err


def test_workers_only_on_census(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--q", "3", "--alpha", "0,1", "--workers", "2"])
    assert exc.value.code == EXIT_USAGE
