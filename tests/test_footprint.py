"""What a fresh interpreter loads: ``import hfq`` alone loads no submodule,
each CLI command loads only the modules it runs, numpy and the array
engine load only with a command that builds an array, a command that
builds none loads no ``inspect``, and no command loads ``argparse``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hfq
from hfq.cli import EXIT_OK, EXIT_USAGE

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after(code: str) -> set:
    """The names in sys.modules after ``code`` runs in a fresh interpreter."""
    script = f"{code}\nimport sys\nprint('\\nMODULES', *sorted(sys.modules))"
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(out.splitlines()[-1].split()[1:])


def run_cli(*argv, code: int = EXIT_OK) -> set:
    """The modules one CLI command loads; it must exit with ``code``, and,
    like every command in this file, load no argparse, gettext or locale."""
    script = (
        "from hfq.cli import main\n"
        "try:\n"
        f"    code = main({list(argv)!r})\n"
        "except SystemExit as exc:  # the flag reader exits after --help and --version\n"
        "    code = exc.code\n"
        f"assert code == {code}, code"
    )
    mods = loaded_after(script)
    assert not mods & PARSERS, sorted(mods & PARSERS)
    return mods


ARRAYS = {"numpy", "hfq.fastpath"}
# dataclasses imports inspect, which imports ast, dis and tokenize: about
# 6 ms of a cold start that no numpy-free command needs
INTROSPECTION = {"dataclasses", "inspect"}
# argparse imports gettext, and its first message lookup imports locale:
# about 5 ms of every command, which reads argv from hfq.cli's own table
PARSERS = {"argparse", "gettext", "locale"}


def test_import_hfq_loads_no_submodule():
    mods = loaded_after("import hfq")
    assert "hfq" in mods
    assert not {m for m in mods if m.startswith("hfq.")}
    assert "numpy" not in mods and "concurrent.futures" not in mods


def test_benchmark_setup_loads_no_numpy():
    mods = loaded_after("import hfq, hfq.cli\nhfq.ctx_new(3)\nhfq.ctx_new(3, 2, (1, 0, 1))")
    assert "hfq.cli" in mods and "hfq.field" in mods
    assert not mods & (ARRAYS | INTROSPECTION)


def test_benchmark_setup_loads_no_argument_parser():
    mods = loaded_after("import hfq, hfq.cli\nhfq.ctx_new(3)\nhfq.ctx_new(3, 2, (1, 0, 1))")
    assert "hfq.cli" in mods and not mods & PARSERS


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("--version",),
        ("analyze", "--q", "3", "--alpha", "0,0,1,0,0"),
        ("analyze", "--q", "9", "--modulus", "1,0,1", "--alpha", "[1,2],[0,1]"),
        ("identity", "kernel-structure", "--q", "3", "--n", "0..3"),
        ("identity", "reduction", "--q", "3", "--n", "0..4"),
        ("identity", "reduction", "--q", "3", "--n", "0..3", "--W", "1,1"),
        ("identity", "bijection", "--q", "3", "--n", "6", "--r", "3", "--h", "0..1"),
        ("identity", "kernel-sum", "--q", "3", "--n", "2..5"),
        ("variance", "--q", "3", "--U", "1,0,1", "--V", "0,1", "--n", "6", "--h", "3"),
        ("phisum", "--q", "3", "--W2", "1", "--W3", "0,1", "--kmax", "12"),
    ],
    ids=[
        "help", "version", "analyze", "analyze-q9", "kernel-structure", "reduction",
        "reduction-W", "bijection", "kernel-sum", "variance-theorem", "phisum",
    ],
)
def test_scalar_commands_load_no_arrays(argv):
    mods = run_cli(*argv)
    assert "hfq.cli" in mods
    assert not mods & (ARRAYS | {"inspect"})


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--q", "4", "--n", "2", "--h", "0"),
        ("census", "--q", "7", "--modulus", "1,0,1", "--n", "2", "--h", "0"),
        ("census", "--q", "3", "--n", "2", "--h=-1..0"),
        ("census", "--q", "3", "--n", "2", "--h", "0", "--guard", "0"),
        ("variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "7", "--h", "2", "--fast"),
        ("variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "18", "--h", "6",
         "--charsum", "--fast"),
        ("variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "5", "--h", "1",
         "--charsum", "--trust-lemmas"),
        ("variance", "--q", "3", "--U", "0,1", "--V", "0,1", "--n", "6", "--h", "2",
         "--oracle", "--charsum"),
        ("identity", "quadform", "--q", "3", "--l=-1..0"),
        ("identity", "w-sum", "--q", "3", "--U", "1", "--V", "1,0,1", "--n", "6"),
        ("phisum", "--q", "3", "--W2", "0,1", "--W3", "0,1", "--kmax", "3"),
        ("analyze", "--q", "3", "--alpha", "1,x"),
    ],
    ids=[
        "census-q4", "census-prime-modulus", "census-negative-h", "census-guard-0",
        "variance-fast-alone", "variance-fast-envelope", "variance-trust-alone",
        "variance-odd-U",
        "quadform-negative-l", "w-sum-even-V", "phisum-common-factor", "analyze-literal",
    ],
)
def test_refusals_load_no_arrays(argv):
    assert not run_cli(*argv, code=EXIT_USAGE) & (ARRAYS | {"inspect"})


@pytest.mark.parametrize("field", [("--q", "3"), ("--q", "9", "--modulus", "1,0,1")],
                         ids=["q3", "q9"])
def test_quadform_loads_no_hankel_polyring_or_variance(field):
    mods = run_cli("identity", "quadform", *field, "--l", "0..1")
    assert {"hfq.charsum", "hfq.fastpath"} <= mods  # the command ran
    assert not mods & {"hfq.hankel", "hfq.polyring", "hfq.variance"}


def test_census_loads_no_pool_and_no_variance_layers():
    mods = run_cli("census", "--q", "3", "--n", "4", "--h", "0")
    assert "hfq.census" in mods  # the command ran
    assert not mods & {"concurrent.futures.process", "multiprocessing"}
    assert not mods & {"hfq.charsum", "hfq.variance", "hfq.analytic"}
    assert not mods & {"hfq.hankel", "hfq.polyring"}


def test_phisum_loads_no_hankel_layers():
    mods = run_cli("phisum", "--q", "3", "--W2", "1", "--W3", "0,1", "--kmax", "5")
    assert "hfq.analytic" in mods  # the command ran
    assert not mods & {"hfq.hankel", "hfq.fastpath", "hfq.charsum", "hfq.variance", "hfq.checks"}


def test_fast_variance_loads_no_scalar_hankel_or_checks():
    mods = run_cli(
        "variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "7", "--h", "2",
        "--charsum", "--fast", "--trust-lemmas",
    )
    assert "hfq.fastpath" in mods  # the command ran
    assert not mods & {"hfq.hankel", "hfq.checks"}


def test_oracle_variance_loads_no_character_sum_layers():
    mods = run_cli("variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "5", "--h", "0",
                   "--oracle")
    assert "hfq.variance" in mods  # the command ran
    assert not mods & {"hfq.charsum", "hfq.fastpath", "hfq.hankel"}


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        hfq.nonexistent  # noqa: B018
    with pytest.raises(ImportError):
        exec("from hfq import nonexistent", {})
