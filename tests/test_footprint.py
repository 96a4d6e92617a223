"""What a fresh interpreter loads: ``import hfq`` alone loads no submodule,
and each CLI command loads only the modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hfq
from hfq import analytic, charsum, field, hankel, polyring, variance

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


def run_cli(*argv) -> set:
    return loaded_after(f"from hfq.cli import main\nmain({list(argv)!r})")


def test_import_hfq_loads_no_submodule():
    mods = loaded_after("import hfq")
    assert "hfq" in mods
    assert not {m for m in mods if m.startswith("hfq.")}
    assert "numpy" not in mods and "concurrent.futures" not in mods


def test_census_loads_no_pool_and_no_variance_layers():
    mods = run_cli("census", "--q", "3", "--n", "4", "--h", "0")
    assert "hfq.hankel" in mods  # the command ran
    assert not mods & {"concurrent.futures.process", "multiprocessing"}
    assert not mods & {"hfq.charsum", "hfq.variance", "hfq.analytic"}


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


def test_lazy_names_are_the_home_modules_objects():
    homes = {m.__name__: m for m in (analytic, charsum, field, hankel, polyring, variance)}
    table = hfq._HOME  # public name -> home submodule
    assert sorted(table) == sorted(hfq.__all__)
    for name in hfq.__all__:
        assert getattr(hfq, name) is getattr(homes[f"hfq.{table[name]}"], name)
    star: dict = {}
    exec("from hfq import *", star)
    assert {k for k in star if not k.startswith("__")} == set(hfq.__all__)
    assert hfq.hankel is hankel and hfq.checks.CheckResult
    assert set(hfq.__all__) <= set(dir(hfq))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        hfq.nonexistent  # noqa: B018
    with pytest.raises(ImportError):
        exec("from hfq import nonexistent", {})
