"""The modules of hfq read one another through public names only: no
module under src/hfq imports, or reads as an attribute, an underscore name
of another hfq module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hfq"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str, own: str) -> list:
    """Each read of another hfq module's underscore name in ``source``, the
    text of module ``own``, as 'line: module.name'."""
    tree = ast.parse(source)
    modules = {}  # local name -> the hfq module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                home = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "hfq":
                home = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if home is None:  # from . import fastpath
                    modules[alias.asname or alias.name] = alias.name
                    if _private(alias.name):
                        found.append(f"{node.lineno}: hfq.{alias.name}")
                elif home != own and _private(alias.name):
                    found.append(f"{node.lineno}: {home}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hfq.") and alias.asname:
                    modules[alias.asname] = alias.name.partition(".")[2]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and modules.get(node.value.id, own) != own
            and _private(node.attr)
        ):
            found.append(f"{node.lineno}: {modules[node.value.id]}.{node.attr}")
    return found


def test_the_scan_finds_private_reads():
    source = (
        "from .hankel import Seq, _lc_profile\n"
        "from . import fastpath, _hidden\n"
        "from hfq.variance import _half_degrees\n"
        "import hfq.census as census\n"
        "from .census import census_enumerate\n"
        "from .checks import _MAX_DETAIL\n"
        "fastpath._step(fastpath.walk, census._part, fastpath.__name__)\n"
    )
    assert private_reads(source, "checks") == [
        "1: hankel._lc_profile",
        "2: hfq._hidden",
        "3: variance._half_degrees",
        "7: fastpath._step",
        "7: census._part",
    ]


def test_no_module_reads_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = {
        path.name: private_reads(path.read_text(), path.stem)
        for path in modules
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
