"""Tiny-size self-test of the benchmark.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Runs run.py on every workload at tiny sizes, plain and traced, and checks
that each run exits 0, ends with the result object, prints every metric
BENCHMARK.json names with its unit and reports failed_ratio 0.  It also
checks that run.py fails, without printing a result, in a tree that holds
only BENCHMARK.json and the benchmark's own files.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, trace: int, tiny: bool = True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv + (["--tiny"] if tiny else []), cwd=root,
                          capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, where
    assert any("failed_ratio 0.0 " in line for line in lines), where
    assert not any(line.startswith("not found in the program") for line in lines), where
    want = spec["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in want], where
    for m in want:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        value = got["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), m["name"]
    print(f"ok  {where}: {len(want)} metrics", flush=True)


def check_no_program() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", root)
        shutil.copytree(HERE, root / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(root, "fast_tally", 0, tiny=False)
    assert proc.returncode != 0, "run.py succeeded without the program"
    assert '"correct"' not in proc.stdout, "run.py printed a result without the program"
    print("ok  no program: run.py exits", proc.returncode, flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_no_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
