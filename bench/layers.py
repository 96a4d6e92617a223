"""Layer and end-to-end timings of hfq, recorded in a BENCH_<n>.json.

    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python bench/layers.py --label after --out BENCH_9.json

imports hfq from PYTHONPATH and stores, under ``--label``, in the JSON file
(merged with the labels already there):

- the machine, its CPU count and the numpy version;
- fastpath.profile throughput, in sequences/s, on a seeded random block of
  F_3 sequences of length 13;
- the fast variance tally, variance_charsum(1, T, n, h, "fast") over F_3,
  at (n, h) = (12, 4) and (16, 6);
- acceptance criterion 11, the same tally at (18, 6);
- ``hfq census --q 3 --n 10 --h 0..11`` with --workers 1 and 2, as a
  subprocess;
- cold start: the wall time of a fresh interpreter that runs
  ``import hfq; hfq.ctx_new(3)``, and of three CLI commands (the phi sieve
  at kmax 9, a one-process census, and the benchmark's fast_tally
  variance command), each timed from process start to exit.

Subprocesses inherit the environment, PYTHONPATH included.  With
PYTHONDONTWRITEBYTECODE=1 and no hfq bytecode cached, a cold start also
compiles hfq from source, as the benchmark's fresh interpreters do;
``cold_hfq_bytecode_cached`` records whether any was cached.

Each figure is the median of --repeats wall-clock runs (of five times as
many for the profile throughput, and three times as many for a cold
start).  Run it once per
checkout, with the same --out, to put a before and an after side by side.
It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import hfq
from hfq import charsum, fastpath
from hfq.field import ctx_new
from hfq.polyring import Poly


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times), 4)


# label -> the arguments after ``python``, each run in a fresh interpreter
COLD_STARTS = {
    "import_ctx_new": ("-c", "import hfq; hfq.ctx_new(3)"),
    "phisum_q3_kmax9": ("-m", "hfq.cli", "phisum", "--q", "3", "--W2", "1", "--W3", "0,1",
                        "--kmax", "9"),
    "census_q3_n7": ("-m", "hfq.cli", "census", "--q", "3", "--n", "7", "--h", "0"),
    "fast_tally_q3_n12_h4": ("-m", "hfq.cli", "variance", "--q", "3", "--U", "1", "--V", "0,1",
                             "--n", "12", "--h", "4", "--charsum", "--fast", "--trust-lemmas"),
}


def _run(argv):
    return lambda: subprocess.run(argv, check=True, capture_output=True)


def cold_start(repeats: int) -> dict:
    pycache = os.path.join(os.path.dirname(hfq.__file__), "__pycache__")
    out = {"cold_hfq_bytecode_cached": bool(glob.glob(os.path.join(pycache, "*.pyc")))}
    for label, args in COLD_STARTS.items():
        out[f"cold_{label}_s"] = _median_s(_run([sys.executable, *args]), 3 * repeats)
    return out


def measure(repeats: int) -> dict:
    f3 = ctx_new(3)
    one, t = Poly.one(f3), Poly.t(f3)
    block = np.random.default_rng(8).integers(0, 3, size=(20000, 13))
    # a 50 ms call on a shared machine: five times the repeats
    profile_s = _median_s(lambda: fastpath.profile(f3, block), 5 * repeats)

    def tally(n, h):
        return lambda: charsum.variance_charsum(one, t, n, h, mode="fast")

    def census(workers):
        return _run([sys.executable, "-m", "hfq.cli", "census", "--q", "3", "--n", "10",
                     "--h", "0..11", "--workers", str(workers)])

    return {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": repeats,
        "fastpath.profile_seq_per_s": round(len(block) / profile_s),
        "walk_tally_s_n12_h4": _median_s(tally(12, 4), repeats),
        "walk_tally_s_n16_h6": _median_s(tally(16, 6), repeats),
        "criterion_11_s": _median_s(tally(18, 6), repeats),
        "criterion_11_value": str(tally(18, 6)()),
        "census_q3_n10_workers1_s": _median_s(census(1), repeats),
        "census_q3_n10_workers2_s": _median_s(census(2), repeats),
        **cold_start(repeats),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="key to store this run under")
    ap.add_argument("--out", default="BENCH_9.json")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data[args.label] = measure(args.repeats)
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(data[args.label], indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
