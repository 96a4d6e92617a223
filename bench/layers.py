"""Layer and end-to-end timings of hfq, recorded in a BENCH_<n>.json.

    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python bench/layers.py --label after --out BENCH_12.json

imports hfq from PYTHONPATH and stores, under ``--label``, in the JSON file
(merged with the labels already there):

- the machine, its CPU count and the numpy version;
- fastpath.walk throughput, in sequences/s (leaves times q - 1), over all
  of F_3^12 with the one view (1,);
- the fast variance tally, variance_charsum(1, T, n, h, "fast") over F_3,
  at (n, h) = (12, 4) and (16, 6);
- acceptance criterion 11, the same tally at (18, 6);
- cold start: the wall time of a fresh interpreter that runs
  ``import hfq; hfq.ctx_new(3)``, and of three CLI commands (the phi sieve
  at kmax 9, a one-process census, and the benchmark's fast_tally
  variance command), each timed from process start to exit;
- the wall time and peak resident set size of the walk-bound CLI
  commands, each in one fresh interpreter: ``hfq variance --q 3 --U 1
  --V 0,1 --n N --h H --charsum --fast --trust-lemmas`` at (N, H) =
  (18, 6) (criterion 11), (20, 7) and (20, 6), case-3 points where the
  prefix-trie walk does nearly all the work; ``hfq census --q 3 --n 10
  --h 0..11`` and ``hfq census --q 3 --n N --h 0`` for N = 12, 13, 14,
  each with --workers 1 and 2 (the peak RSS is the main process's, without
  its pool workers); the exact character sum ``hfq variance --charsum``
  at q=5 (U = 1, V = T + 1, n = 7, h = 2) and q=3 (U = 1, V = T, n = 10,
  h = 2); ``hfq identity quadform`` at one level each of q=3 (l = 4), q=5
  (l = 3) and q=7 (l = 2); and ``hfq identity w-sum --q 5 --U 1 --V 0,1
  --n 8 --h 0``, every rank of one F_5 point;
- the benchmark's fast_tally workload (``perfbench/run.py --seconds 30
  --trace 0`` of the checkout that holds the imported hfq, seeds 1 and
  2): its ``wall_s``, ``peak_rss_mib`` and ``setup_s``.

Subprocesses inherit the environment, PYTHONPATH included.  With
PYTHONDONTWRITEBYTECODE=1 and no hfq bytecode cached, a cold start also
compiles hfq from source, as the benchmark's fresh interpreters do;
``cold_hfq_bytecode_cached`` records whether any was cached.

Each figure is the median of --repeats runs (of five times as many for
the walk throughput, and three times as many for a cold start); the
fast_tally figures are perfbench's own, from one run per seed.  Run it
once per checkout, with the same --out, to put a before and an after side
by side.  It is not part of the test suite.
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
from pathlib import Path

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


VARIANCE = ("variance", "--q", "3", "--U", "1", "--V", "0,1", "--charsum", "--fast",
            "--trust-lemmas")
CENSUS = ("census", "--q", "3")
EXACT = ("variance", "--U", "1", "--h", "2", "--charsum")
# label -> an hfq command line, run for its wall time and peak RSS
COMMANDS = {
    **{f"variance_fast_q3_n{n}_h{h}": (*VARIANCE, "--n", str(n), "--h", str(h))
       for n, h in ((18, 6), (20, 7), (20, 6))},
    **{f"census_q3_n10_workers{w}": (*CENSUS, "--n", "10", "--h", "0..11", "--workers", str(w))
       for w in (1, 2)},
    **{f"census_q3_n{n}_workers{w}": (*CENSUS, "--n", str(n), "--h", "0", "--workers", str(w))
       for n in (12, 13, 14) for w in (1, 2)},
    "variance_exact_q5_n7_h2": (*EXACT, "--q", "5", "--V", "1,1", "--n", "7"),
    "variance_exact_q3_n10_h2": (*EXACT, "--q", "3", "--V", "0,1", "--n", "10"),
    **{f"quadform_q{q}_l{l}": ("identity", "quadform", "--q", str(q), "--l", f"{l}..{l}")
       for q, l in ((3, 4), (5, 3), (7, 2))},
    "w_sum_q5_n8_h0": ("identity", "w-sum", "--q", "5", "--U", "1", "--V", "0,1",
                       "--n", "8", "--h", "0"),
}
FAST_TALLY_SEEDS = (1, 2)
FAST_TALLY_SECONDS = 30


def _run(argv):
    return lambda: subprocess.run(argv, check=True, capture_output=True)


# runs the hfq command in argv, then prints this interpreter's own peak
# RSS (VmHWM, KiB) to stderr: ru_maxrss would also count the resident set
# of the process that started it, at the fork
_PEAK_RSS = """import sys, hfq.cli
code = hfq.cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(l.split()[1] for l in status if l.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)"""


def _run_once(argv) -> tuple:
    """(wall seconds, peak RSS in MiB) of one hfq command in a fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], check=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return time.perf_counter() - t0, int(proc.stderr.split()[-1]) / 1024


def commands(repeats: int) -> dict:
    out = {}
    for label, argv in COMMANDS.items():
        runs = [_run_once(argv) for _ in range(repeats)]
        walls, rss = zip(*runs)
        out[f"{label}_s"] = round(statistics.median(walls), 3)
        out[f"{label}_peak_rss_mib"] = round(statistics.median(rss), 2)
    return out


def fast_tally() -> dict:
    run_py = Path(hfq.__file__).resolve().parents[2] / "perfbench" / "run.py"
    out = {}
    for seed in FAST_TALLY_SEEDS:
        line = subprocess.run(
            [sys.executable, str(run_py), "--workload", "fast_tally", "--seed", str(seed),
             "--seconds", str(FAST_TALLY_SECONDS), "--trace", "0"],
            check=True, capture_output=True, text=True,
        ).stdout.splitlines()[-1]
        metrics = json.loads(line)["metrics"]
        for key in ("wall_s", "peak_rss_mib", "setup_s"):
            out[f"fast_tally_seed{seed}_{key}"] = round(metrics[key]["value"], 4)
    return out


def cold_start(repeats: int) -> dict:
    pycache = os.path.join(os.path.dirname(hfq.__file__), "__pycache__")
    out = {"cold_hfq_bytecode_cached": bool(glob.glob(os.path.join(pycache, "*.pyc")))}
    for label, args in COLD_STARTS.items():
        out[f"cold_{label}_s"] = _median_s(_run([sys.executable, *args]), 3 * repeats)
    return out


def measure(repeats: int) -> dict:
    f3 = ctx_new(3)
    one, t = Poly.one(f3), Poly.t(f3)

    def walk():
        return sum(len(ents) for _, ents in fastpath.walk(f3, 12, 0, ((1,),)))

    # a short call on a shared machine: five times the repeats
    walk_s = _median_s(walk, 5 * repeats)

    def tally(n, h):
        return lambda: charsum.variance_charsum(one, t, n, h, mode="fast")

    return {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": repeats,
        "fastpath.walk_seq_per_s": round(walk() * (f3.q - 1) / walk_s),
        "walk_tally_s_n12_h4": _median_s(tally(12, 4), repeats),
        "walk_tally_s_n16_h6": _median_s(tally(16, 6), repeats),
        "criterion_11_s": _median_s(tally(18, 6), repeats),
        "criterion_11_value": str(tally(18, 6)()),
        **cold_start(repeats),
        **commands(repeats),
        **fast_tally(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="key to store this run under")
    ap.add_argument("--out", default="BENCH_12.json")
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
