"""Layer and end-to-end timings of hfq, recorded in a BENCH_<n>.json.

    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python bench/layers.py --label after --out BENCH_14.json
    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python bench/layers.py --label pair \
        --parent ../parent-checkout --out BENCH_16.json
    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python bench/layers.py --label pair \
        --parent ../parent-checkout --only fast_tally --only closed_form_q3_n6_h3 \
        --repeats 4 --out BENCH_19.json

imports hfq from PYTHONPATH and stores, under ``--label``, in the JSON file
(merged with the labels already there):

- the machine, its CPU count and the numpy version;
- fastpath.walk throughput, in sequences/s (leaves times q - 1), over all
  of F_3^12 with the one view (1,);
- the fast variance tally, variance_charsum(par, "fast") over F_3 at the
  point (U, V, n, h) = (1, T, n, h), for (n, h) = (12, 4) and (16, 6);
- in-process layers, each the best of 7 passes in a fresh interpreter:
  the class/pair bijection, where Poly division does the work
  (analyze, bijection_map and bijection_inverse over 2,000 class-(4, 4, 0)
  F_3 sequences, n = 8); the field ops mul, add and inv over F_27 (200,000
  random operand pairs each); Poly mul, divmod and gcd over F_3 (500 random
  pairs of monic degree-20 polynomials, divmod dividing their product plus
  the first by the second); fastpath.qform_counts, monic and full, on 3,000
  random F_3 sequences at l = 4; and the brute-force oracle over F_3 at
  (U, V, n, h) = (T^2 + 1, T, 12, 4), run as ``hfq.cli.main(["variance",
  ..., "--oracle"])`` with its stdout discarded, so that both sides of
  ``--parent`` run the same call whatever the library's signatures;
- acceptance criterion 11, the same tally at (18, 6);
- cold start: the wall time and peak resident set size of a fresh
  interpreter that runs the benchmark's set-up, ``import hfq, hfq.cli;
  hfq.ctx_new(3)``, and of CLI commands run after that import, each timed
  from process start to exit: ``--help``, the exit-64 refusals of
  ``census --q 4`` (by the field check) and of ``variance ... --or`` (an
  unknown flag, refused by the flag reader), the scalar ``analyze`` and
  ``identity kernel-structure`` (F_3, n <= 3), ``identity quadform`` at level 0 over
  F_9, phisum at kmax 9, a one-process census, and the benchmark's
  fast_tally variance command, the closed forms ``variance --q 3 --U
  1,0,1 --V 0,1 --n 6 --h 3`` (case 2, neither --oracle nor --charsum) and
  ``variance --q 3 --U 1 --V 0,1 --n 17 --h 6`` (case 3), the case-3
  point at deg U = 20, ``variance --q 3 --U
  1,2,1,1,2,0,2,0,1,0,0,0,2,2,0,1,2,0,1,2,1 --V 0,1 --n 176 --h 66``, whose
  f-sums count over the divisors of U and V, and the case-2
  point with ``--oracle --charsum``, and two wide ranges, the guard's exit 2
  of ``identity kernel-structure --q 3 --n 0..30000`` and ``census --q 3
  --n 0 --h 0..30000000``, of which only h <= 1 can be checked;
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
  (l = 3) and q=7 (l = 2); ``hfq identity w-sum --q 5 --U 1 --V 0,1
  --n 8 --h 0``, every rank of one F_5 point; ``hfq phisum --q 3 --W2 1
  --W3 0,1 --kmax 12``, the depth of acceptance criterion 10; ``hfq identity
  bijection`` at q=3 (n = 8, r = 4, h = 0..3) and q=5 (n = 6, r = 3,
  h = 0..2), the class/pair bijection and its pair set; and ``hfq identity
  kernel-structure --q 3 --n 0..6``, the scalar pass and Gaussian
  elimination of acceptance criterion 02;
- the benchmark's four workloads, fast_tally, scalar_census, ext_field and
  oracle_sieve (``perfbench/run.py --seconds 30 --trace 0`` of the
  checkout that holds the imported hfq, --repeats runs each, the seed
  alternating between 1 and 2): their ``wall_s``, ``peak_rss_mib`` and
  ``setup_s``.

Subprocesses inherit the environment, PYTHONPATH included.  With
PYTHONDONTWRITEBYTECODE=1 and no hfq bytecode cached, a cold start also
compiles hfq from source, as the benchmark's fresh interpreters do;
``cold_hfq_bytecode_cached`` records whether any was cached.

``--only LABEL`` (repeatable) runs only the named figures: a cold start or
a command by its label (``COLD_STARTS``, ``COMMANDS``), a perfbench
workload by its name, ``walk`` for the walk throughput and tallies, and
``layers`` for the in-process layers.  A change that touches a few
commands can so compare them over many pairs of runs (``--repeats 4``
gives 12 pairs of each cold start).

Each figure is the median of --repeats runs (of five times as many for
the walk throughput, and three times as many for a cold start or an
in-process layer), and each fresh-interpreter figure also keeps the range
and the quartiles of its runs (``_range``, ``_quartiles``); a perfbench
figure is the median of the metric that perfbench itself reports, over
--repeats runs of the workload.

With ``--parent DIR``, every cold start, in-process layer and command also
runs under ``DIR/src``, and every workload and seed also under
``DIR/perfbench/run.py`` (which measures ``DIR/src``), alternating with
this checkout's runs (--repeats pairs of each workload), the
side that goes first switching each repeat, so that a slowdown of a shared
machine falls on both sides alike; the parent's figures are stored in the
same record under the prefix ``parent_``.  Without it, run the tool once
per checkout, with the same --out, to put a before and an after side by
side.  It is not part of the test suite.
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
from hfq.variance import ThmParams


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times), 4)


# label -> (an hfq command line, its exit code), each run in a fresh
# interpreter; the empty command line runs the benchmark's set-up alone
COLD_STARTS = {
    "setup": ((), 0),
    "help": (("--help",), 0),
    "refusal_census_q4": (("census", "--q", "4", "--n", "2", "--h", "0"), 64),
    "refusal_variance_or": (("variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "6", "--h",
                             "2", "--or"), 64),
    "analyze_q3": (("analyze", "--q", "3", "--alpha", "0,0,1,0,0"), 0),
    "kernel_structure_q3_n3": (("identity", "kernel-structure", "--q", "3", "--n", "0..3"), 0),
    "quadform_q9_l0": (("identity", "quadform", "--q", "9", "--modulus", "1,0,1", "--l", "0..0"),
                       0),
    "phisum_q3_kmax9": (("phisum", "--q", "3", "--W2", "1", "--W3", "0,1", "--kmax", "9"), 0),
    "census_q3_n7": (("census", "--q", "3", "--n", "7", "--h", "0"), 0),
    "fast_tally_q3_n12_h4": (("variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "12",
                              "--h", "4", "--charsum", "--fast", "--trust-lemmas"), 0),
    "closed_form_q3_n6_h3": (("variance", "--q", "3", "--U", "1,0,1", "--V", "0,1", "--n", "6",
                              "--h", "3"), 0),
    "closed_form_q3_n17_h6": (("variance", "--q", "3", "--U", "1", "--V", "0,1", "--n", "17",
                               "--h", "6"), 0),
    "closed_form_deg20_case3": (("variance", "--q", "3", "--U",
                                "1,2,1,1,2,0,2,0,1,0,0,0,2,2,0,1,2,0,1,2,1", "--V", "0,1",
                                "--n", "176", "--h", "66"), 0),
    "oracle_charsum_q3_n6_h3": (("variance", "--q", "3", "--U", "1,0,1", "--V", "0,1", "--n",
                                 "6", "--h", "3", "--oracle", "--charsum"), 0),
    "wide_kernel_structure_q3": (("identity", "kernel-structure", "--q", "3", "--n", "0..30000"),
                                 2),
    "wide_census_q3_h": (("census", "--q", "3", "--n", "0", "--h", "0..30000000"), 0),
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
    "phisum_q3_kmax12": ("phisum", "--q", "3", "--W2", "1", "--W3", "0,1", "--kmax", "12"),
    "bijection_q3_n8_r4": ("identity", "bijection", "--q", "3", "--n", "8", "--r", "4",
                           "--h", "0..3"),
    "bijection_q5_n6_r3": ("identity", "bijection", "--q", "5", "--n", "6", "--r", "3",
                           "--h", "0..2"),
    "kernel_structure_q3_n6": ("identity", "kernel-structure", "--q", "3", "--n", "0..6"),
}
PERFBENCH_WORKLOADS = ("fast_tally", "scalar_census", "ext_field", "oracle_sieve")
PERFBENCH_SEEDS = (1, 2)
PERFBENCH_METRICS = ("wall_s", "peak_rss_mib", "setup_s")
PERFBENCH_SECONDS = 30


# runs the benchmark's set-up and then the hfq command in argv, if any, and
# prints this interpreter's own peak RSS (VmHWM, KiB) to stderr: ru_maxrss
# would also count the resident set of the process that started it, at the
# fork
_PEAK_RSS = """import sys, hfq, hfq.cli
hfq.ctx_new(3)
code = 0
if sys.argv[1:]:
    try:
        code = hfq.cli.main(sys.argv[1:])
    except SystemExit as exc:  # the flag reader exits after --help and on a usage error
        code = exc.code
with open("/proc/self/status") as status:
    print(next(l.split()[1] for l in status if l.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)"""


# prints, as JSON, the best of 7 timed passes of each in-process layer (see
# the module docstring); the inputs are fixed by the seed, the same on
# every side
_LAYERS = """import contextlib, io, json, random, time
from itertools import islice
import numpy as np
import hfq.cli
from hfq import fastpath
from hfq.field import ctx_new, fq_vectors
from hfq.hankel import Seq, analyze, bijection_inverse, bijection_map
from hfq.polyring import Poly, gcd
def oracle():
    argv = ["variance", "--q", "3", "--U", "1,0,1", "--V", "0,1", "--n", "12", "--h", "4",
            "--oracle"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert hfq.cli.main(argv) == 0
def best(fn):
    out = float("inf")
    for _ in range(7):
        t0 = time.perf_counter()
        fn()
        out = min(out, time.perf_counter() - t0)
    return out
f3, f27 = ctx_new(3), ctx_new(3, 3, (1, 2, 0, 1))
seqs = (Seq(f3, e) for e in fq_vectors(f3, 9))
seqs = list(islice((s for s in seqs if analyze(s).profile.standard == (4, 4, 0)), 2000))
rng = random.Random(0)
elems = [(rng.randrange(27), rng.randrange(1, 27)) for _ in range(200000)]
polys = [Poly(f3, [rng.randrange(3) for _ in range(20)] + [1]) for _ in range(1000)]
pairs = list(zip(polys[::2], polys[1::2]))
quotients = [(a * b + a, b) for a, b in pairs]
block = np.array([[rng.randrange(3) for _ in range(9)] for _ in range(3000)])
print(json.dumps({
    "bijection_roundtrip_q3_n8": best(
        lambda: [bijection_inverse(*bijection_map(analyze(s), 0), 8, 0) for s in seqs]),
    "field_mul_q27": best(lambda: [f27.mul(a, b) for a, b in elems]),
    "field_add_q27": best(lambda: [f27.add(a, b) for a, b in elems]),
    "field_inv_q27": best(lambda: [f27.inv(b) for _, b in elems]),
    "poly_mul_q3_deg20": best(lambda: [a * b for a, b in pairs]),
    "poly_divmod_q3_deg40_by_deg20": best(lambda: [divmod(a, b) for a, b in quotients]),
    "poly_gcd_q3_deg20": best(lambda: [gcd(a, b) for a, b in pairs]),
    "qform_counts_q3_l4": best(
        lambda: [fastpath.qform_counts(f3, block, 4, monic) for monic in (True, False)]),
    "variance_oracle_q3_n12_h4": best(oracle),
}))"""


def _src_dirs(parent) -> list:
    """(key prefix, src directory) of the imported hfq and, with ``parent``,
    of ``parent/src``."""
    sides = [("", str(Path(hfq.__file__).resolve().parents[1]))]
    if parent:
        sides.append(("parent_", str(Path(parent).resolve() / "src")))
    return sides


def _env(src: str) -> dict:
    paths = (src, os.environ.get("PYTHONPATH"))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def _run_once(argv, code: int, src: str) -> tuple:
    """(wall seconds, peak RSS in MiB) of one hfq command in a fresh
    interpreter that imports hfq from ``src``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=_env(src),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != code:
        raise SystemExit(f"hfq {' '.join(argv)} exited {proc.returncode}, not {code}")
    return wall, int(proc.stderr.split()[-1]) / 1024


def _spread(key: str, values, digits: int) -> dict:
    """The median of ``values`` under ``key``, with their range and their
    quartiles."""
    values = sorted(values)
    quartiles = statistics.quantiles(values, n=4, method="inclusive") if values[1:] else values * 2
    return {
        key: round(statistics.median(values), digits),
        f"{key}_range": [round(values[0], digits), round(values[-1], digits)],
        f"{key}_quartiles": [round(quartiles[0], digits), round(quartiles[-1], digits)],
    }


def _sides(label: str, argv, code: int, runs: int, parent) -> dict:
    """The medians of ``runs`` fresh runs of one command under the imported
    hfq's src and, with ``parent``, as many under ``parent/src`` (keys
    prefixed ``parent_``), alternating, the first side switching each run."""
    sides = _src_dirs(parent)
    times = {prefix: [] for prefix, _ in sides}
    for i in range(runs):
        for prefix, src in sides[:: -1 if i % 2 else 1]:
            times[prefix].append(_run_once(argv, code, src))
    out = {}
    for prefix, results in times.items():
        walls, rss = zip(*results)
        out.update(_spread(f"{prefix}{label}_s", walls, 3))
        out[f"{prefix}{label}_peak_rss_mib"] = round(statistics.median(rss), 2)
    return out


def in_process(repeats: int, parent) -> dict:
    """Per in-process layer, the median, over 3 * ``repeats`` fresh
    interpreters per side (alternating, the first side switching each run),
    of its best pass, with the range of those bests."""
    sides = _src_dirs(parent)
    best = {prefix: [] for prefix, _ in sides}
    for i in range(3 * repeats):
        for prefix, src in sides[:: -1 if i % 2 else 1]:
            proc = subprocess.run([sys.executable, "-c", _LAYERS], env=_env(src),
                                  check=True, capture_output=True, text=True)
            best[prefix].append(json.loads(proc.stdout))
    out = {}
    for prefix, runs in best.items():
        for layer in runs[0]:
            out.update(_spread(f"{prefix}{layer}_s", [run[layer] for run in runs], 4))
    return out


def commands(repeats: int, parent, labels) -> dict:
    out = {}
    for label in labels:
        out.update(_sides(label, COMMANDS[label], 0, repeats, parent))
    return out


def perfbench(repeats: int, parent, workloads) -> dict:
    """``repeats`` runs of each workload, the seed cycling through
    PERFBENCH_SEEDS, under this checkout's perfbench/run.py and, with
    ``parent``, as many under ``parent/perfbench/run.py`` (keys prefixed
    ``parent_``), alternating, the first side switching each run: each
    side's median, range and quartiles of every metric."""
    sides = [("", Path(hfq.__file__).resolve().parents[2])]
    if parent:
        sides.append(("parent_", Path(parent).resolve()))
    out = {}
    for workload in workloads:
        values = {(prefix, key): [] for prefix, _ in sides for key in PERFBENCH_METRICS}
        for i in range(repeats):
            seed = PERFBENCH_SEEDS[i % len(PERFBENCH_SEEDS)]
            for prefix, root in sides[:: -1 if i % 2 else 1]:
                line = subprocess.run(
                    [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(PERFBENCH_SECONDS), "--trace", "0"],
                    check=True, capture_output=True, text=True,
                ).stdout.splitlines()[-1]
                metrics = json.loads(line)["metrics"]
                for key in PERFBENCH_METRICS:
                    values[prefix, key].append(metrics[key]["value"])
        for (prefix, key), runs in values.items():
            out.update(_spread(f"{prefix}{workload}_{key}", runs, 4))
    return out


def cold_start(repeats: int, parent, labels) -> dict:
    pycache = os.path.join(os.path.dirname(hfq.__file__), "__pycache__")
    out = {"cold_hfq_bytecode_cached": bool(glob.glob(os.path.join(pycache, "*.pyc")))}
    if parent:
        pycache = os.path.join(parent, "src", "hfq", "__pycache__")
        out["parent_cold_hfq_bytecode_cached"] = bool(glob.glob(os.path.join(pycache, "*.pyc")))
    for label in labels:
        argv, code = COLD_STARTS[label]
        out.update(_sides(f"cold_{label}", argv, code, 3 * repeats, parent))
    return out


def walk_figures(repeats: int) -> dict:
    """The walk's throughput and the fast tallies, on this checkout only."""
    f3 = ctx_new(3)
    one, t = Poly.one(f3), Poly.t(f3)

    def walk():
        return sum(len(ents) for _, ents in fastpath.walk(f3, 12, 0, ((1,),)))

    # a short call on a shared machine: five times the repeats
    walk_s = _median_s(walk, 5 * repeats)

    def tally(n, h):
        par = ThmParams.compute(one, t, n, h)
        return lambda: charsum.variance_charsum(par, mode="fast")

    return {
        "fastpath.walk_seq_per_s": round(walk() * (f3.q - 1) / walk_s),
        "walk_tally_s_n12_h4": _median_s(tally(12, 4), repeats),
        "walk_tally_s_n16_h6": _median_s(tally(16, 6), repeats),
        "criterion_11_s": _median_s(tally(18, 6), repeats),
        "criterion_11_value": str(tally(18, 6)()),
    }


# the figures --only can name
LABELS = ("walk", "layers", *COLD_STARTS, *COMMANDS, *PERFBENCH_WORKLOADS)


def measure(repeats: int, parent=None, only=None) -> dict:
    """Every figure, or with ``only`` the figures it names."""
    only = set(only or LABELS)
    out = {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": repeats,
    }
    if "walk" in only:
        out.update(walk_figures(repeats))
    if "layers" in only:
        out.update(in_process(repeats, parent))
    out.update(cold_start(repeats, parent, [l for l in COLD_STARTS if l in only]))
    out.update(commands(repeats, parent, [l for l in COMMANDS if l in only]))
    out.update(perfbench(repeats, parent, [w for w in PERFBENCH_WORKLOADS if w in only]))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="key to store this run under")
    ap.add_argument("--out", required=True, help="JSON file to merge this run into")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--parent", metavar="DIR",
                    help="a second checkout whose src each cold start and command alternates with")
    ap.add_argument("--only", action="append", choices=LABELS, metavar="LABEL",
                    help="run only this figure (repeatable): " + ", ".join(LABELS))
    args = ap.parse_args()
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data[args.label] = measure(args.repeats, args.parent, args.only)
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(data[args.label], indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
