"""Benchmark of the hfq CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass runs the workload's commands (workloads.py) one after another, each
in a fresh interpreter (child.py) with ``--workers 1``, and checks every
command: it passes only if it exits 0 and its standard output equals the
bytes recorded for it in references.json.  After one untimed warm-up pass,
passes run as long as the next one is expected to end within ``--seconds``
of the start, so a run takes about that long.

The run pins itself and its interpreters to one CPU, and times a reference
loop that runs the way the workload does (calibrate.py) after the warm-up
pass and after every command; each command's times are rescaled by how fast
that loop ran just before and just after it, which takes out the drift of a
shared machine's speed.  With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json: the median rescaled pass time, sequences
enumerated per second of it, the median rescaled set-up time of the
interpreters and the median over passes of the largest peak RSS among a
pass's interpreters.  With ``--trace 1`` plain and traced passes alternate,
and the run reports the per-layer metrics of BENCHMARK.json from the traced
passes (see tracer.py) and the tracing overhead.  Human-readable lines come
first; the last line is one JSON object.  The exit code is 0 only if every
command passed.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import REFERENCE_S, calibrate  # noqa: E402
from tracer import MODULES  # noqa: E402
from workloads import CALIBRATION, WORKLOADS, Inputs, commands  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCES = HERE / "references.json"
CHILD_TIMEOUT_S = 150

# Layers each workload is built to be led by, by self time in a traced run.
PREDICTED_LEAD = {
    "fast_tally": {"fastpath"},
    "ext_field": {"field"},
    "oracle_sieve": {"analytic", "variance"},
}
# Workloads that must never reach the batched rank.
NO_BATCHED_RANK = ("scalar_census", "ext_field")


def child_env() -> dict:
    """The isolated environment every command runs in."""
    env = dict(os.environ)
    env.pop("HFQ_GUARD", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


@dataclass
class Result:
    ok: bool
    start: float
    end: float
    error: str = ""
    meta: dict = field(default_factory=dict)
    scale: float = 1.0  # rescales this command's times to the reference speed

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def setup_s(self) -> float:
        return self.meta["t_ready"] - self.start


def run_command(cmd, trace: bool, reference) -> Result:
    """Run one command in a fresh interpreter and check its output against
    ``reference`` (None accepts any output that comes with exit code 0)."""
    spec = {"argv": list(cmd.argv), "field": list(cmd.field), "src": str(SRC), "trace": trace}
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Result(False, start, time.monotonic(), f"{cmd.key}: timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return Result(False, start, time.monotonic(),
                      f"{cmd.key}: interpreter exited {proc.returncode}: {tail[0]}")
    meta = json.loads(proc.stdout.splitlines()[-1])
    if meta["code"] != 0:
        error = f"{cmd.key}: exit code {meta['code']}"
    elif reference is not None and meta["stdout"] != reference:
        error = f"{cmd.key}: output differs from the reference"
    else:
        error = ""
    return Result(not error, start, time.monotonic(), error, meta)


class Speed:
    """The calibration loop (calibrate.py), timed between commands.
    ``scale()`` is REFERENCE_S over the mean of the loop's times just before
    and just after the command that ended last."""

    def __init__(self, loop: str):
        self.loop = loop
        self.last = calibrate(loop)

    def scale(self) -> float:
        before, self.last = self.last, calibrate(self.loop)
        return REFERENCE_S[self.loop] / ((before + self.last) / 2)


@dataclass
class Pass:
    results: list

    @property
    def wall_s(self) -> float:
        """Time the pass's commands took, without the calibrations between."""
        return sum(r.wall_s for r in self.results)

    @property
    def scaled_s(self) -> float:
        return sum(r.wall_s * r.scale for r in self.results)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.results)


def run_pass(cmds, refs: dict, trace: bool, speed=None) -> Pass:
    results = []
    for c in cmds:
        if c.key in refs:
            results.append(run_command(c, trace, refs[c.key]))
        else:
            now = time.monotonic()
            results.append(Result(False, now, now, f"no reference for {c.key}"))
        if speed is not None:
            results[-1].scale = speed.scale()
    return Pass(results)


def add_stats(p: Pass) -> dict:
    """Per-function counters summed over the commands of a traced pass."""
    total: dict = {}
    for r in p.results:
        for name, vals in r.meta["stats"].items():
            acc = total.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
    return total


STATS = {
    "calls": lambda c, s, t, w: c,
    "self_s": lambda c, s, t, w: s,
    "us_per_call": lambda c, s, t, w: t / c * 1e6 if c else 0.0,
    "seq_per_s": lambda c, s, t, w: w / t if t else 0.0,
    "matrices": lambda c, s, t, w: w,
}


def module_self_s(stats: dict, module: str) -> float:
    return sum(v[1] for k, v in stats.items() if k.partition(".")[0] == module)


def layer_value(name: str, stats: dict, stdout_bytes: int, missing: set) -> float:
    """Value of a per-layer metric ``<module>.<function>.<stat>`` (or
    ``<module>.self_s``) from one traced pass."""
    module, _, rest = name.partition(".")
    func, _, stat = rest.rpartition(".")
    if not func:
        if stat == "self_s":
            return module_self_s(stats, module)
        if (module, stat) == ("cli", "stdout_bytes"):
            return stdout_bytes
        raise KeyError(f"no per-layer metric {name!r}")
    vals = stats.get(f"{module}.{func}")
    if vals is None:
        missing.add(f"{module}.{func}")
        vals = [0, 0.0, 0.0, 0]
    return STATS[stat](*vals)


def layer_shares(stats: dict) -> dict:
    self_s = {m: module_self_s(stats, m) for m in MODULES}
    total = sum(self_s.values()) or 1.0
    return {m: s / total for m, s in sorted(self_s.items(), key=lambda kv: -kv[1])}


def measure(cmds, refs: dict, seconds: float, trace: bool, loop: str):
    """A warm-up pass, then plain passes, or alternating plain and traced
    passes, until the next round would end after ``seconds`` or a command
    fails.  The warm-up pass is checked but not timed; at least one round
    always runs."""
    start = time.monotonic()
    warmup = run_pass(cmds, refs, False)
    plain, traced = [], []
    speed = Speed(loop)
    while not warmup.failed:
        plain.append(run_pass(cmds, refs, False, speed))
        if trace and not plain[-1].failed:
            traced.append(run_pass(cmds, refs, True, speed))
        if plain[-1].failed or (traced and traced[-1].failed):
            break
        round_s = statistics.median(p.wall_s for p in plain) + len(cmds) * speed.last
        if traced:
            round_s += statistics.median(p.wall_s for p in traced) + len(cmds) * speed.last
        if time.monotonic() - start + round_s > seconds:
            break
    return warmup, plain, traced


def end_to_end(spec: dict, cmds, plain) -> dict:
    """The metrics of a user's run: times are rescaled to the reference
    speed command by command (Speed), then their medians are taken."""
    walls = [p.scaled_s for p in plain]
    wall = statistics.median(walls)
    scales = [r.scale for p in plain for r in p.results]
    values = {
        "wall_s": wall,
        "seq_per_s": sum(c.seqs for c in cmds) / wall,
        "setup_s": statistics.median(r.setup_s * r.scale for p in plain for r in p.results),
        "peak_rss_mib": statistics.median(
            max(r.meta["maxrss_kib"] for r in p.results) / 1024 for p in plain),
    }
    raw = [p.wall_s for p in plain]
    print(f"wall_s per pass: median {wall:.4f}, min {min(walls):.4f}, "
          f"max {max(walls):.4f}, n {len(walls)}; as measured: median "
          f"{statistics.median(raw):.4f}, min {min(raw):.4f}, max {max(raw):.4f}")
    print(f"speed scale per command: median {statistics.median(scales):.4f}, "
          f"min {min(scales):.4f}, max {max(scales):.4f}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(spec: dict, workload: str, plain, traced) -> dict:
    missing: set = set()
    per_pass = []
    for p in traced:
        stats = add_stats(p)
        stdout_bytes = sum(len(r.meta["stdout"].encode()) for r in p.results)
        per_pass.append({m["name"]: layer_value(m["name"], stats, stdout_bytes, missing)
                         for m in spec["per_layer"] if m["name"] != "trace.overhead_ratio"})
    overhead = (statistics.median(p.scaled_s for p in traced)
                / statistics.median(p.scaled_s for p in plain))
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        value = overhead if name == "trace.overhead_ratio" else statistics.median(
            v[name] for v in per_pass)
        metrics[name] = {"value": value, "unit": m["unit"]}

    shares = layer_shares(add_stats(traced[0]))
    print("self time share: " + ", ".join(f"{m} {s:.1%}" for m, s in shares.items()))
    lead = PREDICTED_LEAD.get(workload)
    if lead:
        top = set(list(shares)[: len(lead)])
        print(f"predicted lead {sorted(lead)}: {'holds' if top == lead else 'does not hold'}")
    if workload in NO_BATCHED_RANK:
        calls = metrics.get("fastpath.batched_rank.calls", {}).get("value")
        print(f"fastpath.batched_rank.calls {calls}: {'holds' if calls == 0 else 'does not hold'}")
    if missing:
        print("not found in the program: " + ", ".join(sorted(missing)))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for selftest.py")
    args = ap.parse_args(argv)

    if not (SRC / "hfq" / "__init__.py").is_file():
        print(f"run.py: no hfq package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads(REFERENCES.read_text())
    cmds = commands(args.workload, args.seed, args.tiny)
    trace = bool(args.trace)

    # The run and every interpreter it starts share one CPU, so that the
    # calibration times the CPU the commands ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    warmup, plain, traced = measure(cmds, refs, args.seconds, trace,
                                    CALIBRATION[args.workload])
    results = [r for p in [warmup] + plain + traced for r in p.results]
    failed = sum(not r.ok for r in results)
    ok_meta = next((r.meta for r in results if r.meta), {})

    print(f"workload {args.workload}, seed {args.seed}: {Inputs.from_seed(args.seed)}")
    print(f"nproc {os.cpu_count()}, python {ok_meta.get('python')}, numpy {ok_meta.get('numpy')}")
    print(f"1 warm-up, {len(plain)} plain and {len(traced)} traced passes of {len(cmds)} commands; "
          f"failed_ratio {failed / len(results)} ({failed}/{len(results)} commands)")
    for r in results:
        if not r.ok:
            print(f"FAILED: {r.error}", file=sys.stderr)

    metrics = {}
    if not failed:
        metrics = per_layer(spec, args.workload, plain, traced) if trace else end_to_end(spec, cmds, plain)
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
