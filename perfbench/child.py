"""Run one hfq CLI command in this fresh interpreter and report on it.

Usage: python3 perfbench/child.py '<spec json>'

The spec carries the CLI arguments, the field to build during set-up, the
checkout's ``src`` directory and whether to trace.  The command's standard
output is captured and returned inside the single JSON line this script
prints, together with the time set-up ended (on the system-wide monotonic
clock, which the parent started from), the exit code, the peak RSS and,
when tracing, the per-function counters.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def peak_rss_kib() -> int:
    """Peak resident set of this interpreter alone.  ru_maxrss would also
    count the parent's resident set at the fork that started it."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    spec = json.loads(sys.argv[1])
    import hfq
    import hfq.cli

    if not os.path.abspath(hfq.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        raise SystemExit(f"hfq imported from {hfq.__file__}, not from {spec['src']}")
    p, k, modulus = spec["field"]
    hfq.ctx_new(p, k, modulus)
    t_ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = hfq.cli.main(spec["argv"])
        except SystemExit as exc:  # argparse exits on bad usage
            code = exc.code
    t_done = time.monotonic()

    import numpy

    print(json.dumps({
        "code": code,
        "stdout": out.getvalue(),
        "t_ready": t_ready,
        "t_done": t_done,
        "maxrss_kib": peak_rss_kib(),
        "stats": tracer.stats if tracer else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }))


if __name__ == "__main__":
    main()
