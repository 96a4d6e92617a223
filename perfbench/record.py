"""Record the reference output of every command any seed can produce.

Usage, from the root of a checkout: python3 perfbench/record.py

Writes references.json: command line -> standard output.  run.py accepts a
command only if its output equals these bytes, so record them from a commit
whose output is trusted, and again only when a change is meant to alter
what the CLI prints.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402

from run import REFERENCES, run_command  # noqa: E402
from workloads import every_command  # noqa: E402


def main() -> int:
    refs = {}
    for tiny in (True, False):
        for cmd in every_command(tiny):
            res = run_command(cmd, False, None)
            if not res.ok:
                print(f"{cmd.key}: {res.error}", file=sys.stderr)
                return 1
            refs[cmd.key] = res.meta["stdout"]
            print(f"{res.end - res.start:7.2f} s  {cmd.key}", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
