"""Fixed reference loops that measure how fast the machine runs right now.

The speed of a shared machine drifts: on a 2-CPU VM the same pass took twice
as long from one minute to the next, and its CPU time drifted with it, so no
median over a run can remove the drift.  run.py times a loop just before and
just after every command, on the same CPU, and rescales the command's times
by how much slower or faster than ``REFERENCE_S`` the loop ran.

There are two loops, one for each way hfq spends its time: ``interpreted``
does tuple and list arithmetic over F_3 in Python, like field, polyring and
hankel; ``batched`` squares a batch of integer matrices mod 3 in numpy, like
fastpath.  Each workload is rescaled by the loop that runs the way it does
(workloads.CALIBRATION); the other loop, or a mix of both, tracked it less
closely.  The loops import nothing from hfq, so no change to the program
moves them.
"""

import time

import numpy as np

# Round figures near each loop's time on the machine the bounds were set on
# (2-CPU VM, Python 3.11.7, numpy 2.4.6).  They only set the unit: a
# rescaled time reads as seconds at the speed these figures stand for.
REFERENCE_S = {"interpreted": 0.1, "batched": 0.1}

_MATS = np.random.default_rng(0).integers(0, 3, size=(4000, 8, 8))


def _interpreted(rounds: int) -> int:
    """Schoolbook products of degree-7 polynomials over F_3, as tuples."""
    a = (1, 2, 0, 1, 1, 2, 0, 2)
    acc = 0
    for i in range(rounds):
        b = tuple((x * (i % 5) + 1) % 3 for x in a)
        prod = [0] * 15
        for j, x in enumerate(a):
            for k, y in enumerate(b):
                prod[j + k] = (prod[j + k] + x * y) % 3
        acc += sum(prod)
    return acc


def _batched(rounds: int) -> int:
    """Repeated squaring of a batch of 8x8 matrices over F_3."""
    m = _MATS
    for _ in range(rounds):
        m = (m @ m) % 3
    return int(m.sum())


LOOPS = {"interpreted": lambda: _interpreted(10000), "batched": lambda: _batched(24)}


def calibrate(kind: str) -> float:
    """Seconds the ``kind`` loop takes now."""
    t0 = time.perf_counter()
    LOOPS[kind]()
    return time.perf_counter() - t0
