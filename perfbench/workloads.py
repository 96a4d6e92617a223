"""The benchmark's workloads: which hfq CLI commands each one runs.

Every input the program sees comes from a finite family picked by the seed,
so references for every family member can be recorded once (see record.py):

* ``V = T + c`` (and ``W3 = T + c``) with c in F_q;
* the F_9 modulus among 1+T^2, 2+T+T^2 and 2+2T+T^2.

Members of one family cost the same, so a run's figures do not depend on
which member its seed picked.  Sizes are chosen so one pass over a
workload's commands takes one to two and a half seconds on a 2-CPU machine,
which gives a run of BENCHMARK.json's ``run_seconds`` a dozen or more passes
to take a median of, while the layer the workload is meant to stress stays
dominant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

F9_MODULI = ("1,0,1", "2,1,1", "2,2,1")


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments, its field and how many sequences it
    enumerates (the numerator of ``seq_per_s``)."""

    argv: tuple
    field: tuple  # (p, k, modulus or None), for the set-up context build
    seqs: int

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Inputs:
    """One member of every input family."""

    c3: int  # V = T + c and W3 = T + c over F_3
    c5: int  # V = T + c over F_5
    modulus: str  # F_9 defining polynomial

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = random.Random(seed)
        return cls(rng.randrange(3), rng.randrange(5), rng.choice(F9_MODULI))


def _modulus_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def fast_tally(inp: Inputs, tiny: bool) -> list:
    # The README headline command (variance --n 18 --h 6 --fast), scaled
    # down: the batched numpy rank in fastpath does nearly all the work.
    n, h = (7, 2) if tiny else (12, 4)
    argv = ("variance", "--q", "3", "--U", "1", "--V", f"{inp.c3},1",
            "--n", str(n), "--h", str(h), "--charsum", "--fast", "--trust-lemmas")
    return [Command(argv, (3, 1, None), 3 ** (n + 1 - h))]


def scalar_census(inp: Inputs, tiny: bool) -> list:
    # The scalar profile / char_polys path, no fastpath at all.  No input
    # is free here: the commands are the same for every seed.  census is
    # the one command that reads --workers; one process measures the
    # program rather than the scheduler of a shared machine.
    n, ks = (4, 2) if tiny else (7, 3)
    return [
        Command(("census", "--q", "3", "--n", str(n), "--h", "0", "--workers", "1"),
                (3, 1, None), 3 ** (n + 1)),
        Command(("identity", "kernel-structure", "--q", "3", "--n", f"0..{ks}"),
                (3, 1, None), sum(3 ** (m + 1) for m in range(ks + 1))),
    ]


def ext_field(inp: Inputs, tiny: bool) -> list:
    # F_9 elements are tuples, and charsum's prime-field gate sends every
    # sequence down the scalar path: tuple arithmetic in field dominates.
    # quadform stays at level 0: level 1 alone takes about 7 s, which would
    # leave a run only a few passes.
    m = ("--q", "9", "--modulus", inp.modulus)
    field = (3, 2, _modulus_ints(inp.modulus))
    n_census, n_var = (1, 2) if tiny else (2, 3)
    return [
        Command(("census",) + m + ("--n", str(n_census), "--h", "0", "--workers", "1"),
                field, 9 ** (n_census + 1)),
        Command(("identity", "quadform") + m + ("--l", "0..0"), field, 9),
        Command(("variance",) + m + ("--U", "[1,0]", "--V", "[0,0],[1,0]",
                 "--n", str(n_var), "--h", "1",
                 "--oracle", "--charsum", "--fast", "--trust-lemmas"),
                field, 9 ** n_var),
    ]


def oracle_sieve(inp: Inputs, tiny: bool) -> list:
    # The per-sequence qform_value_counts path, variance_bruteforce and the
    # phi sieve in analytic: the layers the other workloads leave idle.
    n5, h5, n3, kmax = (4, 1, 5, 5) if tiny else (6, 2, 10, 9)
    return [
        Command(("variance", "--q", "5", "--U", "1", "--V", f"{inp.c5},1",
                 "--n", str(n5), "--h", str(h5), "--oracle", "--charsum"),
                (5, 1, None), 5 ** (n5 + 1 - h5)),
        Command(("variance", "--q", "3", "--U", "1", "--V", f"{inp.c3},1",
                 "--n", str(n3), "--h", "0", "--oracle"),
                (3, 1, None), 0),
        Command(("phisum", "--q", "3", "--W2", "1", "--W3", f"{inp.c3},1",
                 "--kmax", str(kmax)),
                (3, 1, None), 0),
    ]


# The calibration loop (calibrate.py) that runs the way each workload does:
# fast_tally in numpy, the others in the interpreter.
CALIBRATION = {
    "fast_tally": "batched",
    "scalar_census": "interpreted",
    "ext_field": "interpreted",
    "oracle_sieve": "interpreted",
}

WORKLOADS = {
    "fast_tally": fast_tally,
    "scalar_census": scalar_census,
    "ext_field": ext_field,
    "oracle_sieve": oracle_sieve,
}


def commands(workload: str, seed: int, tiny: bool = False) -> list:
    return WORKLOADS[workload](Inputs.from_seed(seed), tiny)


def every_command(tiny: bool) -> list:
    """Every command any seed can produce, each once."""
    seen = {}
    for c3 in range(3):
        for c5 in range(5):
            for modulus in F9_MODULI:
                inp = Inputs(c3, c5, modulus)
                for build in WORKLOADS.values():
                    for cmd in build(inp, tiny):
                        seen.setdefault(cmd.key, cmd)
    return list(seen.values())
