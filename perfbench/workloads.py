"""The benchmark's workloads: fixed lists of ``symwalk`` CLI commands.

Each workload is a list of argument vectors for ``python -m symwalk.cli``.
The profile and verify workloads are exact computations with no random
input, so their commands do not depend on the seed.  The Monte Carlo
workload derives one sampler seed per command from the benchmark seed, so
the same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]
    seeded: bool = False  # True: each command takes a derived --seed


def _split(*lines: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(line.split()) for line in lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "profile-curves",
            "many time points over few spectra: the l2 sums dominate, and every "
            "branch of class_walk_profile (A_n halving, odd-class fold, lazy, "
            "256-bit precision, ttr-bound) runs",
            _split(
                "profile --walk rt --n 22 --mode discrete",
                "profile --walk rt --n 20 --mode continuous",
                "profile --walk class:3 --n 18 --group an --mode continuous",
                "profile --walk class:2 --n 16 --group an --mode discrete",
                "profile --walk lazy:3:1/2 --n 16 --group an --mode discrete",
                "--precision 256 profile --walk rt --n 18 --mode discrete",
                "profile --walk ttr-bound --n 200 --mode continuous",
            ),
        ),
        Workload(
            "verify-sweep",
            "one time point per spectrum with a rebuild per c: spectrum builds "
            "weigh as much as sums, and only this workload runs bounds and "
            "group_oracle",
            _split(
                "--threads 1 verify --suite rt-discrete --n 15..22",
                "--threads 1 verify --suite four-cycle --n 11..20",
                "--threads 1 verify --suite ttr --n 10..80",
                "--threads 1 verify --suite lemmas --n 14..100",
                "--threads 1 verify --suite oracle --n 4..6",
            ),
        ),
        Workload(
            "montecarlo-sim",
            "Monte Carlo only, no spectral layer: runs every sampler step kind "
            "and is the bypass workload for spectral changes",
            _split(
                "simulate --walk ttr --n 200 --t nlogn --j 4 --N 16384",
                "simulate --walk rt --n 100 --t nlogn --j 4 --N 16384",
                "simulate --walk ri --n 40 --t nlogn --j 4 --N 8192",
                "simulate --walk class:3 --n 30 --t nlogn --j 4 --N 8192",
                "simulate --walk lazy:3:1/2 --n 24 --t nlogn --j 4 --N 8192",
            ),
            seeded=True,
        ),
    )
}


def command_lines(workload: Workload, seed: int) -> list[list[str]]:
    """The workload's argument vectors for one benchmark seed."""
    rng = random.Random(seed)
    out = []
    for argv in workload.commands:
        argv = list(argv)
        if workload.seeded:
            argv += ["--seed", str(rng.getrandbits(31))]
        out.append(argv)
    return out


def argv_value(argv: list[str], flag: str) -> str:
    """The value following ``flag`` in an argument vector."""
    return argv[argv.index(flag) + 1]
