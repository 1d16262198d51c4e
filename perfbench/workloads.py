"""Workload definitions.

Every workload is a closed loop of rounds.  One round draws a fresh family
seed from the workload seed and the round number, then runs the four CLI
commands a user runs on one family, in order:

    generate -> analyze -> perturb -> invert

The family shape and the invert schedule are what make a different module
dominate in each workload; see the comments below and perfbench/README.md.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COMMANDS = ("generate", "analyze", "perturb", "invert")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    dim_h: int
    dim_k: int
    count: int
    spectrum: str
    schedule: str
    lam: float = 2.0
    magnitude: float = 0.1

    def schedule_lengths(self) -> list[int]:
        if self.schedule == "prefix:all":
            return list(range(1, self.count + 1))
        return [int(tok) for tok in self.schedule.split(",")]

    def warmup(self) -> "Workload":
        """Same kind and dim_k at dim_h = count = 8: touches every code path
        (lazy imports, first LAPACK calls) at a small fraction of a round's cost."""
        return dataclasses.replace(self, dim_h=8, count=8, schedule="prefix:all")


WORKLOADS = {
    w.name: w
    for w in (
        # find_oversampling rebuilds Q_n^H S_{n+m} Q_n for every m of every
        # prefix, so the oversampling search dominates invert.
        Workload(name="sweep-oversample", kind="random", dim_h=56, dim_k=2, count=56,
                 spectrum="flat", schedule="prefix:all"),
        # m_n = 0 on every row and only three large sections: a cheaper search
        # or a per-prefix engine should leave invert unchanged here.
        Workload(name="probe-decay", kind="decaying", dim_h=128, dim_k=2, count=128,
                 spectrum="geometric:0.5", schedule="16,64,128"),
        # 2048 coefficient columns: JSON writes and reads plus the
        # full_matrices=True SVDs (a 2048 x 2048 V) dominate; invert is one
        # full section.
        Workload(name="wide", kind="random", dim_h=24, dim_k=4, count=128,
                 spectrum="geometric:0.99", schedule="128"),
    )
}


def family_seed(seed: int, round_no: int) -> int:
    """Seed of the family generated in one round, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, round_no]).generate_state(1)[0])


def round_commands(wl: Workload, fam_seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
    """The argv lists of one round, in execution order."""
    fam = str(workdir / "family.json")
    seed = str(fam_seed)
    return [
        ("generate", ["generate", "--kind", wl.kind, "--dim-h", str(wl.dim_h),
                      "--dim-k", str(wl.dim_k), "--count", str(wl.count),
                      "--spectrum", wl.spectrum, "--seed", seed, "--out", fam]),
        ("analyze", ["analyze", "--input", fam, "--seed", seed,
                     "--out", str(workdir / "analyze.json")]),
        ("perturb", ["perturb", "--input", fam, "--mode", "additive-analysis",
                     "--magnitude", repr(wl.magnitude), "--seed", seed,
                     "--out", str(workdir / "perturb.json")]),
        ("invert", ["invert", "--input", fam, "--schedule", wl.schedule,
                    "--lambda", repr(wl.lam), "--seed", seed,
                    "--out", str(workdir / "invert.csv")]),
    ]
