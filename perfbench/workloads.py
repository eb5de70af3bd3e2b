"""The benchmark's workloads: seeded experiment configs and their predictions.

Each workload stresses a different stage of a run, so that a change aimed
at one stage has a workload that exercises it and others that bypass it.
The programs under test receive only the config built here; the seed is
the experiment's master seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from bclab.harness import ExperimentConfig
from bclab.intervals import TORUS, NestedLeftFamily, TorusConsecutiveFamily
from bclab.processes import (
    GOLDEN_CONJUGATE,
    CircleRWProcess,
    DMRProcess,
    LSVProcess,
)
from bclab.seqcore import constant_seq, power_seq


@dataclass(frozen=True)
class Workload:
    why: str
    predictions: tuple
    build: Callable[[int], ExperimentConfig]


def _dense_wide(seed: int) -> ExperimentConfig:
    # Fixed-mass targets under the sticky chain: about half of all steps hit
    # and renew, and 800 trajectories make the per-trajectory scatter, the
    # statistics pass and a ~40 MB hits.jsonl dominate.
    return ExperimentConfig(
        process=DMRProcess(a=1.0),
        family=NestedLeftFamily(radius=constant_seq(0.5)),
        n=10**4, n_traj=800, seed=seed, criteria=("f-ii", "f-variance"),
    )


def _intermittent_map(seed: int) -> ExperimentConfig:
    # The reference suite's interval-map-window: scalar burn-in is most of
    # the run, hits are few, and the occupation table must be built first.
    return ExperimentConfig(
        process=LSVProcess(gamma=0.4),
        family=TorusConsecutiveFamily(b0=0.0, steps=power_seq(1.0, 0.5)),
        n=10**5, n_traj=100, seed=seed,
    )


def _rotation_walk(seed: int) -> ExperimentConfig:
    # Narrow ensemble, long horizon: per-row kernel overhead and 1e6-long
    # bound and mass arrays dominate.
    return ExperimentConfig(
        process=CircleRWProcess(a=GOLDEN_CONJUGATE, drift=0.0),
        family=NestedLeftFamily(radius=power_seq(1.0, 0.3), space=TORUS),
        n=10**6, n_traj=100, seed=seed, criteria=("f-ii", "f-variance"),
    )


WORKLOADS = {
    "dense-wide": Workload(
        "sticky chain, fixed-mass targets, 800 trajectories: scatter, "
        "statistics and record I/O dominate",
        ("SBC", "L1BC"), _dense_wide),
    "intermittent-map": Workload(
        "interval map with window targets: burn-in and calibration "
        "dominate, records are small",
        ("SBC",), _intermittent_map),
    "rotation-walk": Workload(
        "rotation walk, 100 trajectories over 1e6 steps: per-row kernel "
        "overhead and long bound and mass arrays dominate",
        ("SBC",), _rotation_walk),
}
