"""Shared fixture: the big reference run reused by several acceptance
checks."""

import time

import pytest

from bclab.harness import ExperimentConfig, run_experiment
from bclab.intervals import NestedLeftFamily
from bclab.processes import IIDProcess
from bclab.seqcore import power_seq


@pytest.fixture(scope="session")
def reference_iid_run():
    """iid uniform, A_k = [0, 1/k], n = 1e6, 100 trajectories.

    Trajectories own their streams, so rows 0..49 are exactly the
    records a 50-trajectory run would produce; the full hundred give
    the deviation-criterion checks the path count they require.
    """
    cfg = ExperimentConfig(
        process=IIDProcess(),
        family=NestedLeftFamily(radius=power_seq(1.0, 1.0)),
        n=10**6, n_traj=100, seed=0,
    )
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    wall = time.perf_counter() - t0
    return report, wall
