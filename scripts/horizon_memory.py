#!/usr/bin/env python3
"""Peak memory and wall time of one run plus its reverify, by horizon
and trajectory count.

Each (horizon, trajectory count) pair runs in a fresh child process: iid
draws against the harmonic targets A_k = [0, 1/k) (about 15 hits per
trajectory, so the records are negligible), ``run_experiment`` and
``emit_report`` as ``bclab simulate`` does, then ``load_run``,
``report_from_records`` and ``run_digest`` as ``bclab report`` does.  The
child prints its ``ru_maxrss``, which therefore covers that one run and
its reverify, and then the tracemalloc peak of ``simulate_ensemble``
alone on the same config (``sim_peak_mb``), which the kernel's chunk
shape sets.

    python3 scripts/horizon_memory.py
    python3 scripts/horizon_memory.py --n 100000 1000000
    python3 scripts/horizon_memory.py --n 4000000 --traj 1 4 16

bclab is imported from the ``src/`` of the checkout holding this script.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HORIZONS = (10**5, 10**6, 4 * 10**6, 16 * 10**6)


def child(n: int, n_traj: int) -> dict:
    import resource
    import time
    import tracemalloc

    from bclab.harness import (ExperimentConfig, emit_report, load_run,
                               report_from_records, run_digest,
                               run_experiment)
    from bclab.intervals import NestedLeftFamily
    from bclab.processes import IIDProcess, simulate_ensemble
    from bclab.seqcore import power_seq

    cfg = ExperimentConfig(process=IIDProcess(),
                           family=NestedLeftFamily(radius=power_seq(1.0, 1.0)),
                           n=n, n_traj=n_traj, seed=0)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as out:
        digest = emit_report(run_experiment(cfg), out_dir=out)["digest"]
        run_s = time.perf_counter() - t0
        again = run_digest(report_from_records(*load_run(out)))
    total_s = time.perf_counter() - t0
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracemalloc.start()
    simulate_ensemble(cfg.process, cfg.family, n, cfg.seed, n_traj)
    sim_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return {"n": n, "traj": n_traj, "run_s": run_s, "total_s": total_s,
            "reproduced": again == digest, "ru_maxrss_mb": maxrss_mb,
            "sim_peak_mb": sim_peak_mb}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=HORIZONS,
                    help="horizons, one child process each")
    ap.add_argument("--traj", type=int, nargs="+", default=(4,),
                    help="trajectory counts, one child process each per n")
    ap.add_argument("--child", type=int, nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(*args.child)))
        return 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    print(f"{'n':>10} {'traj':>5} {'run_s':>8} {'total_s':>8} "
          f"{'ru_maxrss_mb':>13} {'sim_peak_mb':>12} reproduced")
    ok = True
    for n in args.n:
        for k in args.traj:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", str(n), str(k)],
                env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{n:>10} {k:>5} failed:\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            r = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and r["reproduced"]
            print(f"{n:>10} {k:>5} {r['run_s']:>8.2f} {r['total_s']:>8.2f} "
                  f"{r['ru_maxrss_mb']:>13.1f} {r['sim_peak_mb']:>12.1f} "
                  f"{r['reproduced']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
