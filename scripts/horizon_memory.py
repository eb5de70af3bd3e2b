#!/usr/bin/env python3
"""Peak memory and wall time of one run plus its reverify, by horizon.

Each horizon runs in a fresh child process: iid draws against the harmonic
targets A_k = [0, 1/k) with 4 trajectories (about 60 hits in all, so the
records are negligible), ``run_experiment`` and ``emit_report`` as
``bclab simulate`` does, then ``load_run``, ``report_from_records`` and
``run_digest`` as ``bclab report`` does.  The child prints its
``ru_maxrss``, which therefore covers that one run and its reverify.

    python3 scripts/horizon_memory.py
    python3 scripts/horizon_memory.py --n 100000 1000000

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


def child(n: int) -> dict:
    import resource
    import time

    from bclab.harness import (ExperimentConfig, emit_report, load_run,
                               report_from_records, run_digest,
                               run_experiment)
    from bclab.intervals import NestedLeftFamily
    from bclab.processes import IIDProcess
    from bclab.seqcore import power_seq

    cfg = ExperimentConfig(process=IIDProcess(),
                           family=NestedLeftFamily(radius=power_seq(1.0, 1.0)),
                           n=n, n_traj=4, seed=0)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as out:
        digest = emit_report(run_experiment(cfg), out_dir=out)["digest"]
        run_s = time.perf_counter() - t0
        again = run_digest(report_from_records(*load_run(out)))
    return {"n": n, "run_s": run_s, "total_s": time.perf_counter() - t0,
            "reproduced": again == digest,
            "ru_maxrss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=HORIZONS,
                    help="horizons, one child process each")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    print(f"{'n':>10} {'run_s':>8} {'total_s':>8} {'ru_maxrss_mb':>13} reproduced")
    ok = True
    for n in args.n:
        proc = subprocess.run([sys.executable, __file__, "--child", str(n)],
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{n:>10} failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        r = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and r["reproduced"]
        print(f"{n:>10} {r['run_s']:>8.2f} {r['total_s']:>8.2f} "
              f"{r['ru_maxrss_mb']:>13.1f} {r['reproduced']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
