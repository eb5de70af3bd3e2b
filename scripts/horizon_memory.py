#!/usr/bin/env python3
"""Peak memory and wall time of one run plus its reverify, by horizon
and trajectory count.

Each (horizon, trajectory count) pair runs in a fresh child process:
``run_experiment`` and ``emit_report`` as ``bclab simulate`` does, then
``load_run``, ``report_from_records`` and ``run_digest`` as ``bclab
report`` does.  The config is a ``bclab simulate`` config file given by
``--config``, whose ``n`` and ``n_traj`` are the defaults of ``--n`` and
``--traj``; without one, iid draws against the harmonic targets
A_k = [0, 1/k) (about 15 hits per trajectory, so the records are
negligible) at 4 trajectories.  The child prints its ``ru_maxrss``, which
therefore covers that one run and its reverify, the size of its
``hits.npy`` and ``hits.jsonl`` (``hits_mb``), and then the tracemalloc
peak of ``simulate_ensemble`` alone on the same config
(``sim_peak_mb``), which the kernel's chunk shape sets.

    python3 scripts/horizon_memory.py
    python3 scripts/horizon_memory.py --n 100000 1000000
    python3 scripts/horizon_memory.py --n 4000000 --traj 1 4 16
    python3 scripts/horizon_memory.py --config scripts/dense_wide.json \
        --traj 400 1600 6400

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


def config_doc(path) -> dict:
    """The config document of path, or the default iid harmonic one."""
    if path is not None:
        return json.loads(Path(path).read_text())
    return {"process": {"variant": "iid"},
            "family": {"template": "nested-left",
                       "radius": {"template": "power", "c": 1.0, "p": 1.0}},
            "n": HORIZONS[0], "n_traj": 4, "seed": 0}


def child(n: int, n_traj: int, path) -> dict:
    import resource
    import time
    import tracemalloc

    from bclab.harness import (config_from_json, emit_report, load_run,
                               report_from_records, run_digest,
                               run_experiment)
    from bclab.processes import simulate_ensemble

    cfg = config_from_json(dict(config_doc(path), n=n, n_traj=n_traj))
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as out:
        digest = emit_report(run_experiment(cfg), out_dir=out)["digest"]
        run_s = time.perf_counter() - t0
        hits_mb = sum(os.path.getsize(os.path.join(out, name))
                      for name in ("hits.npy", "hits.jsonl")) / 1e6
        again = run_digest(report_from_records(*load_run(out)))
    total_s = time.perf_counter() - t0
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracemalloc.start()
    simulate_ensemble(cfg.process, cfg.family, n, cfg.seed, n_traj)
    sim_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return {"n": n, "traj": n_traj, "run_s": run_s, "total_s": total_s,
            "reproduced": again == digest, "ru_maxrss_mb": maxrss_mb,
            "hits_mb": hits_mb, "sim_peak_mb": sim_peak_mb}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="a bclab simulate config file "
                    "(default: iid draws against [0, 1/k))")
    ap.add_argument("--n", type=int, nargs="+",
                    help="horizons, one child process each (default: the "
                    "config's n, or 1e5, 1e6, 4e6 and 1.6e7)")
    ap.add_argument("--traj", type=int, nargs="+",
                    help="trajectory counts, one child process each per n "
                    "(default: the config's n_traj)")
    ap.add_argument("--child", type=int, nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(*args.child, args.config)))
        return 0
    doc = config_doc(args.config)
    horizons = args.n or ([doc["n"]] if args.config else HORIZONS)
    trajs = args.traj or [doc["n_traj"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    print(f"{'n':>10} {'traj':>5} {'run_s':>8} {'total_s':>8} "
          f"{'ru_maxrss_mb':>13} {'hits_mb':>8} {'sim_peak_mb':>12} "
          f"reproduced")
    config = ["--config", args.config] if args.config else []
    ok = True
    for n in horizons:
        for k in trajs:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", str(n), str(k)]
                + config, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{n:>10} {k:>5} failed:\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            r = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and r["reproduced"]
            print(f"{n:>10} {k:>5} {r['run_s']:>8.2f} {r['total_s']:>8.2f} "
                  f"{r['ru_maxrss_mb']:>13.1f} {r['hits_mb']:>8.2f} "
                  f"{r['sim_peak_mb']:>12.1f} {r['reproduced']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
