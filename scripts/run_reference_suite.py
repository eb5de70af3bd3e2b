#!/usr/bin/env python3
"""Run the reference experiment suite and collect its artifacts.

Six seeded experiments cover the four process kinds (independent draws,
the sticky polynomial chain, the intermittent interval map, the rotation
walk) against shrinking and fixed-mass target families.  Each run writes
the full artifact set (``hits.jsonl`` and ``hits.npy``, ``summary.csv``,
``summary.md``, ``config.json``, ``criteria.json``, ``manifest.json``) under
``--out/<name>/`` and is judged against its predicted limit behaviour.
Each run's summary line gives its restart total: the degenerate
interval-map orbits its trajectories skipped, 0 for every other process.
Each run's digest is then re-derived from the artifacts just written, as
``bclab report`` does; a mismatch fails the suite in either mode.

Examples
--------
Full suite (about 4 s on 2 CPUs)::

    python3 scripts/run_reference_suite.py --out runs/reference

Plumbing smoke run at reduced horizons (verdicts are printed but not
meaningful at these sizes, and the exit code ignores them)::

    python3 scripts/run_reference_suite.py --out /tmp/smoke --quick

The interval-map experiments need no prebuilt data: their invariant law
is computed from the map's transfer operator, once per gamma.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from bclab.harness import (
    ExperimentConfig,
    aggregate_verdict,
    emit_report,
    load_run,
    report_from_records,
    run_digest,
    run_experiment,
)
from bclab.intervals import TORUS, NestedLeftFamily, TorusConsecutiveFamily
from bclab.processes import (
    GOLDEN_CONJUGATE,
    CircleRWProcess,
    DMRProcess,
    IIDProcess,
    LSVProcess,
)
from bclab.seqcore import power_seq


def build_suite(quick: bool):
    """Return [(name, config, predictions)] for the reference experiments."""
    n_long = 10**4 if quick else 10**6
    n_mid = 10**3 if quick else 10**5
    n_traj = 20 if quick else 100
    criteria = () if quick else ("f-ii", "f-variance")
    return [
        (
            "iid-harmonic",
            ExperimentConfig(
                process=IIDProcess(),
                family=NestedLeftFamily(radius=power_seq(1.0, 1.0)),
                n=n_long, n_traj=n_traj, seed=0, criteria=criteria,
            ),
            ("BC", "SBC"),
        ),
        (
            "sticky-divergent-boundary",
            ExperimentConfig(
                process=DMRProcess(a=1.0),
                family=NestedLeftFamily(radius=power_seq(1.0, 0.4)),
                n=n_mid, n_traj=2 * n_traj, seed=0,
            ),
            ("BC",),
        ),
        (
            "sticky-convergent-boundary",
            ExperimentConfig(
                process=DMRProcess(a=1.0),
                family=NestedLeftFamily(radius=power_seq(1.0, 0.75)),
                n=n_mid, n_traj=2 * n_traj, seed=0,
            ),
            ("not-BC",),
        ),
        (
            "interval-map-shrinking",
            ExperimentConfig(
                process=LSVProcess(gamma=0.75),
                family=NestedLeftFamily(radius=power_seq(1.0, 4.0)),
                n=n_mid, n_traj=n_traj, seed=0,
            ),
            ("not-BC",),
        ),
        (
            "interval-map-window",
            ExperimentConfig(
                process=LSVProcess(gamma=0.4),
                family=TorusConsecutiveFamily(b0=0.0,
                                              steps=power_seq(1.0, 0.5)),
                n=n_mid, n_traj=n_traj, seed=0,
            ),
            ("SBC",),
        ),
        (
            "circle-golden",
            ExperimentConfig(
                process=CircleRWProcess(a=GOLDEN_CONJUGATE, drift=0.0),
                family=NestedLeftFamily(radius=power_seq(1.0, 0.3),
                                        space=TORUS),
                n=n_long, n_traj=n_traj if quick else 50, seed=0,
            ),
            ("SBC",),
        ),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="run the reference experiment suite")
    ap.add_argument("--out", required=True,
                    help="directory to collect per-experiment artifacts in")
    ap.add_argument("--quick", action="store_true",
                    help="reduced horizons; checks plumbing, not verdicts")
    ap.add_argument("--only", default=None,
                    help="run only experiments whose name contains this "
                         "substring")
    args = ap.parse_args(argv)

    experiments = build_suite(args.quick)
    if args.only is not None:
        experiments = [e for e in experiments if args.only in e[0]]
        if not experiments:
            ap.error(f"no experiment name contains {args.only!r}")

    out_root = Path(args.out)
    failures = 0
    for name, cfg, predictions in experiments:
        t0 = time.perf_counter()
        report = run_experiment(cfg)
        emitted = emit_report(report, out_dir=out_root / name)["digest"]
        wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        digest = run_digest(report_from_records(*load_run(out_root / name)))
        reverify = time.perf_counter() - t0
        final_ratio = float(report.mean_ratio[-1])
        restarts = sum(r.restarts for r in report.records)
        print(f"{name}: n={cfg.n} trajectories={cfg.n_traj} "
              f"mean S/E={final_ratio:.4f} restarts={restarts} "
              f"wall={wall:.1f}s reverify={reverify:.2f}s")
        if digest != emitted:
            print(f"  reverify: FAIL — digest {digest} does not match the "
                  f"emitted {emitted}")
            failures += 1
        for token in predictions:
            verdict = aggregate_verdict(report, token)
            status = "pass" if verdict.passed else "FAIL"
            suffix = " (smoke)" if args.quick else ""
            print(f"  prediction {token}: {status}{suffix} — {verdict.reason}")
            if not verdict.passed and not args.quick:
                failures += 1
        for token, crit in sorted(report.criteria.items()):
            print(f"  criterion {token}: {crit.verdict}")

    print(f"artifacts under {out_root}")
    if failures:
        print(f"{failures} prediction(s) or reverify check(s) failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
