#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of bclab runs.

    python3 perfbench/run.py --workload dense-wide --seed 0 --seconds 30 \
        --trace 0

Run from the root of a source checkout; bclab is imported from its
``src/``.  The benchmark

1. sets up ``SETUPS`` times, each in a fresh process with an empty
   occupation-table cache under a scratch directory it owns
   (``.perfbench_work/`` in the checkout), and reports the median;
2. then, for ``--seconds``, repeats one operation per fresh process: a run
   (``run_experiment`` + ``emit_report``, what ``bclab simulate`` does) and
   its reverify (the ``bclab report`` integrity path over the run's
   directory).  Artifacts go to scratch and are deleted after each
   operation.  End-to-end metrics are medians over operations.

With ``--trace 1`` operations alternate between untraced and traced; the
traced ones wrap the library's public functions (``tracing.py``) and give
the per-layer metrics, and the difference between the two kinds is the
tracing overhead.

A run and a reverify each count as one attempted operation.  One fails if
it raises, if its digest differs from the other runs of this invocation,
if the reverify does not reproduce the run digest, or if a predicted
verdict does not pass.  The summary prints failed_frac; the result line
carries it as ``failed`` over ``attempted``.  Digests are compared with
``ledger.json``; a changed digest is reported but is not a failure,
because a change may alter digests on purpose.  ``--record`` writes this
seed's outcome into the ledger.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
LEDGER = BENCH / "ledger.json"
WORK = ROOT / ".perfbench_work"

SETUPS = 5
# a run must exit well within 180 s whatever --seconds asks for
HARD_LIMIT_S = 170.0
ARTIFACTS = ("config.json", "criteria.json", "hits.jsonl", "manifest.json",
             "summary.csv", "summary.md")


class ChildFailed(RuntimeError):
    """An op.py process exited with an error."""


class Child:
    """Runs op.py in fresh processes with a shared environment and deadline."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def __call__(self, req: dict, cache: Path) -> dict:
        env = dict(self.env, BCLAB_CACHE=str(cache))
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(
            [sys.executable, str(BENCH / "op.py"), json.dumps(req)],
            env=env, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise ChildFailed(
                f"{req['mode']} exited with {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    # the library's default worker count is what users get
    env.pop("BCLAB_THREADS", None)
    return env


def run_setups(child: Child, req: dict, work: Path) -> tuple[list, Path]:
    results = []
    for i in range(SETUPS):
        cache = work / f"cache-{i}"
        cache.mkdir()
        results.append(child(dict(req, mode="setup"), cache))
        if i:
            shutil.rmtree(work / f"cache-{i - 1}")
    return results, cache


def run_ops(child: Child, req: dict, work: Path, cache: Path,
            seconds: float, trace: bool) -> list:
    """Operations until the next one would end after ``seconds``."""
    ops, durations = [], []
    start = time.monotonic()
    min_ops = 2 if trace else 1
    while True:
        traced = trace and len(ops) % 2 == 1
        out = Path(tempfile.mkdtemp(prefix="op-", dir=work))
        t0 = time.monotonic()
        try:
            result = child(dict(req, mode="op", trace=int(traced),
                                out_dir=str(out)), cache)
        except subprocess.TimeoutExpired:
            ops.append({"run_error": "timed out", "traced": traced})
            break
        except ChildFailed as e:
            result = {"run_error": str(e)}
        finally:
            shutil.rmtree(out)
        durations.append(time.monotonic() - t0)
        result["traced"] = traced
        ops.append(result)
        elapsed = time.monotonic() - start
        if len(ops) >= min_ops and (
                elapsed + statistics.median(durations) > seconds):
            break
        if time.monotonic() + statistics.median(durations) > child.deadline:
            break
    return ops


def judge(ops: list) -> tuple[int, int, list, str]:
    """(attempted, failed, failure reasons, the digest most runs agree on)."""
    digests = [o["digest"] for o in ops if "digest" in o]
    common = max(set(digests), key=digests.count) if digests else None
    failed, reasons = 0, []
    for i, o in enumerate(ops):
        if "run_error" in o:
            failed += 2
            reasons.append(f"op {i}: run raised\n{o['run_error']}")
            continue
        run_bad = []
        if o["digest"] != common:
            run_bad.append(f"digest {o['digest']} differs from {common}")
        run_bad += [f"prediction {tok} failed"
                    for tok, ok in o["predictions"].items() if not ok]
        if run_bad:
            failed += 1
            reasons += [f"op {i}: {r}" for r in run_bad]
        if "reverify_error" in o:
            failed += 1
            reasons.append(f"op {i}: reverify raised\n{o['reverify_error']}")
        elif not o["reproduced"]:
            failed += 1
            reasons.append(f"op {i}: reverify did not reproduce the digest")
    return 2 * len(ops), failed, reasons, common


def ledger_entry(op: dict) -> dict:
    return {"digest": op["digest"],
            "final_mean_ratio": op["final_mean_ratio"],
            "predictions": {t: ("pass" if ok else "fail")
                            for t, ok in op["predictions"].items()},
            "criteria": op["criteria"]}


def compare_ledger(workload: str, seed: int, entry: dict) -> str:
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    recorded = ledger.get(workload, {}).get(str(seed))
    if recorded is None:
        return "unrecorded"
    if recorded == entry:
        return "unchanged"
    return f"CHANGED (recorded {json.dumps(recorded, sort_keys=True)})"


def record_ledger(workload: str, seed: int, entry: dict) -> None:
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    ledger.setdefault(workload, {})[str(seed)] = entry
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


def median_of(ops: list, key: str) -> float:
    return statistics.median(o[key] for o in ops)


def end_to_end(setups: list, ops: list) -> dict:
    done = [o for o in ops if "reverify_s" in o]
    return {
        "run_s": median_of(done, "run_s"),
        "reverify_s": median_of(done, "reverify_s"),
        "setup_s": median_of(setups, "setup_s"),
        "peak_rss_mb": median_of(done, "peak_rss_mb"),
        "artifact_bytes": statistics.median(
            sum(o["bytes"].values()) for o in done),
    }


def per_layer(setups: list, ops: list) -> dict:
    plain = [o for o in ops if "reverify_s" in o and not o["traced"]]
    traced = [o for o in ops if "reverify_s" in o and o["traced"]]
    layers = {name: statistics.median(o["layers"][name] for o in traced)
              for name in traced[0]["layers"]}
    layers["processes.steps_per_s"] = median_of(traced, "steps_per_s")
    layers["processes.calibration_s"] = median_of(setups, "calibration_s")
    layers.update(traced[0]["counts"])
    for a in ARTIFACTS:
        layers[f"harness.bytes.{a}"] = traced[0]["bytes"].get(a, 0)
    traced_total = statistics.median(o["run_s"] + o["reverify_s"]
                                     for o in traced)
    untraced_total = statistics.median(o["run_s"] + o["reverify_s"]
                                       for o in plain)
    layers["trace.overhead_s"] = traced_total - untraced_total
    layers["trace.unaccounted_s"] = statistics.median(
        o["run_s"] + o["reverify_s"] - o["self_total_s"] for o in traced)
    return layers


def summary_lines(args, setups: list, ops: list, common: str,
                  attempted: int, failed: int, reasons: list) -> list:
    machine = dict(setups[0]["machine"])
    threads = {o["threads"] for o in ops if "threads" in o}
    if threads:
        machine["workers_seen"] = sorted(threads)
    lines = [f"machine {json.dumps(machine)}",
             f"workload {args.workload} seed {args.seed}: {len(setups)} "
             f"setups, {len(ops)} operations"]
    for s in setups:
        cal = f" (calibration {s['calibration_s']:.4f} s)" if args.trace else ""
        lines.append(f"  setup {s['setup_s']:.4f} s{cal}")
    for o in ops:
        if "reverify_s" not in o:
            continue
        kind = "traced" if o["traced"] else "plain"
        lines.append(
            f"  op {kind}: run {o['run_s']:.4f} s, reverify "
            f"{o['reverify_s']:.4f} s, rss {o['peak_rss_mb']:.1f} MB, "
            f"bytes {sum(o['bytes'].values())}, digest {o['digest']}")
        if o["traced"]:
            total = o["run_s"] + o["reverify_s"]
            shares = ", ".join(
                f"{k} {v / total:.1%}"
                for k, v in sorted(o["layers"].items(), key=lambda kv: -kv[1]))
            lines.append(f"    self-time shares: {shares}")
    lines.append(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    done = [o for o in ops if "digest" in o]
    if done:
        entry = ledger_entry(done[0])
        lines.append(f"ledger entry {json.dumps(entry, sort_keys=True)}")
        lines.append(f"ledger: digest {common} is "
                     f"{compare_ledger(args.workload, args.seed, entry)}")
    lines += [f"FAILED {r}" for r in reasons]
    return lines


def main(argv=None) -> int:
    if not (SRC / "bclab" / "__init__.py").is_file():
        print(f"error: no bclab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write this seed's digest, final mean ratio and "
                         "verdicts into ledger.json")
    args = ap.parse_args(argv)

    child = Child(child_env(), time.monotonic() + HARD_LIMIT_S)
    req = {"workload": args.workload, "seed": args.seed,
           "trace": args.trace}
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        setups, cache = run_setups(child, req, work)
        ops = run_ops(child, req, work, cache, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    attempted, failed, reasons, common = judge(ops)
    for line in summary_lines(args, setups, ops, common, attempted, failed,
                              reasons):
        print(line)
    needed = {False, True} if args.trace else {False}
    if needed - {o["traced"] for o in ops if "reverify_s" in o}:
        print("error: too few operations completed", file=sys.stderr)
        return 1
    if args.record and not failed:
        record_ledger(args.workload, args.seed,
                      ledger_entry(next(o for o in ops if "digest" in o)))
    values = per_layer(setups, ops) if args.trace else end_to_end(setups, ops)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
