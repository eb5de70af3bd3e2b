"""One benchmark operation in a fresh process; prints one JSON line.

    python3 op.py '{"mode": "setup", "workload": ..., "seed": ..., "trace": 0}'
    python3 op.py '{"mode": "op", "workload": ..., "seed": ..., "trace": 0,
                    "out_dir": ...}'

``setup`` times importing bclab, building and validating the config and
building any occupation table the config needs into ``BCLAB_CACHE``.
``op`` times one run (``run_experiment`` then ``emit_report``, as
``bclab simulate`` does) and its reverify (``load_run``,
``report_from_records``, ``run_digest`` and the comparison with the
recorded digest, as ``bclab report`` does).  ``run.py`` starts one process
per call, so the peak resident memory reported covers that call only.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from bclab import harness, processes  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FORMATS = ("csv", "jsonl", "md")

# Each per-layer time metric is the summed self time of these spans over one
# run and its reverify, so the metrics add up to the traced total (less the
# benchmark's own glue, reported as trace.unaccounted_s).
LAYER_SPANS = {
    "processes.init_s": ("processes.init_from_uniforms",),
    "processes.step_s": ("processes.simulate_ensemble",),
    "intervals.bounds_s": ("intervals.bounds",),
    "intervals.masses_s": ("harness.marginal_measure",
                           "processes.lsv_calibration", "intervals.measures"),
    "criteria.f_s": ("criteria.check_f_criteria",),
    "harness.stats_s": ("harness.report_from_records",),
    "harness.digest_s": ("harness.run_digest",),
    "harness.emit_s": ("harness.emit_report",),
    "harness.load_s": ("harness.load_run",),
}


def _check_import_root():
    expected = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    actual = Path(harness.__file__).resolve().parents[1]
    if actual != expected:
        raise RuntimeError(f"bclab imported from {actual}, expected {expected}")


def setup(req: dict) -> dict:
    tracer = Tracer()
    if req["trace"]:
        tracer.install()
    tracer.phase = "setup"
    cfg = WORKLOADS[req["workload"]].build(req["seed"])
    cfg.validate()
    try:
        harness.marginal_measure(cfg)
    except harness.CalibrationMissingError:
        processes.lsv_calibration(cfg.process.gamma, cfg.calibration_steps,
                                  cfg.calibration_seed)
    setup_s = time.perf_counter() - T_START
    _, durations = tracer.totals()
    return {"setup_s": setup_s,
            "calibration_s": durations.get("processes.lsv_calibration", 0.0),
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": np.__version__,
                        "BCLAB_THREADS": os.environ.get("BCLAB_THREADS",
                                                        "unset")}}


def _outcome(report, paths, workload) -> dict:
    verdicts = {tok: harness.aggregate_verdict(report, tok).passed
                for tok in workload.predictions}
    return {
        "digest": paths["digest"],
        "final_mean_ratio": float(report.mean_ratio[-1]),
        "predictions": verdicts,
        "criteria": {tok: rep.verdict
                     for tok, rep in sorted(report.criteria.items())},
        "counts": {
            "processes.hits": sum(len(r.hit_times) for r in report.records),
            "processes.renewals": sum(r.renewal_count for r in report.records),
            "processes.restarts": sum(r.restarts for r in report.records),
        },
    }


def op(req: dict) -> dict:
    workload = WORKLOADS[req["workload"]]
    out = Path(req["out_dir"])
    cfg = workload.build(req["seed"])
    tracer = Tracer()
    if req["trace"]:
        tracer.install()
    result = {}

    tracer.phase = "run"
    t0 = time.perf_counter()
    try:
        report = harness.run_experiment(cfg)
        paths = harness.emit_report(report, out_dir=out, formats=FORMATS)
    except Exception:
        result["run_error"] = traceback.format_exc()
        return result
    result["run_s"] = time.perf_counter() - t0
    result.update(_outcome(report, paths, workload))
    del report, paths

    tracer.phase = "reverify"
    t0 = time.perf_counter()
    try:
        cfg2, records = harness.load_run(out)
        digest = harness.run_digest(harness.report_from_records(cfg2, records))
        manifest = json.loads((out / "manifest.json").read_text())
        result["reproduced"] = digest == manifest["run_digest"]
    except Exception:
        result["reverify_error"] = traceback.format_exc()
        return result
    result["reverify_s"] = time.perf_counter() - t0
    del records

    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["bytes"] = {f.name: f.stat().st_size for f in sorted(out.iterdir())}
    if req["trace"]:
        own, durations = tracer.totals(phases=("run", "reverify"))
        result["layers"] = {name: sum(own.get(s, 0.0) for s in spans)
                            for name, spans in LAYER_SPANS.items()}
        result["self_total_s"] = sum(own.values())
        result["steps_per_s"] = (
            cfg.n * cfg.n_traj / durations["processes.simulate_ensemble"])
        result["threads"] = len({s.thread for s in tracer.spans
                                 if s.name == "processes.init_from_uniforms"})
    return result


def main() -> int:
    req = json.loads(sys.argv[1])
    _check_import_root()
    result = setup(req) if req["mode"] == "setup" else op(req)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
