"""Command-line entry points.

    bclab simulate --config cfg.json --out DIR [--format csv,jsonl,md]
                   [--predict {BC,not-BC,L1BC,SBC}]
    bclab criteria --spec spec.json [--out report.json]
    bclab mixing   --task {circle,kernel,dmr} [task options] [--out FILE]
    bclab report   --run DIR --format {csv,jsonl,md}

Format ``jsonl`` writes (and ``report`` rewrites) hits.jsonl and hits.npy.
Exit codes: 0 pass, 2 verdict failure (for report: the records no longer
reproduce the recorded run digest), 3 inconclusive, 4 configuration error.
``BCLAB_THREADS``, a positive integer, sets the number of simulation
worker processes.  By default, iid and circle-rw runs take one per usable
CPU, as long as each gets at least 2**23 steps, and every other run takes
one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .criteria import (
    INCONCLUSIVE,
    PathEnsemble,
    SATISFIED,
    VIOLATED,
    check_alpha,
    check_beta_strong,
    check_f_criteria,
    check_l2,
    check_pairwise,
    check_renewal_nested,
    check_tilde,
)
from .harness import (
    _read_json,
    aggregate_verdict,
    config_from_json,
    emit_report,
    load_run,
    report_from_records,
    run_digest,
    run_experiment,
)
from .mixing import (
    circle_profile,
    dmr_beta_bounds,
    dmr_beta_profile,
    profile_from_csv,
    profile_to_csv,
)
from .processes import GOLDEN_CONJUGATE
from .seqcore import (check_fields, is_number, json_object, json_value,
                      seq_from_json)

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_CONFIG = 4

_VERDICT_EXIT = {SATISFIED: EXIT_OK, VIOLATED: EXIT_FAIL,
                 INCONCLUSIVE: EXIT_INCONCLUSIVE}


def _err(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_CONFIG


def _write_or_print(text: str, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    try:
        cfg = config_from_json(_read_json(args.config))
    except (OSError, ValueError, json.JSONDecodeError) as e:
        return _err(f"bad config: {e}")
    if args.out:
        cfg.out_dir = args.out
    if not cfg.out_dir:
        return _err("no output directory: pass --out or set out_dir")
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    try:
        report = run_experiment(cfg)
        paths = emit_report(report, formats=formats)
    except (OSError, ValueError) as e:
        return _err(str(e))

    print(f"run digest {paths['digest']}")
    c = int(report.checkpoints[-1])
    print(f"final checkpoint {c}: mean ratio "
          f"{report.mean_ratio[-1]:.4f}, median S {report.median_s[-1]:.0f}, "
          f"late hit fraction {report.hit_frac_late[-1]:.4f}")
    code = EXIT_OK
    for token, rep in sorted(report.criteria.items()):
        print(f"criterion {token}: {rep.verdict}")
        code = max(code, _VERDICT_EXIT[rep.verdict])
    if args.predict:
        verdict = aggregate_verdict(report, args.predict)
        word = "pass" if verdict.passed else "fail"
        print(f"prediction {args.predict}: {word} ({verdict.reason})")
        if not verdict.passed:
            code = EXIT_FAIL
    return code


# ---------------------------------------------------------------------------
# criteria


def _number(doc: dict, key: str, default=None):
    """doc[key], which must be a JSON number; default when absent or null."""
    v = doc.get(key)
    if v is None:
        return default
    if not is_number(v):
        raise ValueError(f"{key!r} must be a JSON number or null")
    return v


def _path(doc: dict, key: str) -> str:
    v = doc[key]
    if not isinstance(v, str):
        raise ValueError(f"{key!r} must be a JSON string")
    return v


def _numbers(v) -> bool:
    return isinstance(v, list) and all(map(is_number, v))


# what each alpha params key must hold, and its test
_ALPHA_PARAM_TYPES = {
    "a": ("a JSON number", is_number),
    "theta_grid": ("a list of JSON numbers", _numbers),
    "doubling_window": ("a list of two JSON numbers",
                        lambda v: _numbers(v) and len(v) == 2),
}


def _alpha_params(params) -> dict:
    """alpha params whose values have the types the modes read; a key no
    mode reads is left for check_alpha to reject."""
    if params is None:
        return {}
    params = json_object("'params'", params)
    for key in params.keys() & _ALPHA_PARAM_TYPES.keys():
        what, ok = _ALPHA_PARAM_TYPES[key]
        if not ok(params[key]):
            raise ValueError(f"params {key!r} must be {what}")
    return params


def _rate_arg(obj, kind_default):
    """A decay-rate input: sequence JSON or a profile CSV reference."""
    if isinstance(obj, dict) and "profile_csv" in obj:
        check_fields("profile reference", obj, ("profile_csv", "kind"))
        text = Path(_path(obj, "profile_csv")).read_text()
        return profile_from_csv(text, obj.get("kind", kind_default))
    return seq_from_json(obj)


# the spec keys each check reads, besides "check"
_SPEC_FIELDS = {
    "l2": ("e", "var", "horizon"),
    "alpha": ("alpha", "mu", "mode", "params", "horizon"),
    "beta-strong": ("beta", "qstar_const", "qstar_bound", "horizon"),
    "tilde": ("rate", "mu", "lq_bound", "p", "mode", "limsup_floor", "horizon"),
    "pairwise": ("gamma", "phi", "alpha", "p", "mode", "horizon"),
    "renewal": ("nu", "nested", "horizon"),
    "f": ("run", "mode", "subsequence"),
}


def _dispatch_criteria(doc: dict):
    check = json_object("the spec", doc).get("check")
    if not isinstance(check, str) or check not in _SPEC_FIELDS:
        raise ValueError(f"unknown check {check!r}")
    check_fields(f"check {check!r}", doc, ("check", *_SPEC_FIELDS[check]))
    horizon = doc.get("horizon")
    if horizon is not None and type(horizon) is not int:
        raise ValueError("'horizon' must be a JSON integer or null")
    if check == "l2":
        return check_l2(seq_from_json(doc["e"]), seq_from_json(doc["var"]),
                        horizon=horizon)
    if check == "alpha":
        alpha = doc.get("alpha")
        return check_alpha(None if alpha is None
                           else _rate_arg(alpha, "alpha_inf1"),
                           seq_from_json(doc["mu"]), doc["mode"],
                           params=_alpha_params(doc.get("params")),
                           horizon=horizon)
    if check == "beta-strong":
        q = float(_number(doc, "qstar_const", 1.0))
        return check_beta_strong(_rate_arg(doc["beta"], "beta_inf1"),
                                 lambda u: q,
                                 qstar_bound=_number(doc, "qstar_bound"),
                                 horizon=horizon)
    if check == "tilde":
        return check_tilde(_rate_arg(doc["rate"], "tilde_beta11"),
                           seq_from_json(doc["mu"]), _number(doc, "lq_bound"),
                           float(_number(doc, "p", 1.0)), doc.get("mode", "i"),
                           limsup_floor=_number(doc, "limsup_floor"),
                           horizon=horizon)
    if check == "pairwise":
        return check_pairwise(seq_from_json(doc["gamma"]),
                              seq_from_json(doc["phi"]),
                              seq_from_json(doc["alpha"]),
                              seq_from_json(doc["p"]),
                              doc.get("mode", "i"), horizon=horizon)
    if check == "renewal":
        nested = doc.get("nested", True)
        if type(nested) is not bool:
            raise ValueError("'nested' must be JSON true or false")
        return check_renewal_nested(seq_from_json(doc["nu"]), nested=nested,
                                    horizon=horizon)
    if check == "f":
        if doc.get("mode", "ii") != "i" and "subsequence" in doc:
            raise ValueError("'subsequence' applies to f mode 'i' only")
        cfg, records = load_run(_path(doc, "run"))
        sub = doc.get("subsequence")
        if sub is not None and not (isinstance(sub, list) and all(
                type(k) is int and 1 <= k <= cfg.n for k in sub)):
            raise ValueError(f"'subsequence' must list JSON integers "
                             f"within [1, {cfg.n}]")
        report = report_from_records(cfg, records)
        ens = PathEnsemble(report.checkpoints, report.s_values)
        return check_f_criteria(ens, report.e_seq, doc.get("mode", "ii"),
                                subsequence=sub, mu_A=report.mu_seq)


def _cmd_criteria(args) -> int:
    try:
        doc = _read_json(args.spec)
        report = _dispatch_criteria(doc)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as e:
        return _err(f"bad criteria spec: {e}")
    for clause in report.diagnostics.get("clauses", []):
        print(f"clause {clause['name']}: {clause['outcome']} ({clause['method']})")
    print(f"verdict {report.criterion}: {report.verdict}")
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
    return _VERDICT_EXIT[report.verdict]


# ---------------------------------------------------------------------------
# mixing


def _parse_ns(text: str, default):
    if not text:
        return np.asarray(default, dtype=int)
    return np.asarray([int(t) for t in text.split(",") if t.strip()], dtype=int)


def _cmd_mixing(args) -> int:
    try:
        a = GOLDEN_CONJUGATE if args.a == "golden" else float(args.a)
        if args.task == "circle":
            ns = _parse_ns(args.ns, 2 ** np.arange(4, 15))
            prof = circle_profile(ns, a, k_max=args.k_max)
            _write_or_print(profile_to_csv(prof), args.out)
        elif args.task == "kernel":
            ns = _parse_ns(args.ns, np.arange(10, 101, 10))
            prof = dmr_beta_profile(a, ns, m=args.m)
            _write_or_print(profile_to_csv(prof), args.out)
        elif args.task == "dmr":
            ns = _parse_ns(args.ns, np.arange(10, 101, 10))
            lines = ["n,lower,upper"]
            for n in ns:
                s = dmr_beta_bounds(a, int(n))
                lines.append(f"{int(n)},{s.lower!r},{s.upper!r}")
            _write_or_print("\n".join(lines) + "\n", args.out)
        else:  # unreachable behind argparse choices
            return _err(f"unknown task {args.task!r}")
    except (OSError, ValueError) as e:
        return _err(str(e))
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def _cmd_report(args) -> int:
    """Re-derive the run digest from the persisted records; re-emit only when
    it matches the digest manifest.json recorded, keeping the run's wall
    clock, timestamp and the manifest's other file hashes."""
    try:
        cfg, records = load_run(args.run)
        recorded = json_object("manifest.json", _read_json(
            Path(args.run) / "manifest.json"))
        fields = {name: json_value(f"manifest.json {name!r}",
                                   recorded.get(name), kind)
                  for name, kind in (("run_digest", str), ("timestamp", str),
                                     ("wall_clock_s", float))}
        report = report_from_records(cfg, records,
                                     wall_clock_s=fields["wall_clock_s"],
                                     timestamp=fields["timestamp"])
        digest = run_digest(report)
        if digest != fields["run_digest"]:
            print(f"run digest {digest} does not match the recorded "
                  f"{fields['run_digest']}; nothing written", file=sys.stderr)
            return EXIT_FAIL
        emit_report(report, out_dir=args.run, formats=[args.format])
    except (OSError, ValueError) as e:
        return _err(str(e))
    print(f"run digest {digest}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bclab",
                                description="Monte Carlo hit-count experiments "
                                            "and limit-criterion evaluation")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured experiment")
    sim.add_argument("--config", required=True, help="experiment JSON file")
    sim.add_argument("--out", help="output directory (overrides config)")
    sim.add_argument("--format", default="csv,jsonl,md",
                     help="comma-separated subset of csv,jsonl,md")
    sim.add_argument("--predict", choices=["BC", "not-BC", "L1BC", "SBC"],
                     help="judge the run against a predicted limit behaviour")
    sim.set_defaults(func=_cmd_simulate)

    cri = sub.add_parser("criteria", help="evaluate a limit criterion")
    cri.add_argument("--spec", required=True, help="criterion spec JSON file")
    cri.add_argument("--out", help="write the full report JSON here")
    cri.set_defaults(func=_cmd_criteria)

    mix = sub.add_parser("mixing", help="dependence-decay profiles")
    mix.add_argument("--task", required=True, choices=["circle", "kernel", "dmr"])
    mix.add_argument("--a", default="golden",
                     help="step length / chain exponent ('golden' or a float)")
    mix.add_argument("--ns", default="", help="comma-separated lag list")
    mix.add_argument("--k-max", type=int, default=100_000, dest="k_max",
                     help="series truncation for the circle task")
    mix.add_argument("--m", type=int, default=200,
                     help="grid size for the kernel task")
    mix.add_argument("--out", help="output CSV path (default stdout)")
    mix.set_defaults(func=_cmd_mixing)

    rep = sub.add_parser("report", help="re-emit artifacts from a run directory")
    rep.add_argument("--run", required=True, help="run directory")
    rep.add_argument("--format", required=True, choices=["csv", "jsonl", "md"])
    rep.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
