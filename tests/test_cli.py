"""End-to-end tests of the command-line interface and its exit codes."""

import hashlib
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from bclab.cli import main
from bclab.criteria import (
    PathEnsemble,
    check_alpha,
    check_beta_strong,
    check_f_criteria,
    check_l2,
    check_pairwise,
    check_renewal_nested,
    check_tilde,
)
from bclab.harness import load_run, report_from_records
from bclab.seqcore import GeometricSeq, RealSeq, power_seq, to_json

HARMONIC_CFG = {
    "process": {"variant": "iid"},
    "family": {
        "template": "nested-left",
        "space": "line",
        "radius": {"template": "powerlog", "c": 1.0, "p": 1.0, "q": 0.0,
                   "shift": 0.0, "start": 1},
    },
    "n": 1000,
    "n_traj": 4,
    "seed": 3,
}


# a hits.npy whose length disagrees with the index's hit counts, with the
# counts' sum and the bytes after the header formatted in
COUNTS = ("hits.jsonl line 4: the hit counts sum to {total}; hits.npy holds "
          "{body} bytes")


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


class TestSimulate:
    def test_run_writes_artifacts_and_passes(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", HARMONIC_CFG)
        out = tmp_path / "run"
        code = main(["simulate", "--config", cfg, "--out", str(out),
                     "--predict", "BC"])
        assert code == 0
        for name in ("config.json", "hits.jsonl", "hits.npy", "summary.csv",
                     "summary.md", "criteria.json", "manifest.json"):
            assert (out / name).exists(), name
        text = capsys.readouterr().out
        assert "prediction BC: pass" in text
        assert "run digest " in text

    def test_prediction_failure_exit_2(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", HARMONIC_CFG)
        code = main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "r"), "--predict", "not-BC"])
        assert code == 2

    def test_bad_config_exit_4(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["simulate", "--config", missing,
                     "--out", str(tmp_path)]) == 4
        bad = write_json(tmp_path / "bad.json", {**HARMONIC_CFG, "n": 5})
        assert main(["simulate", "--config", bad,
                     "--out", str(tmp_path / "r2")]) == 4
        assert "error:" in capsys.readouterr().err

    def test_null_recurrent_split_chain_exit_4(self, tmp_path, capsys):
        doc = {**HARMONIC_CFG, "process": {"variant": "split-chain",
                                           "s_kind": "linear", "nu_power": 1.0}}
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 4
        assert "null-recurrent" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_interval_map_cold_cache_exit_0(self, tmp_path, capsys):
        # the invariant law is solved in the process, with no cache to fill
        cfg = write_json(tmp_path / "cfg.json", {
            **HARMONIC_CFG, "process": {"variant": "lsv", "gamma": 0.6}})
        digests = []
        for run in ("cold", "warm"):
            assert main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / run)]) == 0
            digests.append(capsys.readouterr().out.split()[2])
        assert digests[0] == digests[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cfg.json", "cold", "warm"]

    def test_partial_write_exit_4(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", HARMONIC_CFG)
        out = tmp_path / "run"
        (out / "hits.jsonl").mkdir(parents=True)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"error: partial results in {out}: failed writing hits.jsonl" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"] == "hits.jsonl"
        assert sorted(manifest["complete"]) == ["config.json", "criteria.json"]

    def test_missing_out_dir_exit_4(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", HARMONIC_CFG)
        assert main(["simulate", "--config", cfg]) == 4

    @pytest.mark.parametrize("doc, field", [
        ({**HARMONIC_CFG, "process": {"variant": "lsv", "gamma": 0.5,
                                      "burn_inn": 5}}, "burn_inn"),
        ({**HARMONIC_CFG, "process": {"variant": "dmr", "a": 2.0,
                                      "nu_power": 9.0}}, "nu_power"),
        ({**HARMONIC_CFG, "sead": 5}, "sead"),
        ({**HARMONIC_CFG, "family": {**HARMONIC_CFG["family"], "bogus2": 1}},
         "bogus2"),
        ({**HARMONIC_CFG, "family": {
            **HARMONIC_CFG["family"],
            "radius": {**HARMONIC_CFG["family"]["radius"], "bogus": 3}}},
         "bogus"),
        ({**HARMONIC_CFG, "family": {"template": "custom", "intervals": [
            {"space": "line", "lo": 0.0, "hi": 0.5, "hj": 0.6}] * 1000}},
         "hj"),
        ({**HARMONIC_CFG, "measure": {"kind": "power", "a": 1.0, "b": 2.0}},
         "b"),
        ({**HARMONIC_CFG, "process": {"variant": "lsv", "gamma": 0.5},
          "calibration_steps": 10**7}, "calibration_steps"),
    ], ids=["misspelt-process-field", "preset-fixed-field", "misspelt-seed",
            "family-field", "sequence-field", "interval-field",
            "measure-field", "retired-calibration-field"])
    def test_unknown_config_field_exit_4(self, tmp_path, capsys, doc, field):
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 4
        assert f"unknown fields ['{field}']" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_circle_walk_has_no_step_horizon_of_its_own_exit_4(
            self, tmp_path, capsys):
        # 2**26 steps of a 1000-step family: only the family's horizon binds
        doc = {**HARMONIC_CFG, "process": {"variant": "circle-rw"},
               "n": 2**26, "family": {"template": "custom", "space": "torus",
                                      "intervals": [{"space": "torus", "lo": 0.0,
                                                     "hi": 0.5}] * 1000}}
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 4
        assert ("family defined only up to 1000 < n = 67108864"
                in capsys.readouterr().err)
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("doc, error", [
        ({**HARMONIC_CFG, "n": 1000.7}, "config n must be a JSON integer"),
        ({**HARMONIC_CFG, "n_traj": "20"},
         "config n_traj must be a JSON integer"),
        ({**HARMONIC_CFG, "n_traj": True},
         "config n_traj must be a JSON integer"),
        ({**HARMONIC_CFG, "seed": 1.9}, "config seed must be a JSON integer"),
        ({**HARMONIC_CFG, "checkpoints": [10.5, 1000]},
         "config checkpoints must be a list of JSON integers"),
        ({**HARMONIC_CFG, "process": {"variant": "lsv", "gamma": "0.5"}},
         "process 'lsv' gamma must be a JSON number"),
        ({**HARMONIC_CFG, "process": {"variant": "dmr", "a": True}},
         "process 'dmr' a must be a JSON number"),
        ({**HARMONIC_CFG, "process": {"variant": "dmr", "a": float("nan")}},
         "process 'dmr' a must be a JSON number, not nan"),
        # an integer past the largest float is no number either
        ({**HARMONIC_CFG, "process": {"variant": "dmr", "a": 10**400}},
         "process 'dmr' a must be a JSON number, not 1000"),
        ({**HARMONIC_CFG, "family": {
            **HARMONIC_CFG["family"],
            "radius": {**HARMONIC_CFG["family"]["radius"], "start": 1.9}}},
         "sequence 'powerlog' start must be a JSON integer"),
        ({**HARMONIC_CFG, "family": {
            **HARMONIC_CFG["family"],
            "radius": {**HARMONIC_CFG["family"]["radius"], "c": "1.0"}}},
         "sequence 'powerlog' c must be a JSON number"),
        ({**HARMONIC_CFG, "measure": {"kind": "lebesgue",
                                      "support": [0.0, 1.0, 7.0]}},
         "support must be two numbers [a, b], not 3"),
        ({**HARMONIC_CFG, "measure": {"kind": "tabulated",
                                      "xs": [0.0, 0.5, 1.0],
                                      "Fs": [0.0, 0.5, 1.5]}},
         "a cdf's Fs must lie in [0, 1]"),
        # a quarter of a law: every expected count would be a quarter
        ({**HARMONIC_CFG, "family": {
            "template": "nested-left",
            "radius": {"template": "constant", "c": 0.5}},
          "measure": {"kind": "tabulated", "xs": [0.0, 1.0],
                      "Fs": [0.0, 0.25]}},
         "a cdf's Fs must run from 0 to 1"),
        # circle-rw states are exact in units of 2**-64
        ({**HARMONIC_CFG, "process": {"variant": "circle-rw", "a": 1e-5}},
         "circle-rw a = 1e-05 is no multiple of 2**-64"),
        ({**HARMONIC_CFG, "process": {"variant": "circle-rw",
                                      "drift": 1e-20}},
         "circle-rw drift = 1e-20 is no multiple of 2**-64"),
    ], ids=["n-float", "n-traj-string", "n-traj-bool", "seed-float",
            "checkpoint-float", "gamma-string", "dmr-a-bool", "dmr-a-nan",
            "dmr-a-huge",
            "sequence-start-float", "sequence-c-string",
            "lebesgue-support-three-numbers", "tabulated-cdf-above-one",
            "tabulated-cdf-not-a-law", "circle-a-off-the-grid",
            "circle-drift-off-the-grid"])
    def test_wrongly_typed_config_value_exit_4(self, tmp_path, capsys, doc,
                                               error):
        # nothing is truncated or converted: a bad value is a config error
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 4
        assert error in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("doc, error", [
        ({**HARMONIC_CFG, "n": 10**400}, "config n must be a JSON integer"),
        ({**HARMONIC_CFG, "n": 2**63}, "config n must be a JSON integer"),
        ({**HARMONIC_CFG, "n_traj": 10**400},
         "config n_traj must be a JSON integer"),
        ({**HARMONIC_CFG, "checkpoints": [10, 10**400]},
         "config checkpoints must be a list of JSON integers"),
    ], ids=["n", "n-2**63", "n-traj", "checkpoint"])
    def test_integer_past_int64_exit_4(self, tmp_path, capsys, doc, error):
        # such an integer raised OverflowError: exit 1 and a traceback
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 4
        assert error in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("doc, error", [
        ([], "config must be a JSON object, not list"),
        (None, "config must be a JSON object, not NoneType"),
        ({**HARMONIC_CFG, "process": 5},
         "process must be a JSON object, not int"),
        ({**HARMONIC_CFG, "process": ["iid"]},
         "process must be a JSON object, not list"),
        ({**HARMONIC_CFG, "process": {"variant": ["iid"]}},
         "unknown process variant ['iid']"),
        ({**HARMONIC_CFG, "family": 5}, "family must be a JSON object, not int"),
        ({**HARMONIC_CFG, "family": {**HARMONIC_CFG["family"], "radius": [1]}},
         "a sequence must be a JSON object, not list"),
        ({**HARMONIC_CFG, "family": {**HARMONIC_CFG["family"],
                                     "radius": {"template": ["powerlog"]}}},
         "unknown sequence template ['powerlog']"),
        ({**HARMONIC_CFG, "measure": 3}, "measure must be a JSON object, not int"),
        ({**HARMONIC_CFG, "family": {"template": "custom", "intervals": 5}},
         "family 'custom' intervals must be a JSON list"),
        ({**HARMONIC_CFG, "family": {**HARMONIC_CFG["family"],
                                     "space": "Torus"}},
         "family 'nested-left' space must be 'line' or 'torus', not 'Torus'"),
        ({**HARMONIC_CFG, "family": {**HARMONIC_CFG["family"], "space": 3}},
         "family 'nested-left' space must be 'line' or 'torus', not 3"),
        ({**HARMONIC_CFG, "criteria": 5},
         "config criteria must be a list of JSON strings"),
        ({**HARMONIC_CFG, "out_dir": 5},
         "config out_dir must be a JSON string, not 5"),
    ], ids=["top-level-list", "top-level-null", "process-number",
            "process-list", "variant-list", "family-number", "radius-list",
            "sequence-template-list", "measure-number", "intervals-number",
            "space-capitalised", "space-number", "criteria-number",
            "out-dir-number"])
    def test_config_of_the_wrong_json_type_exit_4(self, tmp_path, capsys, doc,
                                                  error):
        # no --out: the output directory could only come from the config
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(["simulate", "--config", cfg]) == 4
        assert f"error: bad config: {error}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_readme_quick_start_verbatim(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(
            r"cat > harmonic\.json <<'EOF'\n(.*?\n)EOF\n\nbclab simulate "
            r"--config harmonic\.json --out runs/harmonic --predict SBC\n"
            r"```\n\n```\n(.*?)\n```", readme, re.S)
        cfg = tmp_path / "harmonic.json"
        cfg.write_text(example[1])
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "runs" / "harmonic"),
                     "--predict", "SBC"])
        printed = capsys.readouterr().out.splitlines()
        assert printed == example[2].splitlines()
        assert len(printed) == 3 and code == 0


def _sequences(doc: dict) -> dict:
    """doc with each RealSeq in its JSON form."""
    return {k: to_json(v) if isinstance(v, RealSeq) else v
            for k, v in doc.items()}


def _api_case(doc: dict, api):
    """A spec case: (doc as JSON, api applied to doc's Python values)."""
    return lambda tmp_path: (_sequences(doc), api(doc))


def _f_case(tmp_path):
    run, sub = tmp_path / "run", [10, 100, 1000]
    cfg = write_json(tmp_path / "cfg.json", {**HARMONIC_CFG, "n_traj": 100})
    assert main(["simulate", "--config", cfg, "--out", str(run)]) == 0
    rep = report_from_records(*load_run(run))
    return ({"check": "f", "run": str(run), "mode": "i", "subsequence": sub},
            check_f_criteria(PathEnsemble(rep.checkpoints, rep.s_values),
                             rep.e_seq, "i", subsequence=sub,
                             mu_A=rep.mu_seq))


LINEAR, ROOT_MU, SQUARE = (power_seq(1.0, -1.0), power_seq(1.0, 0.5),
                           power_seq(1.0, 2.0))
# one criteria spec per check kind (tilde in a mode of each of its optional
# numbers), each a function of a temporary directory giving the spec and the
# report the Python API makes of the same inputs
SUCCESS_CASES = {
    "l2": _api_case(
        {"check": "l2", "e": LINEAR, "var": LINEAR, "horizon": 10**4},
        lambda d: check_l2(d["e"], d["var"], horizon=d["horizon"])),
    "alpha": _api_case(
        {"check": "alpha", "mode": "L1", "alpha": SQUARE, "mu": ROOT_MU,
         "horizon": 10**4},
        lambda d: check_alpha(d["alpha"], d["mu"], "L1",
                              horizon=d["horizon"])),
    "beta-strong": _api_case(
        {"check": "beta-strong", "beta": SQUARE, "qstar_const": 2.0,
         "qstar_bound": 3.0, "horizon": 10**4},
        lambda d: check_beta_strong(d["beta"], lambda u: 2.0,
                                    qstar_bound=3.0, horizon=d["horizon"])),
    "tilde-i": _api_case(
        {"check": "tilde", "mode": "i", "rate": SQUARE, "mu": ROOT_MU,
         "p": 1.5, "limsup_floor": 0.5, "horizon": 10**4},
        lambda d: check_tilde(d["rate"], d["mu"], None, 1.5, "i",
                              limsup_floor=0.5, horizon=d["horizon"])),
    "tilde-ii": _api_case(
        {"check": "tilde", "mode": "ii", "rate": SQUARE, "mu": ROOT_MU,
         "p": 2.0, "lq_bound": 3.0, "horizon": 10**4},
        lambda d: check_tilde(d["rate"], d["mu"], 3.0, 2.0, "ii",
                              horizon=d["horizon"])),
    "pairwise": _api_case(
        {"check": "pairwise", "mode": "i", "gamma": power_seq(1.0, 1.0),
         "phi": power_seq(1.0, 1.0), "alpha": GeometricSeq(1.0, 0.5),
         "p": ROOT_MU, "horizon": 10**4},
        lambda d: check_pairwise(d["gamma"], d["phi"], d["alpha"], d["p"],
                                 "i", horizon=d["horizon"])),
    "renewal": _api_case(
        {"check": "renewal", "nu": ROOT_MU, "nested": True,
         "horizon": 10**4},
        lambda d: check_renewal_nested(d["nu"], nested=True,
                                       horizon=d["horizon"])),
    "f": _f_case,
}


class TestCriteria:
    def test_satisfied_exit_0(self, tmp_path, capsys):
        spec = write_json(tmp_path / "c.json", {
            "check": "alpha", "mode": "poly-1",
            "mu": to_json(power_seq(1.0, 0.5)),
            "params": {"a": 1.0}, "horizon": 10**5,
        })
        rep_out = tmp_path / "rep.json"
        assert main(["criteria", "--spec", spec, "--out", str(rep_out)]) == 0
        text = capsys.readouterr().out
        assert "verdict alpha-poly-1: satisfied" in text
        assert json.loads(rep_out.read_text())["verdict"] == "satisfied"

    def test_violated_exit_2(self, tmp_path):
        spec = write_json(tmp_path / "c.json", {
            "check": "renewal", "nu": to_json(power_seq(1.0, 1.8)),
        })
        assert main(["criteria", "--spec", spec]) == 2

    def test_inconclusive_exit_3(self, tmp_path):
        # strong mode with no workable theta on the grid
        spec = write_json(tmp_path / "c.json", {
            "check": "alpha", "mode": "strong",
            "alpha": to_json(power_seq(1.0, 0.5)),
            "mu": to_json(power_seq(1.0, 0.9)), "horizon": 10**5,
        })
        assert main(["criteria", "--spec", spec]) == 3

    def test_bad_spec_exit_4(self, tmp_path):
        spec = write_json(tmp_path / "c.json", {"check": "wat"})
        assert main(["criteria", "--spec", spec]) == 4

    @pytest.mark.parametrize("doc, error", [
        ({"check": "renewal", "nu": {"c": 1, "p": 1}, "nestd": False,
          "horizn": 50}, "unknown fields ['horizn', 'nestd']"),
        ({"check": "l2", "e": {"p": -1}, "var": {"p": -1}, "mode": "i"},
         "unknown fields ['mode']"),
        ({"check": "f", "run": "nowhere", "horizon": 10},
         "unknown fields ['horizon']"),
        ({"check": "f", "run": "nowhere", "mode": "ii", "subsequence": [10]},
         "'subsequence' applies to f mode 'i' only"),
        ({"check": "beta-strong",
          "beta": {"profile_csv": "nowhere.csv", "knd": "beta_inf1"}},
         "unknown fields ['knd']"),
        ([], "the spec must be a JSON object"),
        ({"check": "alpha", "mode": "strong", "mu": {"p": 0.9},
          "alpha": {"p": 0.5}, "params": {"theta_grd": [0.9]}},
         "unknown fields ['theta_grd']"),
    ], ids=["renewal-typos", "l2-mode", "f-horizon", "f-ii-subsequence",
            "profile-typo", "not-an-object", "alpha-params-typo"])
    def test_field_the_check_does_not_read_exit_4(self, tmp_path, capsys, doc,
                                                   error):
        spec = write_json(tmp_path / "c.json", doc)
        assert main(["criteria", "--spec", spec]) == 4
        assert error in capsys.readouterr().err

    def test_f_check_reproduces_the_runs_criteria(self, tmp_path):
        """check f on an emitted run reads the sequences the run's own
        criteria read: each report is its criteria.json entry, byte for
        byte."""
        tokens = ["f-ii", "f-variance"]
        cfg = write_json(tmp_path / "cfg.json", {
            **HARMONIC_CFG, "n": 2000, "n_traj": 100, "criteria": tokens})
        run = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(run)]) in (
            0, 2, 3)
        entries = json.loads((run / "criteria.json").read_text())["criteria"]
        for token in tokens:
            spec = write_json(tmp_path / "c.json", {
                "check": "f", "run": str(run), "mode": token[len("f-"):]})
            out = tmp_path / f"{token}.json"
            assert main(["criteria", "--spec", spec, "--out", str(out)]) in (
                0, 2, 3)
            assert out.read_bytes() == (
                json.dumps(entries[token], sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize("kind", sorted(SUCCESS_CASES))
    def test_spec_reads_as_the_python_api(self, tmp_path, capsys, kind):
        """Each check kind, with every optional number it reads set to a
        valid value: the exit code, the printed clauses and verdict and the
        --out report are what the API returns for the same inputs."""
        spec, api = SUCCESS_CASES[kind](tmp_path)
        out = tmp_path / "report.json"
        capsys.readouterr()
        code = main(["criteria", "--spec", write_json(
            tmp_path / "c.json", spec), "--out", str(out)])
        assert code == {"satisfied": 0, "violated": 2,
                        "inconclusive": 3}[api.verdict]
        assert capsys.readouterr().out.splitlines() == [
            f"clause {c['name']}: {c['outcome']} ({c['method']})"
            for c in api.diagnostics["clauses"]] + [
            f"verdict {api.criterion}: {api.verdict}"]
        assert out.read_text() == api.to_json() + "\n"

    def test_readme_example_verbatim(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(
            r"cat > crit\.json <<'EOF'\n(.*?\n)EOF\n\nbclab criteria --spec "
            r"crit\.json\n```\n\n```\n(.*?)\n```\n\n\(exit code (\d)", readme,
            re.S)
        spec = tmp_path / "crit.json"
        spec.write_text(example[1])
        code = main(["criteria", "--spec", str(spec)])
        printed = capsys.readouterr().out.splitlines()
        assert printed == example[2].splitlines() == [
            "clause mass-diverges: holds (closed-form)",
            "clause powered-mass-diverges: fails (closed-form)",
            "clause scaled-mass-diverges: holds (closed-form)",
            "verdict alpha-poly-1: violated",
        ]
        assert code == int(example[3]) == 2


class TestMixing:
    def test_dmr_bounds_csv(self, capsys):
        assert main(["mixing", "--task", "dmr", "--a", "1.0",
                     "--ns", "10,100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,lower,upper"
        n, lo, hi = lines[1].split(",")
        assert n == "10"
        assert float(lo) == pytest.approx(0.1)
        assert float(hi) == pytest.approx(0.6)

    def test_circle_profile_to_file(self, tmp_path):
        out = tmp_path / "circle.csv"
        assert main(["mixing", "--task", "circle", "--ns", "16,64",
                     "--k-max", "2000", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,value,provenance,error_bar"
        assert len(lines) == 3

    def test_kernel_profile(self, capsys):
        assert main(["mixing", "--task", "kernel", "--a", "1.0",
                     "--ns", "10,20", "--m", "60"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3

    def test_bad_value_exit_4(self):
        assert main(["mixing", "--task", "dmr", "--a", "-1.0"]) == 4

    @pytest.mark.parametrize("task", ["circle", "kernel", "dmr"])
    @pytest.mark.parametrize("argv, error", [
        (["--a", "nan"], "a finite a"),
        (["--a", "inf"], "a finite a"),
        (["--ns", "10,99999999999999999999999"],
         "--ns must be a JSON integer, not 99999999999999999999999"),
    ], ids=["a-nan", "a-inf", "ns-past-int64"])
    def test_non_finite_a_or_huge_lag_exit_4(self, capsys, task, argv,
                                              error):
        # nan and inf printed nan rows and exited 0; a lag past int64
        # exited 1 with an OverflowError traceback
        assert main(["mixing", "--task", task, "--k-max", "10", "--m", "10",
                     *argv]) == 4
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["circle", "kernel", "dmr"])
    @pytest.mark.parametrize("ns", [",", " , ", ",,"])
    def test_empty_lag_list_exit_4(self, capsys, task, ns):
        # printed only the CSV header and exited 0
        assert main(["mixing", "--task", task, "--ns", ns]) == 4
        assert (f"--ns must list at least one lag, not {ns!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, error", [
        (["--task", "circle", "--k-max", "100000000000"],
         "k_max must lie in 1..1000000, not 100000000000"),
        (["--task", "circle", "--k-max", "1000001"],
         "k_max must lie in 1..1000000, not 1000001"),
        (["--task", "kernel", "--m", "100000000000000000000"],
         "m must lie in 2..2000, not 100000000000000000000"),
        (["--task", "kernel", "--m", "2001"],
         "m must lie in 2..2000, not 2001"),
    ], ids=["k-max-1e11", "k-max-one-past", "m-1e20", "m-one-past"])
    def test_ceilings_exit_4(self, monkeypatch, capsys, argv, error):
        # --k-max 1e11 exited 1 with a MemoryError traceback; the checks
        # must refuse before mixing sizes anything by numpy
        monkeypatch.setattr("bclab.mixing.np", None)
        assert main(["mixing", "--ns", "16", *argv]) == 4
        assert error in capsys.readouterr().err


class TestReport:
    def test_reemit_matches_run_digest(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", HARMONIC_CFG)
        out = tmp_path / "run"
        main(["simulate", "--config", cfg, "--out", str(out)])
        first = capsys.readouterr().out.splitlines()[0]
        assert main(["report", "--run", str(out), "--format", "md"]) == 0
        again = capsys.readouterr().out.splitlines()[0]
        assert first == again  # identical "run digest <hex>" line

    def test_reemit_keeps_manifest_and_wall_clock(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", HARMONIC_CFG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        md = (out / "summary.md").read_bytes()
        assert sorted(manifest["complete"]) == [
            "config.json", "criteria.json", "hits.jsonl", "hits.npy",
            "summary.csv", "summary.md"]
        records = {name: (out / name).read_bytes()
                   for name in ("hits.jsonl", "hits.npy")}
        for name in records:
            os.utime(out / name, ns=(0, 0))
        # jsonl rewrites both record files, from records that view the
        # hits.npy it overwrites, to the same bytes
        for fmt in ("md", "csv", "jsonl"):
            assert main(["report", "--run", str(out), "--format", fmt]) == 0
            assert records == {name: (out / name).read_bytes()
                               for name in records}
            assert all(((out / name).stat().st_mtime_ns > 0) == (fmt == "jsonl")
                       for name in records)
            after = json.loads((out / "manifest.json").read_text())
            assert after == manifest
            for name, sha in after["complete"].items():
                assert sha == hashlib.sha256(
                    (out / name).read_bytes()).hexdigest(), name
        # the run's wall clock and timestamp, not 0.00 s and an empty stamp
        assert (out / "summary.md").read_bytes() == md
        assert manifest["wall_clock_s"] > 0 and manifest["timestamp"]

    def test_missing_run_exit_4(self, tmp_path):
        assert main(["report", "--run", str(tmp_path), "--format", "csv"]) == 4

    def simulated(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", HARMONIC_CFG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        return out, (out / "hits.jsonl").read_text().splitlines()

    def test_removed_hit_time_exit_2_writes_nothing(self, tmp_path, capsys):
        out, lines = self.simulated(tmp_path)
        hits = np.load(out / "hits.npy")
        rec = json.loads(lines[0])
        rec["hit_count"] -= 1
        # in the form bclab writes, so only the digest check can catch it
        lines[0] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        (out / "hits.jsonl").write_text("\n".join(lines) + "\n")
        np.save(out / "hits.npy", np.delete(hits, 1))
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()
        assert main(["report", "--run", str(out), "--format", "csv"]) == 2
        assert "does not match the recorded" in capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    @pytest.mark.parametrize("first", [
        "5",
        None,
        "[" * 100_000 + "]" * 100_000,
    ], ids=["bare-integer", "inline-hit-times", "deep-nesting"])
    def test_malformed_record_exit_4(self, tmp_path, capsys, first):
        out, lines = self.simulated(tmp_path)
        if first is None:
            # a line as older versions wrote it, hit times inline
            rec = json.loads(lines[0])
            del rec["hit_count"]
            first = json.dumps({**rec, "hit_times": [1]},
                               sort_keys=True, separators=(",", ":"))
        (out / "hits.jsonl").write_text("\n".join([first] + lines[1:]) + "\n")
        manifest = (out / "manifest.json").read_bytes()
        assert main(["report", "--run", str(out), "--format", "csv"]) == 4
        assert ("hits.jsonl line 1: not a hit record index"
                in capsys.readouterr().err)
        assert (out / "manifest.json").read_bytes() == manifest

    @pytest.mark.parametrize("rewrite, error", [
        (lambda ls: "".join(json.dumps(json.loads(l)) + "\n" for l in ls),
         "line 1: not a hit record"),
        (lambda ls: "\n".join(ls) + "\n\n", "line 5: not a hit record"),
        (lambda ls: "\n".join(ls), "line 4: no final newline"),
    ], ids=["json-dumps-per-line", "blank-line", "no-final-newline"])
    def test_reformatted_hits_exit_4_writes_nothing(self, tmp_path, capsys,
                                                    rewrite, error):
        # the same records in other bytes: not the file the digest covered
        out, lines = self.simulated(tmp_path)
        (out / "hits.jsonl").write_text(rewrite(lines))
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()
        assert main(["report", "--run", str(out), "--format", "csv"]) == 4
        assert f"hits.jsonl {error}" in capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    @pytest.mark.parametrize("field, value, kind", [
        ("wall_clock_s", [1.5], "number"),
        ("wall_clock_s", "1.5", "number"),
        ("wall_clock_s", True, "number"),
        ("wall_clock_s", None, "number"),
        ("timestamp", 5, "string"),
        ("timestamp", None, "string"),
        ("run_digest", 7, "string"),
        ("run_digest", None, "string"),
    ])
    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_wrongly_typed_manifest_field_exit_4(self, tmp_path, capsys,
                                                 field, value, kind, fmt):
        out, _ = self.simulated(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        if value is None:
            del manifest[field]
        else:
            manifest[field] = value
        write_json(out / "manifest.json", manifest)
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()
        assert main(["report", "--run", str(out), "--format", fmt]) == 4
        assert (f"manifest.json '{field}' must be a JSON {kind}"
                in capsys.readouterr().err)
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_removed_line_exit_4(self, tmp_path, capsys):
        out, lines = self.simulated(tmp_path)
        (out / "hits.jsonl").write_text("\n".join(lines[:-1]) + "\n")
        manifest = (out / "manifest.json").read_bytes()
        assert main(["report", "--run", str(out), "--format", "md"]) == 4
        assert "trajectories 0..3 in order" in capsys.readouterr().err
        assert (out / "manifest.json").read_bytes() == manifest

    def test_hits_fall_across_trajectories(self, tmp_path):
        # every trajectory hits [0, 1) at step 1, so hits.npy falls back to
        # 1 at each of its three trajectory boundaries, which is no fault
        out, _ = self.simulated(tmp_path)
        hits, ends = npy_and_ends(out)
        assert all(hits[e] == 1 < hits[e - 1] for e in ends[:-1])
        assert main(["report", "--run", str(out), "--format", "csv"]) == 0

    @pytest.mark.parametrize("tamper, error", [
        (lambda h, e: npy(h.astype("<u4")), "hits.npy header: not the one"),
        (lambda h, e: npy(h, version=(2, 0)), "hits.npy header: not the one"),
        (lambda h, e: npy(h.astype(">u2")), "hits.npy header: not the one"),
        (lambda h, e: npy(h)[:-3], COUNTS),
        (lambda h, e: npy(h) + b"\0\0", COUNTS),
        (lambda h, e: npy(np.delete(h, e[0])), COUNTS),
        (lambda h, e: npy(np.insert(h, e[0], 999)), COUNTS),
        (lambda h, e: npy(put(h, e[0], 0)),  # a trajectory's first
         "hits.jsonl line 2: hit times must be strictly increasing within "
         "[1, 1000]"),
        (lambda h, e: npy(put(h, e[2] - 1, 1001)), "hits.jsonl line 3: "),
        (lambda h, e: npy(put(h, e[1] - 1, h[e[1] - 2])),
         "hits.jsonl line 2: "),
        (lambda h, e: npy(put(h, e[0] + 1, h[e[0] + 2] + 1)),
         "hits.jsonl line 2: "),
    ], ids=["other-dtype", "version-2", "big-endian", "truncated",
            "trailing-bytes", "count-sum-over", "count-sum-under", "zero",
            "past-n", "repeated", "falling"])
    def test_tampered_hits_npy_exit_4_writes_nothing(self, tmp_path, capsys,
                                                      tamper, error):
        out, _ = self.simulated(tmp_path)
        hits, ends = npy_and_ends(out)
        assert all(b - a >= 3 for a, b in zip([0] + ends, ends))
        data = tamper(hits, ends)
        (out / "hits.npy").write_bytes(data)
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()
        assert main(["report", "--run", str(out), "--format", "csv"]) == 4
        error = error.format(total=ends[-1], body=len(data) - 128)
        assert f"{out / error}" in capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def npy(hits, version=None) -> bytes:
    """hits as np.lib.format writes them, in the given format version."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, hits, version=version)
    return buf.getvalue()


def put(hits, at, value):
    """A copy of hits with hits[at] = value."""
    hits = hits.copy()
    hits[at] = value
    return hits


def npy_and_ends(out) -> tuple:
    """(the run's hits.npy as np.load reads it, where each trajectory's
    hit times end)."""
    counts = [json.loads(l)["hit_count"]
              for l in (out / "hits.jsonl").read_text().splitlines()]
    return np.load(out / "hits.npy"), np.cumsum(counts).tolist()


@pytest.mark.parametrize("command, target", [
    ("simulate", "config"),
    ("criteria", "spec"),
    ("report", "config.json"),
    ("report", "manifest.json"),
])
def test_deeply_nested_json_exit_4(tmp_path, capsys, command, target):
    deep = "[" * 100_000 + "]" * 100_000
    if command == "report":
        cfg = write_json(tmp_path / "cfg.json", HARMONIC_CFG)
        run = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(run)]) == 0
        (run / target).write_text(deep)
        argv = ["report", "--run", str(run), "--format", "csv"]
    else:
        (tmp_path / "deep.json").write_text(deep)
        argv = [command, f"--{target}", str(tmp_path / "deep.json"),
                "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == 4
    assert "JSON nests too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("doc, error", [
    ({"check": "renewal", "nu": {"p": 1.8}, "nested": "false"},
     "'nested' must be JSON true or false"),
    ({"check": "renewal", "nu": {"p": 1.8}, "horizon": "10"},
     "'horizon' must be a JSON integer or null"),
    ({"check": "l2", "e": [1], "var": {"p": -1}},
     "a sequence must be a JSON object, not list"),
    ({"check": "alpha", "mode": "L1", "mu": {"p": 0.5}, "params": [1]},
     "'params' must be a JSON object"),
    (None, "manifest.json must be a JSON object"),
    ({"check": "beta-strong", "beta": {"p": 2}, "qstar_const": [1]},
     "'qstar_const' must be a JSON number or null"),
    ({"check": "tilde", "rate": {"p": 2}, "mu": {"p": 0.5}, "mode": "ii",
      "lq_bound": "x"}, "'lq_bound' must be a JSON number or null"),
    ({"check": "alpha", "mode": "poly-1", "mu": {"p": 0.5},
      "params": {"a": [1]}}, "params 'a' must be a JSON number"),
    ({"check": "alpha", "mode": "L1", "mu": {"p": 0.5}, "alpha": None},
     "mode 'L1' needs alpha"),
    ({"check": "renewal", "nu": None},
     "a sequence must be a JSON object, not NoneType"),
    ({"check": "f", "run": ["x"]}, "'run' must be a JSON string"),
    # json.loads reads NaN and Infinity; an infinite bound would certify
    # the convergent majorant
    ({"check": "beta-strong", "beta": {"p": 2}, "qstar_bound": math.inf},
     "'qstar_bound' must be a JSON number or null"),
    ({"check": "beta-strong", "beta": {"p": 2}, "qstar_bound": math.nan},
     "'qstar_bound' must be a JSON number or null"),
    ({"check": "tilde", "rate": {"p": 2}, "mu": {"p": 0.5}, "mode": "ii",
      "lq_bound": math.inf}, "'lq_bound' must be a JSON number or null"),
    ({"check": "beta-strong", "beta": {"p": 2}, "qstar_bound": 10**400},
     "'qstar_bound' must be a JSON number or null"),
], ids=["nested-string", "horizon-string", "sequence-list", "params-list",
        "manifest-list", "qstar-const-list", "lq-bound-string",
        "params-a-list", "alpha-null", "sequence-null", "run-list",
        "qstar-bound-infinity", "qstar-bound-nan", "lq-bound-infinity",
        "qstar-bound-huge"])
def test_wrongly_typed_value_exit_4(tmp_path, capsys, doc, error):
    if doc is None:
        cfg = write_json(tmp_path / "cfg.json", HARMONIC_CFG)
        run = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(run)]) == 0
        write_json(run / "manifest.json", [])
        argv = ["report", "--run", str(run), "--format", "csv"]
    else:
        argv = ["criteria", "--spec", write_json(tmp_path / "c.json", doc)]
    capsys.readouterr()
    assert main(argv) == 4
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_profile_value_exit_4(tmp_path, capsys, value):
    # a fast-decaying rate profile: with a NaN at lag 50 it read satisfied
    def spec(v):
        rows = [f"{k},{v if k == 50 else repr(k**-2.0)},computed,"
                for k in range(1, 201)]
        (tmp_path / "p.csv").write_text(
            "n,value,provenance,error_bar\n" + "\n".join(rows) + "\n")
        return write_json(tmp_path / "c.json", {
            "check": "tilde", "mode": "i", "limsup_floor": 0.5,
            "rate": {"profile_csv": str(tmp_path / "p.csv")},
            "mu": to_json(power_seq(1.0, 0.5))})

    assert main(["criteria", "--spec", spec(repr(50**-2.0))]) == 0
    capsys.readouterr()
    assert main(["criteria", "--spec", spec(value)]) == 4
    assert (f"coefficient values must lie in [0,1], not [{value}]"
            in capsys.readouterr().err)


def test_short_profile_rows_exit_4(tmp_path, capsys):
    # a profile CSV must carry every column profile_to_csv writes
    (tmp_path / "p.csv").write_text("n,value\n1,0.5\n2,0.25\n")
    spec = write_json(tmp_path / "c.json", {
        "check": "beta-strong", "beta": {"profile_csv": str(tmp_path / "p.csv")}})
    assert main(["criteria", "--spec", spec]) == 4
    assert ("profile row 2: 2 fields, not n,value,provenance,error_bar"
            in capsys.readouterr().err)


@pytest.mark.parametrize("doc", [
    {"check": "alpha", "mode": "poly-2", "params": {"a": 1.0}},
    {"check": "alpha", "mode": "L1", "alpha": {"p": 2.0}},
    {"check": "tilde", "mode": "v", "rate": {"p": 2.0}},
], ids=["alpha-poly-2", "alpha-L1", "tilde-v"])
def test_masses_from_index_0_give_a_verdict(tmp_path, capsys, doc):
    # E_n sums mu(A_0..A_n): it must reach the horizon, not stop one short
    spec = {**doc, "mu": {"template": "geometric", "r": 0.5, "start": 0},
            "horizon": 1000}
    code = main(["criteria", "--spec", write_json(tmp_path / "c.json", spec)])
    assert code in (0, 2, 3)
    assert "verdict " in capsys.readouterr().out
