"""Tests for experiment orchestration, persistence, and verdicts."""

import hashlib
import importlib.util
import json
import math
import re
import runpy
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bclab.harness import (
    ExperimentConfig,
    _index_line,
    _parse_index_line,
    aggregate_verdict,
    config_from_json,
    config_to_json,
    emit_report,
    hits_header,
    load_run,
    marginal_measure,
    report_from_records,
    run_digest,
    run_experiment,
)
from bclab.intervals import (
    LebesgueMeasure,
    NestedLeftFamily,
    PowerMeasure,
    TabulatedCdfMeasure,
)
from bclab.processes import (
    ARHalfProcess,
    DMRProcess,
    HitRecord,
    IIDProcess,
    LSVProcess,
    SplitChainProcess,
    hit_dtype,
    lsv_calibration,
    simulate_ensemble,
)
from bclab.seqcore import TabulatedSeq, constant_seq, power_seq

FULL = NestedLeftFamily(radius=constant_seq(1.0))
HARMONIC = NestedLeftFamily(radius=power_seq(1.0, 1.0))
ROOT = NestedLeftFamily(radius=power_seq(1.0, 0.5))
HALF = NestedLeftFamily(radius=constant_seq(0.5))


def small_cfg(**kw):
    base = dict(process=IIDProcess(), family=HARMONIC, n=1000, n_traj=3, seed=9)
    base.update(kw)
    return ExperimentConfig(**base)


def run_records(n, hit_lists):
    """A run's records as simulate_ensemble makes them: trajectory t holds
    hit_lists[t] in hit_dtype(n), renewal_count t and restarts t % 2."""
    return [HitRecord(t, np.array(h, dtype=hit_dtype(n)), t, t % 2)
            for t, h in enumerate(hit_lists)]


@st.composite
def record_cases(draw):
    """(n, n_traj, records): a run's records of hit times strictly
    increasing within [1, n], whose ids, counters or dtypes may be drawn
    away from the record contract."""
    n = draw(st.sampled_from([100, 255, 256, 1000, 65_536]))
    n_traj = draw(st.integers(1, 4))
    broken = draw(st.sets(st.sampled_from(["ids", "counters", "dtypes"])))
    ids = list(range(n_traj))
    if "ids" in broken:  # permutations, gaps, repeats, too few or many
        ids = draw(st.permutations(ids) | st.lists(
            st.integers(0, n_traj + 1), max_size=n_traj + 1))
    counter = st.integers(0, 10**20)
    if "counters" in broken:
        counter |= st.integers(-3, -1) | st.sampled_from(
            [2.5, 2.0, np.int64(3), True, 10**20 + 0.5])
    dtype = st.just(hit_dtype(n))
    if "dtypes" in broken:
        dtype |= st.sampled_from([np.int64, np.uint64, np.float64,
                                  hit_dtype(n).newbyteorder(">")])
    hits = st.sets(st.integers(1, n), max_size=8).map(sorted)
    recs = run_records(n, [draw(hits) for _ in ids])
    return n, n_traj, [replace(rec, trajectory=t,
                               hit_times=rec.hit_times.astype(draw(dtype)),
                               renewal_count=draw(counter),
                               restarts=draw(counter))
                       for t, rec in zip(ids, recs)]


class TestConfig:
    def test_round_trip(self):
        cfg = small_cfg(criteria=("f-ii",), n_traj=150,
                        measure=PowerMeasure(2.0), out_dir="/tmp/x")
        back = config_from_json(config_to_json(cfg))
        assert config_to_json(back) == config_to_json(cfg)
        assert back.digest() == cfg.digest()

    def test_default_checkpoints_geometric(self):
        cfg = small_cfg()
        cps = np.asarray(cfg.checkpoints)
        assert cps[0] == 1 and cps[-1] == 1000
        assert np.all(np.diff(cps) > 0)
        # roughly 8 per decade
        assert 20 <= len(cps) <= 30

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be >= 100"):
            small_cfg(n=50).validate()
        with pytest.raises(ValueError, match="trajectory"):
            small_cfg(n_traj=0).validate()
        with pytest.raises(ValueError, match="checkpoints"):
            small_cfg(checkpoints=(0, 10)).validate()
        with pytest.raises(ValueError, match="checkpoints"):
            small_cfg(checkpoints=(10, 2000)).validate()
        with pytest.raises(ValueError, match="unknown criteria"):
            small_cfg(criteria=("nope",), n_traj=200).validate()
        with pytest.raises(ValueError, match="n_traj >= 100"):
            small_cfg(criteria=("f-ii",), n_traj=10).validate()

    def test_family_horizon_enforced(self):
        fam = NestedLeftFamily(radius=TabulatedSeq(np.full(500, 0.5)))
        with pytest.raises(ValueError, match="defined only up to"):
            small_cfg(family=fam).validate()

    def test_missing_field_errors(self):
        with pytest.raises(ValueError, match="missing required field"):
            config_from_json({"process": {"variant": "iid"}})


class TestMarginalMeasure:
    def test_closed_forms(self):
        assert isinstance(marginal_measure(small_cfg()), LebesgueMeasure)
        m = marginal_measure(small_cfg(process=IIDProcess(marginal="power",
                                                          power=3.0)))
        assert isinstance(m, PowerMeasure) and m.a == 3.0
        m = marginal_measure(small_cfg(process=DMRProcess(a=1.5)))
        assert isinstance(m, PowerMeasure) and m.a == 1.5

    def test_split_chain_closed_form(self):
        # linear s, Q1 = delta: mu ~ nu/s = x**(p - 2) density, cdf x**(p - 1)
        m = marginal_measure(small_cfg(process=SplitChainProcess(
            s_kind="linear", s_scale=0.5, nu_power=2.5, q1="delta")))
        assert isinstance(m, PowerMeasure) and m.a == 1.5
        assert m.measure_pieces([(0.0, 0.25)]) == pytest.approx(0.125)
        # constant s: mu = nu
        m = marginal_measure(small_cfg(process=SplitChainProcess(
            s_kind="const", s_scale=0.3, nu_power=3.0, q1="delta")))
        assert isinstance(m, PowerMeasure) and m.a == 3.0

    def test_explicit_override_wins(self):
        cfg = small_cfg(process=ARHalfProcess(),
                        measure=TabulatedCdfMeasure([0.0, 2.0], [0.0, 1.0]))
        assert isinstance(marginal_measure(cfg), TabulatedCdfMeasure)

    def test_no_closed_form_raises(self):
        with pytest.raises(ValueError, match="no closed-form"):
            marginal_measure(small_cfg(process=ARHalfProcess()))

    def test_lsv_cold_cache_builds_table(self):
        # the law is built from gamma alone on first use, then shared
        cfg = small_cfg(process=LSVProcess(gamma=0.6))
        cold = run_digest(run_experiment(cfg))
        m = marginal_measure(cfg)
        assert isinstance(m, TabulatedCdfMeasure)
        assert m is lsv_calibration(0.6)
        assert run_digest(run_experiment(cfg)) == cold


class TestRunExperiment:
    def test_full_interval_every_ratio_one(self):
        rep = run_experiment(small_cfg(family=FULL))
        assert np.allclose(rep.ratios, 1.0)
        assert np.all(rep.s_values[:, -1] == 1000)

    def test_mean_count_tracks_expectation(self):
        # closed-form marginal: mean S_n within 4 SD(S_n)/sqrt(N) of E_n
        cfg = small_cfg(family=ROOT, n=2000, n_traj=200, seed=4)
        rep = run_experiment(cfg)
        mean_s = rep.s_values.mean(axis=0)
        sd_s = rep.s_values.std(axis=0, ddof=1)
        e = rep.e_checkpoints
        slack = 4 * np.maximum(sd_s, 1e-9) / math.sqrt(cfg.n_traj)
        assert np.all(np.abs(mean_s - e) <= slack + 1e-9)

    def test_determinism_and_digest_stability(self):
        cfg = small_cfg(seed=21)
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert run_digest(a) == run_digest(b)
        assert a.record_digests == b.record_digests

    def test_parallel_invariance(self, monkeypatch, tmp_path):
        cfg = small_cfg(n_traj=7, seed=13)
        monkeypatch.setenv("BCLAB_THREADS", "1")
        one = run_experiment(cfg)
        monkeypatch.setenv("BCLAB_THREADS", "4")
        four = run_experiment(cfg)
        assert run_digest(one) == run_digest(four)

    def test_criteria_evaluated(self):
        cfg = small_cfg(family=ROOT, n=2000, n_traj=150, seed=6,
                        criteria=("f-ii", "f-variance"))
        rep = run_experiment(cfg)
        assert set(rep.criteria) == {"f-ii", "f-variance"}
        assert rep.criteria["f-ii"].criterion == "f-l1"


class TestAggregateVerdict:
    def test_all_ratios_one_sbc_pass(self):
        rep = run_experiment(small_cfg(family=FULL))
        v = aggregate_verdict(rep, "SBC")
        assert v.passed
        assert v.margins["final_mean_ratio"] == 1.0

    def test_zero_hits_divergent_e_bc_fail(self):
        rep = run_experiment(small_cfg(family=NestedLeftFamily(
            radius=constant_seq(0.0))))
        v = aggregate_verdict(rep, "BC")
        assert not v.passed
        assert v.margins["median_growth_last_decade"] == 0.0

    def test_harmonic_bc_pass(self):
        rep = run_experiment(small_cfg(n=10**4, n_traj=40, seed=2))
        assert aggregate_verdict(rep, "BC").passed

    def test_root_family_l1_and_sbc_pass(self):
        rep = run_experiment(small_cfg(family=ROOT, n=10**4, n_traj=60, seed=3))
        assert aggregate_verdict(rep, "L1BC").passed
        assert aggregate_verdict(rep, "SBC").passed

    def test_early_hits_only_not_bc(self):
        # all hits before n/10: late window empty
        rep = report_from_records(small_cfg(n_traj=5),
                                  run_records(1000, [[1, 2, 3]] * 5))
        v = aggregate_verdict(rep, "not-BC")
        assert v.passed
        assert v.margins["late_hit_fraction"] == 0.0
        # and the same run read as BC fails: the median never grows late
        assert not aggregate_verdict(rep, "BC").passed

    def test_missing_statistics_never_pass(self):
        short = run_experiment(small_cfg(checkpoints=(500, 1000)))
        for prediction in ("BC", "L1BC"):
            v = aggregate_verdict(short, prediction)
            assert not v.passed and v.margins == {}
            assert v.reason == "checkpoints span less than one decade"
        # empty targets: E_n = 0 at every checkpoint, so no ratio exists
        empty = run_experiment(small_cfg(family=NestedLeftFamily(
            radius=constant_seq(0.0))))
        for prediction in ("L1BC", "SBC"):
            v = aggregate_verdict(empty, prediction)
            assert not v.passed and v.margins == {}
            assert v.reason == "expected hit count vanishes at some checkpoint"

    def test_sbc_judges_the_printed_statistics(self, tmp_path):
        # a column's mean differs from the axis-0 mean in the last bits
        # here: the verdict reads the numbers summary.csv prints
        rep = run_experiment(small_cfg(family=HALF, n_traj=20, seed=1))
        emit_report(rep, out_dir=tmp_path, formats=("csv",))
        last = (tmp_path / "summary.csv").read_text().splitlines()[-1]
        _, mean, _, q10, q90, _ = map(float, last.split(","))
        margins = aggregate_verdict(rep, "SBC").margins
        assert (margins["final_mean_ratio"], margins["final_q10"],
                margins["final_q90"]) == (mean, q10, q90)

    def test_unknown_prediction(self):
        rep = run_experiment(small_cfg(family=FULL))
        with pytest.raises(ValueError, match="unknown prediction"):
            aggregate_verdict(rep, "maybe")


class TestRecordContract:
    """report_from_records takes a run's records as simulate_ensemble makes
    them and load_run reads them back, and refuses any others before
    anything is written: each was written, then refused by load_run."""

    RECS = run_records(1000, [[1, 5], [2], [3, 999]])

    @pytest.mark.parametrize("records, trajectory", [
        ([], 0),
        (RECS[:2], 2),
        (RECS + [replace(RECS[0], trajectory=3)], 3),
        ([RECS[1], RECS[0], RECS[2]], 0),
        ([RECS[0], replace(RECS[1], trajectory=2), RECS[2]], 1),
        ([RECS[0], replace(RECS[1], renewal_count=-1), RECS[2]], 1),
        ([RECS[0], RECS[1], replace(RECS[2], restarts=-2)], 2),
        ([replace(RECS[0], renewal_count=2.5), *RECS[1:]], 0),
        ([replace(RECS[0], restarts=np.int64(1)), *RECS[1:]], 0),
        ([replace(RECS[0], renewal_count=True), *RECS[1:]], 0),
        ([RECS[0], replace(RECS[1], hit_times=np.array([2.0])), RECS[2]], 1),
        ([RECS[0], replace(RECS[1], hit_times=np.array([2])), RECS[2]], 1),
        ([RECS[0], RECS[1], replace(RECS[2], hit_times=np.array(
            [3, 999], ">u2"))], 2),
        ([replace(RECS[0], hit_times=np.array([1, 0, 5, 0], "<u2")[::2]),
          *RECS[1:]], 0),
        ([replace(RECS[0], hit_times=np.array([[1, 5]], "<u2")), *RECS[1:]],
         0),
    ], ids=["empty", "fewer", "more", "out-of-order", "gap",
            "negative-renewals", "negative-restarts", "fractional-counter",
            "numpy-counter", "bool-counter", "float-hits", "int64-hits",
            "big-endian-hits", "strided-hits", "2d-hits"])
    def test_refused_before_anything_is_written(self, tmp_path, records,
                                                trajectory):
        with pytest.raises(ValueError, match=f"^trajectory {trajectory}: "):
            emit_report(report_from_records(small_cfg(), records),
                        out_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_the_run_s_own_records_are_taken(self):
        cfg = small_cfg()
        report_from_records(cfg, self.RECS)
        report_from_records(cfg, simulate_ensemble(
            cfg.process, cfg.family, cfg.n, cfg.seed, cfg.n_traj))

    @settings(max_examples=150, deadline=None)
    @given(record_cases())
    @example((1000, 2, [replace(rec, trajectory=t) for t, rec in
                        zip([0, 2], run_records(1000, [[1, 2], [3]]))]))
    def test_refused_or_reproduced(self, case):
        # each input is refused, or written and read back to the same digest
        n, n_traj, records = case
        cfg = small_cfg(n=n, n_traj=n_traj)
        try:
            report = report_from_records(cfg, records)
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as out:
            digest = emit_report(report, out_dir=out)["digest"]
            assert run_digest(report_from_records(*load_run(out))) == digest


class TestEmitAndReload:
    def test_two_trajectory_smoke_digest_matches_recomputation(self, tmp_path):
        cfg = small_cfg(n_traj=2, seed=9)
        rep = run_experiment(cfg)
        paths = emit_report(rep, out_dir=tmp_path)
        lines = (tmp_path / "hits.jsonl").read_text().splitlines()
        assert len(lines) == 2
        cfg2, recs = load_run(tmp_path)
        rep2 = report_from_records(cfg2, recs)
        assert run_digest(rep2) == paths["digest"]
        # the digest is also recorded in criteria.json and manifest.json
        crit = json.loads((tmp_path / "criteria.json").read_text())
        assert crit["run_digest"] == paths["digest"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["run_digest"] == paths["digest"]
        assert set(manifest["complete"]) == {
            "config.json", "criteria.json", "hits.jsonl", "hits.npy",
            "summary.csv", "summary.md"}

    @pytest.mark.parametrize("complete", [
        ["hits.jsonl"], "hits.jsonl", {"hits.jsonl": 5}, None],
        ids=["list", "string", "non-string-hash", "null"])
    def test_malformed_prior_manifest_is_not_carried(self, tmp_path,
                                                     complete):
        rep = run_experiment(small_cfg(n_traj=2, seed=9))
        digest = emit_report(rep, out_dir=tmp_path)["digest"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "complete": complete}))
        emit_report(rep, out_dir=tmp_path, formats=("md",))
        manifest = json.loads(path.read_text())
        assert manifest["run_digest"] == digest
        assert manifest["complete"] == {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("config.json", "criteria.json", "summary.md")}

    def test_emitted_bytes_deterministic(self, tmp_path):
        cfg = small_cfg(seed=31)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_report(run_experiment(cfg), out_dir=d1)
        emit_report(run_experiment(cfg), out_dir=d2)
        for name in ("hits.jsonl", "hits.npy", "summary.csv", "criteria.json",
                     "config.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_large_run_writes_json_dumps_index_and_np_save_array(
            self, tmp_path):
        # over 1e5 hit times up to n = 99,999, so uint32: hits.jsonl is byte
        # for byte what json.dumps writes for each record's index, and
        # hits.npy what np.save writes for all hit times in turn
        cfg = small_cfg(process=DMRProcess(a=1.0),
                        family=NestedLeftFamily(radius=constant_seq(0.5)),
                        n=99_999, n_traj=3, seed=4)
        rep = run_experiment(cfg)
        emit_report(rep, out_dir=tmp_path)
        hits = np.concatenate([r.hit_times for r in rep.records])
        assert hits.size > 10**5 and hits.dtype == np.uint32
        assert hits.min() < 10 and hits.max() >= 10**4
        assert (tmp_path / "hits.jsonl").read_bytes() == b"".join(
            json.dumps({"trajectory": r.trajectory,
                        "hit_count": len(r.hit_times),
                        "renewal_count": r.renewal_count,
                        "restarts": r.restarts},
                       sort_keys=True, separators=(",", ":")).encode() + b"\n"
            for r in rep.records)
        saved = tmp_path / "saved.npy"
        np.save(saved, hits)
        assert (tmp_path / "hits.npy").read_bytes() == saved.read_bytes()
        assert np.array_equal(np.load(tmp_path / "hits.npy"), hits)

    def test_md_summary_golden(self, tmp_path):
        cfg = small_cfg(n_traj=2, seed=9)
        rep = run_experiment(cfg)
        emit_report(rep, out_dir=tmp_path)
        text = (tmp_path / "summary.md").read_text()
        got = "\n".join(
            l for l in text.splitlines()
            if not l.startswith("- wall clock:")
            and not l.startswith("- timestamp:")) + "\n"
        golden = Path(__file__).parent / "golden" / "summary_smoke.md"
        assert got == golden.read_text()

    def test_md_contains_verdict_table(self, tmp_path):
        cfg = small_cfg(family=ROOT, n=2000, n_traj=120, seed=6,
                        criteria=("f-ii",))
        emit_report(run_experiment(cfg), out_dir=tmp_path)
        text = (tmp_path / "summary.md").read_text()
        assert "| criterion | verdict | first failure |" in text
        assert "| f-l1 |" in text

    def test_format_selection(self, tmp_path):
        rep = run_experiment(small_cfg())
        emit_report(rep, out_dir=tmp_path, formats=("md",))
        names = {p.name for p in tmp_path.iterdir()}
        assert "summary.md" in names
        assert not names & {"hits.jsonl", "hits.npy"}
        with pytest.raises(ValueError, match="unknown report formats"):
            emit_report(rep, out_dir=tmp_path, formats=("pdf",))

    def test_no_out_dir(self):
        rep = run_experiment(small_cfg())
        with pytest.raises(ValueError, match="no output directory"):
            emit_report(rep)

    def test_load_run_missing_config(self, tmp_path):
        with pytest.raises(ValueError, match="no config.json"):
            load_run(tmp_path)

    def test_load_run_rejects_partial_or_malformed_index(self, tmp_path):
        emit_report(run_experiment(small_cfg(family=ROOT)), out_dir=tmp_path)
        index = tmp_path / "hits.jsonl"
        lines = index.read_text().splitlines()
        first = json.loads(lines[0])

        def canonical(**fields):
            # first's line with fields replaced, in the form _index_line writes
            return json.dumps({**first, **fields}, sort_keys=True,
                              separators=(",", ":"))

        assert canonical() == lines[0]
        text = "\n".join(lines) + "\n"
        for match, body in [
            ("trajectories 0..2 in order", [lines[0], lines[2]]),
            ("trajectories 0..2 in order", [lines[1], lines[0], lines[2]]),
            # tampered values are rejected, not coerced back to the original
            ("line 1: not a hit record index",
             [canonical(hit_count=first["hit_count"] + 0.5)] + lines[1:]),
            ("line 1: not a hit record index",
             [canonical(hit_count=str(first["hit_count"]))] + lines[1:]),
            ("line 1: not a hit record index",
             [canonical(trajectory=True)] + lines[1:]),
            ("line 1: not a hit record index",
             [canonical(renewal_count=-1)] + lines[1:]),
            ("line 1: not a hit record index",
             [canonical(restarts=-1)] + lines[1:]),
            # the file as written, line by line, and nothing else
            ("line 2: not a hit record index", [lines[0], "", *lines[1:]]),
            ("line 4: not a hit record index", [*lines, ""]),
            ("line 3: not a hit record index", [*lines[:2], json.dumps(
                json.loads(lines[2]))]),
            ("line 3: no final newline", text[:-1]),
            ("line 1: not a hit record index", text.replace("\n", "\r\n")),
            # counts that do not sum to the array's length
            ("line 3: the hit counts sum to",
             [canonical(hit_count=first["hit_count"] + 1)] + lines[1:]),
            ("line 3: the hit counts sum to",
             [canonical(hit_count=first["hit_count"] - 1)] + lines[1:]),
        ]:
            index.write_text(body if isinstance(body, str)
                             else "\n".join(body) + "\n")
            with pytest.raises(ValueError, match=match) as e:
                load_run(tmp_path)
            assert str(e.value).startswith(str(index))
        for name in ("hits.npy", "hits.jsonl"):
            (tmp_path / name).unlink()
            with pytest.raises(ValueError, match=f"no {name}"):
                load_run(tmp_path)


def dmr_record():
    """Trajectory 0's record of a sticky-chain run with hits and
    renewals."""
    return simulate_ensemble(DMRProcess(a=1.0), HALF, 200, 1, n_traj=1)[0]


def compact(doc) -> bytes:
    """doc as json.dumps writes it, compact with sorted keys."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def json_line(rec) -> bytes:
    """rec's index as json.dumps writes it, compact with sorted keys: the
    oracle for _index_line."""
    return compact({"trajectory": rec.trajectory,
                    "hit_count": len(rec.hit_times),
                    "renewal_count": rec.renewal_count,
                    "restarts": rec.restarts})


def index_line(count: str) -> bytes:
    """A hits.jsonl index line in _index_line's layout around a hit_count's
    text."""
    return (f'{{"hit_count":{count},"renewal_count":0,"restarts":0,'
            f'"trajectory":0}}').encode()


counters = st.integers(0, 10**20)


class TestIndexLine:
    """_index_line/_parse_index_line: one hits.jsonl line is one record's
    index, in one form."""

    def test_hit_record_index_line(self):
        rec = dmr_record()
        d = json.loads(_index_line(rec))
        assert list(d) == ["hit_count", "renewal_count", "restarts",
                           "trajectory"]
        assert d["hit_count"] == len(rec.hit_times) > 0
        assert _index_line(rec) == json_line(rec)
        assert _parse_index_line(_index_line(rec)) == (
            len(rec.hit_times), rec.renewal_count, rec.restarts, 0)

    def test_hit_record_rejects_other_fields(self):
        d = json.loads(_index_line(dmr_record()))
        # a line of the older format, with the hit times inline
        inline = {**d, "hit_times": [1, 5]}
        del inline["hit_count"]
        old = {**d, "seed": 1, "n": 200, "drift": 0.0,
               "s_checkpoints": [[200, 3]], "renewal_times": [1, 5]}
        del d["restarts"]
        for doc in (inline, old, d):
            with pytest.raises(ValueError, match="not a hit record index"):
                _parse_index_line(compact(doc))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 500), st.integers(0, 10**6), counters,
           st.integers(0, 8))
    @example(0, 0, 0, 0)
    @example(500, 10**6, 10**20, 8)
    def test_round_trip(self, count, trajectory, renewals, restarts):
        rec = HitRecord(trajectory, np.arange(1, count + 1, dtype=np.uint16),
                        renewals, restarts)
        line = _index_line(rec)
        assert line == json_line(rec)
        assert _parse_index_line(line) == (count, renewals, restarts,
                                           trajectory)

    @pytest.mark.parametrize("count", [
        "01", "-1", "1.0", "+1", "1e3", " 1", "1 ", '"3"', "true", "null",
        "[1]", ""])
    def test_near_canonical_lines_are_rejected(self, count):
        with pytest.raises(ValueError, match="not a hit record index"):
            _parse_index_line(index_line(count))

    # json.dumps of an integer >= 0: what _parse_index_line may read, as a
    # slow but plainly correct grammar
    CANONICAL_COUNT = re.compile(rb"0|[1-9][0-9]*")

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from([
        b"0", b"1", b"9", b",", b" ", b"\t", b"+", b"-", b".", b"e", b"x",
        b"]", b"_", b"\x00", "\u0661".encode(), b"99999999999999999",
        b"9223372036854775807"]), max_size=6).map(b"".join))
    def test_parser_reads_only_canonical_counts(self, text):
        line = index_line(text.decode())
        if self.CANONICAL_COUNT.fullmatch(text):
            assert _parse_index_line(line)[0] == json.loads(text)
        else:
            with pytest.raises(ValueError, match="not a hit record index"):
                _parse_index_line(line)

    @pytest.mark.parametrize("reformat", [
        lambda line, d: json.dumps(json.loads(line)).encode(),
        lambda line, d: json.dumps(d, sort_keys=True).encode(),
        lambda line, d: json.dumps(dict(reversed(d.items())),
                                   separators=(",", ":")).encode(),
        lambda line, d: json.dumps(d, indent=1, sort_keys=True).encode(),
        lambda line, d: line + b" ",
        lambda line, d: b"\t" + line,
        lambda line, d: line + b"\r",
    ], ids=["json-dumps", "sorted-with-spaces", "other-key-order", "indented",
            "trailing-space", "leading-tab", "carriage-return"])
    def test_reformatted_lines_are_rejected(self, reformat):
        line = _index_line(dmr_record())
        assert line.startswith(b'{"hit_count":')
        text = reformat(line, json.loads(line))
        assert json.loads(text) == json.loads(line) and text != line
        with pytest.raises(ValueError, match="not a hit record index"):
            _parse_index_line(text)

    @pytest.mark.parametrize("line", [
        b"", b"5", b"[1, 2]", b"null", b'{"hit_count":1',
        b"[" * 100_000 + b"]" * 100_000,
        index_line("[" * 1000 + "]" * 1000),
    ], ids=["empty", "integer", "list", "null", "truncated", "deep-list",
            "deep-hit-count"])
    def test_malformed_lines_raise_value_error(self, line):
        with pytest.raises(ValueError, match="not a hit record index"):
            _parse_index_line(line)

    @pytest.mark.parametrize("field, value", [
        ("hit_count", [1, 2]),
        ("hit_count", True),
        ("hit_count", -1),
        ("trajectory", 0.0),
        ("trajectory", True),
        ("renewal_count", "4"),
        ("renewal_count", -1),
        ("restarts", None),
        ("restarts", 1.5),
    ])
    def test_wrongly_typed_or_negative_fields_are_rejected(self, field, value):
        doc = {"trajectory": 0, "hit_count": 2, "renewal_count": 0,
               "restarts": 0, field: value}
        with pytest.raises(ValueError, match="not a hit record index"):
            _parse_index_line(compact(doc))



def write_run(tmp_path, n, hit_lists):
    """emit_report of records with the given hit times at horizon n, then
    load_run of what it wrote, which must give them back."""
    cfg = small_cfg(n=n, n_traj=len(hit_lists), checkpoints=(1, n))
    recs = run_records(n, hit_lists)
    digest = emit_report(report_from_records(cfg, recs),
                         out_dir=tmp_path)["digest"]
    cfg2, back = load_run(tmp_path)
    assert run_digest(report_from_records(cfg2, back)) == digest
    for a, b in zip(recs, back):
        assert _index_line(a) == _index_line(b)
        assert a.hit_times.tolist() == b.hit_times.tolist()
        assert b.hit_times.dtype == hit_dtype(n)
        assert not b.hit_times.flags.writeable


class TestHitsArray:
    """hits.npy at each packing dtype's edges, and runs with few hits."""

    @pytest.mark.parametrize("n", [255, 256, 65_535, 65_536])
    def test_round_trip_at_the_dtype_edges(self, tmp_path, n):
        # a drop at each trajectory boundary, n itself, and step 1
        write_run(tmp_path, n, [[1, 2, n], [3, n - 1], [1, n]])
        assert np.load(tmp_path / "hits.npy").dtype == hit_dtype(n)
        size = (tmp_path / "hits.npy").stat().st_size
        assert size == 128 + 7 * hit_dtype(n).itemsize

    def test_trajectories_without_hits(self, tmp_path):
        write_run(tmp_path, 1000, [[], [5], [], [], [2, 999], []])

    def test_a_run_without_hits_writes_an_empty_array(self, tmp_path):
        write_run(tmp_path, 1000, [[], [], []])
        assert (tmp_path / "hits.npy").read_bytes() == hits_header(1000, 0)
        assert np.load(tmp_path / "hits.npy").shape == (0,)

    def test_one_trajectory(self, tmp_path):
        write_run(tmp_path, 1000, [list(range(1, 1001))])

    def test_records_view_one_read(self, tmp_path):
        write_run(tmp_path, 1000, [[1, 7], [], [2, 999, 1000]])
        _, back = load_run(tmp_path)
        base = back[0].hit_times.base
        assert base.tolist() == [1, 7, 2, 999, 1000]
        assert all(r.hit_times.base is base for r in back)

    @pytest.mark.parametrize("n, descr", [
        (2**32 - 1, "<u4"), (2**32, "<u8")])
    def test_header_past_uint32(self, n, descr):
        header = hits_header(n, 3 * 10**9)
        assert len(header) == 128 and header.endswith(b"\n")
        assert f"'descr': '{descr}'".encode() in header
        assert b"'shape': (3000000000,)" in header

    @pytest.mark.parametrize("hits", [[0, 5], [5, 1001], [-3, 5], [1, 5]],
                             ids=["zero", "past-n", "negative", "in-range"])
    def test_writer_refuses_what_the_array_cannot_hold(self, hits):
        # hit times in any dtype but hit_dtype(n) are refused, in range or
        # not, so the record digests, the run digest and hits.npy never
        # hold a converted or wrapped value
        with pytest.raises(ValueError, match=re.escape(
                "trajectory 0: hit times must be a C-contiguous 1-d array "
                "of <u2")):
            report_from_records(small_cfg(n_traj=1), [replace(
                run_records(1000, [[]])[0], hit_times=np.array(hits))])


def traced_peak(work) -> int:
    """tracemalloc peak, in bytes, of calling work()."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRecordMemory:
    """hits.npy is held once, as its records' hit times: the statistics
    pass, the digest, the write and the reload make no copy of the whole
    array beside them.  400 trajectories make the array about 4 MB, so a
    quarter of it stands well above what the statistics pass holds
    whatever the hits (about 0.6 MB of masses at n = 1e4)."""

    CFG = ExperimentConfig(process=DMRProcess(a=1.0),
                           family=NestedLeftFamily(radius=constant_seq(0.5)),
                           n=10**4, n_traj=400, seed=3)

    def test_run_streams_hits_npy(self, tmp_path):
        cfg = self.CFG
        records = simulate_ensemble(cfg.process, cfg.family, cfg.n, cfg.seed,
                                    cfg.n_traj)

        def run():
            report = report_from_records(cfg, records)
            run_digest(report)
            emit_report(report, out_dir=tmp_path)

        peak = traced_peak(run)
        size = (tmp_path / "hits.npy").stat().st_size
        assert size > 3 * 2**20
        # the records' hit times are packed as the file holds them, so a
        # join, a converted copy or a cached serialization is a whole
        # copy more
        assert sum(r.hit_times.nbytes for r in records) == size - 128
        assert peak < size / 4

    def test_reload_holds_the_file_once(self, tmp_path):
        emit_report(run_experiment(self.CFG), out_dir=tmp_path)
        loaded = []

        def reverify():
            loaded.append(load_run(tmp_path))
            run_digest(report_from_records(*loaded[0]))

        peak = traced_peak(reverify)
        size = (tmp_path / "hits.npy").stat().st_size
        # every record's hit times are a view of the one read of the file
        assert len({id(r.hit_times.base) for r in loaded[0][1]}) == 1
        assert peak - size < size / 4


def reference_suite(quick: bool) -> dict:
    """{name: config} from scripts/run_reference_suite.py."""
    path = Path(__file__).parents[1] / "scripts" / "run_reference_suite.py"
    spec = importlib.util.spec_from_file_location("run_reference_suite", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {name: cfg for name, cfg, _ in mod.build_suite(quick)}


@pytest.mark.parametrize("workload, name", [
    ("dense-wide", "dense_wide.json"),
    ("rotation-walk", "rotation_walk.json"),
])
def test_script_config_is_the_benchmark_workload(workload, name):
    # the config files scripts/horizon_memory.py takes, against the
    # configs perfbench/workloads.py builds for seed 0
    root = Path(__file__).parents[1]
    workloads = runpy.run_path(str(root / "perfbench" / "workloads.py"))
    doc = json.loads((root / "scripts" / name).read_text())
    assert config_from_json(doc) == workloads["WORKLOADS"][workload].build(0)


BENCHMARK_WORKLOADS = ("dense-wide", "intermittent-map", "rotation-walk")


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_benchmark_workload_builds_and_round_trips(workload):
    # perfbench/workloads.py builds its configs with the constructors'
    # keywords: a renamed one fails here, not only as a failed benchmark
    root = Path(__file__).parents[1]
    workloads = runpy.run_path(str(root / "perfbench" / "workloads.py"))
    assert sorted(workloads["WORKLOADS"]) == sorted(BENCHMARK_WORKLOADS)
    cfg = workloads["WORKLOADS"][workload].build(0)
    cfg.validate()
    back = config_from_json(json.loads(json.dumps(config_to_json(cfg))))
    assert back.digest() == cfg.digest()


class TestReferenceDigests:
    """Runs of the quick reference suite, pinned bit for bit."""

    @pytest.mark.parametrize("name, digest", [
        ("sticky-divergent-boundary",
         "8860e8c854a9305777966955a42f1db754d6461eac21867afc6b1089cefbd90d"),
        ("sticky-convergent-boundary",
         "df043bd2c8367c004cf06bd20c74d65f192604622b26e20cbf43d8be276d171e"),
    ], ids=["sticky-divergent-boundary-full-digest",
            "sticky-convergent-boundary-full-digest"])
    def test_quick_sticky_digest_pinned(self, name, digest):
        cfg = reference_suite(quick=True)[name]
        assert run_digest(run_experiment(cfg)) == digest

    # summary.csv holds the statistics alone: a change to what records
    # store moves the digests above but must leave these hashes alone
    @pytest.mark.parametrize("name, sha", [
        ("sticky-divergent-boundary",
         "6b27700d8b436d4ebfebc052a8390df67d79648b002c8ba9930380296b47eef7"),
        ("sticky-convergent-boundary",
         "67708b6a423ffb8bdc489b1dc359593577f2e3336db209f0bb89da2607eb3dcf"),
    ], ids=["sticky-divergent-boundary", "sticky-convergent-boundary"])
    def test_quick_sticky_summary_pinned(self, name, sha, tmp_path):
        cfg = reference_suite(quick=True)[name]
        emit_report(run_experiment(cfg), out_dir=tmp_path, formats=("csv",))
        csv = (tmp_path / "summary.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == sha

    @pytest.mark.parametrize("name", [
        "iid-harmonic", "sticky-divergent-boundary",
        "sticky-convergent-boundary", "interval-map-shrinking",
        "interval-map-window", "circle-golden"])
    def test_quick_suite_reverifies(self, name, tmp_path):
        cfg = reference_suite(quick=True)[name]
        digest = emit_report(run_experiment(cfg), out_dir=tmp_path)["digest"]
        cfg, records = load_run(tmp_path)
        # the records' hit times are the file's own bytes, not a copy
        assert len({id(r.hit_times.base) for r in records}) == 1
        again = report_from_records(cfg, records)
        assert run_digest(again) == digest
        assert (tmp_path / "hits.jsonl").read_bytes() == b"".join(
            _index_line(r) + b"\n" for r in again.records)
        assert (tmp_path / "hits.npy").read_bytes() == hits_header(
            cfg.n, sum(len(r.hit_times) for r in records)) + b"".join(
            r.hit_times.tobytes() for r in records)

    # the interval map, whose expected counts come from its invariant law
    @pytest.mark.parametrize("name, digest", [
        ("interval-map-shrinking",
         "496897ade49728e1006fab1e04913a66b9751399066b0aeca92a2b5cccebe6e7"),
        ("interval-map-window",
         "07c28cec6a1a1839db0d66027a97c97ac2ab13a719d3d617166171be6dac5578"),
    ], ids=["interval-map-shrinking", "interval-map-window"])
    def test_quick_interval_map_digest_pinned(self, name, digest):
        cfg = reference_suite(quick=True)[name]
        assert run_digest(run_experiment(cfg)) == digest

    # the variants stepped a whole chunk at a time (circle walk and iid)
    @pytest.mark.parametrize("name, digest, sha", [
        ("circle-golden",
         "ea4ea29754138d696c0d7b0720d263deb3864f9e81410bfe42d9d01cd026c728",
         "e3e6d1602c4966aa72188ec4e4df2021fe82ca2d8486b5c6763676aa76cf1dc0"),
        ("iid-harmonic",
         "f126aef91ff05e30b73236c8b949816d98df5dd5918e41f1720259322ee7cc27",
         "ab2e9a62cf8151f4e0b3bddf18d939c4cda892e401a95d291640ee5082625da3"),
    ], ids=["circle-golden", "iid-harmonic"])
    def test_quick_whole_chunk_runs_pinned(self, name, digest, sha, tmp_path):
        report = run_experiment(reference_suite(quick=True)[name])
        assert run_digest(report) == digest
        emit_report(report, out_dir=tmp_path, formats=("csv",))
        csv = (tmp_path / "summary.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == sha
