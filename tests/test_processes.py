from fractions import Fraction
from pathlib import Path

import concurrent.futures
import hashlib
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from bclab import processes
from bclab.intervals import (
    TORUS,
    CustomFamily,
    Interval,
    NestedLeftFamily,
    NestedWindowFamily,
    TorusConsecutiveFamily,
)
from bclab.processes import (
    ARHalfProcess,
    CircleRWProcess,
    DMRProcess,
    GOLDEN_CONJUGATE,
    HitRecord,
    IIDProcess,
    LSVProcess,
    ProcessSpec,
    SplitChainProcess,
    check_run,
    init_from_uniforms,
    init_uniform_count,
    lsv_calibration,
    make_generator,
    simulate_ensemble,
    step_draws,
)
from bclab.seqcore import (PowerLogSeq, constant_seq, from_json, log_grid,
                            power_seq, to_json)

from scalar_reference import (UNITS, CircleState, lsv_map, process_step,
                              replay, units)

UNIT = NestedLeftFamily(radius=constant_seq(1.0))
HALF = NestedLeftFamily(radius=constant_seq(0.5))


def first_state(spec, seed):
    """Trajectory 0's starting state, drawn as the ensemble draws it."""
    return processes._init_vector(spec, [make_generator(seed, 0)])[0]


def one_run(spec, family, n, seed):
    """Trajectory 0's hit record."""
    return simulate_ensemble(spec, family, n, seed, n_traj=1)[0]


def states_at(spec, n, seed, n_traj):
    """X_n of trajectories 0..n_traj-1, each from its stationary start."""
    gens = [make_generator(seed, t) for t in range(n_traj)]
    x = processes._init_vector(spec, gens)
    for x, _, _ in processes._chunks(spec, n, gens, x, HALF):
        pass
    return x


class TestProcessStep:
    def test_lsv_right_branch_at_half(self):
        nxt, flag = process_step(LSVProcess(gamma=0.5), 0.5, ())
        assert nxt == 0.0 and flag == 0

    def test_lsv_left_branch_quarter(self):
        nxt, _ = process_step(LSVProcess(gamma=0.5), 0.25, ())
        assert nxt == pytest.approx(0.25 * (1 + np.sqrt(0.5)), abs=1e-12)
        assert nxt == pytest.approx(0.426776695, abs=1e-8)

    def test_lsv_rejects_bad_state(self):
        with pytest.raises(ValueError):
            process_step(LSVProcess(gamma=0.5), 1.5, ())

    def test_circle_both_coins_wrap_to_same_point(self):
        spec = CircleRWProcess(a=0.5)
        heads, _ = process_step(spec, 0.3, (0,))
        tails, _ = process_step(spec, 0.3, (1,))
        assert heads == pytest.approx(0.8)
        assert tails == pytest.approx(0.8)

    def test_dmr_regeneration_and_stay(self):
        spec = DMRProcess(a=1.0)
        nxt, flag = process_step(spec, 0.4, (0.2, 0.25))
        assert flag == 1
        assert nxt == pytest.approx(0.5)  # nu cdf x^2, draw 0.25**(1/2)
        nxt, flag = process_step(spec, 0.4, (0.9, 0.25))
        assert flag == 0 and nxt == 0.4

    def test_ar_half_recursion(self):
        nxt, _ = process_step(ARHalfProcess(), 0.8, (0.3, 0.0))
        assert nxt == pytest.approx(1.4)
        nxt, _ = process_step(ARHalfProcess(), 0.8, (0.7, 0.0))
        assert nxt == pytest.approx(0.4)

    def test_split_chain_validation(self):
        for s_kind in ("linear", "const"):
            with pytest.raises(ValueError, match="never regenerates"):
                SplitChainProcess(s_kind=s_kind, s_scale=0.0).validate()
        with pytest.raises(ValueError):
            process_step(SplitChainProcess(), 1.7, (0.5, 0.5))

    @pytest.mark.parametrize("nu_power", [1.0, 0.5])
    def test_sticky_split_chain_without_invariant_law_rejected(self, nu_power):
        spec = SplitChainProcess(s_kind="linear", s_scale=0.5,
                                 nu_power=nu_power, q1="delta")
        with pytest.raises(ValueError, match="null-recurrent: no invariant "
                                             "probability law"):
            spec.validate()
        # redrawing from nu keeps mu = nu, whatever its power
        SplitChainProcess(s_kind="linear", nu_power=nu_power, q1="nu").validate()

    def test_dmr_is_the_sticky_split_chain_preset(self):
        spec = DMRProcess(a=2.0)
        assert isinstance(spec, SplitChainProcess)
        assert (spec.s_kind, spec.s_scale, spec.nu_power, spec.q1) == (
            "linear", 1.0, 3.0, "delta")
        with pytest.raises(TypeError):
            DMRProcess(a=1.0, nu_power=5.0)
        with pytest.raises(ValueError, match="dmr needs a > 0"):
            DMRProcess(a=0.0).validate()

    def test_invariant_power(self):
        assert SplitChainProcess(nu_power=2.5).invariant_power() == 1.5
        assert SplitChainProcess(s_kind="const", s_scale=0.3,
                                 nu_power=3.0).invariant_power() == 3.0
        assert SplitChainProcess(nu_power=3.0, q1="nu").invariant_power() == 3.0
        # (a + 1) - 1 != a here; the preset keeps a exactly
        assert (0.1 + 1.0) - 1.0 != 0.1
        assert DMRProcess(a=0.1).invariant_power() == 0.1


class TestStationaryInit:
    def test_dmr_unit_shape_is_uniform(self):
        assert init_from_uniforms(DMRProcess(a=1.0), [0.49]) == pytest.approx(0.49)

    def test_dmr_shape_two(self):
        assert init_from_uniforms(DMRProcess(a=2.0), [0.25]) == pytest.approx(0.5)

    def test_circle_haar(self):
        assert init_from_uniforms(CircleRWProcess(), [0.7]) == pytest.approx(0.7)

    def test_iid_identity(self):
        assert init_from_uniforms(IIDProcess(), [0.31]) == pytest.approx(0.31)

    def test_ar_half_series_extremes(self):
        n = init_uniform_count(ARHalfProcess())
        assert n == 54
        top = init_from_uniforms(ARHalfProcess(), np.zeros(n))
        assert top == pytest.approx(2.0, abs=1e-15)
        assert init_from_uniforms(ARHalfProcess(), np.ones(n) * 0.9) == 0.0

    def test_lsv_init_stays_in_unit_interval(self):
        x = first_state(LSVProcess(gamma=0.75), seed=5)
        assert 0.0 <= x < 1.0

    def test_split_chains_consume_one_uniform(self):
        for spec in (DMRProcess(a=1.0), SplitChainProcess(nu_power=1.5),
                     SplitChainProcess(s_kind="const", s_scale=0.3, q1="nu")):
            assert init_uniform_count(spec) == 1

    def test_seed_determinism(self):
        a = first_state(DMRProcess(a=1.0), seed=9)
        b = first_state(DMRProcess(a=1.0), seed=9)
        assert a == b


class TestCheckpoints:
    def test_grid_is_increasing_and_ends_at_n(self):
        cps = log_grid(1, 12345).tolist()
        assert cps[0] == 1 and cps[-1] == 12345
        assert all(b > a for a, b in zip(cps, cps[1:]))

    def test_small_n(self):
        assert log_grid(1, 1).tolist() == [1]
        assert log_grid(1, 3)[-1] == 3


class TestSimulateHits:
    def test_full_space_hits_every_step(self):
        rec = one_run(IIDProcess(), UNIT, 100, seed=1)
        assert rec.hit_times.tolist() == list(range(1, 101))

    def test_harmonic_family_mean_matches_expectation(self):
        fam = NestedLeftFamily(radius=PowerLogSeq(c=1.0, p=1.0))
        recs = simulate_ensemble(IIDProcess(), fam, 10_000, seed=2, n_traj=1000)
        s = np.array([len(r.hit_times) for r in recs])
        e_n = np.log(10_000) + 0.5772156649 + 1 / 20_000
        # CLT band: sd(S_n) ~ sqrt(E_n), three sigma over 1000 trajectories
        assert abs(s.mean() - e_n) < 3 * np.sqrt(e_n / 1000)

    def test_always_regenerating_chain_draws_iid_nu(self):
        spec = SplitChainProcess(s_kind="const", s_scale=1.0, nu_power=2.0)
        rec = one_run(spec, HALF, 400, seed=3)
        assert rec.renewal_count == 400
        # X_k iid with cdf x^2: P(X < 1/2) = 1/4
        frac = len(rec.hit_times) / 400
        assert abs(frac - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 400)

    def test_family_horizon_guard(self):
        fam = CustomFamily(intervals=(Interval.line(0, 1),) * 5)
        with pytest.raises(ValueError):
            simulate_ensemble(IIDProcess(), fam, 10, seed=0, n_traj=1)

    def test_matches_scalar_replay(self):
        for spec in (DMRProcess(a=1.0), CircleRWProcess(a=0.37, drift=0.0),
                     IIDProcess(), LSVProcess(gamma=0.6),
                     LSVProcess(gamma=0.5), ARHalfProcess(),
                     SplitChainProcess(q1="nu"),
                     # regenerates at every step
                     SplitChainProcess(s_kind="const", s_scale=1.0)):
            n = 500
            rec = one_run(spec, HALF, n, seed=11)
            gen = make_generator(11, 0)
            x = init_from_uniforms(spec, gen.random(init_uniform_count(spec)))
            hits, renewals = [], 0
            for k, draws in enumerate(step_draws(spec, gen, n), start=1):
                x, flag = process_step(spec, x, draws)
                renewals += flag
                if x < 0.5:
                    hits.append(k)
            assert rec.hit_times.tolist() == hits, spec.variant
            assert rec.renewal_count == renewals, spec.variant
            assert (renewals > 0) == isinstance(spec, SplitChainProcess)
            if getattr(spec, "s_kind", None) == "const":
                assert renewals == n

    def test_drift_shifts_the_test_frame(self):
        spec = CircleRWProcess(a=0.31, drift=0.25)
        rec = one_run(spec, HALF, 300, seed=13)
        gen = make_generator(13, 0)
        x = init_from_uniforms(spec, gen.random(1))
        hits = []
        for k, draws in enumerate(step_draws(spec, gen, 300), start=1):
            x, _ = process_step(spec, x, draws)
            if (Fraction(x.units, UNITS) - Fraction(k, 4)) % 1 < 0.5:
                hits.append(k)
        assert rec.hit_times.tolist() == hits

    def test_ensemble_matches_single_runs(self):
        fam = NestedLeftFamily(radius=PowerLogSeq(c=0.8, p=0.5))
        recs = simulate_ensemble(DMRProcess(a=1.0), fam, 600, seed=21, n_traj=4)
        for t in (0, 3):
            solo = processes.packed_records([t], *processes._run_block(
                DMRProcess(a=1.0), 600, 21, [t], fam))[0]
            assert record_key(recs[t]) == record_key(solo)

    def test_parallel_partition_invariance(self, monkeypatch):
        fam = NestedLeftFamily(radius=PowerLogSeq(c=0.8, p=0.5))
        monkeypatch.setenv("BCLAB_THREADS", "1")
        one = simulate_ensemble(DMRProcess(a=1.0), fam, 400, seed=5, n_traj=6)
        monkeypatch.setenv("BCLAB_THREADS", "3")
        three = simulate_ensemble(DMRProcess(a=1.0), fam, 400, seed=5, n_traj=6)
        for a, b in zip(one, three):
            assert a.trajectory == b.trajectory
            assert a.hit_times.tolist() == b.hit_times.tolist()

    def test_records_pack_hit_times_by_horizon(self):
        # hit_dtype(n): uint8 through n = 255, uint16 from 256
        for n, dtype in ((255, np.uint8), (256, np.uint16)):
            rec = one_run(IIDProcess(), UNIT, n, seed=1)
            assert rec.hit_times.dtype == dtype
            assert rec.hit_times.tolist() == list(range(1, n + 1))


def record_key(rec) -> tuple:
    """rec's fields, hit-time dtype and hit-time bytes: equal for two
    records exactly when their fields and hit times are."""
    return (rec.trajectory, len(rec.hit_times), rec.renewal_count,
            rec.restarts, rec.hit_times.dtype.str, rec.hit_times.tobytes())


class TestHitRecord:
    """A record's fields, with its hit times read-only as given."""

    def test_frozen_with_read_only_hit_times(self):
        given = np.array([1, 5, 9], dtype=np.uint8)
        rec = HitRecord(0, given)
        with pytest.raises(ValueError, match="read-only"):
            rec.hit_times[0] = 2
        with pytest.raises(AttributeError):
            rec.hit_times = np.array([2, 5, 9])
        # the caller's array keeps its flags, and its dtype is kept
        assert given.flags.writeable
        assert rec.hit_times.dtype == np.uint8

    def test_hit_times_are_held_as_given(self):
        # no conversion: a run's dtype rule is report_from_records' to apply
        for given in ([2.0], [1.5, 3.9, 3.2], [], np.array([7], np.int64)):
            held = HitRecord(0, given).hit_times
            assert held.dtype == np.asarray(given).dtype
            assert held.tolist() == np.asarray(given).tolist()


def scalar_replay(spec, n, gen, threshold=0.5):
    """(lowest state, hit times of [0, threshold)) stepping gen with process_step."""
    x = init_from_uniforms(spec, gen.random(init_uniform_count(spec)))
    lowest, hits = np.inf, []
    for k, draws in enumerate(step_draws(spec, gen, n), start=1):
        x, _ = process_step(spec, x, draws)
        lowest = min(lowest, x)
        if x < threshold:
            hits.append(k)
    return lowest, hits


class TestDegenerateRestart:
    # at 2 workers, trajectories 20..39 are rerun in a forked worker, which
    # inherits the patched floor
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_restarted_records_replay_their_restart_stream(self, monkeypatch,
                                                           workers):
        # a high underflow floor makes a few gamma = 0.75 orbits "degenerate"
        monkeypatch.setattr(processes, "_DEGENERATE", 1e-4)
        monkeypatch.setenv("BCLAB_THREADS", workers)
        spec = LSVProcess(gamma=0.75)
        n, seed = 2000, 3
        recs = simulate_ensemble(spec, HALF, n, seed=seed, n_traj=40)
        assert [r.trajectory for r in recs] == list(range(40))
        restarted = [r for r in recs if r.restarts]
        assert len(restarted) == 6
        assert [r.trajectory for r in restarted if r.trajectory >= 20]
        for rec in restarted:
            assert rec.restarts >= 1
            # every earlier stream underflows; the recorded one does not
            for restart in range(rec.restarts + 1):
                gen = make_generator(seed, rec.trajectory, restart)
                lowest, hits = scalar_replay(spec, n, gen)
                assert (lowest < 1e-4) == (restart < rec.restarts)
            assert rec.hit_times.tolist() == hits
        kept = recs[next(t for t in range(40) if not recs[t].restarts)]
        assert kept.hit_times.tolist() == scalar_replay(
            spec, n, make_generator(seed, kept.trajectory))[1]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_rerun_block_keeps_every_other_record(self, monkeypatch,
                                                    workers):
        # a block with a degenerate orbit runs again whole: each trajectory
        # that never restarted re-walks its stream bit for bit
        monkeypatch.setenv("BCLAB_THREADS", workers)
        spec, n, seed = LSVProcess(gamma=0.75), 2000, 3
        plain = simulate_ensemble(spec, HALF, n, seed=seed, n_traj=40)
        monkeypatch.setattr(processes, "_DEGENERATE", 1e-4)
        recs = simulate_ensemble(spec, HALF, n, seed=seed, n_traj=40)
        kept = [t for t in range(40) if not recs[t].restarts]
        assert len(kept) == 34
        assert not any(plain[t].restarts for t in range(40))
        for t in kept:
            assert record_key(recs[t]) == record_key(plain[t])

    def test_the_ninth_degenerate_pass_raises_in_the_caller(self,
                                                            monkeypatch):
        # every orbit lies below a floor of 1: the block is run 9 times,
        # on restart streams 0..8, then the call fails
        calls, init_vector = [], processes._init_vector

        def counted(*args):
            calls.append(len(args[1]))
            return init_vector(*args)

        monkeypatch.setattr(processes, "_init_vector", counted)
        monkeypatch.setattr(processes, "_DEGENERATE", 1.0)
        monkeypatch.setenv("BCLAB_THREADS", "1")
        with pytest.raises(RuntimeError, match=re.escape(
                "trajectories [0, 1, 2, 3]: orbit degenerate after 8 "
                "restarts")):
            simulate_ensemble(LSVProcess(gamma=0.75), HALF, 50, seed=3,
                              n_traj=4)
        assert calls == [4] * 9


class TestWorkers:
    """Worker processes: how many a run takes, and that none outlives it."""

    @pytest.fixture
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(processes.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3})
        monkeypatch.delenv("BCLAB_THREADS", raising=False)

    # 10**6 steps for each of 100 trajectories, and 10**4 for 10
    LARGE, SMALL = (10**6, 100), (10**4, 10)

    @pytest.mark.parametrize("spec, size, want", [
        (IIDProcess(), LARGE, 4),
        (CircleRWProcess(a=0.37), LARGE, 4),
        (CircleRWProcess(a=0.37), (10**7, 3), 3),  # one per trajectory
    ], ids=["iid", "circle", "circle-3-traj"])
    def test_large_loop_free_runs_take_every_cpu(self, four_cpus, spec, size,
                                                 want):
        assert processes._workers(spec, *size) == want

    @pytest.mark.parametrize("spec, size", [
        (DMRProcess(a=1.0), LARGE),
        (LSVProcess(gamma=0.4), LARGE),
        (ARHalfProcess(), LARGE),
        (IIDProcess(), SMALL),
        (CircleRWProcess(a=0.37), SMALL),
    ], ids=["dmr", "lsv", "ar-half", "small-iid", "small-circle"])
    def test_row_stepped_and_small_runs_take_one(self, four_cpus, spec, size):
        assert processes._workers(spec, *size) == 1

    def test_the_environment_wins(self, four_cpus, monkeypatch):
        monkeypatch.setenv("BCLAB_THREADS", "3")
        assert processes._workers(DMRProcess(a=1.0), *self.LARGE) == 3
        assert processes._workers(IIDProcess(), *self.SMALL) == 3
        assert processes._workers(IIDProcess(), 10**4, 2) == 2
        monkeypatch.setenv("BCLAB_THREADS", "1")
        assert processes._workers(IIDProcess(), *self.LARGE) == 1

    @pytest.mark.parametrize("value", ["", "abc", "0", "-2", "1.5"])
    def test_the_environment_must_be_a_positive_integer(self, four_cpus,
                                                        monkeypatch, value):
        monkeypatch.setenv("BCLAB_THREADS", value)
        with pytest.raises(ValueError, match=re.escape(
                f"BCLAB_THREADS must be a positive integer, not {value!r}")):
            processes._workers(IIDProcess(), *self.SMALL)

    def test_no_fork_means_one_worker(self, four_cpus, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert processes._workers(IIDProcess(), *self.LARGE) == 1
        monkeypatch.setenv("BCLAB_THREADS", "2")
        assert processes._workers(IIDProcess(), *self.LARGE) == 1

    def test_default_forks_and_leaves_no_process(self, four_cpus,
                                                 monkeypatch):
        pools = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        monkeypatch.setattr(processes, "_MIN_STEPS", 100)
        spec = CircleRWProcess(a=0.37)
        recs = simulate_ensemble(spec, HALF, 400, seed=4, n_traj=6)
        assert pools == [3]  # the caller runs the first of 4 blocks
        monkeypatch.setenv("BCLAB_THREADS", "1")
        one = simulate_ensemble(spec, HALF, 400, seed=4, n_traj=6)
        assert list(map(record_key, recs)) == list(map(record_key, one))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_records_view_one_buffer_per_block(self, monkeypatch, workers):
        # the caller's block and a forked worker's come back in one form:
        # one buffer of hit times, which the block's records view
        monkeypatch.setenv("BCLAB_THREADS", workers)
        recs = simulate_ensemble(DMRProcess(a=1.0), HALF, 50, seed=3,
                                 n_traj=4)
        blocks = [recs[:2], recs[2:]] if workers == "2" else [recs]
        for block in blocks:
            base = block[0].hit_times.base
            assert isinstance(base, np.ndarray)
            assert base.size == sum(len(r.hit_times) for r in block) > 0
            assert all(r.hit_times.base is base for r in block)
        assert len({id(r.hit_times.base) for r in recs}) == len(blocks)
        assert not any(r.hit_times.flags.writeable for r in recs)
        assert multiprocessing.active_children() == []

    def test_a_worker_s_error_reaches_the_caller(self, monkeypatch):
        # every orbit of the forked worker's block degenerates: the floor
        # is raised in the worker's copy of the module only, by the
        # starting states _run_block asks for there
        caller, init_vector = os.getpid(), processes._init_vector

        def degenerate_in_workers(*args, **kwargs):
            if os.getpid() != caller:
                processes._DEGENERATE = 1.0
            return init_vector(*args, **kwargs)

        monkeypatch.setattr(processes, "_init_vector", degenerate_in_workers)
        monkeypatch.setenv("BCLAB_THREADS", "2")
        with pytest.raises(RuntimeError, match=re.escape(
                "trajectories [2, 3]: orbit degenerate after 8 restarts")):
            simulate_ensemble(LSVProcess(gamma=0.75), HALF, 50, seed=3,
                              n_traj=4)
        assert processes._DEGENERATE == 1e-300
        assert multiprocessing.active_children() == []


# chunk shapes for the chunk tests: 3 rows at 3 trajectories, and the
# caps of both kernel kinds lowered to 5 rows and 70 (64 for circle-rw)
TINY = {"_CELLS": 3 * 3}
CAPPED = {"_MAX_ROWS": {"row-stepped": 5, "loop-free": 70}}


def shape_chunks(monkeypatch, patch):
    for name, value in (patch or {}).items():
        monkeypatch.setattr(processes, name, value)


def chunk_rows(monkeypatch, spec, n, width):
    """The rows of the first chunk _chunks steps: the window it asks of
    the family."""
    sizes = []
    windows = NestedLeftFamily.windows

    def spy(family, n, size, *args, **kwargs):
        sizes.append(size)
        return windows(family, n, size, *args, **kwargs)

    monkeypatch.setattr(NestedLeftFamily, "windows", spy)
    gens = [make_generator(5, t) for t in range(width)]
    next(processes._chunks(spec, n, gens, processes._init_vector(spec, gens),
                           HALF))
    return sizes[0]


class TestChunkInvariance:
    def ensemble(self, monkeypatch, spec, workers, n=600):
        monkeypatch.setenv("BCLAB_THREADS", str(workers))
        recs = simulate_ensemble(spec, HALF, n, seed=17, n_traj=7)
        return [record_key(r) for r in recs]

    @pytest.mark.parametrize("spec", [
        DMRProcess(a=1.0),
        CircleRWProcess(a=0.37, drift=0.2),
        LSVProcess(gamma=0.6),
        IIDProcess(marginal="power", power=0.4),
        # regenerates at a rate set by the state carried between chunks
        SplitChainProcess(s_kind="linear", s_scale=0.5, nu_power=1.5,
                          q1="nu"),
    ], ids=["dmr-capped", "circle-drift", "lsv", "iid-power", "split-nu"])
    def test_tiny_chunks_and_workers_match_default(self, monkeypatch, spec):
        # at 3 workers two forked processes each run a block of the 7
        ref = self.ensemble(monkeypatch, spec, workers=1)
        assert ref == self.ensemble(monkeypatch, spec, workers=3)
        monkeypatch.setattr(processes, "_CELLS", 3 * 7)  # three-row chunks
        assert ref == self.ensemble(monkeypatch, spec, workers=1)
        assert ref == self.ensemble(monkeypatch, spec, workers=2)
        assert sum(r[1] for r in ref) > 1000

    @pytest.mark.parametrize("spec", [
        CircleRWProcess(a=0.37, drift=0.2),
        IIDProcess(marginal="power", power=0.4),
    ], ids=["circle-drift", "iid-power"])
    def test_rows_past_the_row_width_match(self, monkeypatch, spec):
        # 3-step rows (64 for circle-rw) at 130 trajectories, where the
        # width no longer shortens them, and 54-step rows at 7
        monkeypatch.setattr(processes, "_CELLS", 3 * processes._ROW_WIDTH)
        wide = simulate_ensemble(spec, HALF, 600, seed=17, n_traj=130)
        narrow = self.ensemble(monkeypatch, spec, 1)
        assert [record_key(r) for r in wide[:7]] == narrow

    @pytest.mark.parametrize("spec, width, rows", [
        (DMRProcess(a=1.0), 3, 1024),
        (LSVProcess(gamma=0.4), 100, 1024),  # intermittent-map's shape
        (DMRProcess(a=1.0), 800, 1024),  # dense-wide's, below _CELLS // 800
        (DMRProcess(a=1.0), 6400, 327),  # _CELLS // 6400
        (IIDProcess(), 1, 1 << 16),
        (IIDProcess(), 100, 20971),
        (IIDProcess(), 800, 16384),  # _CELLS // _ROW_WIDTH
        (CircleRWProcess(a=0.37), 1, 1 << 16),
        (CircleRWProcess(a=0.37), 100, 20928),  # rotation-walk's: whole words
    ], ids=["dmr-3", "lsv-100", "dmr-800", "dmr-6400", "iid-1", "iid-100",
            "iid-800", "circle-1", "circle-100"])
    def test_rows_by_kernel_kind(self, monkeypatch, spec, width, rows):
        # row-stepped chunks stop at 1,024 rows, loop-free rows at 2**16
        # steps; below the caps, _CELLS // width (or // _ROW_WIDTH) rules
        assert chunk_rows(monkeypatch, spec, 10**6, width) == rows

    @pytest.mark.parametrize("spec, rows", [
        (DMRProcess(a=1.0), 3),
        (IIDProcess(), 3),
        (CircleRWProcess(a=0.37), 64),
    ], ids=["dmr", "iid", "circle"])
    def test_caps_only_lower_the_rows(self, monkeypatch, spec, rows):
        monkeypatch.setattr(processes, "_CELLS", 3 * 7)
        assert chunk_rows(monkeypatch, spec, 600, 7) == rows

    @pytest.mark.parametrize("past", [0, 1, None],
                             ids=["at-the-cap", "one-past", "two-caps-past"])
    @pytest.mark.parametrize("spec, kind", [
        (DMRProcess(a=1.0), "row-stepped"),
        (LSVProcess(gamma=0.6), "row-stepped"),
        (SplitChainProcess(s_kind="linear", s_scale=0.5, nu_power=1.5,
                           q1="nu"), "row-stepped"),
        (IIDProcess(marginal="power", power=0.4), "loop-free"),
        (CircleRWProcess(a=0.37, drift=0.2), "loop-free"),
    ], ids=["dmr", "lsv", "split-nu", "iid-power", "circle-drift"])
    def test_rows_at_and_across_the_caps_match_one_chunk(
            self, monkeypatch, spec, kind, past):
        cap = processes._MAX_ROWS[kind]
        n = cap + (cap + 77 if past is None else past)
        capped = self.ensemble(monkeypatch, spec, 1, n)
        monkeypatch.setattr(processes, "_MAX_ROWS",
                            dict.fromkeys(processes._MAX_ROWS, n))
        assert chunk_rows(monkeypatch, spec, n, 7) == n
        assert capped == self.ensemble(monkeypatch, spec, 1, n)


# windows of 0.37 from 0.2: every few steps one wraps past 1
WRAPPING = TorusConsecutiveFamily(b0=0.2, steps=constant_seq(0.37))
# radii 1.5 k**-0.1 are >= 1, the whole circle, up to k = 57
FULL_FIRST = NestedLeftFamily(radius=power_seq(1.5, 0.1), space=TORUS)


def replay_hits(spec, family, n, seed, trajectory):
    """Hit times of one trajectory from its stationary start, replayed by
    the scalar reference."""
    gen = make_generator(seed, trajectory)
    x = init_from_uniforms(spec, gen.random(init_uniform_count(spec)))
    return replay(spec, family, x, step_draws(spec, gen, n))


class TestTargetRows:
    @pytest.mark.parametrize("family", [WRAPPING, FULL_FIRST],
                             ids=["wrapping", "full-first"])
    @pytest.mark.parametrize("spec", [
        CircleRWProcess(a=0.37),
        CircleRWProcess(a=0.37, drift=0.2),
        IIDProcess(),
        DMRProcess(a=1.0),
        LSVProcess(gamma=0.6),
    ], ids=["circle", "circle-drift", "iid", "dmr", "lsv"])
    @pytest.mark.parametrize("chunks", [None, TINY, CAPPED],
                             ids=["default-chunks", "tiny-chunks",
                                  "capped-chunks"])
    def test_wrapping_and_full_rows_match_scalar_replay(
            self, monkeypatch, spec, family, chunks):
        n = 300
        _, _, wraps, full = family.bounds(1, n)
        assert 0 < (wraps | full).sum() < n  # mixed with ordinary rows
        shape_chunks(monkeypatch, chunks)
        recs = simulate_ensemble(spec, family, n, seed=19, n_traj=3)
        for rec in recs:
            assert rec.hit_times.tolist() == replay_hits(
                spec, family, n, 19, rec.trajectory)

    @pytest.mark.parametrize("spec, family", [
        (IIDProcess(marginal="power", power=0.4), UNIT),
        (CircleRWProcess(a=0.37), UNIT),
        (DMRProcess(a=1.0), UNIT),
        (SplitChainProcess(s_kind="const", s_scale=0.3, q1="nu"), UNIT),
        (LSVProcess(gamma=0.6), UNIT),
        # ar-half states lie in [0, 2)
        (ARHalfProcess(), NestedLeftFamily(radius=constant_seq(2.0))),
    ], ids=["iid", "circle-rw", "dmr", "split-chain", "lsv", "ar-half"])
    @pytest.mark.parametrize("cells", [3 * 3, 3 * 130],
                             ids=["3-rows", "130-rows"])
    @pytest.mark.parametrize("n", [1, 200])
    def test_every_step_hits_across_chunk_edges(self, monkeypatch, spec,
                                                family, cells, n):
        # chunks of 3 or 130 steps; circle-rw cuts its chunks on whole
        # 64-step words, so 64 or 128 steps, and n = 200 ends inside a word
        monkeypatch.setattr(processes, "_CELLS", cells)
        recs = simulate_ensemble(spec, family, n, seed=23, n_traj=3)
        assert [r.hit_times.tolist() for r in recs] == [
            list(range(1, n + 1))] * 3

    @pytest.mark.parametrize("spec, family, kind", [
        (IIDProcess(marginal="power", power=0.4), UNIT, "loop-free"),
        (CircleRWProcess(a=0.37), UNIT, "loop-free"),
        (DMRProcess(a=1.0), UNIT, "row-stepped"),
        (SplitChainProcess(s_kind="const", s_scale=0.3, q1="nu"), UNIT,
         "row-stepped"),
        (LSVProcess(gamma=0.6), UNIT, "row-stepped"),
        (ARHalfProcess(), NestedLeftFamily(radius=constant_seq(2.0)),
         "row-stepped"),
    ], ids=["iid", "circle-rw", "dmr", "split-chain", "lsv", "ar-half"])
    @pytest.mark.parametrize("past", [0, 1], ids=["at-the-cap", "one-past"])
    def test_every_step_hits_at_and_across_the_caps(self, spec, family,
                                                    kind, past):
        # default _CELLS: chunks of 1,024 rows or 2**16-step rows, so
        # n = cap is one chunk and cap + 1 ends on a one-step chunk
        n = processes._MAX_ROWS[kind] + past
        recs = simulate_ensemble(spec, family, n, seed=23, n_traj=3)
        for rec in recs:
            assert np.array_equal(rec.hit_times, np.arange(1, n + 1))


class RawWords:
    """A stream whose raw words are given, for circle-rw's draws, which
    are read through bit_generator.random_raw alone."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return out


def spy_rows(mp, keep=slice(None)):
    """The fixed-point states of each row the circle kernel tests (their
    `keep` slice), recorded as mp patches its hit test."""
    rows, real = [], processes._fixed_hit_test

    def spy(*args):
        test = real(*args)

        def tested(xs):
            rows.append(xs[keep].copy())
            return test(xs)

        return tested

    mp.setattr(processes, "_fixed_hit_test", spy)
    return rows


def exact_floats(lo, hi):
    """Doubles in [lo, hi) that are whole multiples of 2**-64."""
    return st.floats(lo, hi, exclude_max=True).filter(
        lambda v: math.ldexp(v, 64).is_integer())


# dyadic bounds, on which dyadic walks land exactly
GRID = TorusConsecutiveFamily(b0=0.125, steps=constant_seq(0.375))
LINE_WINDOW = NestedWindowFamily(left=constant_seq(0.125),
                                 right=constant_seq(0.625))
# line radii 1.5 k**-0.1 cover all of [0, 1) up to k = 57
LINE_FULL_FIRST = NestedLeftFamily(radius=power_seq(1.5, 0.1))
# bounds off the 2**-64 grid, between 0 and its next point: 0 lies in
# [0, 1e-30) and not in [1e-30, 1/2)
OFF_GRID = NestedWindowFamily(left=constant_seq(1e-30),
                              right=constant_seq(0.5))
BELOW_GRID = NestedLeftFamily(radius=constant_seq(1e-30))


class TestCircleWalk:
    @pytest.mark.parametrize("bit", [0, 1], ids=["up", "down"])
    def test_positions_are_exact_past_2_26_net_steps(self, monkeypatch,
                                                     bit):
        # 2**20 + 2 words of one bit: the walk runs to j = +-(2**26 + 128),
        # and each 2**16-step chunk's last position is the exact rational
        spec, x0 = CircleRWProcess(a=GOLDEN_CONJUGATE), 0.3
        n, step = 64 * (2**20 + 2), -1 if bit else 1
        stream = RawWords(np.full(n // 64, -bit, dtype=np.int64))
        ends = spy_rows(monkeypatch, keep=slice(-1, None))
        rare = NestedLeftFamily(radius=constant_seq(2.0**-40))
        for x, _, _ in processes._chunks(spec, n, [stream], np.array([x0]),
                                         rare):
            pass
        steps = [min(c, n) for c in range(1 << 16, n + (1 << 16), 1 << 16)]
        assert len(ends) == len(steps) and steps[-1] == 2**26 + 128
        for end, c in zip(ends, steps):
            exact = (Fraction(x0) + step * c * Fraction(spec.a)) % 1
            assert Fraction(int(end[0]), UNITS) == exact, c
        last = CircleState(x0, step * n, spec.a)
        assert last.units == int(ends[-1][0]) and x[0] == last

    def test_scalar_state_carries_start_and_net_steps(self):
        spec = CircleRWProcess(a=0.31)
        x, _ = process_step(spec, 0.25, (0,))  # a plain float starts a walk
        x, _ = process_step(spec, x, (1,))
        x, _ = process_step(spec, x, (0,))
        assert isinstance(x, CircleState) and (x.x0, x.j) == (0.25, 1)
        assert Fraction(x.units, UNITS) == Fraction(0.25) + Fraction(0.31)
        assert x == math.ldexp(x.units >> 11, -53) <= 0.25 + 0.31

    def test_no_step_horizon(self):
        # check_run, which runs nothing, accepts 2**26 steps; a short
        # family's horizon still binds, and the scalar walk goes on
        spec = CircleRWProcess()
        assert check_run(spec, HALF, 2**26, n_traj=2) is None
        short = CustomFamily(intervals=(Interval.line(0, 1),) * 5)
        with pytest.raises(ValueError, match="family defined only up to 5"):
            simulate_ensemble(spec, short, 2**26, 0, n_traj=2)
        far = CircleState(0.5, 2**26, spec.a)
        x, _ = process_step(spec, far, (0,))
        assert x.j == 2**26 + 1
        assert Fraction(x.units, UNITS) == (
            Fraction(0.5) + (2**26 + 1) * Fraction(spec.a)) % 1

    @pytest.mark.parametrize("field, value", [
        ("a", 1e-5), ("a", 2.0**-13 + 2.0**-65), ("drift", 2.0**-70)])
    def test_a_and_drift_are_multiples_of_2_to_the_minus_64(self, field,
                                                           value):
        spec = CircleRWProcess(**{field: value})
        with pytest.raises(ValueError, match=f"circle-rw {field} = "):
            spec.validate()
        CircleRWProcess(a=2.0**-64, drift=1 - 2.0**-53).validate()

    @settings(max_examples=200, deadline=None)
    @given(x0=st.one_of(st.sampled_from([0.0, 0.125, 1 - 2.0**-53]),
                        exact_floats(0.0, 1.0)),
           a=st.one_of(st.sampled_from([0.25, 0.375, 2.0**-60,
                                        GOLDEN_CONJUGATE]),
                       exact_floats(2.0**-64, 1.0)),
           drift=st.one_of(st.sampled_from([0.0, 0.125, 0.75]),
                           exact_floats(0.0, 1.0)),
           family=st.sampled_from([WRAPPING, FULL_FIRST, GRID, LINE_WINDOW,
                                   LINE_FULL_FIRST, HALF, OFF_GRID,
                                   BELOW_GRID]),
           rows=st.sampled_from([64, 128, 1 << 16]),
           n=st.integers(1, 300), seed=st.integers(0, 2**32))
    @example(x0=0.125, a=0.25, drift=0.125, family=GRID, rows=64, n=300,
             seed=0)
    @example(x0=0.125, a=0.375, drift=0.0, family=LINE_WINDOW, rows=128,
             n=300, seed=1)
    @example(x0=0.0, a=0.25, drift=0.0, family=OFF_GRID, rows=64, n=300,
             seed=2)
    @example(x0=0.0, a=0.25, drift=0.0, family=BELOW_GRID, rows=64, n=300,
             seed=3)
    def test_kernel_hits_equal_the_exact_replay(self, x0, a, drift, family,
                                                rows, n, seed):
        # states that land on a bound exactly, or between a bound off the
        # 2**-64 grid and the grid point it rounds to, are where a test
        # within an ulp could differ from the exact one
        spec = CircleRWProcess(a=a, drift=drift)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(processes, "_MAX_ROWS", {"row-stepped": 5,
                                                "loop-free": rows})
            got = [h for _, (h, _), _ in processes._chunks(
                spec, n, [make_generator(seed, 0)], np.array([x0]), family)]
        want = replay(spec, family, x0,
                      step_draws(spec, make_generator(seed, 0), n))
        assert np.concatenate(got).tolist() == want

    def test_step_reads_one_bit_of_a_raw_word_lsb_first(self):
        bits = step_draws(CircleRWProcess(), make_generator(4, 0), 150)
        words = make_generator(4, 0).bit_generator.random_raw(3)
        want = [int(words[k // 64]) >> (k % 64) & 1 for k in range(150)]
        assert bits.shape == (150, 1) and bits[:, 0].tolist() == want

    @settings(max_examples=300, deadline=None)
    @given(words=st.lists(st.integers(0, 2**64 - 1), min_size=5, max_size=5),
           m=st.integers(1, 300), rows=st.sampled_from([64, 128]))
    @example(words=[0] * 5, m=300, rows=64)
    @example(words=[2**64 - 1] * 5, m=300, rows=64)
    @example(words=[2**63 + 1] * 5, m=13, rows=64)
    def test_octet_walk_is_the_exact_sum_of_the_steps(self, words, m, rows):
        # the kernel's states over m steps cut in chunks of `rows` steps,
        # so every chunk but the first starts from the state carried to
        # it, and the last may end inside an octet
        spec = CircleRWProcess(a=0.37)
        stream = RawWords(words)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(processes, "_MAX_ROWS", {"row-stepped": 5,
                                                "loop-free": rows})
            walks = spy_rows(mp)
            for _ in processes._chunks(spec, m, [stream], np.array([0.25]),
                                       HALF):
                pass
        want, x = [], units(0.25)
        for bit in step_draws(spec, RawWords(words), m)[:, 0].tolist():
            x = (x + (-1 if bit else 1) * units(0.37)) % UNITS
            want.append(x)
        assert len(walks) == -(-m // rows)
        assert all(w.dtype == np.uint64 for w in walks)
        assert np.concatenate(walks).tolist() == want
        # the kernel read the ceil(m / 64) words step_draws reads, no more
        assert len(words) - len(stream.words) == -(-m // 64)

    @pytest.mark.parametrize("drift", [0.0, 0.2], ids=["no-drift", "drift"])
    def test_last_chunk_inside_an_octet_matches_scalar_replay(
            self, monkeypatch, drift):
        # CAPPED cuts 64-step chunks: three whole words, then 13 steps,
        # one octet and 5 steps of the next
        spec, n = CircleRWProcess(a=0.37, drift=drift), 64 * 3 + 13
        shape_chunks(monkeypatch, CAPPED)
        recs = simulate_ensemble(spec, WRAPPING, n, seed=29, n_traj=3)
        for rec in recs:
            assert rec.hit_times.tolist() == replay_hits(
                spec, WRAPPING, n, 29, rec.trajectory)


class TestDrawBudget:
    @pytest.mark.parametrize("spec, words", [
        (CircleRWProcess(a=0.37), 16),
        (IIDProcess(marginal="power", power=0.4), 1000),
        (LSVProcess(gamma=0.6), 0),
        (DMRProcess(a=1.0), 2000),
        (SplitChainProcess(s_kind="const", s_scale=0.3, q1="nu"), 2000),
        (ARHalfProcess(), 2000),
    ], ids=["circle-rw", "iid", "lsv", "dmr", "split-chain", "ar-half"])
    @pytest.mark.parametrize("chunks", [None, TINY, CAPPED],
                             ids=["one-chunk", "tiny-chunks",
                                  "capped-chunks"])
    def test_kernel_and_scalar_reference_continue_at_the_same_word(
            self, monkeypatch, spec, words, chunks):
        shape_chunks(monkeypatch, chunks)
        self.assert_same_next_word(spec, 1000, words)  # not whole words

    @pytest.mark.parametrize("spec, n, words", [
        (CircleRWProcess(a=0.37), 1 << 16, 1024),
        (CircleRWProcess(a=0.37), (1 << 16) + 1, 1025),
        (IIDProcess(marginal="power", power=0.4), 1 << 16, 1 << 16),
        (IIDProcess(marginal="power", power=0.4), (1 << 16) + 1,
         (1 << 16) + 1),
        (LSVProcess(gamma=0.6), 1025, 0),
        (DMRProcess(a=1.0), 1024, 2048),
        (DMRProcess(a=1.0), 1025, 2050),
        (SplitChainProcess(s_kind="const", s_scale=0.3, q1="nu"), 1025,
         2050),
        (ARHalfProcess(), 1025, 2050),
    ], ids=["circle-rw-at", "circle-rw-past", "iid-at", "iid-past",
            "lsv-past", "dmr-at", "dmr-past", "split-chain-past",
            "ar-half-past"])
    def test_streams_continue_at_the_same_word_across_the_caps(
            self, spec, n, words):
        self.assert_same_next_word(spec, n, words)

    @staticmethod
    def assert_same_next_word(spec, n, words):
        """After n steps, the kernel's streams, the scalar reference's and
        streams advanced by the budget's word count continue alike."""
        gens = [make_generator(4, t) for t in range(3)]
        for _ in processes._chunks(spec, n, gens,
                                   processes._init_vector(spec, gens),
                                   HALF):
            pass
        scalar = [make_generator(4, t) for t in range(3)]
        budget = [make_generator(4, t) for t in range(3)]
        for s, b in zip(scalar, budget):
            s.random(init_uniform_count(spec))
            assert len(step_draws(spec, s, n)) == n
            b.random(init_uniform_count(spec))
            b.bit_generator.random_raw(words)
        nxt = [[int(g.bit_generator.random_raw()) for g in gs]
               for gs in (gens, scalar, budget)]
        assert nxt[0] == nxt[1] == nxt[2]


class TestChunkMemory:
    """tracemalloc peaks of simulate_ensemble, set by the chunk shape."""

    HARMONIC = NestedLeftFamily(radius=power_seq(1.0, 1.0))

    def peak_mb(self, spec, n, n_traj):
        tracemalloc.start()
        try:
            simulate_ensemble(spec, self.HARMONIC, n, seed=0, n_traj=n_traj)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_a_narrow_loop_free_run_holds_short_rows(self):
        # one trajectory's 2**21-step rows and their window of bounds
        # peaked at 64 MB; 2**16-step rows take about 3
        assert self.peak_mb(IIDProcess(), 4_000_000, 1) < 8

    def test_a_row_stepped_ensemble_holds_a_small_block(self):
        # 100 interval-map trajectories: 20,971-row chunks held 16.8 MB of
        # states alone; 4,096-row chunks peaked at about 5 MB in all, and
        # 1,024-row chunks at about 1.9 MB
        assert self.peak_mb(LSVProcess(gamma=0.4), 25_000, 100) < 4

    def test_row_stepped_states_take_the_last_draw_plane(self):
        # 800 sticky-chain trajectories: 2,621-row chunks of 33.5 MB of
        # draws peaked at 55 MB with a block of states beside them and at
        # 39 MB with the states in the nu plane; 1,024-row chunks (13.1 MB
        # of draws, 6.6 MB more for a block of states) at about 16 MB
        assert self.peak_mb(DMRProcess(a=1.0), 3_000, 800) < 20


class TestHitFragments:
    """Hit fragments, block buffers and records hold hit times in
    hit_dtype(n), the dtype hits.npy stores them in."""

    HIT = np.array([[True, False, True, True]])  # steps c0 + 1, 3 and 4

    @pytest.mark.parametrize("n, dtype", [
        (0, "|u1"), (255, "|u1"), (256, "<u2"), (65_535, "<u2"),
        (65_536, "<u4"), (2**32 - 1, "<u4"), (2**32, "<u8"),
        (10**18 - 1, "<u8")])
    def test_hit_dtype_is_the_smallest_unsigned_little_endian(self, n, dtype):
        assert processes.hit_dtype(n).str == dtype
        assert np.dtype(dtype).type(n) == n

    @pytest.mark.parametrize("n", [-1, 10**18, 2**64])
    def test_hit_dtype_refuses_horizons_it_cannot_pack(self, n):
        with pytest.raises(ValueError, match="10\\*\\*18"):
            processes.hit_dtype(n)

    @pytest.mark.parametrize("last", [255, 256, 65_535, 65_536, 2**32],
                             ids=["u1-max", "u2-min", "u2-max", "u4-min",
                                  "u8-min"])
    def test_fragments_reach_the_horizon(self, last):
        # a chunk ending at step n, the largest its dtype must hold
        c0, dtype = last - self.HIT.shape[1], processes.hit_dtype(last)
        times = processes._hit_times(self.HIT[0], c0, dtype)
        assert times.dtype == dtype
        assert times.tolist() == [c0 + 1, c0 + 3, c0 + 4]

    @pytest.mark.parametrize("n", [65_536, 2**32], ids=["u4", "u8"])
    def test_block_buffers_and_records_keep_the_dtype(self, monkeypatch, n):
        edges = (n - 2 * self.HIT.shape[1], n - self.HIT.shape[1])

        def chunks(spec, n, gens, x, family):
            for c0 in edges:
                times = processes._hit_times(self.HIT[0], c0,
                                             processes.hit_dtype(n))
                yield x, (np.tile(times, len(gens)),
                          [len(times)] * len(gens)), (0, False)

        monkeypatch.setattr(processes, "_chunks", chunks)
        ids = [0, 1]
        hits, *rest = processes._run_block(IIDProcess(), n, 0, ids, HALF)
        assert hits.dtype == processes.hit_dtype(n)
        recs = processes.packed_records(ids, hits, *rest)
        want = [c0 + k for c0 in edges for k in (1, 3, 4)]
        for rec in recs:
            assert rec.hit_times.dtype == processes.hit_dtype(n)
            assert rec.hit_times.tolist() == want


class TestRowStepped:
    """The row-stepped kernel: staged draws, packed hits per chunk and
    the interval map's cap."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("m", [1, 7, 1024, 2621, 4096])
    def test_random_into_a_staging_row_draws_as_random_of_its_shape(self,
                                                                    m, d):
        stage = np.zeros((3, m + 5, d))
        gen, ref = make_generator(9, 2), make_generator(9, 2)
        gen.random(out=stage[1, :m])
        assert stage[1, :m].tobytes() == ref.random((m, d)).tobytes()
        assert not stage[1, m:].any() and not stage[::2].any()
        assert (gen.bit_generator.random_raw()
                == ref.bit_generator.random_raw())

    @pytest.mark.parametrize("spec", [
        DMRProcess(a=1.0),
        SplitChainProcess(s_kind="linear", s_scale=0.5, nu_power=1.5,
                          q1="nu"),
        SplitChainProcess(s_kind="const", s_scale=0.3, q1="delta"),
        ARHalfProcess(),
    ], ids=["dmr", "split-nu", "split-const", "ar-half"])
    def test_staging_blocks_that_do_not_divide_the_width(self, monkeypatch,
                                                         spec):
        # 20 trajectories: one at a time, then blocks of 3 (six and a 2)
        # and of the default 16 (and a 4), in long and in 3-row chunks
        monkeypatch.setenv("BCLAB_THREADS", "1")
        family = NestedLeftFamily(radius=constant_seq(2.0 if isinstance(
            spec, ARHalfProcess) else 0.5))

        def keys(stage):
            monkeypatch.setattr(processes, "_STAGE", stage)
            return [record_key(r) for r in
                    simulate_ensemble(spec, family, 600, seed=17, n_traj=20)]

        ref = keys(1)
        assert keys(3) == ref and keys(16) == ref
        monkeypatch.setattr(processes, "_CELLS", 3 * 20)
        assert keys(3) == ref and keys(16) == ref
        for rec in simulate_ensemble(spec, family, 600, seed=17,
                                     n_traj=20)[::7]:
            assert rec.hit_times.tolist() == replay_hits(
                spec, family, 600, 17, rec.trajectory)

    @pytest.mark.parametrize("spec", [DMRProcess(a=1.0),
                                      LSVProcess(gamma=0.6)],
                             ids=["dmr", "lsv"])
    def test_a_block_holds_one_hit_array_per_chunk(self, monkeypatch, spec):
        parts, chunks = [], processes._chunks

        def spy(*args):
            for x, part, counts in chunks(*args):
                parts.append(part)
                yield x, part, counts

        monkeypatch.setattr(processes, "_chunks", spy)
        monkeypatch.setattr(processes, "_CELLS", 7 * 50)  # 50-row chunks
        n, dtype = 620, processes.hit_dtype(620)
        hits, counts, *_ = processes._run_block(spec, n, 3, range(7), HALF)
        assert len(parts) == 13
        for times, lengths in parts:
            assert type(times) is np.ndarray and times.dtype == dtype
            assert len(lengths) == 7 and sum(lengths) == len(times)
        # each trajectory's hits, chunk after chunk, in trajectory order
        rows = [np.split(times, np.cumsum(lengths)[:-1])
                for times, lengths in parts]
        want = np.concatenate([row[j] for j in range(7) for row in rows])
        assert hits.dtype == dtype and hits.tobytes() == want.tobytes()
        assert counts == [sum(lengths[j] for _, lengths in parts)
                          for j in range(7)]

    @pytest.mark.parametrize("gamma", [0.1, 0.4, 0.5, 0.75, 0.99])
    def test_lsv_cap_on_a_chunk_s_first_row_replays_capping_every_row(
            self, gamma):
        # lsv_map caps every step; the kernel caps a chunk's first row
        starts = np.concatenate((
            [1.0, processes._BELOW_ONE, np.nextafter(0.5, 0.0), 0.5,
             np.nextafter(0.5, 1.0), 0.0, 1e-300],
            np.random.default_rng(5).random(40)))
        want, x = [], starts
        for _ in range(2 * 300):
            x = lsv_map(x, gamma)
            want.append(x)
        got, x = [], starts.copy()
        for _ in range(2):  # two chunks of 300 rows
            U = np.empty((1, 300, len(starts)))
            x = processes._advance_rows(LSVProcess(gamma=gamma), x, U, None)
            got.append(U[0])
        assert np.concatenate(got).tobytes() == np.array(want).tobytes()
        # 1.0 maps to 1.0, capped; _BELOW_ONE to 2 _BELOW_ONE - 1
        assert got[0][0, :2].tolist() == [processes._BELOW_ONE, 1 - 2**-52]


class TestLockstepInit:
    @pytest.mark.parametrize("spec", [
        LSVProcess(gamma=0.4),
        LSVProcess(gamma=0.75),
        LSVProcess(gamma=0.5),
    ], ids=["lsv-0.4", "lsv-0.75", "lsv-0.5"])
    def test_matches_scalar_init(self, spec):
        count = init_uniform_count(spec)
        gens = [make_generator(7, t) for t in range(64)]
        got = processes._init_vector(spec, gens)
        scalar = [make_generator(7, t) for t in range(64)]
        want = [init_from_uniforms(spec, g.random(count)) for g in scalar]
        assert got.tolist() == want
        # the streams continue where the scalar initializer stopped
        assert [g.random() for g in gens] == [g.random() for g in scalar]


class TestStationarity:
    @pytest.mark.parametrize("at", [100, 1000, 10_000])
    def test_dmr_marginal_is_invariant(self, at):
        xn = states_at(DMRProcess(a=1.0), at, seed=31, n_traj=1000)
        ref = np.random.default_rng(77).random(1000)
        assert stats.ks_2samp(xn, ref).pvalue > 0.01

    @pytest.mark.parametrize("spec", [
        SplitChainProcess(s_kind="linear", s_scale=0.2, nu_power=1.5,
                          q1="delta"),
        SplitChainProcess(s_kind="const", s_scale=0.3, nu_power=3.0, q1="nu"),
    ], ids=["linear-delta", "const-nu"])
    def test_split_chain_starts_follow_invariant_law(self, spec):
        gens = [make_generator(61, t) for t in range(4000)]
        x0 = processes._init_vector(spec, gens)
        p = spec.invariant_power()
        assert stats.kstest(x0, lambda x: np.clip(x, 0.0, 1.0) ** p).pvalue > 0.01

    @pytest.mark.parametrize("at", [100, 1000])
    def test_circle_marginal_is_invariant(self, at):
        xn = states_at(CircleRWProcess(), at, seed=32, n_traj=1000)
        ref = np.random.default_rng(78).random(1000)
        assert stats.ks_2samp(xn, ref).pvalue > 0.01

    def test_regeneration_draws_follow_nu(self):
        spec = DMRProcess(a=1.0)
        gen = make_generator(41, 0)
        draws = []
        x = init_from_uniforms(spec, gen.random(1))
        for _ in range(4000):
            x, flag = process_step(spec, x, gen.random(2))
            if flag:
                draws.append(x)
        draws = np.array(draws)
        ref = np.random.default_rng(79).random(len(draws)) ** 0.5
        assert stats.ks_2samp(draws, ref).pvalue > 0.01

    def test_renewal_gaps_uncorrelated(self):
        spec = DMRProcess(a=1.0)
        gen = make_generator(43, 0)
        x = init_from_uniforms(spec, gen.random(1))
        times = []
        for k in range(1, 20_001):
            x, flag = process_step(spec, x, gen.random(2))
            if flag:
                times.append(k)
        gaps = np.diff(times).astype(float)
        g0, g1 = gaps[:-1] - gaps.mean(), gaps[1:] - gaps.mean()
        rho = float(np.dot(g0, g1) / np.sqrt(np.dot(g0, g0) * np.dot(g1, g1)))
        assert abs(rho) < 3 / np.sqrt(len(gaps))

    def test_dmr_sojourn_is_geometric(self):
        # from state x the stay length before regeneration is Geometric(x)
        p = 0.3
        gen = np.random.default_rng(51)
        spec = DMRProcess(a=1.0)
        lengths = []
        for _ in range(3000):
            x, steps = p, 0
            while True:
                steps += 1
                x2, flag = process_step(spec, x, gen.random(2))
                if flag:
                    break
                x = x2
            lengths.append(steps)
        lengths = np.array(lengths)
        cap = 8
        obs = np.array([(lengths == k).sum() for k in range(1, cap)]
                       + [(lengths >= cap).sum()])
        pmf = np.array([p * (1 - p) ** (k - 1) for k in range(1, cap)])
        exp = np.concatenate([pmf, [1 - pmf.sum()]]) * len(lengths)
        assert stats.chisquare(obs, exp).pvalue > 0.01


def orbit_cdf(gamma, radii, width=20_000, burn_in=1000, spacing=100,
              snapshots=20):
    """Empirical cdf at radii of interval-map states sampled from orbits
    started uniformly, after burn_in steps and then every spacing steps,
    and the number of states it counts."""
    x = np.random.default_rng(5).random(width)
    counts = np.zeros(len(radii))
    for k in range(1, burn_in + spacing * (snapshots - 1) + 1):
        x = lsv_map(x, gamma)
        if k >= burn_in and (k - burn_in) % spacing == 0:
            counts += (x[:, None] < radii).sum(axis=0)
    return counts / (width * snapshots), width * snapshots


class TestCalibration:
    """The invariant law solved from the transfer operator."""

    def test_occupation_exponent_near_one_minus_gamma(self):
        for gamma in (0.4, 0.75):
            eps = np.geomspace(1e-12, 1e-9, 7)
            mass = lsv_calibration(gamma).cdf(eps)
            slope = np.polyfit(np.log(eps), np.log(mass), 1)[0]
            assert abs(slope - (1 - gamma)) < 1e-3, gamma

    def test_cache_round_trip(self):
        # memoized per gamma: later calls share the first solve's arrays
        a = lsv_calibration(0.5)
        assert lsv_calibration(0.5) is a
        assert not a.Fs.flags.writeable and not a.xs.flags.writeable
        assert np.array_equal(a.Fs, processes._invariant_cdf(0.5))

    def test_nearby_gamma_never_loads_another_table(self):
        a = lsv_calibration(0.4)
        b = lsv_calibration(0.4000001)
        assert a is not b
        assert not np.array_equal(a.Fs, b.Fs)
        np.testing.assert_allclose(a.Fs[1:], b.Fs[1:], rtol=1e-4)

    def test_measure_integrates_to_one(self):
        for gamma in (0.2, 0.6, 0.95):
            m = lsv_calibration(gamma)
            assert m.cdf(1.0) == 1.0 and m.cdf(0.0) == 0.0
            assert np.all(np.diff(m.Fs) > 0)

    def test_power_law_tail_below_junction(self):
        # below the junction u = (2r)**-gamma = 300 the cdf is the
        # closed-form remainder alone: its local exponent tends to
        # 1 - gamma, and it meets the orbit sums above without a kink
        for gamma in (0.4, 0.6, 0.75):
            m = lsv_calibration(gamma)
            r = m.xs[1:]
            slope = np.diff(np.log(m.Fs[1:])) / np.diff(np.log(r))
            deep = r[1:] < 1e-22
            np.testing.assert_allclose(slope[deep], 1 - gamma, rtol=1e-6)
            junction = 0.5 * processes._LAW_JUNCTION ** (-1 / gamma)
            near = np.abs(np.log(r[1:] / junction)) < 0.5
            # a relative step of 1e-6 in F would change the slope by 3e-5
            assert np.all(np.abs(np.diff(slope[near])) < 4e-5), gamma

    @pytest.mark.parametrize("gamma", [0.4, 0.75])
    def test_functional_equation_residual(self, gamma):
        # T pushes mu forward to mu: F(x) = F(phi(x)) + F((x + 1)/2) - F(1/2)
        x = np.geomspace(1e-8, 1.0, 81)
        s = processes._left_preimage(2 * x, (2 * x) ** gamma, gamma)
        phi_x = s / 2
        np.testing.assert_allclose(phi_x * (1 + s ** gamma), x, rtol=1e-14)
        at = np.unique(np.concatenate((x, phi_x, (x + 1) / 2, [0.5])))
        F = dict(zip(at, processes._invariant_cdf(gamma, at)))
        lhs = np.array([F[v] for v in x])
        rhs = np.array([F[a] + F[b] - F[0.5]
                        for a, b in zip(phi_x, (x + 1) / 2)])
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("gamma", [0.4, 0.75])
    def test_converged_in_nodes_and_terms(self, gamma):
        base = lsv_calibration(gamma).Fs[1:]
        finer = processes._invariant_cdf(gamma, nodes=64, terms=1200,
                                         junction=900.0)[1:]
        np.testing.assert_allclose(finer, base, rtol=1e-4, atol=0)

    def test_matches_fresh_orbit_histogram(self):
        gamma = 0.4
        radii = np.geomspace(1e-2, 1.0, 9)[:-1]
        emp, n = orbit_cdf(gamma, radii)
        F = lsv_calibration(gamma).cdf(radii)
        se = np.sqrt(F * (1 - F) / n)
        assert np.all(np.abs(emp - F) <= 4 * se), (emp - F) / se

    def test_bit_identical_across_processes(self):
        code = ("import hashlib; from bclab.processes import lsv_calibration;"
                " print(hashlib.sha256(lsv_calibration(0.75).Fs.tobytes())"
                ".hexdigest())")
        env_path = str(Path(processes.__file__).parents[1])
        runs = {subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True,
                               env={"PYTHONPATH": env_path}).stdout.strip()
                for _ in range(2)}
        here = hashlib.sha256(lsv_calibration(0.75).Fs.tobytes()).hexdigest()
        assert runs == {here}

    @pytest.mark.parametrize("gamma", [0.4, 0.75])
    @pytest.mark.parametrize("at", [0, 100, 1000])
    def test_exact_starts_are_stationary(self, gamma, at):
        xn = states_at(LSVProcess(gamma=gamma), at, seed=37, n_traj=2000)
        assert stats.kstest(xn, lsv_calibration(gamma).cdf).pvalue > 0.01


class TestSerialization:
    def test_process_json_round_trip(self):
        specs = [
            IIDProcess(marginal="power", power=2.0),
            LSVProcess(gamma=0.75),
            ARHalfProcess(),
            CircleRWProcess(a=0.25, drift=0.1),
            SplitChainProcess(s_kind="const", s_scale=0.5, nu_power=3.0, q1="nu"),
            DMRProcess(a=2.0),
        ]
        for spec in specs:
            back = from_json(to_json(spec), ProcessSpec)
            assert back == spec

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            from_json({"variant": "gauss-map"}, ProcessSpec)

    def test_json_holds_init_fields_in_declaration_order(self):
        assert list(to_json(LSVProcess(gamma=0.75))) == [
            "variant", "gamma"]
        assert list(to_json(SplitChainProcess())) == [
            "variant", "s_kind", "s_scale", "nu_power", "q1"]
        assert to_json(DMRProcess(a=2.0)) == {"variant": "dmr", "a": 2.0}

    def test_fields_coerced_and_required(self):
        for bad in ("0.5", True, None):
            with pytest.raises(ValueError, match="gamma must be a JSON number"):
                from_json({"variant": "lsv", "gamma": bad}, ProcessSpec)
        with pytest.raises(ValueError, match="a must be a JSON number"):
            from_json({"variant": "dmr", "a": True}, ProcessSpec)
        spec = from_json({"variant": "dmr", "a": 2}, ProcessSpec)
        assert spec == DMRProcess(a=2.0) and type(spec.a) is float
        assert from_json({"variant": "dmr"}, ProcessSpec) == DMRProcess(a=1.0)
        with pytest.raises(ValueError, match="missing required field 'gamma'"):
            from_json({"variant": "lsv"}, ProcessSpec)
