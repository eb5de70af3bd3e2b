"""Families, masses and E computed in windows of indices: every window size
gives the one-shot arrays bit for bit, and a run's memory does not grow
with its horizon."""

import tracemalloc

import numpy as np
import pytest

from bclab import harness
from bclab.criteria import _pl_shape, _seq_fingerprint
from bclab.harness import ExperimentConfig, run_experiment
from bclab.intervals import (
    TORUS,
    CustomFamily,
    Interval,
    LebesgueMeasure,
    NestedLeftFamily,
    NestedWindowFamily,
    PowerMeasure,
    TabulatedCdfMeasure,
    TorusConsecutiveFamily,
)
from bclab.processes import IIDProcess
from bclab.seqcore import (
    GeometricSeq,
    PowerLogSeq,
    SeqDomainError,
    TableSampler,
    TabulatedSeq,
    power_seq,
)

N = 2000
SIZES = [1, 7, 64, N]
_RNG = np.random.default_rng(11)
# random steps, a whole-circle step every 97 indices
TORUS_STEPS = np.where(np.arange(N) % 97 == 5, 1.25, _RNG.random(N) * 0.6)

FAMILIES = {
    "nested-left-line": NestedLeftFamily(
        radius=PowerLogSeq(c=0.9, p=0.3, q=0.5, shift=2.0)),
    "nested-left-torus-full": NestedLeftFamily(
        radius=PowerLogSeq(c=1.5, p=0.1), space=TORUS),
    "nested-window": NestedWindowFamily(
        left=PowerLogSeq(c=0.2, p=-0.1), right=GeometricSeq(c=0.9, r=0.999)),
    "torus-consecutive-wrapped-full": TorusConsecutiveFamily(
        b0=0.37, steps=TabulatedSeq(values=TORUS_STEPS)),
    "custom-torus": CustomFamily(intervals=tuple(
        [Interval.torus(0.8, 0.1), Interval.full_torus(),
         Interval.torus(0.25, 0.5), Interval.torus(0.3, 0.3)] * (N // 4)),
        space=TORUS),
}
ORACLES = {
    "lebesgue": LebesgueMeasure(),
    "power": PowerMeasure(0.6),
    "tabulated": TabulatedCdfMeasure([0.0, 0.3, 0.7, 1.0],
                                     [0.0, 0.5, 0.6, 1.0]),
}


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    differ = np.flatnonzero(got.view(np.uint8) != want.view(np.uint8))
    assert differ.size == 0, f"{differ.size} bytes of {want.nbytes} differ"


def cold_windows(size):
    """A few windows of size indices that no walk reaches in order."""
    return [(lo, min(lo + size - 1, N))
            for lo in sorted({1, size + 1, N - size + 1}) if 1 <= lo <= N]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("fam", FAMILIES.values(), ids=FAMILIES.keys())
class TestWindows:
    def test_bounds_are_the_one_shot_rows(self, fam, size):
        whole = fam.bounds(1, N)
        walked = [b for _, b in fam.windows(N, size)]
        for i in range(4):
            same_bits(np.concatenate([b[i] for b in walked]), whole[i])
        for lo, hi in cold_windows(size):
            for got, want in zip(fam.bounds(lo, hi), whole):
                same_bits(got, want[lo - 1:hi])

    @pytest.mark.parametrize("oracle", ORACLES.values(), ids=ORACLES.keys())
    def test_measures_are_the_one_shot_masses(self, fam, size, oracle):
        whole = fam.measures(oracle, 1, N)
        starts, walked = zip(*fam.windows(N, size, oracle))
        assert list(starts) == list(range(1, N + 1, size))
        same_bits(np.concatenate(walked), whole)
        for lo, hi in cold_windows(size):
            same_bits(fam.measures(oracle, lo, hi), whole[lo - 1:hi])

    def test_e_and_mu_at_the_checkpoints(self, monkeypatch, fam, size):
        monkeypatch.setattr(harness, "_WINDOW", size)
        cfg = ExperimentConfig(process=IIDProcess(), family=fam, n=N,
                               n_traj=1, measure=PowerMeasure(0.6))
        cps = np.union1d(cfg.checkpoints, [63, 64, 65, 127, N - 1])
        e_seq, mu_seq = harness._expected(cfg, cps)
        masses = fam.measures(cfg.measure, 1, N)
        e_dense = np.cumsum(masses)
        same_bits(e_seq.values, e_dense[cps - 1])
        same_bits(mu_seq.values, masses[cps - 1])
        assert _seq_fingerprint(e_seq) == _seq_fingerprint(
            TabulatedSeq(e_dense))
        assert _seq_fingerprint(mu_seq) == _seq_fingerprint(
            TabulatedSeq(masses))


def test_torus_consecutive_edges_are_the_running_sum():
    """b_k = b_0 + (a_1 + ... + a_k) mod 1, the sum added in order."""
    fam = FAMILIES["torus-consecutive-wrapped-full"]
    b = (fam.b0 + np.concatenate(([0.0], np.cumsum(TORUS_STEPS)))) % 1.0
    lo, hi, wraps, full = fam.bounds(1, N)
    same_bits(lo, b[:-1])
    same_bits(hi, b[1:])
    same_bits(full, TORUS_STEPS >= 1.0)
    same_bits(wraps, (b[:-1] > b[1:]) & ~full)
    assert wraps.any() and full.any() and not (wraps & full).any()


class TestSampledTable:
    AT = np.array([1, 2, 10, 99, 100])

    def sampled(self, table, size=7):
        tab = TableSampler(self.AT)
        for lo in range(0, len(table), size):
            tab.add(table[lo:lo + size])
        return tab.seq()

    def test_known_only_at_the_sample_indices(self):
        table = np.linspace(0.0, 1.0, 100)
        seq = self.sampled(table)
        assert seq.horizon == 100
        assert [seq.eval(int(k)) for k in self.AT] == table[self.AT - 1].tolist()
        same_bits(seq.array(1, 2), table[:2])
        for lo, hi in ((3, 3), (2, 10), (98, 100)):
            with pytest.raises(SeqDomainError):
                seq.array(lo, hi)
        with pytest.raises(SeqDomainError):
            seq.eval(101)
        assert _pl_shape(seq) is None

    @pytest.mark.parametrize("bad, error", [
        ({5: np.nan, 50: -1.0}, "non-finite"),
        ({50: -1.0}, ">= 0"),
        ({80: np.inf}, "non-finite"),
    ])
    def test_raises_as_the_whole_table_would(self, bad, error):
        table = np.full(100, 0.5)
        for k, v in bad.items():
            table[k] = v
        with pytest.raises(SeqDomainError, match=error):
            TabulatedSeq(table)
        with pytest.raises(SeqDomainError, match=error):
            self.sampled(table)

    def test_clamps_as_the_whole_table_would(self):
        table = np.full(100, 0.25)
        table[[1, 40]] = -1e-13
        seq = self.sampled(table)
        assert seq.eval(2) == 0.0
        assert _seq_fingerprint(seq) == _seq_fingerprint(TabulatedSeq(table))


def test_non_finite_masses_fail_the_statistics_pass():
    """E and mu get TabulatedSeq's checks whether or not criteria are
    asked for: from n = 6 on, n**400 overflows to inf and
    log(n + 1000)**-400 underflows to 0, so the radii are nan."""
    radius = PowerLogSeq(c=1.0, p=-400.0, q=400.0, shift=1000.0)
    cfg = ExperimentConfig(
        process=IIDProcess(),
        family=NestedLeftFamily(radius=radius),
        n=100, n_traj=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SeqDomainError, match="non-finite"):
            run_experiment(cfg)


def test_zero_coefficient_radii_are_empty_targets():
    cfg = ExperimentConfig(
        process=IIDProcess(),
        family=NestedLeftFamily(radius=PowerLogSeq(c=0.0, p=-400.0)),
        n=100, n_traj=2)
    report = run_experiment(cfg)
    assert [r.hit_times.tolist() for r in report.records] == [[], []]
    assert report.e_checkpoints.tolist() == [0.0] * len(cfg.checkpoints)


def test_run_memory_does_not_grow_with_the_horizon():
    """tracemalloc peaks of iid harmonic runs with 4 trajectories: a
    quadrupled horizon adds less than 8 MB (n-long bounds, masses and E
    would add about 55 MB)."""
    def peak(n):
        cfg = ExperimentConfig(
            process=IIDProcess(),
            family=NestedLeftFamily(radius=power_seq(1.0, 1.0)),
            n=n, n_traj=4, seed=0)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # one-time allocations of the run path
    short, long = peak(500_000), peak(2_000_000)
    assert long - short < 8 * 2**20, (
        f"peak {short / 2**20:.1f} MB at n = 5e5, {long / 2**20:.1f} MB at 2e6")
