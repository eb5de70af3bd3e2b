import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bclab.intervals import (
    CustomFamily,
    Interval,
    IntervalFamily,
    LebesgueMeasure,
    MeasureOracle,
    NestedLeftFamily,
    NestedWindowFamily,
    TORUS,
    PowerMeasure,
    TabulatedCdfMeasure,
    TorusConsecutiveFamily,
    disjointify,
    limsup_probe,
    normalize_pieces,
    subtract_pieces,
)
from bclab.seqcore import (
    GeometricSeq,
    HorizonExhausted,
    PowerLogSeq,
    TabulatedSeq,
    constant_seq,
    from_json,
    to_json,
)


def L(lo, hi):
    return Interval.line(lo, hi)


def cover_grid_ok(sources, cover, xs):
    """Exact pointwise check: disjoint, provenance containment, same union."""
    src = np.stack([iv.contains(xs) for iv in sources])
    gam = (
        np.stack([g.contains(xs) for g in cover.gammas])
        if cover.gammas
        else np.zeros((0, xs.size), dtype=bool)
    )
    if not np.all(gam.sum(axis=0) <= 1):
        return False
    for g_row, s_idx in zip(gam, cover.provenance):
        if np.any(g_row & ~src[s_idx - 1]):
            return False
    return np.array_equal(gam.any(axis=0), src.any(axis=0))


class TestIntervalBasics:
    def test_line_length_and_membership(self):
        iv = L(0.25, 0.75)
        assert iv.length == 0.5
        assert iv.contains(0.25) and not iv.contains(0.75)
        assert not iv.contains(0.2)

    def test_empty_line(self):
        assert L(0.3, 0.3).is_empty
        assert L(0.3, 0.3).pieces() == []

    def test_torus_wrap(self):
        iv = Interval.torus(0.9, 0.1)
        assert iv.wraps
        assert iv.length == pytest.approx(0.2)
        assert iv.contains(0.95) and iv.contains(0.05)
        assert not iv.contains(0.5)
        assert iv.pieces() == [(0.9, 1.0), (0.0, 0.1)]

    def test_full_torus(self):
        iv = Interval.full_torus()
        assert iv.length == 1.0
        assert iv.contains(0.0) and iv.contains(0.999)
        assert iv.pieces() == [(0.0, 1.0)]

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            Interval.line(1.0, 0.0)
        with pytest.raises(ValueError):
            Interval.torus(1.0, 0.5)


class TestPieces:
    def test_subtract_exact_endpoints(self):
        out = subtract_pieces([(0.0, 1.0)], [(0.25, 0.5), (0.75, 0.8)])
        assert out == [(0.0, 0.25), (0.5, 0.75), (0.8, 1.0)]

    def test_subtract_is_endpoint_conservative(self):
        a = [(0.1, 0.9)]
        b = [(0.3, 0.5)]
        out = subtract_pieces(a, b)
        pool = {0.1, 0.9, 0.3, 0.5}
        assert all(lo in pool and hi in pool for lo, hi in out)

    def test_normalize_merges_touching(self):
        assert normalize_pieces([(0.5, 1.0), (0.0, 0.5)]) == [(0.0, 1.0)]


class TestMeasures:
    def test_lebesgue_unit(self):
        m = LebesgueMeasure()
        assert m.measure(L(0.2, 0.7)) == pytest.approx(0.5)
        assert m.measure(Interval.torus(0.9, 0.1)) == pytest.approx(0.2)

    def test_lebesgue_whole_support_has_mass_one(self):
        for support in ((0.0, 1.0), (0.0, 2.0), (-1.0, 3.0)):
            m = LebesgueMeasure(support)
            assert m.measure(L(*support)) == 1.0
            assert m.cdf(support[1] + 5.0) == 1.0 and m.cdf(support[0]) == 0.0
        assert LebesgueMeasure((0.0, 2.0)).measure(L(0.0, 0.5)) == 0.25

    def test_union_counts_overlap_once(self):
        m = LebesgueMeasure()
        got = m.measure_union([L(0.0, 0.5), L(0.25, 0.75)])
        assert got == pytest.approx(0.75)

    def test_power_measure(self):
        m = PowerMeasure(0.5)
        assert m.measure(L(0.0, 0.25)) == pytest.approx(0.5)
        assert m.measure(L(0.0, 1.0)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            PowerMeasure(0.0)

    def test_tabulated_cdf(self):
        m = TabulatedCdfMeasure([0.0, 0.5, 1.0], [0.0, 0.8, 1.0])
        assert m.measure(L(0.0, 0.5)) == pytest.approx(0.8)
        assert m.measure(L(0.25, 0.75)) == pytest.approx(0.5)

    @pytest.mark.parametrize("make, error", [
        (lambda: LebesgueMeasure((0.0, 1.0, 7.0)), "two numbers"),
        (lambda: LebesgueMeasure((0.5,)), "two numbers"),
        (lambda: TabulatedCdfMeasure([0.0, 0.5, 1.0], [0.0, 0.5, 1.5]),
         r"in \[0, 1\]"),
        (lambda: TabulatedCdfMeasure([0.0, 1.0], [-0.5, 1.0]),
         r"in \[0, 1\]"),
        (lambda: TabulatedCdfMeasure([0.0, 1.0], [0.0, np.nan]),
         r"in \[0, 1\]"),
        (lambda: TabulatedCdfMeasure([0.0, 1.0], [0.0, 0.25]),
         "run from 0 to 1"),
        (lambda: TabulatedCdfMeasure([0.0, 0.5, 1.0], [0.5, 0.75, 1.0]),
         "run from 0 to 1"),
    ], ids=["support-three", "support-one", "cdf-above-one", "cdf-below-zero",
            "cdf-nan", "cdf-ends-below-one", "cdf-starts-above-zero"])
    def test_measures_of_the_wrong_shape_are_rejected(self, make, error):
        with pytest.raises(ValueError, match=error):
            make()

    def test_measure_json_round_trip(self):
        for m in (LebesgueMeasure(), PowerMeasure(2.0),
                  TabulatedCdfMeasure([0.0, 1.0], [0.0, 1.0])):
            m2 = from_json(to_json(m), MeasureOracle)
            assert type(m2) is type(m)
            assert m2.measure(L(0.1, 0.6)) == pytest.approx(m.measure(L(0.1, 0.6)))


class TestDisjointify:
    def test_single_interval_is_unchanged(self):
        cover = disjointify([L(0.0, 2.0)])
        assert len(cover.gammas) == 1
        assert (cover.gammas[0].lo, cover.gammas[0].hi) == (0.0, 2.0)
        assert cover.provenance == [1]

    def test_overlapping_pair_clips_the_second(self):
        cover = disjointify([L(0.0, 2.0), L(1.0, 3.0)])
        got = [(g.lo, g.hi) for g in cover.gammas]
        assert got == [(0.0, 2.0), (2.0, 3.0)]

    def test_contained_second_is_emptied(self):
        cover = disjointify([L(0.0, 3.0), L(1.0, 2.0)])
        assert (cover.gammas[0].lo, cover.gammas[0].hi) == (0.0, 3.0)
        assert cover.gammas[1].is_empty

    def test_emptying_rule_reassigns_to_larger_late_interval(self):
        # the first piece is swallowed once a later interval covers it
        cover = disjointify([L(1.0, 2.0), L(0.0, 3.0)])
        assert cover.gammas[0].is_empty
        assert (cover.gammas[1].lo, cover.gammas[1].hi) == (0.0, 3.0)

    def test_chain_example_on_grid(self):
        ivs = [L(0.0, 0.4), L(0.2, 0.6), L(0.1, 0.9), L(0.5, 0.7)]
        xs = np.linspace(-0.5, 1.5, 10_000)
        assert cover_grid_ok(ivs, disjointify(ivs), xs)

    def test_torus_wrap_cover(self):
        ivs = [Interval.torus(0.8, 0.2), Interval.torus(0.1, 0.5)]
        xs = np.linspace(0.0, 1.0, 10_000, endpoint=False)
        cover = disjointify(ivs)
        assert cover_grid_ok(ivs, cover, xs)

    def test_rejects_mixed_spaces(self):
        with pytest.raises(ValueError):
            disjointify([L(0.0, 1.0), Interval.torus(0.1, 0.2)])

    def test_random_families_on_grid(self):
        rng = np.random.default_rng(7)
        pool = np.round(np.linspace(0.0, 1.0, 21), 3)
        xs = np.linspace(0.0, 1.0, 10_000)
        for _ in range(200):
            n = rng.integers(1, 13)
            ivs = []
            for _ in range(n):
                if rng.random() < 0.5:
                    a, b = np.sort(rng.choice(pool, size=2))
                else:
                    a, b = np.sort(rng.random(2))
                ivs.append(L(float(a), float(b) if b > a else float(a)))
            assert cover_grid_ok(ivs, disjointify(ivs), xs)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False, width=32),
                st.floats(0, 1, allow_nan=False, width=32),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_hypothesis_families(self, pairs):
        ivs = [L(min(a, b), max(a, b)) for a, b in pairs]
        xs = np.linspace(0.0, 1.0, 2_001)
        assert cover_grid_ok(ivs, disjointify(ivs), xs)


def const_family(iv, n):
    return CustomFamily(intervals=tuple([iv] * n), space=iv.space)


class TestLimsupProbe:
    def test_constant_family_floor_one(self):
        fam = const_family(L(0.0, 1.0), 100)
        rep = limsup_probe(fam, LebesgueMeasure(), [1, 10, 100])
        assert np.allclose(rep.trace, 1.0)
        assert rep.floor == pytest.approx(1.0)

    def test_shrinking_family_floor_zero(self):
        fam = NestedLeftFamily(radius=PowerLogSeq(c=1.0, p=1.0))
        rep = limsup_probe(fam, LebesgueMeasure(), [10, 100, 1000])
        assert np.allclose(rep.trace, [0.1, 0.01, 0.001])
        assert rep.floor == pytest.approx(0.0, abs=1e-12)

    def test_torus_consecutive_sweeps_the_circle(self):
        fam = TorusConsecutiveFamily(b0=0.0, steps=PowerLogSeq(c=1.0, p=0.5))
        rep = limsup_probe(fam, LebesgueMeasure(), [1, 4, 16, 64])
        assert np.allclose(rep.trace, 1.0)
        assert rep.floor == pytest.approx(1.0)

    def test_requires_increasing_horizons(self):
        fam = const_family(L(0.0, 1.0), 10)
        with pytest.raises(ValueError):
            limsup_probe(fam, LebesgueMeasure(), [10, 10])


class TestFamilies:
    def test_nested_left_eval(self):
        fam = NestedLeftFamily(radius=PowerLogSeq(c=1.0, p=1.0))
        assert fam.interval(4).hi == pytest.approx(0.25)

    def test_nested_window(self):
        fam = NestedWindowFamily(
            left=constant_seq(0.25), right=constant_seq(0.75)
        )
        iv = fam.interval(3)
        assert (iv.lo, iv.hi) == (0.25, 0.75)

    def test_nested_window_horizon_is_the_shorter_table(self):
        short, long = (TabulatedSeq(np.full(k, v))
                       for k, v in ((50, 0.25), (80, 0.75)))
        assert NestedWindowFamily(left=short, right=long).horizon == 50
        assert NestedWindowFamily(
            left=TabulatedSeq(np.full(80, 0.25)),
            right=TabulatedSeq(np.full(50, 0.75))).horizon == 50
        assert NestedWindowFamily(left=constant_seq(0.25),
                                  right=long).horizon == 80
        assert NestedWindowFamily(left=constant_seq(0.25),
                                  right=constant_seq(0.75)).horizon is None

    def test_torus_consecutive_recursion(self):
        fam = TorusConsecutiveFamily(b0=0.0, steps=constant_seq(0.25))
        assert fam.interval(1).pieces() == [(0.0, 0.25)]
        assert fam.interval(4).pieces() == [(0.75, 1.0)]
        assert fam.interval(5).pieces() == [(0.0, 0.25)]

    def test_torus_consecutive_wrap_window(self):
        fam = TorusConsecutiveFamily(b0=0.9, steps=constant_seq(0.2))
        iv = fam.interval(1)
        assert iv.wraps
        assert iv.length == pytest.approx(0.2)

    def test_torus_step_of_one_is_full(self):
        steps = TabulatedSeq(values=(1.0, 0.5), start=1)
        fam = TorusConsecutiveFamily(b0=0.3, steps=steps)
        assert fam.interval(1).full
        assert fam.interval(2).length == pytest.approx(0.5)

    def test_bounds_match_intervals(self):
        fam = TorusConsecutiveFamily(b0=0.37, steps=PowerLogSeq(c=0.9, p=0.5))
        lo, hi, wraps, full = fam.bounds(1, 40)
        for k in (1, 7, 23, 40):
            iv = fam.interval(k)
            assert lo[k - 1] == iv.lo
            assert hi[k - 1] == iv.hi
            assert wraps[k - 1] == iv.wraps

    def test_measures_vectorized(self):
        fam = TorusConsecutiveFamily(b0=0.5, steps=PowerLogSeq(c=0.8, p=0.5))
        m = LebesgueMeasure()
        got = fam.measures(m, 1, 30)
        want = [m.measure(fam.interval(k)) for k in range(1, 31)]
        assert np.allclose(got, want)

    def test_custom_family_bounds_checked(self):
        fam = CustomFamily(intervals=(L(0.0, 1.0),))
        with pytest.raises(IndexError):
            fam.interval(2)

    def test_family_json_round_trip(self):
        fams = [
            NestedLeftFamily(radius=PowerLogSeq(c=1.0, p=0.5)),
            NestedWindowFamily(left=constant_seq(0.2), right=constant_seq(0.9)),
            TorusConsecutiveFamily(b0=0.1, steps=PowerLogSeq(c=1.0, p=0.5)),
            CustomFamily(intervals=(L(0.0, 0.5), L(0.25, 1.0))),
        ]
        for fam in fams:
            fam2 = from_json(to_json(fam), IntervalFamily)
            assert type(fam2) is type(fam)
            for k in (1, 2):
                a, b = fam.interval(k), fam2.interval(k)
                assert (a.lo, a.hi, a.full) == (b.lo, b.hi, b.full)


class TestVectorForm:
    """Sequences and families are defined once, by array and bounds: eval,
    interval and intervals read that form bit for bit."""

    N = 2000
    GEOMETRIC = GeometricSeq(c=1.0, r=0.9)

    @pytest.mark.parametrize("seq", [
        PowerLogSeq(c=0.7, p=0.6, q=1.5, shift=1.0),
        GEOMETRIC,
        TabulatedSeq(values=np.random.default_rng(5).random(N)),
    ], ids=["powerlog", "geometric", "tabulated"])
    def test_eval_is_array_bit_for_bit(self, seq):
        want = seq.array(1, self.N)
        got = np.array([seq.eval(k) for k in range(1, self.N + 1)])
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert differ.size == 0, f"{differ.size} of {self.N} indices differ"

    @pytest.mark.parametrize("fam", [
        NestedLeftFamily(radius=GEOMETRIC),
        NestedLeftFamily(radius=PowerLogSeq(c=1.5, p=0.5), space=TORUS),
        NestedWindowFamily(left=PowerLogSeq(c=0.2, p=-0.1),
                           right=GeometricSeq(c=0.9, r=0.999)),
        TorusConsecutiveFamily(b0=0.37, steps=TabulatedSeq(
            values=np.tile([0.3, 1.0, 0.45, 0.0, 2.5], N // 5))),
        CustomFamily(intervals=tuple(
            [Interval.torus(0.8, 0.1), Interval.full_torus(),
             Interval.torus(0.25, 0.5), Interval.torus(0.3, 0.3)] * (N // 4)),
            space=TORUS),
    ], ids=["nested-left-geometric", "nested-left-torus-full",
            "nested-window", "torus-consecutive-wrapped-full", "custom-torus"])
    def test_intervals_are_bounds_rows(self, fam):
        lo, hi, wraps, full = fam.bounds(1, self.N)
        want = [Interval.full_torus() if f else Interval(fam.space, float(a), float(b))
                for a, b, f in zip(lo, hi, full)]
        got = fam.targets(1, self.N)
        differ = [k for k, (g, w) in enumerate(zip(got, want), 1) if g != w]
        assert len(got) == self.N and not differ, (
            f"{len(differ)} of {self.N} intervals differ")
        assert [iv.wraps for iv in got] == wraps.tolist()
        for k in (1, 2, 5, 997, self.N):
            assert fam.interval(k) == want[k - 1]
        assert fam.targets(7, 11) == want[6:11]

    def test_indices_outside_the_family_raise(self):
        left = NestedLeftFamily(radius=TabulatedSeq(values=np.full(5, 0.5)))
        custom = CustomFamily(intervals=(L(0.0, 0.5), L(0.5, 1.0)))
        for fam in (left, custom, NestedLeftFamily(radius=self.GEOMETRIC)):
            with pytest.raises(IndexError):
                fam.interval(0)
            with pytest.raises(IndexError):
                fam.targets(0, 2)
        with pytest.raises(HorizonExhausted):
            left.interval(6)
        with pytest.raises(IndexError):
            custom.interval(3)
        with pytest.raises(IndexError):
            custom.bounds(1, 3)
