"""Tests for mixing-coefficient computations.

Oracles: a direct sine-series evaluation and an exact conditional-atom
computation for the circle walk; a hand-computed 3-state value for the
kernel quadrature; closed-form envelope arithmetic for the sticky chain.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bclab import mixing
from bclab.mixing import (
    ALPHA_INF1,
    BETA_INF1,
    CIRCLE_MAX_MODES,
    KERNEL_MAX_CELLS,
    TILDE_BETA11,
    CircleTildeBeta,
    MixingProfile,
    circle_profile,
    circle_tilde_beta,
    dmr_beta_bounds,
    dmr_beta_profile,
    dmr_bounds_profile,
    dmr_kernel_grid,
    kernel_tilde_beta,
    profile_from_csv,
    profile_to_csv,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def decay_exponent(prof):
    """Slope of -log(value) against log(n) over a profile's positive values."""
    keep = prof.values > 0
    return -np.polyfit(np.log(prof.ns[keep]), np.log(prof.values[keep]), 1)[0]


# ---------------------------------------------------------------------------
# MixingProfile


class TestMixingProfile:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            MixingProfile(kind="nope", ns=[1, 2], values=[0.5, 0.4])

    @pytest.mark.parametrize("bad", [1.5, -0.5, math.nan, math.inf,
                                     -math.inf])
    def test_rejects_out_of_range_values(self, bad):
        # NaN lies in no range: a NaN rate would read as a convergent one
        with pytest.raises(ValueError, match=re.escape(
                f"must lie in [0,1], not [{bad!r}]")):
            MixingProfile(kind=TILDE_BETA11, ns=[1, 2, 3],
                          values=[0.5, bad, 0.1])

    def test_csv_nan_value_refused_nan_error_bar_kept(self):
        head = "n,value,provenance,error_bar\n"
        with pytest.raises(ValueError, match=re.escape("not [nan]")):
            profile_from_csv(head + "1,0.5,computed,\n2,nan,computed,\n",
                             kind=TILDE_BETA11)
        # an empty or NaN error bar means "none"
        prof = profile_from_csv(head + "1,0.5,computed,nan\n"
                                "2,0.25,computed,0.01\n", kind=TILDE_BETA11)
        assert np.isnan(prof.error_bars[0]) and prof.error_bars[1] == 0.01

    def test_rejects_increasing_monotone_kind(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            MixingProfile(kind=ALPHA_INF1, ns=[1, 2], values=[0.1, 0.2])
        # the same shape is fine for a kind without the monotone contract
        MixingProfile(kind=TILDE_BETA11, ns=[1, 2], values=[0.1, 0.2])

    def test_rejects_non_increasing_lags(self):
        with pytest.raises(ValueError, match="lags"):
            MixingProfile(kind=TILDE_BETA11, ns=[2, 2], values=[0.5, 0.4])

    def test_rejects_mismatched_error_bars(self):
        with pytest.raises(ValueError, match="error bars"):
            MixingProfile(kind=TILDE_BETA11, ns=[1, 2], values=[0.5, 0.4],
                          error_bars=[0.1])

    def test_as_seq_requires_consecutive_lags(self):
        prof = MixingProfile(kind=BETA_INF1, ns=[1, 2, 4], values=[0.3, 0.2, 0.1])
        with pytest.raises(ValueError, match="consecutive"):
            prof.as_seq()
        dense = MixingProfile(kind=BETA_INF1, ns=[1, 2, 3], values=[0.3, 0.2, 0.1])
        seq = dense.as_seq()
        assert seq.eval(2) == 0.2

    def test_csv_round_trip_exact(self):
        prof = MixingProfile(kind=ALPHA_INF1, ns=[1, 2, 5],
                             values=[0.5, 1 / 3, 0.1], provenance="empirical",
                             error_bars=[0.01, 0.02, 0.03])
        back = profile_from_csv(profile_to_csv(prof), kind=ALPHA_INF1)
        assert np.array_equal(back.ns, prof.ns)
        assert np.array_equal(back.values, prof.values)
        assert np.array_equal(back.error_bars, prof.error_bars)
        assert back.provenance == "empirical"

    def test_csv_round_trip_without_error_bars(self):
        prof = MixingProfile(kind=TILDE_BETA11, ns=[1, 3], values=[0.4, 0.2])
        back = profile_from_csv(profile_to_csv(prof), kind=TILDE_BETA11)
        assert back.error_bars is None
        assert np.array_equal(back.values, prof.values)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                    max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_csv_round_trip_random_values(self, vals):
        ns = np.arange(1, len(vals) + 1)
        prof = MixingProfile(kind=TILDE_BETA11, ns=ns, values=vals)
        back = profile_from_csv(profile_to_csv(prof), kind=TILDE_BETA11)
        assert np.array_equal(back.values, prof.values)


# ---------------------------------------------------------------------------
# Circle walk Fourier quadrature


def conditional_atom_value(n, a, n_x=4001):
    """Exact E_x sup_t |P(X_n <= t | X_0 = x) - t| via the conditional atoms.

    Given X_0 = x the chain sits at x + a(2b - n) mod 1 with b ~ Bin(n, 1/2),
    so the conditional cdf is a step function whose sup-deviation from t is
    exact; the x-average uses a midpoint grid.
    """
    b = np.arange(n + 1)
    w = stats.binom.pmf(b, n, 0.5)
    xs = (np.arange(n_x) + 0.5) / n_x
    pos = (xs[:, None] + a * (2 * b - n)[None, :]) % 1.0
    order = np.argsort(pos, axis=1)
    p = np.take_along_axis(pos, order, axis=1)
    ww = np.take_along_axis(np.broadcast_to(w, pos.shape), order, axis=1)
    W = np.cumsum(ww, axis=1)
    Wm = np.concatenate([np.zeros((n_x, 1)), W[:, :-1]], axis=1)
    D = np.maximum((W - p).max(axis=1), (p - Wm).max(axis=1))
    return float(D.mean())


class TestCircleTildeBeta:
    def test_matches_direct_sine_sum(self):
        r = circle_tilde_beta(3, GOLDEN, k_max=50, x_grid=256)
        k = np.arange(1, 51)
        y = np.arange(r.grid) / r.grid
        phi = (np.cos(2 * np.pi * k * GOLDEN) ** 3 / (np.pi * k)) @ np.sin(
            2 * np.pi * np.outer(k, y))
        direct = np.mean(np.maximum(phi - phi.min(), phi.max() - phi))
        assert r.value == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 8, 256])
    def test_against_conditional_atom_oracle(self, n):
        quad = circle_tilde_beta(n, GOLDEN, k_max=100_000)
        oracle = conditional_atom_value(n, GOLDEN)
        # the truncated-series quadrature carries an overshoot near the
        # conditional-cdf jumps; 20% relative covers it at every lag tested
        assert abs(quad.value - oracle) <= 0.2 * oracle

    def test_golden_rotation_mixes(self):
        v1 = circle_tilde_beta(1, GOLDEN, k_max=100_000).value
        v256 = circle_tilde_beta(256, GOLDEN, k_max=100_000).value
        assert v256 < v1
        assert v256 < 0.1 < v1

    def test_rational_rotation_never_mixes(self):
        # a = 1/4: every 4th mode has |cos(2 pi k a)| = 1, so the value is
        # periodic in n with period 2 and bounded away from zero
        v2 = circle_tilde_beta(2, 0.25, k_max=20_000).value
        v256 = circle_tilde_beta(256, 0.25, k_max=20_000).value
        assert v256 == pytest.approx(v2, rel=1e-9)
        assert v256 > 0.1

    def test_symmetry_under_reflection(self):
        v = circle_tilde_beta(16, 0.3, k_max=5000).value
        w = circle_tilde_beta(16, 0.7, k_max=5000).value
        assert v == pytest.approx(w, rel=1e-12)

    def test_value_range_and_metadata(self):
        r = circle_tilde_beta(4, GOLDEN, k_max=2000, x_grid=1024)
        assert isinstance(r, CircleTildeBeta)
        assert 0.0 <= r.value <= 1.05
        assert r.tail_bound == pytest.approx(1.0 / (math.pi * 2000))
        assert r.grid >= max(2 * 2000 + 2, 1024)
        assert float(r) == r.value

    def test_rejects_zero_lag(self):
        with pytest.raises(ValueError):
            circle_tilde_beta(0, 0.5)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_step(self, a):
        with pytest.raises(ValueError, match="a finite a"):
            circle_tilde_beta(8, a, k_max=10)

    @pytest.mark.parametrize("k_max", [0, CIRCLE_MAX_MODES + 1, 10**11])
    def test_rejects_k_max_before_allocating(self, monkeypatch, k_max):
        # without numpy the check must come first: no grid is sized
        monkeypatch.setattr(mixing, "np", None)
        with pytest.raises(ValueError, match=rf"k_max must lie in "
                                             rf"1\.\.1000000, not {k_max}$"):
            circle_tilde_beta(8, GOLDEN, k_max=k_max)

    def test_profile_decay_exponent(self):
        prof = circle_profile([16, 64, 256, 1024, 4096], GOLDEN, k_max=20_000)
        assert prof.kind == TILDE_BETA11
        assert decay_exponent(prof) >= 0.3
        assert np.all(prof.values <= 1.0)
        assert np.all(prof.error_bars == pytest.approx(1 / (math.pi * 20_000)))


# ---------------------------------------------------------------------------
# Kernel quadrature


class TestKernelTildeBeta:
    def test_identity_kernel_three_state_hand_value(self):
        # states x1 < x2 < x3 with weights (0.2, 0.5, 0.3); freezing the
        # chain means the conditional cdf is a unit step at the start state:
        # sup-deviations are (0.8, 0.3, 0.7) and the weighted mean is 0.52
        P = np.eye(3)
        w = np.array([0.2, 0.5, 0.3])
        assert kernel_tilde_beta(P, w, 1) == pytest.approx(0.52)
        assert kernel_tilde_beta(P, w, 7) == pytest.approx(0.52)

    def test_perfect_mixing_gives_zero(self):
        w = np.array([0.2, 0.5, 0.3])
        P = np.tile(w, (3, 1))
        for n in (1, 2, 5):
            assert kernel_tilde_beta(P, w, n) == 0.0

    def test_validation_errors(self):
        w = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="square"):
            kernel_tilde_beta(np.ones((2, 3)) / 3, w, 1)
        with pytest.raises(ValueError, match="sum to 1"):
            kernel_tilde_beta(np.full((2, 2), 0.4), w, 1)
        with pytest.raises(ValueError, match="probability"):
            kernel_tilde_beta(np.full((2, 2), 0.5), np.array([0.9, 0.9]), 1)
        with pytest.raises(ValueError, match="invariant"):
            # deterministic cycle holds only the uniform vector invariant
            kernel_tilde_beta(np.array([[0.0, 1.0], [1.0, 0.0]]),
                              np.array([0.9, 0.1]), 1)
        with pytest.raises(ValueError, match="lag"):
            kernel_tilde_beta(np.full((2, 2), 0.5), w, 0)
        # a NaN or infinite entry fails the row-sum or the marginal test
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sum to 1"):
                kernel_tilde_beta(np.array([[bad, 0.5], [0.5, 0.5]]), w, 1)
            with pytest.raises(ValueError, match="probability"):
                kernel_tilde_beta(np.full((2, 2), 0.5),
                                  np.array([bad, 0.5]), 1)

    def test_random_kernels_stay_in_unit_range(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            P = rng.random((5, 5)) + 0.05
            P /= P.sum(axis=1, keepdims=True)
            # invariant vector from the eigensystem of the transpose
            vals, vecs = np.linalg.eig(P.T)
            w = np.real(vecs[:, np.argmax(np.real(vals))])
            w = np.abs(w) / np.abs(w).sum()
            for n in (1, 3, 10):
                v = kernel_tilde_beta(P, w, n)
                assert 0.0 <= v <= 1.0

    def test_mixing_kernel_decreases_with_lag(self):
        rng = np.random.default_rng(5)
        P = rng.random((5, 5)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        vals, vecs = np.linalg.eig(P.T)
        w = np.real(vecs[:, np.argmax(np.real(vals))])
        w = np.abs(w) / np.abs(w).sum()
        assert kernel_tilde_beta(P, w, 12) < kernel_tilde_beta(P, w, 1)


class TestStickyChainGrid:
    def test_grid_is_exactly_invariant(self):
        for a in (0.5, 1.0, 2.0):
            kernel, mu, s = dmr_kernel_grid(a, 200)
            assert np.abs(kernel.sum(axis=1) - 1.0).max() < 1e-12
            assert np.abs(mu @ kernel - mu).max() < 1e-12
            assert np.all((s > 0) & (s < 1))
            assert mu.sum() == pytest.approx(1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            dmr_kernel_grid(0.0, 200)
        with pytest.raises(ValueError):
            dmr_kernel_grid(1.0, 1)
        for a in (math.nan, math.inf):
            with pytest.raises(ValueError, match="a finite a > 0"):
                dmr_kernel_grid(a, 200)

    @pytest.mark.parametrize("m", [KERNEL_MAX_CELLS + 1, 10**20])
    def test_rejects_m_before_allocating(self, monkeypatch, m):
        # without numpy the check must come first: no kernel is built
        monkeypatch.setattr(mixing, "np", None)
        with pytest.raises(ValueError,
                           match=rf"m must lie in 2\.\.2000, not {m}$"):
            dmr_kernel_grid(1.0, m)

    def test_value_at_lag20_inside_mechanism_bounds(self):
        kernel, mu, _ = dmr_kernel_grid(1.0, 200)
        v = kernel_tilde_beta(kernel, mu, 20)
        assert 1.0 / 22.0 <= v <= 6.0 / 20.0

    @pytest.mark.parametrize("n", [10, 32, 100])
    def test_scaled_value_inside_envelope(self, n):
        kernel, mu, _ = dmr_kernel_grid(1.0, 200)
        v = kernel_tilde_beta(kernel, mu, n)
        bounds = dmr_beta_bounds(1.0, n)
        assert 0.9 * n * bounds.lower <= n * v <= 1.2 * n * bounds.upper

    def test_profile_decays_roughly_linearly(self):
        prof = dmr_beta_profile(1.0, [10, 20, 40, 80], m=200)
        assert prof.kind == TILDE_BETA11
        assert np.all(np.diff(prof.values) < 0)
        assert 0.6 <= decay_exponent(prof) <= 1.1


class TestBetaSandwich:
    def test_pinned_values(self):
        b = dmr_beta_bounds(1.0, 10)
        assert b.lower == pytest.approx(0.1)
        assert b.upper == pytest.approx(0.6)
        b2 = dmr_beta_bounds(2.0, 100)
        assert b2.lower == pytest.approx(2e-4)
        assert b2.upper == pytest.approx(2.4e-3)

    def test_constant_ratio(self):
        for n in (1, 7, 1000):
            b = dmr_beta_bounds(1.0, n)
            assert b.upper / b.lower == pytest.approx(6.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            dmr_beta_bounds(0.0, 5)
        with pytest.raises(ValueError):
            dmr_beta_bounds(1.0, 0)
        for a in (math.nan, math.inf):
            with pytest.raises(ValueError, match="a finite a > 0"):
                dmr_beta_bounds(a, 5)

    def test_bounds_profile_clamped_and_monotone(self):
        prof = dmr_bounds_profile(1.0, [1, 2, 5, 10, 100], which="upper")
        assert prof.kind == BETA_INF1
        assert prof.provenance == "analytic-bound"
        assert prof.values[0] == 1.0  # 6/1 clamped into [0,1]
        assert np.all(np.diff(prof.values) <= 0)

