"""Tests for the criterion evaluators.

Closed-form examples are pinned by hand-derived arithmetic (exponent
algebra, integral tests, two-point laws); Monte Carlo inputs use seeded
generators and tolerance bands derived from CLT error bars.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bclab.criteria import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    SATISFIED,
    UNDECIDED,
    VIOLATED,
    PathEnsemble,
    check_alpha,
    check_beta_strong,
    check_f_criteria,
    check_l2,
    check_pairwise,
    check_renewal_nested,
    check_tilde,
)
from bclab.criteria import _eta_inverse, _pairwise_inner_sums
from bclab.mixing import (
    ALPHA_INF1,
    BETA_INF1,
    TILDE_BETA11,
    TILDE_BETA_REV,
    TILDE_PHI11,
    MixingProfile,
)
from bclab.seqcore import (
    GeometricSeq,
    PowerLogSeq,
    TabulatedSeq,
    constant_seq,
    huber,
    partial_sums,
    power_seq,
)

LOG_SEQ = PowerLogSeq(1.0, 0.0, -1.0, 0.0, 2)  # v_n = log n from n = 2


def checkpoint_grid(h, per_decade=8):
    raw = np.round(10 ** (np.arange(0, per_decade * math.log10(h) + 1) / per_decade))
    return np.unique(np.concatenate([raw[raw <= h], [h]])).astype(np.int64)


def bernoulli_ensemble(mass_fn, h, n_paths, seed):
    """Independent-increments hit paths: P(hit at k) = mass_fn(k)."""
    rng = np.random.default_rng(seed)
    masses = mass_fn(np.arange(1, h + 1, dtype=float))
    hits = rng.random((n_paths, h)) < masses[None, :]
    ns = checkpoint_grid(h)
    return PathEnsemble(ns, np.cumsum(hits, axis=1)[:, ns - 1])


class TestReportPlumbing:
    def test_to_json_is_plain(self):
        rep = check_l2(LOG_SEQ, LOG_SEQ, horizon=10**5)
        back = json.loads(rep.to_json())
        assert back["criterion"] == rep.criterion
        assert back["verdict"] == rep.verdict
        assert back["inputs_digest"] == rep.inputs_digest
        assert back["ns"] == rep.ns.tolist()
        assert np.allclose(back["trace"], rep.trace)
        # clauses as plain dicts
        clauses = {c["name"]: c for c in back["diagnostics"]["clauses"]}
        assert clauses["E-diverges"]["outcome"] == HOLDS

    def test_digest_separates_inputs(self):
        a = check_l2(LOG_SEQ, LOG_SEQ, horizon=10**4)
        b = check_l2(LOG_SEQ, constant_seq(1.0), horizon=10**4)
        assert a.inputs_digest != b.inputs_digest

    def test_determinism_identical_runs(self):
        vals = 1.0 / np.sqrt(np.arange(1, 2001))
        e = TabulatedSeq(np.cumsum(vals))
        var = TabulatedSeq(np.cumsum(vals))
        first = check_l2(e, var).to_json()
        second = check_l2(e, var).to_json()
        assert first == second


class TestCheckL2:
    def test_log_family_satisfied_closed_form(self):
        # E = log n, Var = E: ratio 1/log n -> 0 decided exactly
        rep = check_l2(LOG_SEQ, LOG_SEQ, horizon=10**6)
        assert rep.verdict == SATISFIED
        assert rep.clause("E-diverges")["method"] == "closed-form"
        assert rep.clause("var-ratio-vanishes")["method"] == "closed-form"

    def test_bounded_e_violated_first_clause(self):
        rep = check_l2(constant_seq(5.0), constant_seq(1.0), horizon=10**4)
        assert rep.verdict == VIOLATED
        assert rep.diagnostics["first_failure"] == "E-diverges"

    def test_ratio_identically_one_violated(self):
        e = power_seq(1.0, -0.5)  # E_n = sqrt(n)
        var = e.powered(2.0)
        rep = check_l2(e, var, horizon=10**6)
        assert rep.verdict == VIOLATED
        assert rep.clause("var-ratio-vanishes")["outcome"] == FAILS
        assert rep.clause("var-ratio-vanishes")["detail"]["limit_kind"] == "const"

    def test_tabulated_trend_path(self):
        ns = np.arange(1, 10**4 + 1, dtype=float)
        e = TabulatedSeq(np.sqrt(ns))
        var = TabulatedSeq(np.sqrt(ns))
        rep = check_l2(e, var)
        assert rep.verdict == SATISFIED
        assert rep.clause("var-ratio-vanishes")["method"] == "trend"
        assert rep.diagnostics["fitted_slope"] == pytest.approx(0.5, abs=0.05)

    def test_length_mismatch_raises(self):
        e = TabulatedSeq(np.arange(1.0, 101.0))
        var = TabulatedSeq(np.ones(50))
        with pytest.raises(ValueError, match="length mismatch"):
            check_l2(e, var)

    def test_decreasing_e_reported_not_raised(self):
        e = TabulatedSeq(1.0 / np.arange(1.0, 1001.0))
        rep = check_l2(e, TabulatedSeq(np.ones(1000)))
        assert rep.verdict == VIOLATED
        assert "nondecreasing" in rep.diagnostics["precondition_failure"]


class TestPathEnsemble:
    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PathEnsemble([5, 5], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="nondecreasing"):
            PathEnsemble([1, 2], np.array([[2.0, 1.0]]))
        with pytest.raises(ValueError, match="length mismatch"):
            PathEnsemble([1, 2, 4], np.zeros((3, 2)))

    def test_restricted_selects_checkpoints(self):
        ens = PathEnsemble([1, 10, 100], np.array([[0.0, 1.0, 3.0], [1.0, 1.0, 2.0]]))
        sub = ens.restricted([10, 100])
        assert sub.ns.tolist() == [10, 100]
        assert sub.s_values.tolist() == [[1.0, 3.0], [1.0, 2.0]]
        with pytest.raises(ValueError, match="not among checkpoints"):
            ens.restricted([10, 50])

    def test_too_few_paths(self):
        ens = PathEnsemble([1, 10], np.zeros((10, 2)))
        with pytest.raises(ValueError, match="too few paths"):
            check_f_criteria(ens, power_seq(1.0, -1.0), "ii")


F_HORIZON = 10**4
F_PATHS = 400


@pytest.fixture(scope="module")
def harmonic_run():
    mu = power_seq(1.0, 1.0)
    ens = bernoulli_ensemble(lambda k: 1.0 / k, F_HORIZON, F_PATHS, seed=7)
    e_tab = partial_sums(mu, F_HORIZON)
    return ens, e_tab, mu


@pytest.fixture(scope="module")
def root_run():
    mu = power_seq(1.0, 0.5)
    ens = bernoulli_ensemble(lambda k: k**-0.5, F_HORIZON, F_PATHS, seed=11)
    e_tab = partial_sums(mu, F_HORIZON)
    return ens, e_tab, mu


class TestCheckFCriteria:
    def test_iid_harmonic_trace_matches_half_inverse_e(self, harmonic_run):
        # independent indicators: Var(S_n) <= E_n and f(x) <= x^2/2 give
        # mean f((S-E)/E) <= 1/(2E) up to sampling noise, and the trace
        # stays on that order (the cap and the sum of squared masses only
        # shave a bounded fraction off)
        ens, e_tab, mu = harmonic_run
        rep = check_f_criteria(ens, e_tab, "ii", mu_A=mu)
        e_vals = np.array([e_tab.eval(int(n)) for n in rep.ns])
        se = np.asarray(rep.diagnostics["trace_se"])
        late = rep.ns >= 100
        bound = 0.5 / e_vals
        assert np.all(rep.trace[late] <= bound[late] + 3 * se[late])
        assert np.all(rep.trace[late] >= 0.3 * bound[late])
        # the trace does decay, so the hypotheses are never refuted
        assert rep.verdict != VIOLATED
        assert rep.clause("E-diverges")["outcome"] == HOLDS
        assert rep.clause("E-diverges")["method"] == "closed-form"

    def test_iid_harmonic_series_modes_satisfied(self, harmonic_run):
        ens, e_tab, mu = harmonic_run
        for mode in ("iii", "variance"):
            rep = check_f_criteria(ens, e_tab, mode, mu_A=mu)
            assert rep.verdict == SATISFIED, mode
            assert rep.diagnostics["tail_estimate"] < -1.1

    def test_root_family_all_modes_satisfied(self, root_run):
        ens, e_tab, mu = root_run
        for mode in ("i", "ii", "iii", "variance"):
            rep = check_f_criteria(ens, e_tab, mode, mu_A=mu)
            assert rep.verdict == SATISFIED, mode

    def test_mode_ii_trace_below_variance_bound(self, root_run):
        # f(x) <= x^2/2 transfers to the sampled traces up to 3-sigma noise
        ens, e_tab, _ = root_run
        rep = check_f_criteria(ens, e_tab, "ii")
        e_vals = np.array([e_tab.eval(int(n)) for n in rep.ns])
        var_trace = ens.s_values.var(axis=0, ddof=1)
        dev = huber((ens.s_values - e_vals) / e_vals)
        se = dev.std(axis=0, ddof=1) / math.sqrt(ens.n_paths)
        assert np.all(rep.trace <= var_trace / (2 * e_vals**2) + 3 * se + 1e-12)

    def test_constant_family_exactly_zero_trace(self):
        ns = checkpoint_grid(1000)
        s = np.tile(ns.astype(float), (150, 1))
        ens = PathEnsemble(ns, s)
        rep = check_f_criteria(ens, power_seq(1.0, -1.0), "ii")
        assert rep.verdict == SATISFIED
        assert rep.clause("f-deviation-vanishes")["method"] == "exact-zero"
        assert np.all(rep.trace == 0.0)

    def test_two_point_family_violated(self):
        # S_n in {0, n} with equal mass, E_n = n/2: every path gives
        # f(+-1) = 1/2, so the trace sits exactly at 1/2 and refutes -> 0
        ns = checkpoint_grid(1000)
        s = np.concatenate([
            np.zeros((60, len(ns))),
            np.tile(ns.astype(float), (60, 1)),
        ])
        ens = PathEnsemble(ns, s)
        rep = check_f_criteria(ens, PowerLogSeq(0.5, -1.0, 0.0, 0.0, 1), "ii")
        assert rep.verdict == VIOLATED
        assert rep.diagnostics["first_failure"] == "f-deviation-vanishes"
        assert np.all(rep.trace == 0.5)

    def test_mode_i_subsequence(self, root_run):
        ens, e_tab, mu = root_run
        sub = ens.ns[::3]
        rep = check_f_criteria(ens, e_tab, "i", subsequence=sub, mu_A=mu)
        assert rep.verdict == SATISFIED
        assert np.array_equal(rep.ns, sub)

    @pytest.mark.parametrize("mode", ["ii", "iii", "variance"])
    def test_subsequence_only_in_mode_i(self, root_run, mode):
        ens, e_tab, mu = root_run
        with pytest.raises(ValueError, match="mode 'i' only"):
            check_f_criteria(ens, e_tab, mode, subsequence=ens.ns[::3], mu_A=mu)

    def test_unknown_mode(self, root_run):
        ens, e_tab, _ = root_run
        with pytest.raises(ValueError, match="unknown mode"):
            check_f_criteria(ens, e_tab, "vi")


class TestCheckPairwise:
    def test_geometric_alpha_root_mass_mode_i_satisfied(self):
        # double sum ~ sqrt(n) log n vs E^2 ~ 4n: ratio -> 0 by trend
        zero = constant_seq(0.0)
        rep = check_pairwise(zero, zero, GeometricSeq(1.0, 0.5),
                             power_seq(1.0, 0.5), "i", horizon=10**5)
        assert rep.verdict == SATISFIED
        assert rep.clause("min-sum-vanishes")["outcome"] == HOLDS
        assert rep.clause("min-sum-vanishes")["method"] == "trend"

    def test_harmonic_mass_flat_ratio_violated(self):
        # P(B_n) = 1/n: double sum ~ (log n)^2 / (2 log 2) against
        # E_n^2 = (log n)^2 - the ratio levels off near 0.72 and commits
        zero = constant_seq(0.0)
        rep = check_pairwise(zero, zero, GeometricSeq(1.0, 0.5),
                             power_seq(1.0, 1.0), "i", horizon=10**5)
        assert rep.verdict == VIOLATED
        assert rep.clause("min-sum-vanishes")["outcome"] == FAILS
        assert 0.70 <= rep.trace[-1] <= 0.75

    def test_all_zero_dependence_both_modes(self):
        zero = constant_seq(0.0)
        one = constant_seq(1.0)
        for mode in ("i", "ii"):
            rep = check_pairwise(zero, zero, zero, one, mode, horizon=10**4)
            assert rep.verdict == SATISFIED, mode

    def test_mode_ii_power_legs_satisfied(self):
        leg = power_seq(1.0, 1.0)
        rep = check_pairwise(leg, leg, GeometricSeq(1.0, 0.5),
                             power_seq(1.0, 0.5), "ii", horizon=10**5)
        assert rep.verdict == SATISFIED
        assert rep.clause("gamma-series")["method"] == "closed-form"
        assert rep.clause("phi-series")["method"] == "closed-form"

    def test_shape_outside_power_log_domain_falls_back_to_tail(self):
        # gamma_k / k for a constant gamma from k = 0 has no power-log shape
        # (a power needs k >= 1); the tail slope decides instead
        rep = check_pairwise(constant_seq(0.5, start=0), power_seq(0.5, 1.5),
                             power_seq(0.5, 2.0), power_seq(0.5, 0.5), "ii",
                             horizon=10**4)
        assert rep.clause("gamma-series")["method"] == "tail-slope"
        assert rep.clause("phi-series")["method"] == "closed-form"

    def test_gamma_monotonicity_enforced(self):
        rising = TabulatedSeq(np.linspace(0.1, 0.9, 200))
        ok = constant_seq(0.0)
        with pytest.raises(ValueError, match="gamma must be nonincreasing"):
            check_pairwise(rising, ok, ok, constant_seq(1.0), "i", horizon=200)

    def test_range_validation(self):
        bad = constant_seq(1.5)
        ok = constant_seq(0.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_pairwise(ok, bad, ok, constant_seq(1.0), "i", horizon=100)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_inner_sum_matches_brute_force(self, alpha_raw, p_raw):
        h = min(len(alpha_raw), len(p_raw))
        alpha = np.sort(np.asarray(alpha_raw[:h]))[::-1].copy()
        p = np.asarray(p_raw[:h])
        fast = _pairwise_inner_sums(alpha, p)
        brute = np.array([
            sum(min(alpha[j], p[k]) for j in range(k + 1)) for k in range(h)
        ])
        assert np.allclose(fast, brute, atol=1e-12)


class TestCheckAlphaPoly:
    def test_poly1_satisfied(self):
        rep = check_alpha(None, power_seq(1.0, 0.5), "poly-1",
                          params={"a": 1.0}, horizon=10**5)
        assert rep.verdict == SATISFIED
        for name in ("mass-diverges", "powered-mass-diverges", "scaled-mass-diverges"):
            assert rep.clause(name)["method"] == "closed-form"

    def test_poly2_violated_constant_limit(self):
        # E_n ~ 2 sqrt(n): n^{-1/2} E_n -> 2, a positive constant
        rep = check_alpha(None, power_seq(1.0, 0.5), "poly-2",
                          params={"a": 1.0}, horizon=10**5)
        assert rep.verdict == VIOLATED
        clause = rep.clause("scaled-count-diverges")
        assert clause["detail"]["limit_kind"] == "const"

    def test_poly3_satisfied(self):
        # terms ~ n^{1/2} n^{-1/4} / ((4/3) n^{3/4})^2 ~ n^{-5/4}
        rep = check_alpha(None, power_seq(1.0, 0.25), "poly-3",
                          params={"a": 1.0}, horizon=10**5)
        assert rep.verdict == SATISFIED
        assert rep.clause("weighted-series-converges")["method"] == "closed-form"

    def test_poly1_increasing_mass_precondition(self):
        rising = TabulatedSeq(np.linspace(0.01, 0.5, 2000))
        rep = check_alpha(None, rising, "poly-1", params={"a": 1.0})
        assert rep.verdict == VIOLATED
        assert "nonincreasing" in rep.diagnostics["precondition_failure"]

    def test_poly_requires_exponent(self):
        with pytest.raises(ValueError, match="params\\['a'\\]"):
            check_alpha(None, power_seq(1.0, 0.5), "poly-1")

    @pytest.mark.parametrize("mode, params, unknown", [
        ("strong", {"theta_grd": [0.9]}, "theta_grd"),
        ("strong", {"a": 1.0}, "a"),
        ("poly-1", {"a": 1.0, "C": 2.0}, "C"),
        ("nested-BC", {"theta_grid": [0.5]}, "theta_grid"),
        ("L1", {"doubling_window": [0.1, 0.5]}, "doubling_window"),
    ])
    def test_params_the_mode_does_not_read_raise(self, mode, params, unknown):
        with pytest.raises(ValueError, match=re.escape(f"['{unknown}']")):
            check_alpha(power_seq(1.0, 2.0), power_seq(1.0, 0.5), mode,
                        params=params, horizon=10**4)


class TestCheckAlphaGeneral:
    @pytest.mark.parametrize("mode", ["nested-BC", "L1", "strong"])
    @pytest.mark.parametrize("values", [
        np.full(100, 40.0),
        np.concatenate(([1.0 + 1e-12], np.full(99, 0.5))),
    ], ids=["forty", "just-above-one"])
    def test_alpha_outside_the_unit_interval_raises(self, mode, values):
        # such an alpha read inconclusive in mode L1 and violated in
        # nested-BC instead of raising
        with pytest.raises(ValueError, match=re.escape(
                "alpha values must lie in [0, 1]")):
            check_alpha(TabulatedSeq(values), power_seq(1.0, 0.5), mode)

    def test_nested_bc_closed_form(self):
        rep = check_alpha(power_seq(1.0, 2.0), power_seq(1.0, 0.5),
                          "nested-BC", horizon=10**5)
        assert rep.verdict == SATISFIED
        assert rep.clause("alpha-halving")["method"] == "closed-form"
        assert rep.clause("inverse-weighted-mass-diverges")["method"] == "closed-form"

    def test_nested_bc_log_alpha_fails_halving(self):
        slow = PowerLogSeq(1.0, 0.0, 1.0, 2.0, 1)  # 1 / log(n+2)
        rep = check_alpha(slow, power_seq(1.0, 0.5), "nested-BC", horizon=10**5)
        assert rep.verdict == VIOLATED
        assert rep.clause("alpha-halving")["outcome"] == FAILS

    def test_nested_bc_tabulated_profile(self):
        ns = np.arange(1, 10**4 + 1)
        prof = MixingProfile(
            kind=ALPHA_INF1, ns=ns,
            values=np.minimum(1.0, ns.astype(float) ** -2.0),
            provenance="computed",
        )
        rep = check_alpha(prof, power_seq(1.0, 0.5), "nested-BC")
        assert rep.verdict == SATISFIED
        assert rep.clause("alpha-halving")["method"] == "trend"
        assert rep.clause("inverse-weighted-mass-diverges")["method"] == "tail-slope"

    def test_l1_closed_form(self):
        rep = check_alpha(power_seq(1.0, 2.0), power_seq(1.0, 0.5),
                          "L1", horizon=10**5)
        assert rep.verdict == SATISFIED
        assert rep.clause("eta-inverse-vanishes")["method"] == "closed-form"

    def test_l1_tabulated_profile(self):
        ns = np.arange(1, 10**4 + 1)
        prof = MixingProfile(
            kind=ALPHA_INF1, ns=ns,
            values=np.minimum(1.0, ns.astype(float) ** -2.0),
            provenance="computed",
        )
        rep = check_alpha(prof, power_seq(1.0, 0.3), "L1")
        assert rep.verdict == SATISFIED
        assert rep.clause("eta-inverse-vanishes")["method"] == "trend"

    def test_strong_witness_found(self):
        rep = check_alpha(power_seq(1.0, 2.0), power_seq(1.0, 0.5),
                          "strong", horizon=10**5)
        assert rep.verdict == SATISFIED
        assert rep.diagnostics["witness_theta"] == 0.05

    def test_strong_no_witness_is_inconclusive(self):
        rep = check_alpha(power_seq(1.0, 0.5), power_seq(1.0, 0.9),
                          "strong", horizon=10**5)
        assert rep.verdict == INCONCLUSIVE
        detail = rep.diagnostics["clauses"][-1]["detail"]
        assert "no witness found" in detail["reason"]

    def test_strong_convergent_mass_violated(self):
        rep = check_alpha(power_seq(1.0, 2.0), power_seq(1.0, 1.5),
                          "strong", horizon=10**5)
        assert rep.verdict == VIOLATED
        assert rep.diagnostics["first_failure"] == "mass-diverges"

    def test_wrong_profile_kind(self):
        prof = MixingProfile(
            kind=BETA_INF1, ns=np.arange(1, 101),
            values=np.full(100, 0.1), provenance="computed",
        )
        with pytest.raises(ValueError, match="alpha_inf1"):
            check_alpha(prof, power_seq(1.0, 0.5), "nested-BC")

    def test_wrong_profile_kind_poly_mode(self):
        # the poly modes read no alpha values, but the kind is still checked
        prof = MixingProfile(
            kind=BETA_INF1, ns=np.arange(1, 101),
            values=np.full(100, 0.1), provenance="computed",
        )
        with pytest.raises(ValueError, match="alpha_inf1"):
            check_alpha(prof, power_seq(1.0, 0.5), "poly-1", params={"a": 1.0})

    def test_vanishing_pure_power_alpha(self):
        # alpha = 0 * n^-2: every inverse is 1, so the terms are the masses
        rep = check_alpha(PowerLogSeq(0.0, 2.0), power_seq(1.0, 0.5),
                          "nested-BC", horizon=10**4)
        assert rep.verdict == SATISFIED
        assert rep.clause("mass-dominates-alpha")["method"] == "exact-zero"
        assert rep.clause("inverse-weighted-mass-diverges")["method"] == "tail-slope"

    def test_eta_inverse_hand_cases(self):
        vals = np.array([0.9, 0.5, 0.5, 0.1])
        # eta = (0.9, 0.25, 1/6, 0.025): first integer with eta <= 0.3 is 2,
        # and the piece before it stays above 0.3 (0.9/x <= 0.3 needs x >= 3)
        assert _eta_inverse(vals, 0.3) == 2.0
        # for u = 0.5 the refinement lands inside the piece: 0.9/0.5 = 1.8
        assert _eta_inverse(vals, 0.5) == pytest.approx(1.8)
        # u = 1/h, the smallest u check_alpha asks of an h-lag table: an
        # alpha of 1 at every lag reaches it at the last lag, no later
        assert _eta_inverse(np.ones(4), 0.25) == 4.0

    def test_poly_general_equivalence(self):
        # With alpha(n) = C n^{-a} exact, the specialized polynomial modes
        # and the general ones must reach the same conclusions (the strong
        # mode stays off "violated" by design: its condition is existential).
        rng = np.random.default_rng(20240817)
        accepted = 0
        while accepted < 20:
            a = float(rng.uniform(0.4, 2.5))
            c_alpha = float(rng.uniform(0.5, 2.0))
            p = float(rng.uniform(0.1, 0.95))
            theta_star = a - p * (a + 1)
            if abs((1 - p) * (a + 1) - 1) < 0.05:
                continue  # poly-2 boundary
            if not (theta_star >= 0.1 * a + 0.13 or theta_star <= -0.12):
                continue  # strong-mode tail-rule margin
            accepted += 1
            # C in [0.25, 1], so that alpha lies in [0, 1]
            alpha = PowerLogSeq(c_alpha / 2, a, 0.0, 0.0, 1)
            mu = power_seq(float(rng.uniform(0.3, 1.0)), p)
            r_poly1 = check_alpha(None, mu, "poly-1", params={"a": a}, horizon=10**5)
            r_nested = check_alpha(alpha, mu, "nested-BC", horizon=10**5)
            assert r_poly1.verdict == r_nested.verdict, (a, p)
            r_poly2 = check_alpha(None, mu, "poly-2", params={"a": a}, horizon=10**5)
            r_l1 = check_alpha(alpha, mu, "L1", horizon=10**5)
            assert r_poly2.verdict == r_l1.verdict, (a, p)
            r_poly3 = check_alpha(None, mu, "poly-3", params={"a": a}, horizon=10**5)
            r_strong = check_alpha(alpha, mu, "strong", horizon=10**5)
            if r_poly3.verdict == SATISFIED:
                assert r_strong.verdict == SATISFIED, (a, p)
            else:
                assert r_poly3.verdict == VIOLATED
                assert r_strong.verdict != SATISFIED, (a, p)


class TestCheckBetaStrong:
    def test_zero_beta_satisfied(self):
        rep = check_beta_strong(constant_seq(0.0), lambda u: 2.0, horizon=10**4)
        assert rep.verdict == SATISFIED
        assert np.all(rep.trace == 0.0)

    def test_square_decay_with_bound_satisfied(self):
        rep = check_beta_strong(power_seq(1.0, 2.0), lambda u: 2.0,
                                qstar_bound=4.0, horizon=10**5)
        assert rep.verdict == SATISFIED
        assert rep.diagnostics["clauses"][0]["method"] == "closed-form"

    def test_log_decay_violated_by_minorant(self):
        beta = PowerLogSeq(1.0, 0.0, 1.0, 2.0, 1)  # 1 / log(j + 2)
        rep = check_beta_strong(beta, lambda u: 2.0, horizon=10**5)
        assert rep.verdict == VIOLATED
        assert "Q* >= 1" in rep.to_json()

    def test_profile_tail_rule(self):
        ns = np.arange(1, 2001)
        prof = MixingProfile(
            kind=BETA_INF1, ns=ns,
            values=np.minimum(1.0, ns.astype(float) ** -2.0),
            provenance="computed",
        )
        rep = check_beta_strong(prof, lambda u: 2.0)
        assert rep.verdict == SATISFIED
        assert rep.diagnostics["clauses"][0]["method"] == "tail-slope"

    @pytest.mark.parametrize("bad", [0.5, math.inf, math.nan])
    def test_envelope_value_validation(self, bad):
        # an infinite bound would certify the convergent majorant, and a
        # NaN passes any "< 1" test
        with pytest.raises(ValueError, match="below 1 or not finite"):
            check_beta_strong(power_seq(1.0, 2.0), lambda u: bad, horizon=100)
        with pytest.raises(ValueError, match="qstar_bound must be finite"):
            check_beta_strong(power_seq(1.0, 2.0), lambda u: 2.0,
                              qstar_bound=bad, horizon=100)

    def test_nonmonotone_beta_rejected(self):
        wiggle = TabulatedSeq(np.array([0.5, 0.2, 0.4, 0.1]))
        with pytest.raises(ValueError, match="nonincreasing"):
            check_beta_strong(wiggle, lambda u: 2.0)


class TestCheckTilde:
    MU = power_seq(1.0, 0.5)

    def test_mode_i_satisfied(self):
        rep = check_tilde(power_seq(1.0, 1.5), self.MU, None, 1.0, "i",
                          limsup_floor=1.0, horizon=10**5)
        assert rep.verdict == SATISFIED

    def test_mode_i_zero_floor_violated(self):
        rep = check_tilde(power_seq(1.0, 1.5), self.MU, None, 1.0, "i",
                          limsup_floor=0.0, horizon=10**5)
        assert rep.verdict == VIOLATED
        assert rep.clause("limsup-mass-positive")["outcome"] == FAILS

    def test_mode_i_requires_floor(self):
        with pytest.raises(ValueError, match="limsup_floor"):
            check_tilde(power_seq(1.0, 1.5), self.MU, None, 1.0, "i")

    def test_mode_i_accepts_reversed_kind(self):
        ns = np.arange(1, 2001)
        prof = MixingProfile(
            kind=TILDE_BETA_REV, ns=ns,
            values=np.minimum(1.0, ns.astype(float) ** -1.5),
            provenance="computed",
        )
        rep = check_tilde(prof, self.MU, None, 1.0, "i", limsup_floor=0.5)
        assert rep.verdict == SATISFIED

    def test_mode_kind_mismatch(self):
        prof = MixingProfile(
            kind=TILDE_PHI11, ns=np.arange(1, 101),
            values=np.full(100, 0.01), provenance="computed",
        )
        with pytest.raises(ValueError, match="tilde_beta11"):
            check_tilde(prof, self.MU, None, 1.0, "i", limsup_floor=1.0)

    def test_mode_ii_missing_lq_bound(self):
        with pytest.raises(ValueError, match="missing lq_bound"):
            check_tilde(power_seq(1.0, 2.0), self.MU, None, 1.0, "ii")

    @pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
    def test_p_must_be_finite_and_at_least_one(self, p):
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            check_tilde(power_seq(1.0, 2.0), self.MU, 2.0, p, "ii", horizon=10**4)

    def test_mode_ii_infinite_bound_violated(self):
        rep = check_tilde(power_seq(1.0, 2.0), self.MU, math.inf, 1.0, "ii",
                          horizon=10**4)
        assert rep.verdict == VIOLATED
        assert rep.diagnostics["first_failure"] == "lq-ratio-bounded"

    def test_mode_ii_p2_closed_form(self):
        rep = check_tilde(power_seq(1.0, 2.0), self.MU, 3.0, 2.0, "ii",
                          horizon=10**5)
        assert rep.verdict == SATISFIED
        assert rep.clause("weighted-average-vanishes")["method"] == "closed-form"

    def test_mode_iii_p1_reduction(self):
        # with summable rate and E ~ 2 sqrt(n) the terms behave like
        # n^{-3/2}: summable, matching the p = 1 reduction to sum rate/E
        rep = check_tilde(power_seq(1.0, 1.5), self.MU, 2.0, 1.0, "iii",
                          horizon=10**5)
        assert rep.verdict == SATISFIED
        assert rep.clause("weighted-series-converges")["method"] == "closed-form"

    def test_mode_iv_zero_rate(self):
        rep = check_tilde(constant_seq(0.0), self.MU, None, 1.0, "iv",
                          horizon=10**4)
        assert rep.verdict == SATISFIED

    def test_mode_iv_slow_rate_violated(self):
        slow = PowerLogSeq(1.0, 0.0, 1.0, 2.0, 1)  # 1 / log(k+2)
        rep = check_tilde(slow, self.MU, None, 1.0, "iv", horizon=10**5)
        assert rep.verdict == VIOLATED
        assert rep.clause("phi-average-vanishes")["outcome"] == FAILS

    def test_mode_v_zero_rate(self):
        rep = check_tilde(constant_seq(0.0), self.MU, None, 1.0, "v",
                          horizon=10**4)
        assert rep.verdict == SATISFIED

    def test_mode_v_summable_rate(self):
        rep = check_tilde(power_seq(1.0, 1.5), self.MU, None, 1.0, "v",
                          horizon=10**5)
        assert rep.verdict == SATISFIED


class TestCheckRenewalNested:
    def test_divergent_masses_satisfied(self):
        rep = check_renewal_nested(power_seq(1.0, 0.9), horizon=10**6)
        assert rep.verdict == SATISFIED
        assert rep.clause("renewal-mass-diverges")["method"] == "closed-form"

    def test_convergent_masses_violated(self):
        rep = check_renewal_nested(power_seq(1.0, 1.8), horizon=10**6)
        assert rep.verdict == VIOLATED

    def test_not_nested_violated(self):
        rep = check_renewal_nested(power_seq(1.0, 0.9), nested=False)
        assert rep.verdict == VIOLATED
        assert "nested" in rep.diagnostics["precondition_failure"]

    def test_disagreement_with_poly1(self):
        # Centered windows of width k^{-0.9}: the renewal masses diverge,
        # while the polynomial BC route on the same widths needs
        # sum mu(A_k)^2 = sum k^{-1.8} < infinity - so it reports violated.
        widths = power_seq(1.0, 0.9)
        renewal = check_renewal_nested(widths, horizon=10**6)
        poly = check_alpha(None, widths, "poly-1", params={"a": 1.0},
                           horizon=10**6)
        assert renewal.verdict == SATISFIED
        assert poly.verdict == VIOLATED
        assert poly.diagnostics["first_failure"] == "powered-mass-diverges"

