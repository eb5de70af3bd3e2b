"""Acceptance suite: ten end-to-end checks with pinned tolerances.

Each test prints exactly one ``ACCEPTANCE k: PASS/FAIL`` line (visible
with ``pytest -s`` or in the failure report).  Thresholds are frozen
from pilot runs; every simulation is seeded and deterministic.

Check 4 runs the intermittent map with gamma = 0.75 against A_k =
[0, k^-4), targets at the critical exponent 1/(1 - gamma): the masses
behave like C/k, so E_n diverges like C ln n while the hits stop.  Its
growth clause asks that E_n rise by equal decades at the rate C of the
invariant law's tail, and by at most the analytic cap 5/3 between
n = 1e3 and 1e5.  A 2x rise is out of reach of any correct program:
with mu(A_k) ~ C/k the ratio is at most about 1 + ln 100 / H_1000,
roughly 1.62.
"""

import time

import numpy as np

from bclab.criteria import (
    SATISFIED,
    VIOLATED,
    PathEnsemble,
    check_alpha,
    check_f_criteria,
    check_renewal_nested,
)
from bclab.harness import ExperimentConfig, marginal_measure, run_experiment
from bclab.intervals import (
    TORUS,
    Interval,
    NestedLeftFamily,
    NestedWindowFamily,
    PowerMeasure,
    TorusConsecutiveFamily,
    disjointify,
)
from bclab.mixing import circle_profile, dmr_beta_profile
from bclab.processes import (
    GOLDEN_CONJUGATE,
    CircleRWProcess,
    DMRProcess,
    LSVProcess,
)
from bclab.seqcore import TabulatedSeq, power_seq


def line(idx, ok, detail):
    print(f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_01_iid_strong_law_band(reference_iid_run):
    report, wall = reference_iid_run
    ratios = report.s_values[:50, -1] / report.e_checkpoints[-1]
    mean = float(ratios.mean())
    ok = 0.9 <= mean <= 1.1 and wall < 60.0
    assert line(1, ok,
                f"mean S/E = {mean:.4f} in [0.9, 1.1], "
                f"E = {report.e_checkpoints[-1]:.2f}, wall {wall:.1f}s < 60s")


def test_criterion_02_sticky_chain_divergent_boundary():
    cfg = ExperimentConfig(
        process=DMRProcess(a=1.0),
        family=NestedLeftFamily(radius=power_seq(1.0, 0.4)),
        n=10**5, n_traj=200, seed=0,
    )
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    wall = time.perf_counter() - t0
    frac = float(report.hit_frac_late[-1])
    ok = frac >= 0.80 and wall < 300.0
    assert line(2, ok,
                f"late-window hit fraction {frac:.3f} >= 0.80, "
                f"wall {wall:.1f}s < 300s")


def test_criterion_03_sticky_chain_convergent_boundary():
    cfg = ExperimentConfig(
        process=DMRProcess(a=1.0),
        family=NestedLeftFamily(radius=power_seq(1.0, 0.75)),
        n=10**5, n_traj=200, seed=0,
    )
    report = run_experiment(cfg)
    frac = float(report.hit_frac_late[-1])
    assert line(3, frac <= 0.10,
                f"late-window hit fraction {frac:.3f} <= 0.10")


def test_criterion_04_slow_mixing_shrinking_target():
    cfg = ExperimentConfig(
        process=LSVProcess(gamma=0.75),
        family=NestedLeftFamily(radius=power_seq(1.0, 4.0)),
        n=10**5, n_traj=100, seed=0,
    )
    report = run_experiment(cfg)
    mu = marginal_measure(cfg)
    e = np.cumsum(cfg.family.measures(mu, 1, cfg.n))
    growth = float(e[10**5 - 1] / e[10**3 - 1])
    # mu[0, r) ~ C r^(1 - gamma) makes mu(A_k) ~ C/k: every decade of n
    # adds C ln 10, with C the law's constant on [1e-3, 1e-1]
    inc = np.array([e[10**4 - 1] - e[10**3 - 1], e[10**5 - 1] - e[10**4 - 1]])
    r = mu.xs[(mu.xs >= 1e-3) & (mu.xs <= 1e-1)]
    c_law = float(np.mean(mu.cdf(r) / r ** (1 - cfg.process.gamma)))
    rate_err = float(inc.mean() / np.log(10) / c_law - 1.0)
    log_ok = (inc.min() > 0 and abs(inc[1] / inc[0] - 1.0) <= 0.05
              and abs(rate_err) <= 0.25 and growth <= 5 / 3)
    # float64 states near 0 are multiples of 2^-52; the final window's
    # radii lie below that, so also judge the last checkpoint whose window
    # (radii down to c^-4) spans at least ten representable states
    cps = report.checkpoints
    j = np.nonzero(cps**-4.0 >= 10 * 2.0**-52)[0][-1]
    frac_res = float(report.hit_frac_late[j])
    frac = float(report.hit_frac_late[-1])
    ok = log_ok and frac_res <= 0.10 and frac <= 0.10
    assert line(4, ok,
                f"calibrated E growth {growth:.3f}x <= 5/3, decade increments "
                f"{inc[0]:.4f}, {inc[1]:.4f} (within 5%), increment/ln 10 "
                f"{rate_err:+.1%} from law constant {c_law:.3f} (within "
                f"25%), late-window fraction {frac_res:.3f} at {cps[j]} and "
                f"{frac:.3f} at {cps[-1]} <= 0.10")


def test_criterion_05_interval_map_consecutive_window_band():
    cfg = ExperimentConfig(
        process=LSVProcess(gamma=0.4),
        family=TorusConsecutiveFamily(b0=0.0, steps=power_seq(1.0, 0.5)),
        n=10**5, n_traj=100, seed=0,
    )
    report = run_experiment(cfg)
    mean = float(report.mean_ratio[-1])
    assert line(5, 0.8 <= mean <= 1.2,
                f"mean S/E = {mean:.4f} in [0.8, 1.2], "
                f"E = {report.e_checkpoints[-1]:.1f}")


def test_criterion_06_circle_walk_band():
    cfg = ExperimentConfig(
        process=CircleRWProcess(a=GOLDEN_CONJUGATE, drift=0.0),
        family=NestedLeftFamily(radius=power_seq(1.0, 0.3), space=TORUS),
        n=10**6, n_traj=50, seed=0,
    )
    report = run_experiment(cfg)
    mean = float(report.mean_ratio[-1])
    assert line(6, 0.85 <= mean <= 1.15,
                f"mean S/E = {mean:.4f} in [0.85, 1.15], "
                f"E = {report.e_checkpoints[-1]:.0f}")


def test_criterion_07_fourier_decay_and_rational_control():
    t0 = time.perf_counter()
    ns = 2 ** np.arange(4, 15)
    prof = circle_profile(ns, GOLDEN_CONJUGATE, k_max=10**5)
    exponent = -float(np.polyfit(np.log(ns), np.log(prof.values), 1)[0])
    ctrl = circle_profile(ns, 0.5, k_max=10**5)
    ctrl_exp = -float(np.polyfit(np.log(ns),
                                 np.log(np.maximum(ctrl.values, 1e-300)), 1)[0])
    wall = time.perf_counter() - t0
    ok = exponent >= 0.3 and ctrl_exp < 0.1 and wall < 120.0
    assert line(7, ok,
                f"fitted decay exponent {exponent:.3f} >= 0.3, rational "
                f"control {ctrl_exp:.4f} < 0.1, wall {wall:.1f}s < 120s")


def test_criterion_08_kernel_grid_sandwich_band():
    ns = np.arange(10, 101, 10)
    prof = dmr_beta_profile(1.0, ns, m=200)
    nv = ns * prof.values
    ok = bool(np.all(nv >= 0.09) and np.all(nv <= 7.2))
    assert line(8, ok,
                f"n*value in [{nv.min():.3f}, {nv.max():.3f}] within [0.09, 7.2]")


def test_criterion_09_disjointify_oracle_equivalence():
    rng = np.random.default_rng(2024)
    xs = np.linspace(0.0, 1.0, 10_000, endpoint=False)
    t0 = time.perf_counter()
    bad = 0
    for trial in range(1000):
        m = int(rng.integers(1, 13))
        torus = bool(rng.random() < 0.5)
        ivs = []
        for _ in range(m):
            a, b = rng.random(2)
            if torus:
                ivs.append(Interval.torus(float(a), float(b)))
            else:
                lo, hi = sorted((float(a), float(b)))
                ivs.append(Interval.line(lo, hi))
        cover = disjointify(ivs)
        src = np.stack([iv.contains(xs) for iv in ivs])
        if cover.gammas:
            gam = np.stack([g.contains(xs) for g in cover.gammas])
        else:
            gam = np.zeros((0, xs.size), dtype=bool)
        if np.any(gam.sum(axis=0) > 1):
            bad += 1  # overlap between output pieces
            continue
        contained = all(
            not np.any(row & ~src[j - 1])
            for row, j in zip(gam, cover.provenance)
        )
        if not contained or not np.array_equal(gam.any(axis=0),
                                               src.any(axis=0)):
            bad += 1
    wall = time.perf_counter() - t0
    ok = bad == 0 and wall < 10.0
    assert line(9, ok,
                f"{bad}/1000 families with oracle mismatches, "
                f"wall {wall:.1f}s < 10s")


def test_criterion_10_criteria_cross_checks(reference_iid_run):
    # (a) deviation-criterion trace is dominated by half the variance
    # trace, up to Monte Carlo noise at three standard errors; for
    # independent indicators the variance model is Var(S_n) = sum p(1-p)
    report, _ = reference_iid_run
    cfg = report.config
    e_cp = report.e_checkpoints
    ens = PathEnsemble(report.checkpoints, report.s_values)
    masses = cfg.family.measures(marginal_measure(cfg), 1, cfg.n)
    e_dense = np.cumsum(masses)
    var_dense = np.cumsum(masses * (1.0 - masses))
    rep_f = check_f_criteria(ens, TabulatedSeq(e_dense), "ii")
    var_trace = var_dense[report.checkpoints - 1] / e_cp**2
    se = np.asarray(rep_f.diagnostics["trace_se"])
    bound_ok = bool(np.all(rep_f.trace <= var_trace / 2 + 3 * se + 1e-12))

    # (b) nested windows of width k^-0.9 centred at 1/2: under the cdf-x^2
    # regeneration law the mass of [1/2 - w/2, 1/2 + w/2] is exactly w, so
    # the renewal route sees divergent masses k^-0.9 while the covering
    # route needs the squared masses sum k^-1.8 to diverge - the two
    # evaluators must disagree in exactly that direction
    widths = power_seq(1.0, 0.9)
    k = np.arange(1, 2001, dtype=float)
    fam = NestedWindowFamily(
        left=TabulatedSeq(0.5 - 0.5 * k**-0.9),
        right=TabulatedSeq(0.5 + 0.5 * k**-0.9),
    )
    nu_masses = fam.measures(PowerMeasure(2.0), 1, 2000)
    assert np.allclose(nu_masses, k**-0.9, rtol=1e-12)
    ren = check_renewal_nested(widths, nested=True, horizon=10**6)
    poly = check_alpha(None, widths, "poly-1", params={"a": 1.0},
                       horizon=10**6)
    split_ok = (ren.verdict == SATISFIED and poly.verdict == VIOLATED
                and poly.diagnostics["first_failure"] == "powered-mass-diverges")

    ok = bound_ok and split_ok
    assert line(10, ok,
                f"(a) trace <= variance-trace/2 + 3se: {bound_ok}; "
                f"(b) renewal {ren.verdict} vs covering {poly.verdict}")
