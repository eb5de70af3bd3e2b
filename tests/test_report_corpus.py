"""Pinned report corpus: the sha256 of ``CriterionReport.to_json()`` for a
fixed list of evaluator calls.

The list runs every mode of every ``check_*`` evaluator, each with
closed-form inputs and with tabulated or profile inputs, plus a case for
each report branch those miss (a flat or all-zero trend, a window too
thin to fit, an all-zero or thin series tail, each precondition), so a
refactor of the criteria internals that moves any byte of any report
fails here.
Run this file as a script to print the current hashes:

    PYTHONPATH=src python tests/test_report_corpus.py
"""

import hashlib
import math

import numpy as np
import pytest

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
    RealSeq,
    TableSampler,
    TabulatedSeq,
    power_seq,
)

H = 20_000


def _tab(seq, h=H):
    return TabulatedSeq(seq.array(1, h))


def _profile(kind, seq, sparse=False, h=H):
    ns = np.arange(1, h + 1)
    if sparse:
        ns = np.unique(np.round(np.logspace(0, math.log10(h), 60))).astype(int)
    return MixingProfile(kind=kind, ns=ns, values=seq.array(1, h)[ns - 1])


def _paths(mu, h=10_000, n_paths=200, seed=7):
    """Hit counts whose increments scatter around E's increments."""
    ns = np.unique(np.round(np.logspace(0, math.log10(h), 33))).astype(np.int64)
    e = np.cumsum(mu.array(1, h))[ns - 1]
    de = np.diff(np.concatenate([[0.0], e]))
    u = np.random.default_rng(seed).random((n_paths, len(ns)))
    return PathEnsemble(ns, np.floor(np.cumsum(2.0 * u * de[None, :], axis=1)))


def _sampled(seq, at, h=10_000):
    """seq's table up to h kept at the indices ``at``, as a run's f-criteria
    read E and the masses."""
    sampler = TableSampler(at)
    sampler.add(seq.array(1, h))
    return sampler.seq()


def _tail_zeros(seq, n, h=H):
    """seq's table up to h with every entry after index n set to 0."""
    return TabulatedSeq(np.concatenate([seq.array(1, n), np.zeros(h - n)]))


class SignedTable(RealSeq):
    """A table that may hold negative entries, which no built-in sequence
    does: it reaches the evaluators' own sign checks."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    @property
    def horizon(self):
        return len(self.values)

    def array(self, lo, hi):
        return self.values[lo - 1:hi]


# closed-form legs
MU = power_seq(1.0, 0.5)
MU_TAB = _tab(MU)
ALPHA_PURE = power_seq(1.0, 2.0)
ALPHA_LOG = PowerLogSeq(0.5, 1.0, 1.0, 1.0, 1)
ALPHA_SUBPOLY = PowerLogSeq(0.5, 0.0, 1.0, 1.0, 1)
ALPHA_GEOM = GeometricSeq(1.0, 0.5, 0)
RATE = power_seq(0.5, 2.0)
RATE_SLOW = power_seq(0.5, 0.8)
F_MU = power_seq(0.5, 0.5)
F_PATHS = _paths(F_MU)
F_E_TAB = TabulatedSeq(np.cumsum(F_MU.array(1, 10_000)))
F_E_CLOSED = power_seq(1.0, -0.5)


def _corpus():
    cases = {}

    # check_l2
    cases["l2/closed"] = lambda: check_l2(power_seq(1.0, -1.0), power_seq(1.0, -1.5),
                                          horizon=10**4)
    cases["l2/closed-flat"] = lambda: check_l2(power_seq(1.0, -1.0),
                                               power_seq(1.0, -2.0))
    harmonic = np.cumsum(1.0 / np.arange(1, H + 1))
    cases["l2/tabulated"] = lambda: check_l2(TabulatedSeq(harmonic),
                                             TabulatedSeq(0.5 * harmonic))
    cases["l2/precondition"] = lambda: check_l2(TabulatedSeq(harmonic[::-1]),
                                                TabulatedSeq(harmonic))
    linear = np.arange(1.0, H + 1)
    cases["l2/flat"] = lambda: check_l2(TabulatedSeq(linear),
                                        TabulatedSeq(0.5 * linear**2))
    cases["l2/zero-variance"] = lambda: check_l2(TabulatedSeq(linear),
                                                 TabulatedSeq(np.zeros(H)))
    cases["l2/thin-window"] = lambda: check_l2(TabulatedSeq(linear[:3]),
                                               TabulatedSeq(linear[:3]))
    cases["l2/short-span"] = lambda: check_l2(
        TabulatedSeq(linear[299:2000], start=300),
        TabulatedSeq(linear[299:2000] ** 1.5, start=300))
    cases["l2/few-positive"] = lambda: check_l2(
        TabulatedSeq(linear), TabulatedSeq(np.concatenate([np.zeros(H - 3),
                                                           np.ones(3)])))
    cases["l2/negative-variance"] = lambda: check_l2(
        TabulatedSeq(linear), SignedTable(np.full(H, -1.0)))

    # check_f_criteria
    for mode in ("i", "ii", "iii", "variance"):
        cases[f"f-{mode}/closed-e"] = (
            lambda m=mode: check_f_criteria(F_PATHS, F_E_CLOSED, m))
        cases[f"f-{mode}/tabulated"] = (
            lambda m=mode: check_f_criteria(F_PATHS, F_E_TAB, m,
                                            mu_A=TabulatedSeq(F_MU.array(1, 10_000))))
        cases[f"f-{mode}/closed-mass"] = (
            lambda m=mode: check_f_criteria(F_PATHS, F_E_TAB, m, mu_A=F_MU))
    cases["f-i/subsequence"] = lambda: check_f_criteria(
        F_PATHS, F_E_TAB, "i", subsequence=F_PATHS.ns[::2], mu_A=F_MU)
    cases["f-ii/sampled"] = lambda: check_f_criteria(
        F_PATHS, _sampled(F_E_TAB, F_PATHS.ns), "ii",
        mu_A=_sampled(F_MU, F_PATHS.ns))
    # 99 paths hit E_n = n exactly and one hits 3n: a flat mean f of 0.015
    # whose standard error is 0.015 too
    one_off = np.vstack([np.tile(F_PATHS.ns, (99, 1)), 3 * F_PATHS.ns])
    cases["f-ii/flat-within-noise"] = lambda: check_f_criteria(
        PathEnsemble(F_PATHS.ns, one_off), power_seq(1.0, -1.0), "ii")

    # check_pairwise
    legs = (power_seq(0.5, 1.0), power_seq(0.5, 1.5), power_seq(0.5, 2.0),
            power_seq(0.5, 0.5))
    for mode in ("i", "ii"):
        cases[f"pairwise-{mode}/closed"] = (
            lambda m=mode: check_pairwise(*legs, m, horizon=10**4))
        cases[f"pairwise-{mode}/tabulated"] = (
            lambda m=mode: check_pairwise(*(_tab(s, 10**4) for s in legs), m))

    zero_lead = TabulatedSeq(np.concatenate([np.zeros(3), legs[3].array(4, 10**4)]))
    cases["pairwise-i/zero-lead"] = lambda: check_pairwise(
        *(_tab(s, 10**4) for s in legs[:3]), zero_lead, "i")
    cases["pairwise-ii/zero-lead"] = lambda: check_pairwise(
        *(_tab(s, 10**4) for s in legs[:3]), zero_lead, "ii")

    # check_alpha
    alphas = {
        "pure": ALPHA_PURE,
        "log": ALPHA_LOG,
        "subpoly": ALPHA_SUBPOLY,
        "geometric": ALPHA_GEOM,
        "tabulated": _tab(ALPHA_PURE),
        "profile": _profile(ALPHA_INF1, ALPHA_PURE),
        "profile-sparse": _profile(ALPHA_INF1, ALPHA_PURE, sparse=True),
    }
    masses = {"closed": MU, "tabulated": MU_TAB}
    for mode in ("nested-BC", "L1", "strong"):
        for a_name, alpha in alphas.items():
            if mode == "L1" and a_name == "profile-sparse":
                continue  # raises: eta^{-1} needs alpha at every lag
            for m_name, mu in masses.items():
                cases[f"alpha-{mode}/{a_name}/{m_name}"] = (
                    lambda m=mode, a=alpha, u=mu: check_alpha(a, u, m, horizon=H))
    for mode in ("poly-1", "poly-2", "poly-3"):
        for a_name in ("pure", "profile"):
            for m_name, mu in masses.items():
                cases[f"alpha-{mode}/{a_name}/{m_name}"] = (
                    lambda m=mode, a=alphas[a_name], u=mu: check_alpha(
                        a, u, m, params={"a": 2.0}, horizon=H))
    cases["alpha-strong/theta-grid"] = lambda: check_alpha(
        ALPHA_PURE, MU, "strong", params={"theta_grid": [0.1, 0.6]}, horizon=H)
    cases["alpha-nested-BC/window"] = lambda: check_alpha(
        _tab(ALPHA_PURE), MU, "nested-BC",
        params={"doubling_window": [0.05, 0.4]}, horizon=H)
    cases["alpha-nested-BC/increasing-mass"] = lambda: check_alpha(
        ALPHA_PURE, power_seq(0.01, -0.5), "nested-BC", horizon=H)
    cases["alpha-nested-BC/flat"] = lambda: check_alpha(
        TabulatedSeq(np.full(H, 0.3)), MU, "nested-BC")
    cases["alpha-L1/increasing-alpha"] = lambda: check_alpha(
        TabulatedSeq(np.linspace(0.1, 0.9, H)), MU, "L1")
    # three lags leave fewer than 4 known eta-inverse values; an alpha in
    # [0, 1] has eta^{-1}(1/n) <= n, so none lies past a longer table
    cases["alpha-L1/short-table"] = lambda: check_alpha(
        TabulatedSeq(ALPHA_PURE.array(1, 3)), MU, "L1")
    cases["alpha-nested-BC/both-vanish"] = lambda: check_alpha(
        _tail_zeros(ALPHA_PURE, 1000), _tail_zeros(MU, 5000), "nested-BC")
    cases["alpha-poly-1/increasing-mass"] = lambda: check_alpha(
        None, power_seq(0.01, -0.5), "poly-1", params={"a": 2.0}, horizon=H)

    # check_beta_strong
    betas = {
        "closed": power_seq(0.5, 1.5),
        "closed-divergent": PowerLogSeq(0.5, 0.0, 1.0, 1.0, 1),
        "tabulated": _tab(power_seq(0.5, 1.5)),
        "profile": _profile(BETA_INF1, power_seq(0.5, 1.5)),
        "profile-sparse": _profile(BETA_INF1, power_seq(0.5, 1.5), sparse=True),
    }
    for b_name, beta in betas.items():
        for bound in (None, 3.0):
            cases[f"beta/{b_name}/bound={bound}"] = (
                lambda b=beta, q=bound: check_beta_strong(
                    b, lambda u: 1.0 + math.log1p(1.0 / u) if u < 0.01 else 2.0,
                    qstar_bound=q, horizon=H))
    cases["beta/reaching-zero"] = lambda: check_beta_strong(
        _tail_zeros(power_seq(0.5, 1.5), 1000), lambda u: 2.0, horizon=H)

    # check_tilde
    tilde_args = {
        "i": dict(limsup_floor=0.2),
        "ii": dict(lq_bound=2.0, p=2.0),
        "iii": dict(lq_bound=2.0, p=1.5),
        "iv": {},
        "v": {},
    }
    for mode, kw in tilde_args.items():
        kind = TILDE_PHI11 if mode in ("iv", "v") else TILDE_BETA11
        rates = {
            "closed": RATE,
            "closed-slow": RATE_SLOW,
            "tabulated": _tab(RATE),
            "profile": _profile(kind, RATE),
        }
        if mode in ("i", "v"):
            rates["profile-sparse"] = _profile(kind, RATE, sparse=True)
        for r_name, rate in rates.items():
            for m_name, mu in masses.items():
                cases[f"tilde-{mode}/{r_name}/{m_name}"] = (
                    lambda m=mode, r=rate, u=mu, k=kw: check_tilde(
                        r, u, mode=m, horizon=H, **k))
    cases["tilde-ii/reversed"] = lambda: check_tilde(
        _profile(TILDE_BETA_REV, RATE), MU, 2.0, 2.0, "ii", horizon=H)
    cases["tilde-i/zero-floor"] = lambda: check_tilde(
        RATE, MU, mode="i", limsup_floor=0.0, horizon=H)
    cases["tilde-ii/infinite-bound"] = lambda: check_tilde(
        RATE, MU, math.inf, 1.0, "ii", horizon=H)
    cases["tilde-iv/no-first-mass"] = lambda: check_tilde(
        RATE, TabulatedSeq(np.concatenate([[0.0], MU.array(2, H)])),
        mode="iv", horizon=H)

    # check_renewal_nested
    cases["renewal/closed-divergent"] = lambda: check_renewal_nested(power_seq(1.0, 1.0))
    cases["renewal/closed-convergent"] = lambda: check_renewal_nested(
        power_seq(1.0, 2.0), horizon=10**5)
    cases["renewal/log-boundary"] = lambda: check_renewal_nested(
        PowerLogSeq(1.0, 1.0, 1.0, 0.0, 2), horizon=10**5)
    cases["renewal/tabulated"] = lambda: check_renewal_nested(_tab(power_seq(1.0, 1.0)))
    cases["renewal/not-nested"] = lambda: check_renewal_nested(
        power_seq(1.0, 1.0), nested=False)
    cases["renewal/increasing"] = lambda: check_renewal_nested(
        TabulatedSeq(np.linspace(0.1, 0.9, 100)))
    cases["renewal/zero"] = lambda: check_renewal_nested(TabulatedSeq(np.zeros(100)))
    cases["renewal/few-terms"] = lambda: check_renewal_nested(
        _tail_zeros(power_seq(1.0, 1.0), 500, h=10**4))
    cases["renewal/narrow-tail"] = lambda: check_renewal_nested(
        _tail_zeros(power_seq(1.0, 1.0), 2500, h=10**4))
    cases["renewal/negative"] = lambda: check_renewal_nested(
        SignedTable(np.full(100, -1.0)))
    return cases


CORPUS = _corpus()


def _sha(name):
    return hashlib.sha256(CORPUS[name]().to_json().encode()).hexdigest()[:16]


PINNED = {
    'alpha-L1/geometric/closed': '45dac82c8b2c9e04',
    'alpha-L1/geometric/tabulated': 'a5e1f3ff836544f3',
    'alpha-L1/increasing-alpha': '6e4460e41f0e7e9a',
    'alpha-L1/log/closed': '41a72209e85f8605',
    'alpha-L1/log/tabulated': 'e10a9b95325bb4c4',
    'alpha-L1/profile/closed': 'f344cfbc0e83f95e',
    'alpha-L1/profile/tabulated': '8df7f94b0aca0253',
    'alpha-L1/pure/closed': '03eae4cb3da0f80c',
    'alpha-L1/pure/tabulated': '61f4c044d3121bbc',
    'alpha-L1/short-table': '157e2bccbee8a3cc',
    'alpha-L1/subpoly/closed': '817683d82836e829',
    'alpha-L1/subpoly/tabulated': '414c8e28c6f01baf',
    'alpha-L1/tabulated/closed': 'ed66558143e0fdff',
    'alpha-L1/tabulated/tabulated': '49563ce5923b38dc',
    'alpha-nested-BC/both-vanish': '86037a2442cb3948',
    'alpha-nested-BC/flat': '036e2bcaafe1a8b0',
    'alpha-nested-BC/geometric/closed': '69476cc354cdcba0',
    'alpha-nested-BC/geometric/tabulated': 'e481b862f53c7442',
    'alpha-nested-BC/increasing-mass': '22381c0a4b569649',
    'alpha-nested-BC/log/closed': '34df8de4ac0827e3',
    'alpha-nested-BC/log/tabulated': '49dd346b4111f51d',
    'alpha-nested-BC/profile-sparse/closed': 'efd22a3e3828b6aa',
    'alpha-nested-BC/profile-sparse/tabulated': '11564cf59b911f36',
    'alpha-nested-BC/profile/closed': '5307094b8dba6b5d',
    'alpha-nested-BC/profile/tabulated': '57aae7f88fa98497',
    'alpha-nested-BC/pure/closed': 'cc761fdcd9c92c15',
    'alpha-nested-BC/pure/tabulated': 'c16e05c32aa0c0d6',
    'alpha-nested-BC/subpoly/closed': 'e41b98122dd59e09',
    'alpha-nested-BC/subpoly/tabulated': 'dac973c50a81b375',
    'alpha-nested-BC/tabulated/closed': 'f31192a1fe4d9be7',
    'alpha-nested-BC/tabulated/tabulated': 'b423bddbc9708245',
    'alpha-nested-BC/window': 'f5165548a4ad03c2',
    'alpha-poly-1/increasing-mass': 'fd72661fc8267277',
    'alpha-poly-1/profile/closed': 'fca0e005168d7226',
    'alpha-poly-1/profile/tabulated': '912ef2413c1811c9',
    'alpha-poly-1/pure/closed': '1048b322cff5a35b',
    'alpha-poly-1/pure/tabulated': 'c36c8bbba424d862',
    'alpha-poly-2/profile/closed': '1b552786ab93b1b7',
    'alpha-poly-2/profile/tabulated': '182f9a8b00fd4ecb',
    'alpha-poly-2/pure/closed': '34e5a0caaf98ad19',
    'alpha-poly-2/pure/tabulated': '3ba098527d0ed026',
    'alpha-poly-3/profile/closed': 'bd85d7d838d1b1f4',
    'alpha-poly-3/profile/tabulated': '3f9173e4b213a55c',
    'alpha-poly-3/pure/closed': '98d47ff4459f2029',
    'alpha-poly-3/pure/tabulated': '94e691bca9c76b12',
    'alpha-strong/geometric/closed': '6422ce21e3efbb3e',
    'alpha-strong/geometric/tabulated': '9904a8bde27f290f',
    'alpha-strong/log/closed': '93c5db9847abd650',
    'alpha-strong/log/tabulated': '7de42605c5936751',
    'alpha-strong/profile-sparse/closed': '1673d988de61dcdf',
    'alpha-strong/profile-sparse/tabulated': '265b539e16c65dc2',
    'alpha-strong/profile/closed': 'f3250b70949e7112',
    'alpha-strong/profile/tabulated': '27564c79b23b2d00',
    'alpha-strong/pure/closed': 'c8d3e32b6292d659',
    'alpha-strong/pure/tabulated': '81792faf8e9121b2',
    'alpha-strong/subpoly/closed': '0c014be885db2436',
    'alpha-strong/subpoly/tabulated': '1bd78c07ca940f4a',
    'alpha-strong/tabulated/closed': '575f5e49ffe78557',
    'alpha-strong/tabulated/tabulated': '350d4404c401e2a4',
    'alpha-strong/theta-grid': 'bbf62dc271094c15',
    'beta/closed-divergent/bound=3.0': '25efb8633b5d3203',
    'beta/closed-divergent/bound=None': 'b9f35be43ea0f5fc',
    'beta/closed/bound=3.0': 'cbe6b6b0830fc8e6',
    'beta/closed/bound=None': '360f0bae0e9a8f97',
    'beta/profile-sparse/bound=3.0': '693dd4f3de22eff7',
    'beta/profile-sparse/bound=None': '6cebdd6b9250221e',
    'beta/profile/bound=3.0': 'a974257f36f769ef',
    'beta/profile/bound=None': '1381f6c3397ed6dc',
    'beta/reaching-zero': '120d12e6e9d51732',
    'beta/tabulated/bound=3.0': '54f6b7fa2659ffc7',
    'beta/tabulated/bound=None': '77cb0cc03ee874b4',
    'f-i/closed-e': '964d35a99000f288',
    'f-i/closed-mass': 'd1603352a177346f',
    'f-i/subsequence': '4aa7cbaecab945e9',
    'f-i/tabulated': 'b14c083b3aa38dda',
    'f-ii/closed-e': '21c74aafee323d11',
    'f-ii/closed-mass': 'e8e16f4be6cf056d',
    'f-ii/flat-within-noise': 'f23b4c96acf90eb5',
    'f-ii/sampled': '1cbfa0fdd967f11d',
    'f-ii/tabulated': '1cbfa0fdd967f11d',
    'f-iii/closed-e': 'b727cf866196773c',
    'f-iii/closed-mass': '87f85df30d5cf902',
    'f-iii/tabulated': '4c166a6c5d9ff33a',
    'f-variance/closed-e': '49326c732a202ec7',
    'f-variance/closed-mass': '198211ad86a88b32',
    'f-variance/tabulated': '4dc3fa7733983bc9',
    'l2/closed': 'fa7bfa1dcaf0fa89',
    'l2/closed-flat': '4da5d8a3e6ef0cdc',
    'l2/few-positive': '9778fe4ea3d6ea1b',
    'l2/flat': 'a2e9788213fd924a',
    'l2/negative-variance': '923baf9d8c0b42e2',
    'l2/precondition': '555d78bc8d084b21',
    'l2/short-span': '1c4d8b3190fbffb5',
    'l2/tabulated': '96bfcd4a833ea988',
    'l2/thin-window': '53813fd05f2a37a8',
    'l2/zero-variance': '1bb70fe0f0e78a56',
    'pairwise-i/closed': '4d90b67546f312c0',
    'pairwise-i/tabulated': '07e45d41003a9474',
    'pairwise-i/zero-lead': '963ef35313c99bc2',
    'pairwise-ii/closed': 'f44a8935544f68c7',
    'pairwise-ii/tabulated': 'c251c9f267e522a8',
    'pairwise-ii/zero-lead': '3238a1874102c8fb',
    'renewal/closed-convergent': 'e099237c7902bb53',
    'renewal/closed-divergent': 'c85b84afd9b50efa',
    'renewal/few-terms': 'f3393070d1b3b200',
    'renewal/increasing': '0734472d6b6e295f',
    'renewal/log-boundary': 'b6ba8ad7533fe483',
    'renewal/narrow-tail': '49d6922d159d3052',
    'renewal/negative': '6606424fdbaf2862',
    'renewal/not-nested': 'a7ef676a940f15f4',
    'renewal/tabulated': '0988646ebc104690',
    'renewal/zero': '80246f80fc4ffed3',
    'tilde-i/closed-slow/closed': '5f92a0406d57acdb',
    'tilde-i/closed-slow/tabulated': '7a2d43aab7303403',
    'tilde-i/closed/closed': 'b987e8cbb7de2393',
    'tilde-i/closed/tabulated': 'aafc90c7dfbe3e4e',
    'tilde-i/profile-sparse/closed': '47d757c0c7438512',
    'tilde-i/profile-sparse/tabulated': '1ad690a79e058cf9',
    'tilde-i/profile/closed': '40f06aaa5f533c76',
    'tilde-i/profile/tabulated': '228278df0a0c442f',
    'tilde-i/tabulated/closed': '0165ce52305533ed',
    'tilde-i/tabulated/tabulated': 'a3a88d10d7bf220e',
    'tilde-i/zero-floor': '8eb03e0297725b08',
    'tilde-ii/closed-slow/closed': '6d0cbb95e9abe4ec',
    'tilde-ii/closed-slow/tabulated': '9761fdbd2040f1d1',
    'tilde-ii/closed/closed': 'a69f5c45412c3c9d',
    'tilde-ii/closed/tabulated': '8cf908bd68ff70ce',
    'tilde-ii/infinite-bound': '95a81f1fd13024da',
    'tilde-ii/profile/closed': '628378c4dfbcedca',
    'tilde-ii/profile/tabulated': '194f74f95f535608',
    'tilde-ii/reversed': 'f9642f2d3e33b5f0',
    'tilde-ii/tabulated/closed': '1f10cfa707d651f3',
    'tilde-ii/tabulated/tabulated': 'bb7a3a50be7c86ab',
    'tilde-iii/closed-slow/closed': '65660860f71940b8',
    'tilde-iii/closed-slow/tabulated': 'c31c1b2e32755960',
    'tilde-iii/closed/closed': 'cb77d99dc85cc08a',
    'tilde-iii/closed/tabulated': 'e9a595546b19ae13',
    'tilde-iii/profile/closed': 'e81f210e817b291f',
    'tilde-iii/profile/tabulated': 'c3a62940eea22c02',
    'tilde-iii/tabulated/closed': 'ae7fcb3c2b2887c4',
    'tilde-iii/tabulated/tabulated': '7f91dfbee63555cf',
    'tilde-iv/closed-slow/closed': '2c22b1c755fdfb4f',
    'tilde-iv/closed-slow/tabulated': 'ba5ddd66cdc38a8e',
    'tilde-iv/closed/closed': 'e38cc90ac8b3581b',
    'tilde-iv/closed/tabulated': '3114ab874846ac49',
    'tilde-iv/no-first-mass': '80b631433deeac90',
    'tilde-iv/profile/closed': '105a058db117dc6b',
    'tilde-iv/profile/tabulated': '0637df41081e67c7',
    'tilde-iv/tabulated/closed': '566954ede8ec87e8',
    'tilde-iv/tabulated/tabulated': '1864fb575f1fec61',
    'tilde-v/closed-slow/closed': '4ad4c5e2bcb524b9',
    'tilde-v/closed-slow/tabulated': '6182101a5327f58d',
    'tilde-v/closed/closed': 'd45e7c9047a583fe',
    'tilde-v/closed/tabulated': 'cb7a46e26248fc97',
    'tilde-v/profile-sparse/closed': 'b7242f3f2555af97',
    'tilde-v/profile-sparse/tabulated': '764ee44f8eaf54aa',
    'tilde-v/profile/closed': '969f04e0ee5691d6',
    'tilde-v/profile/tabulated': '571cf00647c1f8d4',
    'tilde-v/tabulated/closed': '3d94f1b4f7e1907f',
    'tilde-v/tabulated/tabulated': '7f3dff06d1a4f1c4',
}


def test_corpus_covers_every_pin():
    assert sorted(PINNED) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_report_bytes_pinned(name):
    assert _sha(name) == PINNED.get(name), name


if __name__ == "__main__":
    for name in sorted(CORPUS):
        print(f"    {name!r}: {_sha(name)!r},")
