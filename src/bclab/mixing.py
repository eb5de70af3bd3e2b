"""Mixing-coefficient computations feeding the criteria evaluators.

Three routes to a coefficient profile: exact Fourier quadrature for the
circle walk, transition-matrix powers for finite-grid kernels, and the
closed-form polynomial sandwich for the sticky regeneration chain.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .seqcore import TabulatedSeq

ALPHA_INF1 = "alpha_inf1"
BETA_INF1 = "beta_inf1"
TILDE_BETA11 = "tilde_beta11"
TILDE_BETA_REV = "tilde_beta_rev"
TILDE_PHI11 = "tilde_phi11"

_KINDS = (ALPHA_INF1, BETA_INF1, TILDE_BETA11, TILDE_BETA_REV, TILDE_PHI11)
_MONOTONE_KINDS = (ALPHA_INF1, BETA_INF1)

PROVENANCE = ("analytic-bound", "computed", "empirical")

# ceilings checked before anything is sized by them: the circle's modes
# (10**6 take a 2**21-point complex grid, 32 MiB) and the kernel's cells
# (an m x m matrix, 32 MB at 2,000, of which matrix_power holds a few)
CIRCLE_MAX_MODES = 10**6
KERNEL_MAX_CELLS = 2000


@dataclass
class MixingProfile:
    """Coefficient values sampled at lags ns, tagged with their origin."""

    kind: str
    ns: np.ndarray
    values: np.ndarray
    provenance: str = "computed"
    error_bars: np.ndarray = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.provenance not in PROVENANCE:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        self.ns = np.asarray(self.ns, dtype=int)
        self.values = np.asarray(self.values, dtype=float)
        if self.ns.shape != self.values.shape or self.ns.ndim != 1:
            raise ValueError("ns and values must be matching 1-d arrays")
        if np.any(np.diff(self.ns) <= 0):
            raise ValueError("lags must be strictly increasing")
        inside = (self.values >= -1e-12) & (self.values <= 1 + 1e-9)
        if not inside.all():  # NaN fails both comparisons
            raise ValueError(f"coefficient values must lie in [0,1], not "
                             f"{self.values[~inside].tolist()}")
        if self.kind in _MONOTONE_KINDS and np.any(np.diff(self.values) > 1e-12):
            raise ValueError(f"{self.kind} must be nonincreasing in the lag")
        if self.error_bars is not None:
            self.error_bars = np.asarray(self.error_bars, dtype=float)
            if self.error_bars.shape != self.values.shape:
                raise ValueError("error bars must match values")

    def as_seq(self) -> TabulatedSeq:
        """Dense RealSeq view; requires consecutive lags."""
        if len(self.ns) > 1 and np.any(np.diff(self.ns) != 1):
            raise ValueError("profile lags are not consecutive")
        return TabulatedSeq(values=self.values, start=int(self.ns[0]))


def profile_to_csv(profile: MixingProfile) -> str:
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["n", "value", "provenance", "error_bar"])
    err = profile.error_bars
    for i, (n, v) in enumerate(zip(profile.ns, profile.values)):
        w.writerow([int(n), repr(float(v)), profile.provenance,
                    "" if err is None else repr(float(err[i]))])
    return out.getvalue()


def profile_from_csv(text: str, kind: str) -> MixingProfile:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:2] != ["n", "value"]:
        raise ValueError("missing profile header")
    ns, vals, errs, prov = [], [], [], "computed"
    for line, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) < 4:
            raise ValueError(f"profile row {line}: {len(row)} fields, not "
                             f"n,value,provenance,error_bar")
        ns.append(int(row[0]))
        vals.append(float(row[1]))
        prov = row[2]
        errs.append(float(row[3]) if row[3] else np.nan)
    err = np.array(errs)
    return MixingProfile(kind=kind, ns=np.array(ns), values=np.array(vals),
                         provenance=prov,
                         error_bars=None if np.isnan(err).all() else err)


# ---------------------------------------------------------------------------
# Circle random walk: exact Fourier quadrature


@dataclass(frozen=True)
class CircleTildeBeta:
    value: float
    tail_bound: float
    n: int
    a: float
    k_max: int
    grid: int

    def __float__(self):
        return self.value


def circle_tilde_beta(n: int, a: float, k_max: int = 100_000,
                      x_grid: int = 4096) -> CircleTildeBeta:
    """E_x sup_t |P(X_n <= t | X_0 = x) - t| for the +-a walk on the circle.

    The conditional cdf deviation factors as phi(x) - phi(x - t) with
    phi(y) = sum_k cos(2 pi k a)^n sin(2 pi k y) / (pi k), evaluated by one
    inverse FFT on a grid large enough to hold all k_max modes.  Since the
    t-shift sweeps the same grid, the sup over t is exact on the grid:
    max(phi(x) - min phi, max phi - phi(x)).  The neglected modes
    contribute at most 1/(pi k_max), reported alongside the value.
    k_max may not exceed CIRCLE_MAX_MODES = 10**6.
    """
    if n < 1 or not math.isfinite(a):
        raise ValueError("need n >= 1 and a finite a")
    if not 1 <= k_max <= CIRCLE_MAX_MODES:
        raise ValueError(f"k_max must lie in 1..{CIRCLE_MAX_MODES}, "
                         f"not {k_max}")
    tail = 1.0 / (math.pi * k_max)
    M = 1 << max(int(np.ceil(np.log2(2 * k_max + 2))), int(np.ceil(np.log2(max(x_grid, 2)))))
    k = np.arange(1, k_max + 1)
    rho = np.cos(2.0 * np.pi * k * a) ** n
    coef = rho / (np.pi * k)  # sine-series coefficients of phi
    spec = np.zeros(M, dtype=complex)
    # sin(2 pi k y) = (e^{iky} - e^{-iky}) / 2i: fill conjugate pairs
    half = coef / 2j
    spec[1 : k_max + 1] = half
    spec[M - k_max :] = -half[::-1]
    phi = np.fft.ifft(spec).real * M
    lo, hi = phi.min(), phi.max()
    value = float(np.mean(np.maximum(phi - lo, hi - phi)))
    return CircleTildeBeta(value=value, tail_bound=tail, n=n, a=a,
                           k_max=k_max, grid=M)


def circle_profile(ns, a: float, k_max: int = 100_000) -> MixingProfile:
    vals = [circle_tilde_beta(int(n), a, k_max) for n in ns]
    # the truncated series can overshoot the true deviation, which is <= 1
    return MixingProfile(kind=TILDE_BETA11, ns=np.asarray(ns, dtype=int),
                         values=np.minimum([v.value for v in vals], 1.0),
                         provenance="computed",
                         error_bars=np.array([v.tail_bound for v in vals]))


# ---------------------------------------------------------------------------
# Finite-grid kernels


def kernel_tilde_beta(kernel: np.ndarray, marginal: np.ndarray, n: int) -> float:
    """E_x sup_t |P(X_n <= t | X_0 = x) - F(t)| for a finite-state kernel.

    Exact for the discrete chain: thresholds between atoms change nothing,
    so the sup is a max over the state grid.
    """
    P = np.asarray(kernel, dtype=float)
    w = np.asarray(marginal, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or w.shape != (P.shape[0],):
        raise ValueError("kernel must be square with a matching marginal")
    if n < 1:
        raise ValueError("lag must be >= 1")
    # each test is one comparison that a NaN or infinite entry fails
    rows = P.sum(axis=1)
    if not np.max(np.abs(rows - 1.0)) <= 1e-10:
        raise ValueError("kernel rows must sum to 1 (tolerance 1e-10)")
    if not (abs(w.sum() - 1.0) <= 1e-10 and np.all(w >= 0)):
        raise ValueError("marginal must be a probability vector")
    if not np.max(np.abs(w @ P - w)) <= 1e-8:
        raise ValueError("marginal is not invariant under the kernel (1e-8)")
    Pn = np.linalg.matrix_power(P, n)
    cum = np.cumsum(Pn, axis=1)
    F = np.cumsum(w)
    dev = np.max(np.abs(cum - F[None, :]), axis=1)
    return float(w @ dev)


def dmr_kernel_grid(a: float, m: int):
    """Exact-invariance discretization of the sticky chain on m cells.

    Cell j carries the invariant mass mu_j of [(j-1)/m, j/m) under
    cdf x**a; the regeneration probability s_j is the cell's mu-barycenter,
    which makes mu invariant under s_j nu + (1 - s_j) delta_j exactly (the
    diagonal atom is kept as a point mass, never smeared).  m may not
    exceed KERNEL_MAX_CELLS = 2,000.
    """
    if not 0 < a < math.inf:
        raise ValueError("need a finite a > 0")
    if not 2 <= m <= KERNEL_MAX_CELLS:
        raise ValueError(f"m must lie in 2..{KERNEL_MAX_CELLS}, not {m}")
    edges = np.linspace(0.0, 1.0, m + 1)
    mu = np.diff(edges**a)
    nu = np.diff(edges ** (a + 1.0))
    s = (a / (a + 1.0)) * nu / mu
    kernel = s[:, None] * nu[None, :]
    kernel[np.diag_indices(m)] += 1.0 - s
    return kernel, mu, s


def dmr_beta_profile(a: float, ns, m: int = 200) -> MixingProfile:
    kernel, mu, _ = dmr_kernel_grid(a, m)
    vals = [kernel_tilde_beta(kernel, mu, int(n)) for n in ns]
    return MixingProfile(kind=TILDE_BETA11, ns=np.asarray(ns, dtype=int),
                         values=np.array(vals), provenance="computed")


# ---------------------------------------------------------------------------
# Closed-form sandwich


@dataclass(frozen=True)
class BetaSandwich:
    lower: float
    upper: float


def dmr_beta_bounds(a: float, n: int) -> BetaSandwich:
    """Asymptotic envelope for the sticky chain's beta coefficient.

    a Gamma(a) n^-a below, 3 a Gamma(a) 2^a n^-a above; both valid up to
    o(1) corrections, so they are reference curves rather than bounds at
    any fixed n.
    """
    if not (0 < a < math.inf) or n < 1:
        raise ValueError("need a finite a > 0 and n >= 1")
    base = a * math.gamma(a) * float(n) ** (-a)
    return BetaSandwich(lower=base, upper=3.0 * 2.0**a * base)


def dmr_bounds_profile(a: float, ns, which: str = "upper") -> MixingProfile:
    vals = np.array(
        [getattr(dmr_beta_bounds(a, int(n)), which) for n in ns], dtype=float
    )
    return MixingProfile(kind=BETA_INF1, ns=np.asarray(ns, dtype=int),
                         values=np.minimum(vals, 1.0),
                         provenance="analytic-bound")

