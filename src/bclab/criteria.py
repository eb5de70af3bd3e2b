"""Finite-horizon evaluators for Borel–Cantelli hypothesis sets.

Each ``check_*`` function inspects the hypotheses of one sufficient
condition for a hitting-count conclusion (BC: infinitely many hits a.s.;
L1BC: S_n / E_n -> 1 in L^1; SBC: S_n / E_n -> 1 a.s.) and returns a
:class:`CriterionReport`.  Verdicts always speak about the *hypotheses*
on the evidence available up to a finite horizon, never about the
almost-sure conclusion itself:

* ``satisfied``    — every hypothesis clause holds (exactly, for
  closed-form inputs; under the trend/tail rules below, for tabulated
  or Monte Carlo inputs);
* ``violated``     — at least one clause provably fails on the evidence
  (an exact counterexample, a divergent minorant, or a trace that has
  committed to a flat nonzero level / the wrong direction);
* ``inconclusive`` — the evidence does not commit either way.

Decision rules (fixed constants, shared by every evaluator)
-----------------------------------------------------------
Limit clauses ("x_n -> 0" or "x_n -> infinity") on tabulated traces are
decided on the last two decades of the checkpoint grid.  A tail whose
values are all at most 1e-12 in magnitude counts as the limit 0.
Otherwise the fit needs at least 4 points over a full decade, 4 of them
positive: a least-squares slope of log(value) against log(n) at most
-0.05 together with an endpoint below half the value one decade earlier
commits to 0 (mirrored for infinity); a slope with |slope| < 0.03 and
0.7 * decade-ago <= endpoint <= decade-ago / 0.7, with the endpoint
above 1e-12 and — when Monte Carlo error bars are available — more than
three standard errors above zero, commits to a flat nonzero level,
which refutes both "-> 0" and "-> infinity".  Anything else is
undecided.  Closed-form inputs bypass the fit with an exact limit
computation.

Series clauses ("sum t_n < infinity" or "= infinity") use the exact
integral-test classification when the term sequence is closed-form.
Tabulated terms that are all <= 0 make a finite sum; otherwise they are
classified by the slope of log(t_n) over the last decade, fitted on at
least 4 positive terms spanning a factor 3: below -1.1 is convergent,
above -0.9 is divergent, in between is undecided.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .mixing import (
    ALPHA_INF1,
    BETA_INF1,
    TILDE_BETA11,
    TILDE_BETA_REV,
    TILDE_PHI11,
    MixingProfile,
)
from .seqcore import (
    GeometricSeq,
    PowerLogSeq,
    RealSeq,
    SampledSeq,
    TabulatedSeq,
    check_fields,
    huber,
    log_grid,
    partial_sums,
)

SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

HOLDS = "holds"
FAILS = "fails"
UNDECIDED = "undecided"

DEFAULT_HORIZON = 10**6

# Trend-rule constants (limit clauses, tabulated traces).
SLOPE_COMMIT = 0.05       # |slope| needed to commit to a direction
SLOPE_FLAT = 0.03         # slope magnitude below which "flat" is possible
RATIO_COMMIT = 0.5        # endpoint vs decade-ago factor for a direction
RATIO_FLAT = 0.7          # endpoint vs decade-ago factor for "flat"
FLAT_FLOOR = 1e-12        # flat levels at or below this count as zero

# Tail-rule constants (series clauses, tabulated terms).
TERM_SLOPE_CONV = -1.1
TERM_SLOPE_DIV = -0.9

_THETA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))


# --------------------------------------------------------------------------
# report containers
# --------------------------------------------------------------------------


@dataclass
class ClauseResult:
    """Outcome of a single hypothesis clause."""

    name: str
    outcome: str                      # holds / fails / undecided
    method: str                      # how it was decided
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "outcome": self.outcome,
            "method": self.method,
            "detail": _plain(self.detail),
        }


@dataclass
class CriterionReport:
    """Evaluation record for one criterion.

    ``ns``/``trace`` hold the primary diagnostic curve (which curve that
    is depends on the criterion and is named in ``diagnostics['trace_name']``);
    ``diagnostics['clauses']`` lists every clause with its decision method.
    """

    criterion: str
    inputs_digest: str
    horizon: int
    ns: np.ndarray
    trace: np.ndarray
    verdict: str
    diagnostics: dict = field(default_factory=dict)

    def clause(self, name: str) -> dict:
        for c in self.diagnostics.get("clauses", ()):
            if c["name"] == name:
                return c
        raise KeyError(name)

    def to_json(self) -> str:
        payload = {
            "criterion": self.criterion,
            "inputs_digest": self.inputs_digest,
            "horizon": int(self.horizon),
            "ns": [int(n) for n in np.asarray(self.ns).ravel()],
            "trace": [float(v) for v in np.asarray(self.trace).ravel()],
            "verdict": self.verdict,
            "diagnostics": _plain(self.diagnostics),
        }
        return json.dumps(payload, sort_keys=True)


def _plain(obj):
    """Recursively convert numpy scalars/arrays into JSON-safe values."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


# --------------------------------------------------------------------------
# digests
# --------------------------------------------------------------------------


def _table_sha(values) -> str:
    """The short hash of a table's float64 bytes that fingerprints it."""
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()[:16]


def _seq_fingerprint(seq) -> dict:
    if seq is None:
        return {"kind": "none"}
    if isinstance(seq, MixingProfile):
        return {
            "kind": "profile",
            "mixing": seq.kind,
            "n": len(seq.ns),
            "sha": _table_sha(seq.values),
        }
    if isinstance(seq, TabulatedSeq):
        return {
            "kind": "tabulated",
            "start": int(seq.start),
            "n": len(seq.values),
            "sha": _table_sha(seq.values),
        }
    if isinstance(seq, SampledSeq):
        # the same fingerprint as TabulatedSeq of the whole table
        return {"kind": "tabulated", "start": int(seq.start),
                "n": seq.length, "sha": seq.sha256[:16]}
    if isinstance(seq, PowerLogSeq):
        return {
            "kind": "powerlog",
            "c": float(seq.c),
            "p": float(seq.p),
            "q": float(seq.q),
            "shift": float(seq.shift),
            "start": int(seq.start),
        }
    if isinstance(seq, GeometricSeq):
        return {"kind": "geometric", "c": float(seq.c), "r": float(seq.r)}
    if isinstance(seq, (int, float)):
        return {"kind": "scalar", "value": float(seq)}
    return {"kind": type(seq).__name__}


def _digest(**parts) -> str:
    text = json.dumps(_plain(parts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _resolve_horizon(requested, *seqs, default: int = DEFAULT_HORIZON) -> int:
    """Largest index usable by every input, capped by the request/default."""
    h = default if requested is None else int(requested)
    if requested is not None and requested < 1:
        raise ValueError("horizon must be >= 1")
    for seq in seqs:
        if seq is None:
            continue
        sh = getattr(seq, "horizon", None)
        if sh is not None:
            h = min(h, int(sh))
    if h < 1:
        raise ValueError("no usable horizon: inputs have empty overlap")
    return h


# --------------------------------------------------------------------------
# closed-form algebra on power-log shapes
# --------------------------------------------------------------------------


def _pl_shape(x, e=1.0, s=0.0):
    """Power-log closed form of n**s * x_n**e, or None when there is none.

    The one way into the algebra below, and every function of it passes
    None through as "no closed form": tabulated, geometric and profile
    inputs, None itself, and shapes that leave the power-log domain (say
    a negative power of a zero coefficient) all give None.
    """
    if not isinstance(x, PowerLogSeq):
        return None
    try:
        if e != 1.0:
            x = x.powered(e)
        return x.scaled_by_power(s) if s != 0.0 else x
    except (ValueError, ArithmeticError):
        return None


def _pl_make(c, p, q, shift, start):
    """c n^{-p} log(n + shift)^{-q} with its start raised into the domain;
    a zero c gives the zero shape, and None means there is no such shape."""
    if c == 0:
        return PowerLogSeq(0.0, 0.0, 0.0, 0.0, max(start, 0))
    if q != 0:
        start = max(start, int(math.ceil(2 - shift)))
    try:
        return PowerLogSeq(c, p, q, shift, max(start, 1 if p != 0 else 0))
    except Exception:
        return None


def _pl_combine(a, b, sign: int):
    """a * b  (sign=+1)  or  a / b  (sign=-1), when shapes are compatible."""
    if a is None or b is None:
        return None
    if a.c == 0:
        return a if sign == +1 or b.c != 0 else None
    if b.c == 0:
        if sign == +1:
            return _pl_make(0.0, 0.0, 0.0, 0.0, max(a.start, b.start))
        return None
    if a.q != 0 and b.q != 0 and a.shift != b.shift:
        return None
    shift = a.shift if a.q != 0 else b.shift
    return _pl_make(
        a.c * (b.c if sign == +1 else 1.0 / b.c),
        a.p + sign * b.p,
        a.q + sign * b.q,
        shift,
        max(a.start, b.start),
    )


def _pl_partial_sum_asym(seq):
    """Closed-form shape asymptotically equivalent to the partial sums.

    Exact for verdict purposes: asymptotic equivalence of positive
    sequences preserves limit kind and series convergence (limit
    comparison).  When the series converges the returned shape is the
    constant 1 — only the shape, not the value, feeds any decision.
    Returns None when the partial sums are not a power-log shape
    (e.g. iterated-logarithm growth).
    """
    if seq is None or seq.c < 0:
        return None
    if seq.c == 0:
        return _pl_make(0.0, 0.0, 0.0, 0.0, seq.start)
    if seq.p < 1:
        return _pl_make(seq.c / (1 - seq.p), seq.p - 1, seq.q, seq.shift, seq.start)
    if seq.p > 1 or (seq.p == 1 and seq.q > 1):
        return _pl_make(1.0, 0.0, 0.0, 0.0, seq.start)
    if seq.p == 1 and seq.q == 0:
        return _pl_make(seq.c, 0.0, -1.0, seq.shift, max(seq.start, 1))
    return None


def _pure_power(shape):
    """(c, a) when shape is c n^{-a} with a > 0, else None.

    For such an alpha the inverse alpha^{-1}(u) = inf{n : alpha(n) <= u}
    is ceil((c/u)^{1/a}) exactly, at every u.
    """
    if shape is None or shape.q != 0 or shape.p <= 0:
        return None
    return shape.c, shape.p


# --------------------------------------------------------------------------
# trend rule (limit clauses) and tail rule (series clauses)
# --------------------------------------------------------------------------


def _classify_trend(ns, vals, sigma_endpoint=None):
    """Return (label, detail): label in {to-zero, to-inf, flat, unclear, all-zero}.

    The window is the last two decades of ns; the fit needs at least 4
    points spanning a full decade, 4 of them positive.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(vals, dtype=float)
    hi = ns[-1]
    mask = ns >= hi / 100.0
    w_ns, w_vals = ns[mask], vals[mask]
    if np.all(np.abs(w_vals) <= FLAT_FLOOR):
        return "all-zero", {"endpoint": float(w_vals[-1])}
    pos = w_vals > 0
    if len(w_ns) < 4 or w_ns[-1] < 10 * w_ns[0] or pos.sum() < 4:
        return "unclear", {"reason": "window too thin for a two-decade fit"}
    slope = float(np.polyfit(np.log(w_ns[pos]), np.log(w_vals[pos]), 1)[0])
    endpoint = float(w_vals[-1])
    ago = float(w_vals[np.argmin(np.abs(w_ns - hi / 10.0))])
    stats = {
        "slope": slope,
        "endpoint": endpoint,
        "decade_ago": ago,
        "window": (float(w_ns[0]), float(w_ns[-1])),
        "points": int(len(w_ns)),
    }
    if slope <= -SLOPE_COMMIT and ago > 0 and endpoint < RATIO_COMMIT * ago:
        return "to-zero", stats
    if slope >= SLOPE_COMMIT and ago > 0 and endpoint > ago / RATIO_COMMIT:
        return "to-inf", stats
    flat_shape = (
        abs(slope) < SLOPE_FLAT
        and ago > 0
        and RATIO_FLAT * ago <= endpoint <= ago / RATIO_FLAT
    )
    if flat_shape and endpoint > FLAT_FLOOR:
        if sigma_endpoint is not None and not endpoint - 3.0 * sigma_endpoint > 0:
            return "unclear", {**stats, "reason": "flat level within noise of zero"}
        return "flat", stats
    return "unclear", stats


# the limit each committed trend label shows; a flat level shows neither
_TREND_LIMIT = {"all-zero": "zero", "to-zero": "zero", "to-inf": "inf"}


def _limit_clause(name, ns, vals, direction, symbolic=None, sigma_endpoint=None):
    """Decide "trace -> 0" (direction='zero') or "trace -> inf" ('inf').

    A limit other than the one wanted fails the clause; a positive
    constant (closed form) or a flat level (trend) refutes both.
    """
    kind = symbolic.limit_kind() if symbolic is not None else None
    if kind is not None:
        method, detail = "closed-form", {"limit_kind": kind}
    else:
        label, detail = _classify_trend(ns, vals, sigma_endpoint=sigma_endpoint)
        if label == "unclear":
            return ClauseResult(name, UNDECIDED, "trend", detail)
        method = "exact-zero" if label == "all-zero" else "trend"
        kind = _TREND_LIMIT.get(label)
    return ClauseResult(name, HOLDS if kind == direction else FAILS, method, detail)


def _series_clause(name, ns, terms, want, symbolic=None):
    """Decide "sum over all n of t_n" convergent/divergent; want in {'conv','div'}."""
    terms = np.asarray(terms, dtype=float)
    conv = symbolic.series_converges() if symbolic is not None else None
    if conv is not None:
        method, detail = "closed-form", {"series_convergent": bool(conv)}
    elif np.all(terms <= 0):
        # identically-zero tail: the series is a finite sum
        conv, method, detail = True, "exact-zero", {"max_term": float(terms.max(initial=0.0))}
    else:
        ns = np.asarray(ns, dtype=float)
        tail = (ns >= ns[-1] / 10.0) & (terms > 0)
        if tail.sum() < 4 or ns[tail][-1] < 3 * ns[tail][0]:
            return ClauseResult(
                name, UNDECIDED, "tail-slope",
                {"reason": "too few positive terms in last decade"},
            )
        slope = float(np.polyfit(np.log(ns[tail]), np.log(terms[tail]), 1)[0])
        method, detail = "tail-slope", {"term_slope": slope}
        if slope < TERM_SLOPE_CONV:
            conv = True
        elif slope > TERM_SLOPE_DIV:
            conv = False
        else:
            return ClauseResult(name, UNDECIDED, method, detail)
    return ClauseResult(name, HOLDS if conv == (want == "conv") else FAILS, method, detail)


def _report(criterion, digest, horizon, ns, trace, clauses, trace_name, extra=None):
    diagnostics = {"trace_name": trace_name, "clauses": []}
    outcomes = set()
    for c in clauses:
        diagnostics["clauses"].append(c.to_dict())
        outcomes.add(c.outcome)
        if c.method == "trend" and c.detail.get("slope") is not None:
            diagnostics.setdefault("fitted_slope", c.detail["slope"])
        if c.method == "tail-slope" and c.detail.get("term_slope") is not None:
            diagnostics.setdefault("tail_estimate", c.detail["term_slope"])
        if c.outcome == FAILS:
            diagnostics.setdefault("first_failure", c.name)
    if extra:
        diagnostics.update(extra)
    verdict = (VIOLATED if FAILS in outcomes
               else SATISFIED if outcomes <= {HOLDS} else INCONCLUSIVE)
    return CriterionReport(
        criterion=criterion,
        inputs_digest=digest,
        horizon=int(horizon),
        ns=np.asarray(ns, dtype=np.int64),
        trace=np.asarray(trace, dtype=float),
        verdict=verdict,
        diagnostics=diagnostics,
    )


def _precondition_report(criterion, digest, horizon, reason):
    clause = ClauseResult("precondition", FAILS, "precondition", {"reason": reason})
    return _report(
        criterion,
        digest,
        horizon,
        np.asarray([1], dtype=np.int64),
        np.asarray([0.0]),
        [clause],
        trace_name="empty",
        extra={"precondition_failure": reason},
    )


def _eval_at(seq, ns):
    return np.asarray([seq.eval(int(n)) for n in np.asarray(ns).ravel()], dtype=float)


def _on_grid(seq, horizon):
    """(grid, values): seq on the log grid from its first index to horizon."""
    grid = log_grid(getattr(seq, "start", 1), horizon)
    return grid, _eval_at(seq, grid)


def _quotient(x, d, k=1.0, fill=np.inf):
    """x / d**k where d > 0, ``fill`` elsewhere, without warnings."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d > 0, x / np.maximum(d, 1e-300) ** k, fill)


def _is_nonincreasing(values) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all(np.diff(v) <= 1e-12 * np.maximum(np.abs(v[:-1]), 1.0)))


class _Rate:
    """A dependence rate given as a MixingProfile or as a RealSeq.

    Every rate-driven criterion reads it through this one view: its
    ``horizon`` (a profile's last lag, a table's horizon, or None), its
    closed-form ``shape`` (None for profiles and tables), its values on a
    grid, and its values at every lag from 1.
    """

    def __init__(self, rate, kinds, label):
        self.rate, self.label = rate, label
        self.profile = rate if isinstance(rate, MixingProfile) else None
        if self.profile is None:
            self.horizon = getattr(rate, "horizon", None)
            self.shape = _pl_shape(rate)
            return
        if rate.kind not in kinds:
            raise ValueError(
                f"{label}: expected a profile of kind in {sorted(kinds)}, "
                f"got {rate.kind!r}"
            )
        self.ns = np.asarray(rate.ns, dtype=np.int64)
        self.horizon = int(self.ns[-1])
        self.shape = None

    def on_grid(self, horizon):
        """(lags, values) up to horizon: a profile's own lags, else a log grid."""
        if self.profile is None:
            return _on_grid(self.rate, horizon)
        keep = self.ns <= horizon
        return self.ns[keep], np.asarray(self.profile.values, dtype=float)[keep]

    def dense(self, horizon, required=False):
        """Values at lags 1..horizon, or None (ValueError when ``required``)
        when the rate is not known at every lag from 1."""
        seq = self.rate
        if self.profile is not None:
            consecutive = self.ns[-1] - self.ns[0] == len(self.ns) - 1
            seq = self.profile.as_seq() if consecutive else None
        if seq is None or getattr(seq, "start", 1) > 1:
            if required:
                raise ValueError(
                    f"{self.label}: cumulative sums need the rate at every lag "
                    "from 1; supply a sequence starting at lag 1 or a profile "
                    "with consecutive lags starting at 1"
                )
            return None
        return seq.array(1, horizon)


# --------------------------------------------------------------------------
# path ensembles (Monte Carlo S_k samples)
# --------------------------------------------------------------------------


@dataclass
class PathEnsemble:
    """Hit counts of many independent trajectories at shared checkpoints.

    ``s_values[i, j]`` is the number of hits of trajectory ``i`` among the
    first ``ns[j]`` events.
    """

    ns: np.ndarray
    s_values: np.ndarray

    def __post_init__(self):
        self.ns = np.asarray(self.ns, dtype=np.int64).ravel()
        self.s_values = np.asarray(self.s_values, dtype=float)
        if self.s_values.ndim != 2:
            raise ValueError("s_values must be a 2-d array (paths x checkpoints)")
        if self.s_values.shape[1] != len(self.ns):
            raise ValueError("length mismatch: s_values columns vs checkpoints")
        if len(self.ns) == 0:
            raise ValueError("at least one checkpoint is required")
        if np.any(np.diff(self.ns) <= 0):
            raise ValueError("checkpoints must be strictly increasing")
        if np.any(self.ns < 1):
            raise ValueError("checkpoints must be >= 1")
        if np.any(self.s_values < 0):
            raise ValueError("hit counts must be nonnegative")
        if np.any(np.diff(self.s_values, axis=1) < 0):
            raise ValueError("hit counts must be nondecreasing along each path")

    @property
    def n_paths(self) -> int:
        return int(self.s_values.shape[0])

    def fingerprint(self) -> dict:
        return {
            "kind": "paths",
            "paths": self.n_paths,
            "checkpoints": [int(n) for n in self.ns],
            "sha": _table_sha(self.s_values),
        }

    def restricted(self, subsequence) -> "PathEnsemble":
        """The ensemble at a subset of its checkpoints (values, not indices)."""
        want = np.asarray(subsequence, dtype=np.int64).ravel()
        pos = np.searchsorted(self.ns, want)
        bad = (pos >= len(self.ns)) | (self.ns[np.minimum(pos, len(self.ns) - 1)] != want)
        if np.any(bad):
            missing = want[bad][:4].tolist()
            raise ValueError(f"subsequence entries not among checkpoints: {missing}")
        return PathEnsemble(ns=want, s_values=self.s_values[:, pos])


def _require_paths(paths: PathEnsemble):
    if not isinstance(paths, PathEnsemble):
        raise TypeError("paths must be a PathEnsemble")
    if paths.n_paths < 100:
        raise ValueError(
            f"too few paths: {paths.n_paths} < 100 required for stable traces"
        )


# --------------------------------------------------------------------------
# second-moment ratio criterion
# --------------------------------------------------------------------------


def check_l2(e_seq: RealSeq, var_model: RealSeq, horizon=None) -> CriterionReport:
    """Hypotheses: E_n -> infinity and Var(S_n) / E_n^2 -> 0 (conclusion: L1BC).

    ``e_seq`` must be nondecreasing (it is a sum of probabilities);
    tabulated inputs of different lengths raise ``ValueError``.
    """
    e_h = getattr(e_seq, "horizon", None)
    v_h = getattr(var_model, "horizon", None)
    if e_h is not None and v_h is not None and e_h != v_h:
        raise ValueError("length mismatch: E and Var tables cover different horizons")
    horizon = _resolve_horizon(horizon, e_seq, var_model)
    digest = _digest(op="l2", e=_seq_fingerprint(e_seq), var=_seq_fingerprint(var_model))
    grid = log_grid(max(getattr(e_seq, "start", 1), getattr(var_model, "start", 1)),
                    horizon)
    e_vals = _eval_at(e_seq, grid)
    if not _is_nonincreasing(-e_vals):
        return _precondition_report(
            "l2-variance-ratio", digest, horizon, "E_n is not nondecreasing"
        )
    v_vals = _eval_at(var_model, grid)
    if np.any(v_vals < 0):
        return _precondition_report(
            "l2-variance-ratio", digest, horizon, "variance trace has negative entries"
        )
    ratio = _quotient(v_vals, e_vals, 2)
    sym_ratio = _pl_combine(_pl_shape(var_model), _pl_shape(e_seq, e=2.0), -1)
    clauses = [
        _limit_clause("E-diverges", grid, e_vals, "inf", symbolic=_pl_shape(e_seq)),
        _limit_clause("var-ratio-vanishes", grid, ratio, "zero", symbolic=sym_ratio),
    ]
    return _report(
        "l2-variance-ratio", digest, horizon, grid, ratio, clauses,
        trace_name="Var(S_n)/E_n^2",
    )


# --------------------------------------------------------------------------
# comparison-function criteria on Monte Carlo paths
# --------------------------------------------------------------------------


def _f_trace(paths: PathEnsemble, e_vals: np.ndarray):
    """Mean and SE across paths of f((S_n - E_n)/E_n) at each checkpoint."""
    dev = huber((paths.s_values - e_vals[None, :]) / e_vals[None, :])
    mean = dev.mean(axis=0)
    se = dev.std(axis=0, ddof=1) / math.sqrt(paths.n_paths) if paths.n_paths > 1 else np.zeros_like(mean)
    return mean, se


def check_f_criteria(
    samples: PathEnsemble,
    e_seq: RealSeq,
    mode: str,
    subsequence=None,
    mu_A: RealSeq | None = None,
    horizon=None,
) -> CriterionReport:
    """Comparison-function criteria on sampled hit-count paths.

    f is the clipped square x^2/2 on [-1, 1], |x| - 1/2 outside.

    * ``mode='i'``: a subsequence n_k with E_{n_k} -> infinity and
      mean f((S - E)/E) -> 0 along it (conclusion: BC).  ``subsequence``
      selects checkpoint values (other modes refuse one); default is
      every checkpoint.  The ensemble may come from a thinned
      (triangular) sub-family.
    * ``mode='ii'``: E_n -> infinity and mean f((S_n - E_n)/E_n) -> 0
      (conclusion: L1BC).
    * ``mode='iii'``: sum over n of (p_n / E_n) * sup_{k <= n}
      mean f((S_k - E_k)/E_n) converges (conclusion: SBC).  Note the inner
      deviations are rescaled by E_n, not E_k.
    * ``mode='variance'``: sum over n of p_n E_n^{-3} sup_{k <= n}
      Var(S_k) converges (conclusion: SBC).

    ``p_n`` (the single-event mass) is taken from ``mu_A`` when given and
    otherwise from increments of ``e_seq``.
    """
    paths = samples
    _require_paths(paths)
    if mode not in ("i", "ii", "iii", "variance"):
        raise ValueError(f"unknown mode: {mode!r}")
    horizon = _resolve_horizon(horizon, e_seq, default=int(paths.ns[-1]))
    if subsequence is not None:
        if mode != "i":
            raise ValueError(f"subsequence applies to mode 'i' only, not {mode!r}")
        paths = paths.restricted(subsequence)
    keep = paths.ns <= horizon
    if not np.any(keep):
        raise ValueError("no checkpoints at or below the horizon")
    paths = PathEnsemble(paths.ns[keep], paths.s_values[:, keep])
    grid = paths.ns
    e_vals = _eval_at(e_seq, grid)
    if np.any(e_vals <= 0):
        raise ValueError("E must be positive at every checkpoint")
    digest = _digest(
        op="f-criteria", mode=mode, paths=paths.fingerprint(),
        e=_seq_fingerprint(e_seq), mu=_seq_fingerprint(mu_A),
    )
    criterion = {
        "i": "f-subsequence",
        "ii": "f-l1",
        "iii": "f-series",
        "variance": "f-variance-series",
    }[mode]
    # E-divergence is decidable exactly when either E itself or the event
    # masses have closed form (partial sums preserve the limit kind).
    e_sym = _pl_shape(e_seq)
    if e_sym is None:
        e_sym = _pl_partial_sum_asym(_pl_shape(mu_A))

    if mode in ("i", "ii"):
        trace, se = _f_trace(paths, e_vals)
        e_name = "E-diverges-along-subsequence" if mode == "i" else "E-diverges"
        clauses = [
            _limit_clause(e_name, grid, e_vals, "inf", symbolic=e_sym),
            _limit_clause(
                "f-deviation-vanishes", grid, trace, "zero",
                sigma_endpoint=float(se[-1]),
            ),
        ]
        return _report(
            criterion, digest, horizon, grid, trace, clauses,
            trace_name="mean f((S_n-E_n)/E_n)",
            extra={"trace_se": se, "n_paths": paths.n_paths},
        )

    # series modes: one term per checkpoint n
    if mu_A is not None:
        p_vals = _eval_at(mu_A, grid)
    else:
        prev = _eval_at(e_seq, np.maximum(grid - 1, 1))
        p_vals = np.where(grid > 1, e_vals - prev, e_vals)
    p_vals = np.maximum(p_vals, 0.0)
    n_ck = len(grid)
    terms = np.zeros(n_ck)
    if mode == "iii":
        centered = paths.s_values - e_vals[None, :]
        for j in range(n_ck):
            scaled = huber(centered[:, : j + 1] / e_vals[j])
            sup_f = float(scaled.mean(axis=0).max())
            terms[j] = p_vals[j] / e_vals[j] * sup_f
    else:
        variances = paths.s_values.var(axis=0, ddof=1)
        running_sup = np.maximum.accumulate(variances)
        terms = p_vals * running_sup / e_vals**3
    clauses = [
        _limit_clause("E-diverges", grid, e_vals, "inf", symbolic=e_sym),
        _series_clause("series-converges", grid, terms, want="conv"),
    ]
    return _report(
        criterion, digest, horizon, grid, terms, clauses,
        trace_name="series terms at checkpoints",
        extra={"n_paths": paths.n_paths},
    )


# --------------------------------------------------------------------------
# pairwise-decoupling criteria
# --------------------------------------------------------------------------


def _pairwise_inner_sums(alpha_vals: np.ndarray, p_vals: np.ndarray) -> np.ndarray:
    """inner[k-1] = sum_{j<=k} min(alpha_j, p_k) for k = 1..H.

    Requires alpha nonincreasing; O(H log H) via the crossover index
    m_k = #{j : alpha_j > p_k}.
    """
    h = len(p_vals)
    prefix = np.concatenate([[0.0], np.cumsum(alpha_vals)])
    m = np.searchsorted(-alpha_vals, -p_vals, side="left")
    k_idx = np.arange(1, h + 1)
    cross = np.minimum(m, k_idx)
    return p_vals * cross + (prefix[k_idx] - prefix[cross])


def check_pairwise(
    gamma: RealSeq,
    phi: RealSeq,
    alpha: RealSeq,
    p: RealSeq,
    mode: str,
    horizon=None,
) -> CriterionReport:
    """Pairwise-correlation criteria from three decay legs.

    gamma bounds the relative pair excess, phi and alpha bound absolute
    pair correlations; ``p`` gives the event probabilities P(B_k).  All
    legs live in [0, 1] and gamma must be nonincreasing.

    * ``mode='i'``: gamma_n -> 0, E_n^{-1} sum_{k<=n} phi_k -> 0, and
      E_n^{-2} sum_{k<=n} sum_{j<=k} min(alpha_j, P(B_k)) -> 0
      (conclusion: L1BC).
    * ``mode='ii'``: sum gamma_k / k, sum phi_k / E_k, and
      sum_k E_k^{-2} sum_{j<=k} min(alpha_j, P(B_k)) all converge
      (conclusion: SBC).
    """
    if mode not in ("i", "ii"):
        raise ValueError(f"unknown mode: {mode!r}")
    legs = {"gamma": gamma, "phi": phi, "alpha": alpha, "p": p}
    horizon = _resolve_horizon(horizon, *legs.values())
    digest = _digest(
        op="pairwise", mode=mode, gamma=_seq_fingerprint(gamma),
        phi=_seq_fingerprint(phi), alpha=_seq_fingerprint(alpha),
        mu=_seq_fingerprint(p),
    )
    for label, leg in legs.items():
        if getattr(leg, "start", 1) > 1:
            raise ValueError(f"{label} must start at index 1")
    values = {label: leg.array(1, horizon) for label, leg in legs.items()}
    for label, vals in values.items():
        if np.any(vals < -1e-12) or np.any(vals > 1 + 1e-12):
            raise ValueError(f"{label} values must lie in [0, 1]")
    gamma_vals, phi_vals, alpha_vals, p_vals = values.values()
    if not _is_nonincreasing(gamma_vals):
        raise ValueError("gamma must be nonincreasing")
    if not _is_nonincreasing(alpha_vals):
        raise ValueError(
            "alpha must be nonincreasing (the crossover evaluation relies on it)"
        )
    e_vals = np.cumsum(p_vals)
    if e_vals[-1] <= 0:
        raise ValueError("p carries no mass")
    inner = _pairwise_inner_sums(alpha_vals, p_vals)
    grid = log_grid(1, horizon)
    gi = grid - 1  # positions into the dense arrays

    e_pl = _pl_partial_sum_asym(_pl_shape(p))

    if mode == "i":
        with np.errstate(divide="ignore", invalid="ignore"):
            phi_trace = np.cumsum(phi_vals)[gi] / e_vals[gi]
            min_trace = np.cumsum(inner)[gi] / e_vals[gi] ** 2
        phi_sym = _pl_combine(_pl_partial_sum_asym(_pl_shape(phi)), e_pl, -1)
        clauses = [
            _limit_clause("gamma-vanishes", grid, gamma_vals[gi], "zero",
                          symbolic=_pl_shape(gamma)),
            _limit_clause("phi-average-vanishes", grid, phi_trace, "zero",
                          symbolic=phi_sym),
            _limit_clause("min-sum-vanishes", grid, min_trace, "zero"),
        ]
        return _report(
            "pairwise-l1", digest, horizon, grid, min_trace, clauses,
            trace_name="E_n^{-2} sum_{k<=n} sum_{j<=k} min(alpha_j, P(B_k))",
        )

    gamma_terms = gamma_vals / np.arange(1, horizon + 1)
    phi_terms = _quotient(phi_vals, e_vals)
    min_terms = _quotient(inner, e_vals, 2)
    clauses = [
        _series_clause("gamma-series", grid, gamma_terms[gi], want="conv",
                       symbolic=_pl_shape(gamma, s=-1.0)),
        _series_clause("phi-series", grid, phi_terms[gi], want="conv",
                       symbolic=_pl_combine(_pl_shape(phi), e_pl, -1)),
        _series_clause("min-series", grid, min_terms[gi], want="conv"),
    ]
    return _report(
        "pairwise-strong", digest, horizon, grid, min_terms[gi], clauses,
        trace_name="E_k^{-2} sum_{j<=k} min(alpha_j, P(B_k))",
    )


# --------------------------------------------------------------------------
# strong-mixing (alpha) criteria
# --------------------------------------------------------------------------


def _alpha_inverse(a_pl, dense_alpha, us):
    """(alpha^{-1}(u), beyond) for each u, or None when alpha can't be inverted.

    alpha^{-1}(u) = inf{ n : alpha_n <= u } is exact for a pure-power
    alpha and otherwise read off the nonincreasing dense table, where
    ``beyond`` marks the inverses that lie past its horizon.
    """
    pure = _pure_power(a_pl)
    if pure is not None:
        c, a = pure
        inv = np.ceil((c / np.maximum(us, 1e-300)) ** (1.0 / a))
        return np.maximum(inv, 1.0), np.zeros(len(us), dtype=bool)
    if dense_alpha is None:
        return None
    raw = np.searchsorted(-dense_alpha, -np.asarray(us, dtype=float), side="left") + 1
    return raw.astype(float), raw > len(dense_alpha)


def _inverse_series_clause(name, grid, terms, beyond, want, symbolic=None):
    """A series clause over terms built from alpha^{-1}: undecided when an
    inverse in the last decade lies past the tabulated horizon (``beyond``,
    from _alpha_inverse), else decided as _series_clause decides it."""
    if np.any(beyond[grid >= grid[-1] / 10]):
        return ClauseResult(
            name, UNDECIDED, "tail-slope",
            {"reason": "alpha inverse beyond tabulated horizon in last decade"},
        )
    return _series_clause(name, grid, terms, want, symbolic=symbolic)


def _eta_inverse(alpha_vals: np.ndarray, u: float):
    """inf{ x >= 1 real : alpha([x]) / x <= u }, with piecewise refinement.

    u must be at least 1/len(alpha_vals), and alpha within [0, 1]
    (check_alpha), so that the last lag h has eta(h) <= 1/h <= u and the
    infimum lies within the table.
    """
    h = len(alpha_vals)
    eta = alpha_vals / np.arange(1, h + 1)
    pos = np.searchsorted(-eta, -u, side="left")  # first integer m with eta(m) <= u
    m_star = pos + 1
    if m_star > 1:
        cand = alpha_vals[m_star - 2] / u if u > 0 else math.inf
        if m_star - 1 <= cand < m_star:
            return float(cand)
    return float(m_star)


# the params keys each check_alpha mode reads
_ALPHA_PARAMS = {"nested-BC": ("doubling_window",), "L1": (),
                 "strong": ("theta_grid",), "poly-1": ("a",),
                 "poly-2": ("a",), "poly-3": ("a",)}


def check_alpha(
    alpha,
    mu_A: RealSeq,
    mode: str,
    params: dict | None = None,
    horizon=None,
) -> CriterionReport:
    """Criteria driven by the alpha(infinity, 1) dependence rate.

    ``alpha`` is a MixingProfile (kind alpha_inf1) or a RealSeq, or None
    in the poly modes, which do not read it; ``mu_A`` gives the event
    masses mu(A_n).  ``params`` options (a key the mode does not read
    raises ValueError):

    * ``a`` — the polynomial decay exponent (required by poly modes);
    * ``theta_grid`` — witness exponents for ``mode='strong'``;
    * ``doubling_window`` — (lo_fraction, hi_fraction) of the horizon over
      which the halving ratio of alpha is probed in ``mode='nested-BC'``.

    Modes and their hypothesis sets:

    * ``'nested-BC'``: mu(A_n) nonincreasing, alpha nonincreasing with a
      geometric-type halving bound, mu(A_n)/alpha(n) -> infinity, and
      sum mu(A_n) / alpha^{-1}(mu(A_n)) = infinity (conclusion: BC).
    * ``'L1'``: with eta(x) = alpha([x])/x, E_n^{-1} eta^{-1}(1/n) -> 0
      (conclusion: L1BC).
    * ``'strong'``: some witness u_n = n^{-theta} makes both
      sum mu(A_n) u_n / E_n and sum mu(A_n) E_n^{-2} alpha^{-1}(E_n u_n / n)
      converge (conclusion: SBC).  No witness on the grid is reported as
      inconclusive, not violated.
    * ``'poly-1'``/``'poly-2'``/``'poly-3'``: specializations for
      alpha(n) <= C n^{-a}: divergence of sum mu(A_n)^{(a+1)/a} together
      with n^a mu(A_n) -> infinity (BC); n^{-1/(a+1)} E_n -> infinity
      (L1BC); convergence of sum n^{1/(a+1)} mu(A_n) / E_n^2 (SBC).

    Precondition failures (masses or alpha not monotone where required)
    yield a ``violated`` report with the reason, not an exception.
    """
    params = dict(params or {})
    modes = tuple(_ALPHA_PARAMS)
    if mode not in modes:
        raise ValueError(f"unknown mode: {mode!r}; expected one of {modes}")
    check_fields(f"alpha mode {mode!r} params", params, _ALPHA_PARAMS[mode])
    rate = _Rate(alpha, {ALPHA_INF1}, "alpha")
    horizon = _resolve_horizon(horizon, rate, mu_A)
    digest = _digest(
        op="alpha", mode=mode, alpha=_seq_fingerprint(alpha),
        mu=_seq_fingerprint(mu_A),
        params={k: params[k] for k in sorted(params)},
    )
    criterion = "alpha-" + mode.lower()
    mu_pl = _pl_shape(mu_A)
    e_pl = _pl_partial_sum_asym(mu_pl)
    grid, mu_grid = _on_grid(mu_A, horizon)
    mass_clause = _series_clause("mass-diverges", grid, mu_grid, want="div",
                                 symbolic=mu_pl)

    if mode.startswith("poly-"):
        if "a" not in params:
            raise ValueError("poly modes require params['a'] (the decay exponent)")
        a = float(params["a"])
        if a <= 0:
            raise ValueError("params['a'] must be positive")
        if mode == "poly-1":
            if not _is_nonincreasing(mu_grid):
                return _precondition_report(
                    criterion, digest, horizon, "mu(A_n) is not nonincreasing"
                )
            powered_terms = mu_grid ** ((a + 1) / a)
            growth_trace = grid.astype(float) ** a * mu_grid
            clauses = [
                mass_clause,
                _series_clause("powered-mass-diverges", grid, powered_terms,
                               want="div", symbolic=_pl_shape(mu_pl, e=(a + 1) / a)),
                _limit_clause("scaled-mass-diverges", grid, growth_trace, "inf",
                              symbolic=_pl_shape(mu_pl, s=a)),
            ]
            return _report(
                criterion, digest, horizon, grid, growth_trace, clauses,
                trace_name="n^a mu(A_n)", extra={"a": a},
            )
        e_grid = _eval_at(partial_sums(mu_A, horizon), grid)
        if mode == "poly-2":
            scaled = e_grid * grid.astype(float) ** (-1.0 / (a + 1))
            clauses = [
                mass_clause,
                _limit_clause("scaled-count-diverges", grid, scaled, "inf",
                              symbolic=_pl_shape(e_pl, s=-1.0 / (a + 1))),
            ]
            return _report(
                criterion, digest, horizon, grid, scaled, clauses,
                trace_name="n^{-1/(a+1)} E_n", extra={"a": a},
            )
        # poly-3
        terms = _quotient(grid.astype(float) ** (1.0 / (a + 1)) * mu_grid, e_grid, 2)
        sym = _pl_combine(_pl_shape(mu_pl, s=1.0 / (a + 1)), _pl_shape(e_pl, e=2.0), -1)
        clauses = [
            mass_clause,
            _series_clause("weighted-series-converges", grid, terms,
                           want="conv", symbolic=sym),
        ]
        return _report(
            criterion, digest, horizon, grid, terms, clauses,
            trace_name="n^{1/(a+1)} mu(A_n) / E_n^2", extra={"a": a},
        )

    # the other modes read alpha's values
    if alpha is None:
        raise ValueError(f"mode {mode!r} needs alpha")
    a_ns, a_vals = rate.on_grid(horizon)
    if len(a_vals) == 0:
        raise ValueError("alpha has no entries at or below the horizon")
    if not np.all((a_vals >= 0) & (a_vals <= 1)):
        raise ValueError("alpha values must lie in [0, 1]")
    if not _is_nonincreasing(a_vals):
        return _precondition_report(
            criterion, digest, horizon, "alpha is not nonincreasing"
        )
    a_pl = rate.shape
    dense_alpha = rate.dense(horizon)

    if mode == "nested-BC":
        if not _is_nonincreasing(mu_grid):
            return _precondition_report(
                criterion, digest, horizon, "mu(A_n) is not nonincreasing"
            )
        # halving bound alpha(2n) <= (1 - delta) alpha(n) eventually
        if a_pl is not None and a_pl.p > 0:
            halving = (HOLDS, "closed-form", {"limit_ratio": 2.0 ** (-a_pl.p)})
        elif a_pl is not None:
            halving = (FAILS, "closed-form", {
                "limit_ratio": 1.0,
                "reason": "alpha(2n)/alpha(n) -> 1 for sub-polynomial decay",
            })
        elif isinstance(alpha, GeometricSeq):
            halving = (HOLDS, "closed-form", {"limit_ratio": 0.0})
        else:
            lo_f, hi_f = params.get("doubling_window", (0.01, 0.5))
            lo_n = max(int(a_ns[0]), int(lo_f * horizon), 1)
            hi_n = int(hi_f * horizon)
            probe = a_ns[(a_ns >= lo_n) & (2 * a_ns <= min(horizon, 2 * hi_n))]
            if len(probe) < 4 or dense_alpha is None:
                halving = (UNDECIDED, "trend",
                           {"reason": "too few lags to probe alpha(2n)/alpha(n)"})
            else:
                ratios = _quotient(dense_alpha[2 * probe - 1],
                                   dense_alpha[probe - 1], fill=0.0)
                worst = float(ratios.max(initial=0.0))
                if worst <= 0.995:
                    halving = (HOLDS, "trend", {"max_ratio": worst, "delta": 1.0 - worst})
                else:
                    halving = (FAILS if worst >= 1.0 else UNDECIDED, "trend",
                               {"max_ratio": worst})
        doubling = ClauseResult("alpha-halving", *halving)
        # mu(A_n) / alpha(n) -> infinity
        keep = grid <= a_ns[-1]
        ratio_grid, mu_on_grid = grid[keep], mu_grid[keep]
        if dense_alpha is not None:
            a_on_grid = dense_alpha[ratio_grid - 1]
        else:
            a_on_grid = np.interp(ratio_grid, a_ns, a_vals)
        ratio_vals = _quotient(mu_on_grid, a_on_grid)
        finite = np.isfinite(ratio_vals)
        if np.all(finite):
            ratio_clause = _limit_clause(
                "mass-dominates-alpha", ratio_grid, ratio_vals, "inf",
                symbolic=_pl_combine(mu_pl, a_pl, -1),
            )
        elif np.all(mu_on_grid[~finite] > 0):
            ratio_clause = ClauseResult(
                "mass-dominates-alpha", HOLDS, "exact-zero",
                {"reason": "alpha vanishes while masses stay positive"},
            )
        else:
            ratio_clause = ClauseResult(
                "mass-dominates-alpha", UNDECIDED, "trend",
                {"reason": "alpha and mass both vanish on part of the grid"},
            )
        # sum mu(A_n) / alpha^{-1}(mu(A_n)) diverges
        inv_clause, inv_terms = _nested_inverse_series(
            grid, mu_grid, mu_pl, a_pl, dense_alpha
        )
        clauses = [mass_clause, doubling, ratio_clause, inv_clause]
        return _report(
            criterion, digest, horizon, grid, inv_terms, clauses,
            trace_name="mu(A_n) / alpha^{-1}(mu(A_n))",
        )

    e_grid = _eval_at(partial_sums(mu_A, horizon), grid)

    if mode == "L1":
        sym = None
        pure = _pure_power(a_pl)
        if pure is not None:
            # eta(x) ~ c x^{-(a+1)}; eta^{-1}(1/n) ~ (c n)^{1/(a+1)}
            c, a_exp = pure
            num = _pl_make(c ** (1.0 / (a_exp + 1)), -1.0 / (a_exp + 1), 0.0, 0.0, 1)
            sym = _pl_combine(num, e_pl, -1)
        if dense_alpha is None and sym is None:
            raise ValueError(
                "mode 'L1' needs alpha at every lag (closed form or a profile "
                "with consecutive lags from 1)"
            )
        trace = np.full(len(grid), np.nan)
        if dense_alpha is not None:
            for j, n in enumerate(grid):
                if e_grid[j] > 0:
                    trace[j] = (_eta_inverse(dense_alpha, 1.0 / float(n))
                                / e_grid[j])
        known = np.isfinite(trace)
        if sym is not None:
            clause = _limit_clause("eta-inverse-vanishes", grid, trace, "zero",
                                   symbolic=sym)
        elif known.sum() >= 4:
            clause = _limit_clause(
                "eta-inverse-vanishes", grid[known], trace[known], "zero"
            )
        else:  # fewer than 4 grid points: a table of a few lags
            clause = ClauseResult(
                "eta-inverse-vanishes", UNDECIDED, "trend",
                {"reason": "eta-inverse exceeds the tabulated alpha horizon"},
            )
        clauses = [mass_clause, clause]
        return _report(
            criterion, digest, horizon, grid, trace, clauses,
            trace_name="eta^{-1}(1/n) / E_n",
        )

    # mode == "strong": witness search over u_n = n^{-theta}
    theta_grid = tuple(params.get("theta_grid", _THETA_GRID))
    attempts = []
    witness = None
    for theta in theta_grid:
        u_grid = grid.astype(float) ** (-theta)
        s1 = _quotient(mu_grid * u_grid, e_grid)
        s1_sym = _pl_combine(_pl_shape(mu_pl, s=-theta), e_pl, -1)
        c1 = _series_clause(f"mass-series(theta={theta})", grid, s1, want="conv",
                            symbolic=s1_sym)
        inverse = _alpha_inverse(a_pl, dense_alpha,
                                 e_grid * u_grid / grid.astype(float))
        if inverse is None:
            attempts.append({"theta": theta, "status": "alpha not dense enough"})
            continue
        inv_vals, beyond = inverse
        s2 = _quotient(mu_grid * inv_vals, e_grid, 2)
        c2 = _inverse_series_clause(f"inverse-series(theta={theta})", grid, s2,
                                    beyond, want="conv")
        attempts.append({
            "theta": theta,
            "mass_series": c1.outcome,
            "inverse_series": c2.outcome,
        })
        if c1.outcome == HOLDS and c2.outcome == HOLDS:
            witness = (theta, c1, c2, s2)
            break
    if witness is not None:
        theta, c1, c2, s2 = witness
        clauses = [mass_clause, c1, c2]
        return _report(
            criterion, digest, horizon, grid, s2, clauses,
            trace_name="mu(A_n) alpha^{-1}(E_n u_n / n) / E_n^2",
            extra={"witness_theta": theta, "attempts": attempts},
        )
    no_witness = ClauseResult(
        "witness-search", UNDECIDED, "witness-grid",
        {"reason": "no witness found on the theta grid", "attempts": attempts},
    )
    clauses = [mass_clause, no_witness]
    return _report(
        criterion, digest, horizon, grid, np.full(len(grid), np.nan), clauses,
        trace_name="no witness", extra={"attempts": attempts},
    )


def _nested_inverse_series(grid, mu_grid, mu_pl, a_pl, dense_alpha):
    """Clause: sum mu(A_n) / alpha^{-1}(mu(A_n)) diverges."""
    name = "inverse-weighted-mass-diverges"
    inverse = _alpha_inverse(a_pl, dense_alpha, mu_grid)
    if inverse is None:
        return (
            ClauseResult(
                name, UNDECIDED, "tail-slope",
                {"reason": "alpha not dense enough to invert"},
            ),
            np.full(len(grid), np.nan),
        )
    inv, beyond = inverse
    terms = np.where(mu_grid > 0, mu_grid / inv, 0.0)
    # for alpha = c n^{-a}, c > 0, the terms are mu * (mu/c)^{1/a}
    sym = None
    pure = _pure_power(a_pl)
    if pure is not None and pure[0] > 0:
        c, a = pure
        sym = _pl_combine(_pl_shape(mu_pl, e=1.0 + 1.0 / a),
                          _pl_make(c ** (-1.0 / a), 0.0, 0.0, 0.0, 0), +1)
    return _inverse_series_clause(name, grid, terms, beyond, want="div",
                                  symbolic=sym), terms


# --------------------------------------------------------------------------
# beta / quantile-envelope criterion
# --------------------------------------------------------------------------


def check_beta_strong(
    beta,
    qstar,
    qstar_bound: float | None = None,
    horizon=None,
) -> CriterionReport:
    """Hypothesis: sum over j of beta(j) Q*(beta(j)) / j converges (SBC).

    ``beta`` is a MixingProfile (kind beta_inf1) or a nonincreasing RealSeq;
    ``qstar`` is a callable u -> Q*(u) with Q*(0) = 0 and Q*(u) >= 1 for
    u > 0.  ``qstar_bound``, when given, is a finite bound >= 1 certifying
    sup_u Q*(u) <= bound; it enables an exact convergent majorant for
    closed-form beta.  The exact divergent minorant sum beta(j)/j needs no
    bound (Q* >= 1).
    """
    if not callable(qstar):
        raise TypeError("qstar must be callable")
    if qstar_bound is not None and not (math.isfinite(qstar_bound) and qstar_bound >= 1):
        raise ValueError("qstar_bound must be finite and >= 1 (Q* is at least 1 "
                         "where positive)")
    rate = _Rate(beta, {BETA_INF1}, "beta")
    horizon = _resolve_horizon(horizon, rate)
    digest = _digest(
        op="beta-strong", beta=_seq_fingerprint(beta),
        bound=qstar_bound if qstar_bound is not None else "none",
    )
    b_ns, b_vals = rate.on_grid(horizon)
    if len(b_vals) == 0:
        raise ValueError("beta has no entries at or below the horizon")
    if not _is_nonincreasing(b_vals):
        raise ValueError("beta must be nonincreasing")
    if np.any(b_vals < 0) or np.any(b_vals > 1 + 1e-12):
        raise ValueError("beta values must lie in [0, 1]")

    terms = np.zeros(len(b_ns))
    q_vals = np.zeros(len(b_ns))
    for i, (n, b) in enumerate(zip(b_ns, b_vals)):
        if b <= 0:
            continue
        q = float(qstar(float(b)))
        if not (math.isfinite(q) and q >= 1 - 1e-12):
            raise ValueError(f"qstar returned {q!r} at a positive argument: a value "
                             "below 1 or not finite")
        q_vals[i] = q
        terms[i] = b * q / float(n)

    minorant = _pl_shape(rate.shape, s=-1.0)
    conv = minorant.series_converges() if minorant is not None else None
    if conv is False:
        # Q* >= 1, so the full series dominates a divergent one
        clause = ClauseResult(
            "envelope-series-converges", FAILS, "closed-form",
            {"reason": "sum beta(j)/j diverges and Q* >= 1"},
        )
    elif conv is True and qstar_bound is not None:
        clause = ClauseResult(
            "envelope-series-converges", HOLDS, "closed-form",
            {"reason": f"sum beta(j)/j converges and Q* <= {qstar_bound}"},
        )
    else:
        clause = _series_clause("envelope-series-converges", b_ns, terms, want="conv")
    return _report(
        "beta-qstar-series", digest, horizon, b_ns, terms, [clause],
        trace_name="beta(j) Q*(beta(j)) / j",
        extra={"qstar_values": q_vals, "qstar_bound": qstar_bound},
    )


# --------------------------------------------------------------------------
# tilde-coefficient (conditional half-line) criteria
# --------------------------------------------------------------------------


def check_tilde(
    tb,
    mu_I: RealSeq,
    lq_bound: float | None = None,
    p: float = 1.0,
    mode: str = "i",
    limsup_floor=None,
    horizon=None,
) -> CriterionReport:
    """Criteria driven by conditional half-line dependence rates.

    ``tb`` is the tilde coefficient: a MixingProfile of kind
    tilde_beta11 or tilde_beta_rev (modes i-iii; the reversed-time
    variant is interchangeable here) or tilde_phi11 (modes iv-v), or a
    plain RealSeq.  ``mu_I`` gives the event masses.  Modes:

    * ``'i'``   - positive limsup mass and sum of the rate converges (BC).
      Requires ``limsup_floor``: a float or an object with a ``floor``
      attribute (a union-mass lower estimate for the limsup set).
    * ``'ii'``  - E_n^{-p} sum_{k<n} k^{p-1} rate(k) -> 0 and the
      L^q-ratio bound is finite, q conjugate to p (L1BC).
      Requires ``lq_bound``.
    * ``'iii'`` - sum_n mu(I_n) E_n^{-2} (sum_{k<n} k^{p-1} rate(k))^{1/p}
      converges, plus the same L^q bound (SBC).
    * ``'iv'``  - E_n^{-1} sum_{k<n} rate(k) -> 0 (L1BC).
    * ``'v'``   - sum_n rate(n) / E_n converges (SBC).
    """
    if mode not in ("i", "ii", "iii", "iv", "v"):
        raise ValueError(f"unknown mode: {mode!r}")
    p = float(p)
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and >= 1, not {p!r}")
    if mode in ("i", "ii", "iii"):
        kinds = {TILDE_BETA11, TILDE_BETA_REV}
    else:
        kinds = {TILDE_PHI11}
    rate = _Rate(tb, kinds, "rate")
    horizon = _resolve_horizon(horizon, rate, mu_I)
    digest = _digest(
        op="tilde", mode=mode, p=p, rate=_seq_fingerprint(tb),
        mu=_seq_fingerprint(mu_I),
        lq=lq_bound if lq_bound is not None else "none",
    )
    criterion = f"tilde-{mode}"
    grid, mu_grid = _on_grid(mu_I, horizon)
    mu_pl = _pl_shape(mu_I)
    mass_clause = _series_clause("mass-diverges", grid, mu_grid, want="div",
                                 symbolic=mu_pl)
    if mu_grid[0] <= 0:
        return _precondition_report(
            criterion, digest, horizon, "the first event carries no mass"
        )
    r_pl = rate.shape

    if mode == "i":
        if limsup_floor is None:
            raise ValueError(
                "mode 'i' requires limsup_floor (a float or an object with a "
                "'floor' attribute, e.g. a limsup probe report)"
            )
        floor = float(getattr(limsup_floor, "floor", limsup_floor))
        positive = floor > FLAT_FLOOR
        floor_clause = ClauseResult(
            "limsup-mass-positive", HOLDS if positive else FAILS, "probe-floor",
            {"floor": floor} if positive
            else {"floor": floor, "reason": "no evidence of positive limsup mass"},
        )
        r_ns, r_vals = rate.on_grid(horizon)
        series = _series_clause("rate-series-converges", r_ns, r_vals,
                                want="conv", symbolic=r_pl)
        clauses = [mass_clause, floor_clause, series]
        return _report(
            criterion, digest, horizon, r_ns, r_vals, clauses,
            trace_name="rate(k)",
        )

    e_tab = partial_sums(mu_I, horizon)
    e_grid = _eval_at(e_tab, grid)
    e_pl = _pl_partial_sum_asym(mu_pl)

    if mode == "v":
        r_ns, r_vals = rate.on_grid(horizon)
        keep = r_ns >= grid[0]
        probe = r_ns[keep]
        terms = _quotient(r_vals[keep], _eval_at(e_tab, probe))
        clause = _series_clause("phi-series-converges", probe, terms,
                                want="conv", symbolic=_pl_combine(r_pl, e_pl, -1))
        clauses = [mass_clause, clause]
        return _report(
            criterion, digest, horizon, probe, terms, clauses,
            trace_name="rate(n) / E_n",
        )

    # modes ii-iv: cumulative sums of the rate, weighted by k^{p-1} in ii/iii
    if mode == "iv":
        r_dense = rate.dense(horizon, required=True)
    else:
        if lq_bound is None:
            raise ValueError(
                f"mode {mode!r} requires lq_bound (sup_n E_n^-1 ||sum of "
                "indicators||_q, q conjugate to p); missing lq_bound"
            )
        bounded = math.isfinite(lq_bound) and lq_bound > 0
        bound_clause = ClauseResult(
            "lq-ratio-bounded", HOLDS if bounded else FAILS, "given-bound",
            {"bound": float(lq_bound) if bounded else lq_bound},
        )
        weights = np.arange(1, horizon + 1, dtype=float) ** (p - 1.0)
        r_dense = weights * rate.dense(horizon, required=True)
    cum = np.concatenate([[0.0], np.cumsum(r_dense)])
    sums_before = cum[np.maximum(grid - 1, 0)]

    if mode == "iv":
        trace = _quotient(sums_before, e_grid)
        sym = _pl_combine(_pl_partial_sum_asym(r_pl), e_pl, -1)
        clause = _limit_clause("phi-average-vanishes", grid, trace, "zero",
                               symbolic=sym)
        clauses = [mass_clause, clause]
        return _report(
            criterion, digest, horizon, grid, trace, clauses,
            trace_name="E_n^{-1} sum_{k<n} rate(k)",
        )
    inner_sym = _pl_partial_sum_asym(_pl_shape(r_pl, s=p - 1.0))
    if mode == "ii":
        trace = _quotient(sums_before, e_grid, p)
        sym = _pl_combine(inner_sym, _pl_shape(e_pl, e=p), -1)
        clauses = [
            mass_clause,
            _limit_clause("weighted-average-vanishes", grid, trace, "zero",
                          symbolic=sym),
            bound_clause,
        ]
        return _report(
            criterion, digest, horizon, grid, trace, clauses,
            trace_name="E_n^{-p} sum_{k<n} k^{p-1} rate(k)",
        )
    # mode iii
    terms = _quotient(mu_grid * sums_before ** (1.0 / p), e_grid, 2)
    num = _pl_combine(mu_pl, _pl_shape(inner_sym, e=1.0 / p), +1)
    sym = _pl_combine(num, _pl_shape(e_pl, e=2.0), -1)
    clauses = [
        mass_clause,
        _series_clause("weighted-series-converges", grid, terms, want="conv",
                       symbolic=sym),
        bound_clause,
    ]
    return _report(
        criterion, digest, horizon, grid, terms, clauses,
        trace_name="mu(I_n) E_n^{-2} (sum_{k<n} k^{p-1} rate(k))^{1/p}",
    )


# --------------------------------------------------------------------------
# renewal-divergence criterion for nested families
# --------------------------------------------------------------------------


def check_renewal_nested(
    nu_A: RealSeq,
    nested: bool = True,
    horizon=None,
) -> CriterionReport:
    """Hypothesis: the family is nested and its renewal-measure masses
    nu(A_k) sum to infinity (conclusion: BC for regenerating chains whose
    excursion-entry law is nu).

    ``nu_A`` gives nu(A_k); ``nested`` asserts A_1 ⊇ A_2 ⊇ ... (the caller
    certifies the geometry; a non-nested family yields ``violated``).
    """
    horizon = _resolve_horizon(horizon, nu_A)
    digest = _digest(op="renewal-nested", nu=_seq_fingerprint(nu_A),
                     nested=bool(nested))
    if not nested:
        return _precondition_report(
            "renewal-nested", digest, horizon, "family is not nested"
        )
    grid, terms = _on_grid(nu_A, horizon)
    if np.any(terms < 0):
        return _precondition_report(
            "renewal-nested", digest, horizon, "nu(A_k) has negative entries"
        )
    if not _is_nonincreasing(terms):
        return _precondition_report(
            "renewal-nested", digest, horizon,
            "nu(A_k) is not nonincreasing (family cannot be nested)",
        )
    clause = _series_clause("renewal-mass-diverges", grid, terms, want="div",
                            symbolic=_pl_shape(nu_A))
    return _report(
        "renewal-nested", digest, horizon, grid, terms, [clause],
        trace_name="nu(A_k)",
    )
