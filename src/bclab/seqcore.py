"""Sequence and quantile primitives shared by the rest of the package.

Real sequences come in two kinds: closed-form templates (power-log and
geometric) that expose exact limit and summability answers, and tabulated
arrays with a finite horizon.  Quantile functions are right-continuous step
functions on (0, 1], built as generalized inverses of tail functions of
finite discrete laws.  Everything here is pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NONINCREASING = "nonincreasing"
NONDECREASING = "nondecreasing"
NO_MONOTONE = "none"


class HorizonExhausted(Exception):
    """A tabulated sequence ended before a qualifying term was found."""


class SeqDomainError(ValueError):
    """Inputs outside a sequence's declared domain or contract."""


class InfiniteIndex:
    """Sentinel for 'no index ever qualifies'.

    Compares above every integer but supports no arithmetic, so it cannot
    leak into a sum as a float infinity would.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF_INDEX"

    def __gt__(self, other):
        return not isinstance(other, InfiniteIndex)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, InfiniteIndex)


INF_INDEX = InfiniteIndex()


def is_finite_index(x) -> bool:
    return not isinstance(x, InfiniteIndex)


# ---------------------------------------------------------------------------
# Real sequences


class RealSeq:
    """Base class: a sequence v_n of finite nonnegative reals, n >= start."""

    start: int = 1
    monotone: str = NO_MONOTONE

    @property
    def horizon(self):
        """Last defined index, or None when the sequence is unbounded."""
        return None

    def eval(self, n: int) -> float:
        raise NotImplementedError

    def array(self, lo: int, hi: int) -> np.ndarray:
        """Values v_lo..v_hi inclusive."""
        raise NotImplementedError

    # Closed-form escape hatches; tabulated sequences answer None ("unknown").

    def limit_kind(self):
        """One of 'zero', 'inf', 'const', or None when not provable."""
        return None

    def series_converges(self):
        """Exact integral-test answer for sum(v_n), or None."""
        return None

    def powered(self, e: float):
        """Closed form of v_n**e, or None."""
        return None

    def scaled_by_power(self, s: float):
        """Closed form of n**s * v_n, or None."""
        return None

    def check_nonincreasing(self, upto: int) -> bool:
        vals = self.array(self.start, upto)
        return bool(np.all(np.diff(vals) <= 1e-15))

    def _require_in_domain(self, n: int):
        if n < self.start:
            raise SeqDomainError(f"index {n} below sequence start {self.start}")
        h = self.horizon
        if h is not None and n > h:
            raise HorizonExhausted(f"index {n} beyond horizon {h}")


@dataclass(frozen=True, eq=False)
class TabulatedSeq(RealSeq):
    values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    start: int = 1
    monotone: str = NO_MONOTONE

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise SeqDomainError("tabulated sequence needs a nonempty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise SeqDomainError("tabulated sequence has non-finite entries")
        if np.any(vals < -1e-12):
            raise SeqDomainError("sequence terms must be >= 0")
        object.__setattr__(self, "values", np.maximum(vals, 0.0))

    @property
    def horizon(self):
        return self.start + len(self.values) - 1

    def eval(self, n: int) -> float:
        self._require_in_domain(n)
        return float(self.values[n - self.start])

    def array(self, lo: int, hi: int) -> np.ndarray:
        self._require_in_domain(lo)
        self._require_in_domain(hi)
        return self.values[lo - self.start : hi - self.start + 1]


@dataclass(frozen=True)
class PowerLogSeq(RealSeq):
    """v_n = c * n**(-p) * log(n + shift)**(-q), natural log.

    Covers constants (p = q = 0), pure powers, and logarithmic corrections
    such as 1/log(n+2).  Exponents may be negative to describe growth.
    """

    c: float = 1.0
    p: float = 0.0
    q: float = 0.0
    shift: float = 0.0
    start: int = 1

    def __post_init__(self):
        if self.c < 0:
            raise SeqDomainError("coefficient c must be >= 0")
        if self.start < 0:
            raise SeqDomainError("start must be >= 0")
        if self.p != 0 and self.start < 1:
            raise SeqDomainError("power terms need start >= 1")
        if self.q != 0 and self.start + self.shift < 2:
            raise SeqDomainError("log terms need start + shift >= 2 so log > 0")

    @property
    def monotone(self):
        if self.c == 0 or (self.p == 0 and self.q == 0):
            return NONINCREASING  # constant counts as both; callers want this one
        if self.p >= 0 and self.q >= 0:
            return NONINCREASING
        if self.p <= 0 and self.q <= 0:
            return NONDECREASING
        return NO_MONOTONE

    def eval(self, n: int) -> float:
        self._require_in_domain(n)
        return float(self.array(n, n)[0])

    def array(self, lo: int, hi: int) -> np.ndarray:
        self._require_in_domain(lo)
        ns = np.arange(lo, hi + 1, dtype=float)
        out = np.full(ns.shape, float(self.c))
        if self.p != 0:
            out *= ns ** (-self.p)
        if self.q != 0:
            out *= np.log(ns + self.shift) ** (-self.q)
        return out

    def log_eval(self, n) -> float:
        """log v_n computed without overflow; n may be a big integer."""
        if self.c == 0:
            return -math.inf
        out = math.log(self.c)
        if self.p != 0:
            out -= self.p * math.log(n)
        if self.q != 0:
            out -= self.q * math.log(math.log(n + self.shift))
        return out

    def limit_kind(self):
        if self.c == 0:
            return "zero"
        if self.p > 0 or (self.p == 0 and self.q > 0):
            return "zero"
        if self.p < 0 or (self.p == 0 and self.q < 0):
            return "inf"
        return "const"

    def series_converges(self):
        if self.c == 0:
            return True
        if self.p > 1:
            return True
        if self.p < 1:
            return False
        return self.q > 1

    def powered(self, e: float):
        return PowerLogSeq(self.c**e, self.p * e, self.q * e, self.shift, self.start)

    def scaled_by_power(self, s: float):
        return PowerLogSeq(self.c, self.p - s, self.q, self.shift, self.start)


@dataclass(frozen=True)
class GeometricSeq(RealSeq):
    """v_n = c * r**n for n >= start."""

    c: float = 1.0
    r: float = 0.5
    start: int = 0

    def __post_init__(self):
        if self.c < 0 or self.r < 0:
            raise SeqDomainError("geometric sequence needs c, r >= 0")

    @property
    def monotone(self):
        return NONINCREASING if self.r <= 1 else NONDECREASING

    def eval(self, n: int) -> float:
        self._require_in_domain(n)
        return float(self.c * self.r**n)

    def array(self, lo: int, hi: int) -> np.ndarray:
        self._require_in_domain(lo)
        ns = np.arange(lo, hi + 1, dtype=float)
        with np.errstate(over="ignore"):
            return self.c * self.r**ns

    def log_eval(self, n) -> float:
        if self.c == 0 or self.r == 0:
            return -math.inf
        return math.log(self.c) + n * math.log(self.r)

    def limit_kind(self):
        if self.c == 0 or self.r < 1:
            return "zero"
        if self.r == 1:
            return "const"
        return "inf"

    def series_converges(self):
        if self.c == 0:
            return True
        return self.r < 1


def constant_seq(c: float, start: int = 1) -> PowerLogSeq:
    return PowerLogSeq(c=c, start=start)


def power_seq(c: float, p: float, start: int = 1) -> PowerLogSeq:
    """c * n**(-p); p > 0 decays, p < 0 grows."""
    return PowerLogSeq(c=c, p=p, start=start)


# ---------------------------------------------------------------------------
# Prefix sums and the decreasing-sequence inverse


def partial_sums(v: RealSeq, n: int) -> TabulatedSeq:
    """Prefix-sum sequence E_m = sum(v_k, k = start..m) for m up to start+n-1."""
    if n < 1:
        raise SeqDomainError("partial_sums needs n >= 1")
    vals = v.array(v.start, v.start + n - 1)
    return TabulatedSeq(np.cumsum(vals), start=v.start, monotone=NONDECREASING)


def inverse_sequence(v: RealSeq, u: float):
    """Smallest index n with v_n <= u, for nonincreasing v.

    Returns INF_INDEX when the closed form provably stays above u forever.
    Tabulated sequences that end before a qualifying term raise
    HorizonExhausted instead: the evidence is merely insufficient.
    """
    if u < 0:
        raise SeqDomainError("inverse_sequence needs u >= 0")

    if isinstance(v, TabulatedSeq):
        if not v.check_nonincreasing(v.horizon):
            raise SeqDomainError("tabulated sequence is not nonincreasing")
        hits = np.nonzero(v.values <= u)[0]
        if hits.size == 0:
            raise HorizonExhausted(
                f"no term <= {u} within tabulated horizon {v.horizon}"
            )
        return v.start + int(hits[0])

    if v.monotone != NONINCREASING:
        raise SeqDomainError("inverse_sequence needs a nonincreasing sequence")
    if v.eval(v.start) <= u:
        return v.start
    kind = v.limit_kind()
    if kind == "const":
        return INF_INDEX  # constant c > u forever
    if kind != "zero":
        raise SeqDomainError("nonincreasing closed form with no provable limit")
    if u == 0:
        return INF_INDEX  # positive terms never reach 0

    # Doubling then bisection, in log space so astronomically large indices
    # cannot overflow a float.
    log_u = math.log(u)
    lo = v.start
    hi = max(2 * lo, lo + 1)
    while v.log_eval(hi) > log_u:
        lo = hi
        hi *= 2
        if hi > 2**1100:  # pragma: no cover - absurd inputs only
            raise SeqDomainError("inverse index beyond 2**1100; refusing")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if v.log_eval(mid) > log_u:
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# The comparison function f


def huber(x):
    """Piecewise comparison function: x**2/2 on [-1, 1], |x| - 1/2 outside.

    Convex, even, vanishing only at 0, with 1-Lipschitz derivative; accepts
    scalars or arrays.
    """
    ax = np.abs(x)
    return np.where(ax <= 1.0, 0.5 * ax * ax, ax - 0.5)


# ---------------------------------------------------------------------------
# Quantile step functions


@dataclass(frozen=True, eq=False)
class QuantileFn:
    """Nonincreasing step function on (0, 1].

    Piece i takes the value levels[i] on (breakpoints[i-1], breakpoints[i]],
    with breakpoints[-1] treated as 0 and the final breakpoint equal to 1.
    Point values at the jump locations follow that half-open convention; all
    integrals are exact and independent of it.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        lv = np.asarray(self.levels, dtype=float)
        if bp.ndim != 1 or bp.size == 0 or bp.shape != lv.shape:
            raise ValueError("breakpoints and levels must be matching 1-d arrays")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if bp[0] <= 0 or abs(bp[-1] - 1.0) > 1e-9:
            raise ValueError("breakpoints must lie in (0, 1] and end at 1")
        if np.any(lv < 0):
            raise ValueError("levels must be >= 0")
        if np.any(np.diff(lv) > 1e-12):
            raise ValueError("levels must be nonincreasing in u")
        bp = bp.copy()
        bp[-1] = 1.0
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    def eval(self, u: float) -> float:
        if u < 0 or u > 1:
            raise ValueError("quantile argument outside [0, 1]")
        if u == 0:
            return float(self.levels[0])
        idx = int(np.searchsorted(self.breakpoints, u, side="left"))
        return float(self.levels[idx])

    def integral(self, u: float) -> float:
        """Exact value of integral of Q over (0, u]."""
        if u < 0 or u > 1:
            raise ValueError("integration bound outside [0, 1]")
        if u == 0:
            return 0.0
        bp = self.breakpoints
        idx = int(np.searchsorted(bp, u, side="left"))
        left = np.concatenate(([0.0], bp[:-1]))
        full = float(np.dot(bp[:idx] - left[:idx], self.levels[:idx]))
        partial = (u - (left[idx] if idx < bp.size else bp[-1])) * (
            self.levels[idx] if idx < bp.size else 0.0
        )
        return full + float(partial)

    def mean(self) -> float:
        return self.integral(1.0)


def quantile_from_weights(levels) -> QuantileFn:
    """Quantile function of a finite discrete law given as (value, prob) pairs.

    The result is the generalized inverse of the tail function
    t -> P(Z > t): the largest value occupies (0, p_top], and so on down.
    """
    pairs = list(levels)
    if not pairs:
        raise ValueError("empty law")
    vals = np.array([float(v) for v, _ in pairs])
    probs = np.array([float(p) for _, p in pairs])
    if np.any(vals < 0):
        raise ValueError("values must be >= 0 for quantile construction")
    if np.any(probs < -1e-15):
        raise ValueError("negative probability")
    total = probs.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total}, not 1")

    order = np.argsort(-vals, kind="stable")
    vals, probs = vals[order], probs[order]
    # merge duplicate values, drop zero-mass atoms
    uniq_vals, starts = np.unique(-vals, return_index=True)
    uniq_vals = -uniq_vals
    merged = np.add.reduceat(probs, starts)
    keep = merged > 0
    uniq_vals, merged = uniq_vals[keep], merged[keep]
    bp = np.cumsum(merged)
    bp[-1] = 1.0
    return QuantileFn(bp, uniq_vals)


@dataclass(frozen=True)
class EnvelopeEval:
    value: float
    attained_by: int  # index into the supplied family; -1 at u = 0


def quantile_envelope(family, u: float) -> EnvelopeEval:
    """Normalized supremum of truncated quantile integrals over a family.

    Returns 0 at u = 0, else (1/u) * max over the family of the integral of
    Q over (0, u], together with the attaining index.  The family is the
    finite evidence available; callers report its horizon separately.
    """
    fam = list(family)
    if not fam:
        raise ValueError("empty quantile family")
    if u < 0 or u > 1:
        raise ValueError("u outside [0, 1]")
    if u == 0:
        return EnvelopeEval(0.0, -1)
    integrals = [q.integral(u) for q in fam]
    best = int(np.argmax(integrals))
    return EnvelopeEval(integrals[best] / u, best)


UI_SAYS_YES = "uniformly-integrable-on-evidence"
UI_SAYS_NO = "not-uniformly-integrable"
UI_UNDECIDED = "inconclusive"


@dataclass(frozen=True, eq=False)
class UIReport:
    eps: np.ndarray
    trace: np.ndarray  # per-eps sup over the family of integral(Q, eps)
    slope: float
    verdict: str


def ui_diagnostic(family, eps_grid) -> UIReport:
    """Uniform-integrability diagnostic from truncated quantile integrals.

    Trend rule, decided at finite evidence: fitted log-log slope >= 0.1
    means the sup trace decays like a positive power, flat traces with a
    floor >= 1e-3 witness a failure, anything else is inconclusive.
    """
    fam = list(family)
    if not fam:
        raise ValueError("empty quantile family")
    eps = np.asarray(list(eps_grid), dtype=float)
    if eps.size == 0 or np.any(eps <= 0) or np.any(eps > 1):
        raise ValueError("eps grid must lie in (0, 1]")
    if np.any(np.diff(eps) > 0):
        raise ValueError("eps grid must be sorted decreasing")

    trace = np.array([max(q.integral(e) for q in fam) for e in eps])
    if trace.max() <= 1e-12:
        return UIReport(eps, trace, math.nan, UI_SAYS_YES)
    if trace.max() - trace.min() <= 1e-6 and trace.min() >= 1e-3:
        return UIReport(eps, trace, 0.0, UI_SAYS_NO)
    pos = trace > 0
    if pos.sum() < 2 or np.unique(eps[pos]).size < 2:
        return UIReport(eps, trace, math.nan, UI_UNDECIDED)
    slope = float(np.polyfit(np.log(eps[pos]), np.log(trace[pos]), 1)[0])
    verdict = UI_SAYS_YES if slope >= 0.1 else UI_UNDECIDED
    return UIReport(eps, trace, slope, verdict)


# ---------------------------------------------------------------------------
# JSON round trip for sequence templates (used by the CLI)


def seq_to_json(v: RealSeq) -> dict:
    if isinstance(v, PowerLogSeq):
        return {
            "template": "powerlog",
            "c": v.c,
            "p": v.p,
            "q": v.q,
            "shift": v.shift,
            "start": v.start,
        }
    if isinstance(v, GeometricSeq):
        return {"template": "geometric", "c": v.c, "r": v.r, "start": v.start}
    if isinstance(v, TabulatedSeq):
        return {
            "template": "tabulated",
            "values": [float(x) for x in v.values],
            "start": v.start,
        }
    raise TypeError(f"cannot serialize {type(v).__name__}")


def check_fields(what: str, d: dict, allowed) -> None:
    """Raise ValueError naming every key of the JSON object d not in allowed,
    so a misspelt field is an error rather than a silent default."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"{what} has unknown fields {unknown}")


# template: (constructor, {field: default}); each value is coerced to the
# type of its default
_SEQ_TEMPLATES = {
    "powerlog": (PowerLogSeq,
                 {"c": 1.0, "p": 0.0, "q": 0.0, "shift": 0.0, "start": 1}),
    "power": (power_seq, {"c": 1.0, "p": 0.0, "start": 1}),
    "constant": (constant_seq, {"c": 1.0, "start": 1}),
    "geometric": (GeometricSeq, {"c": 1.0, "r": 0.5, "start": 0}),
}


def seq_from_json(obj: dict) -> RealSeq:
    kind = obj.get("template", "powerlog")
    if kind == "tabulated":
        check_fields("sequence 'tabulated'", obj, ("template", "values", "start"))
        return TabulatedSeq(
            np.asarray(obj["values"], dtype=float), start=int(obj.get("start", 1))
        )
    if kind not in _SEQ_TEMPLATES:
        raise ValueError(f"unknown sequence template {kind!r}")
    make, defaults = _SEQ_TEMPLATES[kind]
    check_fields(f"sequence {kind!r}", obj, ("template", *defaults))
    return make(**{k: type(v)(obj.get(k, v)) for k, v in defaults.items()})
