"""Interval algebra on the line and the torus, with measure oracles.

Intervals are half-open [lo, hi), which removes any ambiguity at shared
endpoints.  Torus intervals may wrap (lo > hi) and are split lazily into at
most two line pieces inside algorithms.  All piece manipulation below only
ever copies existing endpoints, never invents new floats, so set identities
hold exactly on point grids.  A family of targets A_k is defined once, by
its vector form bounds(lo, hi) on a window of indices; its Interval objects
are read from those rows, and runs walk the family window by window.
"""

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .seqcore import JSON_CODECS, Codec, RealSeq

LINE = "line"
TORUS = "torus"


@dataclass(frozen=True)
class Interval:
    space: Literal[LINE, TORUS] = LINE
    lo: float = 0.0
    hi: float = 0.0
    full: bool = False  # torus only: the whole circle

    def __post_init__(self):
        if self.space not in (LINE, TORUS):
            raise ValueError(f"unknown space {self.space!r}")
        if self.space == LINE:
            if self.full:
                raise ValueError("full flag is torus-only")
            if self.lo > self.hi:
                raise ValueError("line interval needs lo <= hi")
        else:
            if not (0 <= self.lo < 1 and 0 <= self.hi < 1):
                raise ValueError("torus endpoints must lie in [0, 1)")

    @staticmethod
    def line(lo: float, hi: float) -> "Interval":
        return Interval(LINE, lo, hi)

    @staticmethod
    def torus(lo: float, hi: float) -> "Interval":
        return Interval(TORUS, lo, hi)

    @staticmethod
    def full_torus() -> "Interval":
        return Interval(TORUS, 0.0, 0.0, full=True)

    @property
    def wraps(self) -> bool:
        return self.space == TORUS and not self.full and self.lo > self.hi

    @property
    def is_empty(self) -> bool:
        if self.full:
            return False
        return self.lo == self.hi if self.space == TORUS else self.hi <= self.lo

    @property
    def length(self) -> float:
        if self.space == LINE:
            return max(0.0, self.hi - self.lo)
        if self.full:
            return 1.0
        if self.wraps:
            return (1.0 - self.lo) + self.hi
        return self.hi - self.lo

    def pieces(self):
        """Split into nonempty half-open line pieces (on [0,1) for the torus)."""
        if self.is_empty:
            return []
        if self.full:
            return [(0.0, 1.0)]
        if self.wraps:
            return [(self.lo, 1.0)] + ([(0.0, self.hi)] if self.hi > 0.0 else [])
        return [(self.lo, self.hi)]

    def contains(self, x):
        """Membership test, vectorized; uses the half-open convention."""
        x = np.asarray(x)
        if self.full:
            return np.ones(x.shape, dtype=bool)
        if self.wraps:
            return (x >= self.lo) | (x < self.hi)
        return (x >= self.lo) & (x < self.hi)


# ---------------------------------------------------------------------------
# Piece-list helpers.  A piece list is a list of (lo, hi) half-open pairs,
# kept sorted and disjoint.  Only existing endpoints are ever emitted.


def normalize_pieces(raw):
    """Sort, drop empties, and merge overlapping or touching pieces."""
    ps = [(lo, hi) for lo, hi in raw if hi > lo]
    ps.sort()
    out = []
    for lo, hi in ps:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def subtract_pieces(a, b):
    """Set difference of piece lists, exact at endpoints."""
    b = normalize_pieces(b)
    out = []
    for lo, hi in a:
        cur = lo
        for blo, bhi in b:
            if bhi <= cur:
                continue
            if blo >= hi:
                break
            if blo > cur:
                out.append((cur, blo))
            cur = max(cur, bhi)
            if cur >= hi:
                break
        if cur < hi:
            out.append((cur, hi))
    return out


# ---------------------------------------------------------------------------
# Measure oracles: probability measures on the carrier, evaluated through a
# cdf so that finite unions are exact sums over merged pieces.


class MeasureOracle:
    """cdf-backed probability measure; subclasses provide cdf on the carrier."""

    def cdf(self, x):
        raise NotImplementedError

    def measure(self, iv: Interval) -> float:
        return self.measure_pieces(iv.pieces())

    def measure_pieces(self, pieces) -> float:
        if not pieces:
            return 0.0
        lo = np.array([p[0] for p in pieces])
        hi = np.array([p[1] for p in pieces])
        return float(np.sum(self.cdf(hi) - self.cdf(lo)))

    def measure_union(self, intervals) -> float:
        raw = []
        for iv in intervals:
            raw.extend(iv.pieces())
        return self.measure_pieces(normalize_pieces(raw))


@dataclass(frozen=True)
class LebesgueMeasure(MeasureOracle):
    """Uniform probability on a support window, default the unit interval.

    Length divided by the window's length, so the whole support has mass 1.
    With the default support Lebesgue on [0,1] and Haar on the torus
    (applied to pieces) coincide.
    """

    support: tuple[float, ...] = (0.0, 1.0)

    def __post_init__(self):
        if len(self.support) != 2:
            raise ValueError(f"support must be two numbers [a, b], "
                             f"not {len(self.support)}")
        a, b = float(self.support[0]), float(self.support[1])
        if not b > a:
            raise ValueError("empty support")
        object.__setattr__(self, "support", (a, b))

    def cdf(self, x):
        a, b = self.support
        return (np.clip(np.asarray(x, dtype=float), a, b) - a) / (b - a)


@dataclass(frozen=True)
class PowerMeasure(MeasureOracle):
    """Measure on [0,1] with cdf x**a; a x**(a-1) density for a > 0."""

    a: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("power measure needs a > 0")
        object.__setattr__(self, "a", float(self.a))

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0) ** self.a


@dataclass(frozen=True, eq=False)
class TabulatedCdfMeasure(MeasureOracle):
    """Piecewise-linear cdf through (xs, Fs), a probability law: Fs runs
    from 0 to 1.  Used for the interval map's invariant law."""

    xs: np.ndarray
    Fs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        Fs = np.asarray(self.Fs, dtype=float)
        if xs.ndim != 1 or xs.shape != Fs.shape or xs.size < 2:
            raise ValueError("need matching 1-d arrays with >= 2 nodes")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(Fs) < 0):
            raise ValueError("xs strictly increasing, Fs nondecreasing")
        if not np.all((Fs >= 0.0) & (Fs <= 1.0)):
            raise ValueError("a cdf's Fs must lie in [0, 1]")
        if Fs[0] != 0.0 or Fs[-1] != 1.0:
            raise ValueError("a cdf's Fs must run from 0 to 1")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "Fs", Fs)

    def cdf(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.Fs)


# ---------------------------------------------------------------------------
# Interval families


class IntervalFamily:
    """Indexed family A_k, k >= 1, defined by its vector form: a subclass
    gives bounds(lo, hi) for any window of indices, and the Interval
    objects are read from its rows."""

    space: str = LINE

    @property
    def horizon(self):
        return None

    def bounds(self, lo: int, hi: int, carry: dict = None):
        """Arrays (lo, hi, wraps, full) for k = lo..hi, as hit tests read
        them; lo and hi of a full row are not read.  A walk over
        consecutive windows hands one carry dict to each (see windows)."""
        raise NotImplementedError

    def windows(self, n: int, size: int, oracle: MeasureOracle = None):
        """(lo, values) for the windows lo..lo + size - 1 that cover k =
        1..n, in order: values is bounds(lo, hi), or measures(oracle, lo,
        hi) when an oracle is given.  The windows share one carry, so a
        family whose rows build on earlier rows computes each row once."""
        carry = {}
        for lo in range(1, n + 1, size):
            hi = min(lo + size - 1, n)
            yield lo, (self.bounds(lo, hi, carry) if oracle is None
                       else self.measures(oracle, lo, hi, carry))

    def targets(self, lo: int, hi: int):
        """A_lo..A_hi: a full row is the whole torus, any other row
        Interval(space, lo, hi)."""
        if lo < 1:
            raise IndexError(f"family indices start at 1, not {lo}")
        if hi < lo:
            return []
        los, his, _, full = (a.tolist() for a in self.bounds(lo, hi))
        return [Interval.full_torus() if f else Interval(self.space, a, b)
                for a, b, f in zip(los, his, full)]

    def interval(self, k: int) -> Interval:
        return self.targets(k, k)[0]

    def measures(self, oracle: MeasureOracle, lo: int, hi: int,
                 carry: dict = None) -> np.ndarray:
        """mu(A_k) for k = lo..hi, exact through the oracle cdf."""
        lo, hi, wraps, full = self.bounds(lo, hi, carry)
        at_lo, at_hi = oracle.cdf(lo), oracle.cdf(hi)
        at_0, at_1 = oracle.cdf(0.0), oracle.cdf(1.0)
        out = np.where(wraps, (at_1 - at_lo) + (at_hi - at_0), at_hi - at_lo)
        out[full] = at_1 - at_0
        return np.maximum(out, 0.0)


@dataclass(frozen=True)
class NestedLeftFamily(IntervalFamily):
    """A_k = [0, r_k) with nonincreasing radii; on the torus a radius
    >= 1 makes A_k the whole circle."""

    space: Literal[LINE, TORUS] = LINE
    radius: RealSeq = field(kw_only=True)

    @property
    def horizon(self):
        return self.radius.horizon

    def bounds(self, lo: int, hi: int, carry: dict = None):
        r = self.radius.array(lo, hi)
        size = len(r)
        full = r >= 1.0 if self.space == TORUS else np.zeros(size, dtype=bool)
        wraps = np.zeros(size, dtype=bool)
        return np.zeros(size), np.where(full, 0.0, r), wraps, full


@dataclass(frozen=True)
class NestedWindowFamily(IntervalFamily):
    """A_k = [l_k, r_k) on the line with l nondecreasing and r
    nonincreasing; an empty window sits at l_k."""

    left: RealSeq
    right: RealSeq

    @property
    def horizon(self):
        hs = [h for h in (self.left.horizon, self.right.horizon) if h is not None]
        return min(hs) if hs else None

    def bounds(self, lo: int, hi: int, carry: dict = None):
        left = self.left.array(lo, hi).astype(float)
        right = np.maximum(left, self.right.array(lo, hi))
        flags = np.zeros(len(left), dtype=bool)
        return left, right, flags, flags.copy()


# steps summed at once when TorusConsecutiveFamily starts a window cold
_SUM_WINDOW = 1 << 16


@dataclass(frozen=True)
class TorusConsecutiveFamily(IntervalFamily):
    """Consecutive windows on the torus: each starts where the last ended.

    I_k is the arc from b_{k-1} to b_k with b_k = b_{k-1} + a_k mod 1; a
    step of length >= 1 makes the window the whole circle.  b_k is
    b_0 + S_k mod 1 for the float sum S_k = a_1 + ... + a_k, added in
    order; a walk over consecutive windows carries S (never b) from one
    window to the next, and a window met cold sums its steps from 1.
    """

    b0: float = 0.0
    steps: RealSeq = field(kw_only=True)
    space = TORUS

    @property
    def horizon(self):
        return self.steps.horizon

    def _sum_to(self, k: int) -> float:
        """S_k, summed in order from a_1 in windows."""
        s = 0.0
        for lo in range(1, k + 1, _SUM_WINDOW):
            a = self.steps.array(lo, min(lo + _SUM_WINDOW - 1, k))
            s = np.cumsum(np.concatenate(([s], a)))[-1]
        return s

    def bounds(self, lo: int, hi: int, carry: dict = None):
        a = self.steps.array(lo, hi)
        before = carry.get(lo - 1) if carry else None
        if before is None:
            before = self._sum_to(lo - 1)
        # s[i] = S_{lo-1+i}: window k runs from b_{k-1} to b_k
        s = np.cumsum(np.concatenate(([before], a)))
        if carry is not None:
            carry.clear()
            carry[hi] = s[-1]
        b = (self.b0 + s) % 1.0
        left, right = b[:-1], b[1:]
        full = a >= 1.0
        wraps = (left > right) & ~full
        return left, right, wraps, full


@dataclass(frozen=True)
class CustomFamily(IntervalFamily):
    """A finite family given by its intervals, A_k = intervals[k-1]."""

    space: Literal[LINE, TORUS] = LINE
    intervals: tuple[Interval, ...] = field(kw_only=True)

    def __post_init__(self):
        for iv in self.intervals:
            if iv.space != self.space:
                raise ValueError("mixed spaces in custom family")

    @property
    def horizon(self):
        return len(self.intervals)

    def bounds(self, lo: int, hi: int, carry: dict = None):
        if lo < 1 or hi > len(self.intervals):
            raise IndexError(
                f"family defined for k = 1..{len(self.intervals)}")
        ivs = self.intervals[lo - 1:hi]
        return (np.array([iv.lo for iv in ivs], dtype=float),
                np.array([iv.hi for iv in ivs], dtype=float),
                np.array([iv.wraps for iv in ivs], dtype=bool),
                np.array([iv.full for iv in ivs], dtype=bool))


# ---------------------------------------------------------------------------
# Greedy disjointification


@dataclass
class DisjointCover:
    """Disjoint pieces with provenance: gammas[i] is contained in the source
    interval at index provenance[i] (1-based) of the input family."""

    gammas: list
    provenance: list


def disjointify(family) -> DisjointCover:
    """Greedy disjoint cover of a finite interval list, preserving the union.

    Follows an emptying induction: when a previously kept piece set turns
    out to be contained in the next interval, it is dropped and the next
    interval absorbs its share; otherwise the next interval keeps only what
    the survivors leave.  On the line every output slot is a single
    interval; wrapped torus inputs are handled on their pieces, so a source
    index may own up to two output arcs.
    """
    ivs = list(family)
    if not ivs:
        raise ValueError("disjointify needs at least one interval")
    spaces = {iv.space for iv in ivs}
    if len(spaces) > 1:
        raise ValueError("mixed spaces")
    space = spaces.pop()

    slots = [ivs[0].pieces()]
    for i in range(1, len(ivs)):
        new = ivs[i].pieces()
        for k in range(i):
            if slots[k] and not subtract_pieces(slots[k], new):
                slots[k] = []
        slots.append(subtract_pieces(new, [p for slot in slots for p in slot]))

    gammas, provenance = [], []
    for k, pieces in enumerate(slots):
        if not pieces:
            gammas.append(Interval(space, 0.0, 0.0))
            provenance.append(k + 1)
            continue
        if space == LINE and len(pieces) != 1:
            raise AssertionError("line disjointification produced a split slot")
        for lo, hi in pieces:
            if space == TORUS and hi == 1.0:
                gammas.append(Interval(TORUS, lo, 0.0) if lo > 0.0
                              else Interval.full_torus())
            else:
                gammas.append(Interval(space, lo, hi))
            provenance.append(k + 1)
    return DisjointCover(gammas, provenance)


# ---------------------------------------------------------------------------
# Limsup probe


@dataclass
class LimsupReport:
    horizons: list
    trace: np.ndarray  # trace[i] = mu(union of A_k, horizons[i] <= k <= tail)
    floor: float
    tail: int = 0


def limsup_probe(family, measure: MeasureOracle, horizons,
                 tail: int = None) -> LimsupReport:
    """Tail-union measures at increasing cutoffs, plus an extrapolated floor.

    Each probe m looks at the union over m <= k <= tail; the default tail is
    four times the last probe (clamped to the family horizon) so that every
    probe sees a substantial stretch of sets beyond it.  The floor estimate
    applies one step of Aitken extrapolation to the last three trace values
    and clamps the result into [0, last value].
    """
    ms = list(horizons)
    if not ms or any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError("horizons must be strictly increasing")
    if tail is None:
        tail = 4 * ms[-1]
        if family.horizon is not None:
            tail = min(tail, family.horizon)
    if tail < ms[-1]:
        raise ValueError("tail cutoff below the last probe")
    trace = np.array(
        [measure.measure_union(family.targets(m, tail)) for m in ms]
    )
    floor = trace[-1]
    if len(trace) >= 3:
        ta, tb, tc = trace[-3:]
        denom = (tc - tb) - (tb - ta)
        if abs(denom) > 1e-15:
            floor = tc - (tc - tb) ** 2 / denom
    floor = float(min(max(floor, 0.0), trace[-1]))
    return LimsupReport(ms, trace, floor, tail)


# ---------------------------------------------------------------------------
# The config JSON of intervals, families and measures (see seqcore.to_json)


JSON_CODECS[Interval] = Codec("interval", {None: Interval})
JSON_CODECS[IntervalFamily] = Codec("family", {
    "nested-left": NestedLeftFamily, "nested-window": NestedWindowFamily,
    "torus-consecutive": TorusConsecutiveFamily, "custom": CustomFamily},
    "template")
JSON_CODECS[MeasureOracle] = Codec("measure", {
    "lebesgue": LebesgueMeasure, "power": PowerMeasure,
    "tabulated": TabulatedCdfMeasure}, "kind", "lebesgue")
