"""Stationary process samplers and the ensemble driver.

Every trajectory owns a counter-based random stream derived from
(seed, trajectory id).  Each process variant has a per-step draw budget,
defined once by step_draws, and each stream is consumed in step order, so
results are reproducible no matter how trajectories are scheduled or
batched.  check_run holds every check a run must pass; a loop-free kernel
(iid, circle-rw) and a row-stepped one (the others) take hit times
through _hit_times alone, and walk, bit for bit, the trajectories a
scalar stepper walks on one row of step_draws per step: the tests'
reference.  harness writes and reads the records on disk.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields
from itertools import accumulate

import numpy as np

from .intervals import IntervalFamily, TabulatedCdfMeasure
from .seqcore import check_fields, json_object, json_value

GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0

# largest double below 1: keeps rounding from reaching absorbing endpoints
_BELOW_ONE = 1.0 - 2.0**-53
_DEGENERATE = 1e-300


def array_pow(u, e: float, in_place: bool = False):
    """u**e routed through numpy's 1-d loop for scalars and arrays alike.

    numpy evaluates 0-d and 1-d powers with different code paths whose
    results can differ in the last ulp; forcing one path keeps a scalar
    stepper and the vectorized driver on identical trajectories.
    With in_place, the float array u is raised by **=, the same path,
    and returned.
    """
    if in_place:
        u **= e
        return u
    out = np.atleast_1d(np.asarray(u, dtype=float)) ** e
    return float(out[0]) if np.ndim(u) == 0 else out


def stream_key(seed: int, trajectory: int, restart: int = 0) -> int:
    return (int(seed) << 64) + (restart << 32) + trajectory


def make_generator(seed: int, trajectory: int, restart: int = 0):
    return np.random.Generator(
        np.random.Philox(key=stream_key(seed, trajectory, restart))
    )


# ---------------------------------------------------------------------------
# Process specifications


class ProcessSpec:
    """Base class; subclasses are frozen dataclasses with a `variant` tag."""

    variant = "abstract"

    def validate(self):
        pass


@dataclass(frozen=True)
class IIDProcess(ProcessSpec):
    """Independent draws from a marginal on [0,1]; power=a gives cdf x**a."""

    marginal: str = "uniform"
    power: float = 1.0

    variant = "iid"

    def validate(self):
        if self.marginal not in ("uniform", "power"):
            raise ValueError(f"unknown marginal {self.marginal!r}")
        if self.marginal == "power" and self.power <= 0:
            raise ValueError("power marginal needs a > 0")

    def _inverse(self, u):
        if self.marginal == "uniform":
            return u
        return array_pow(u, 1.0 / self.power)


@dataclass(frozen=True)
class LSVProcess(ProcessSpec):
    """Interval map with a neutral fixed point at 0.

    theta(x) = x(1 + (2x)**gamma) on [0, 1/2), 2x - 1 on [1/2, 1]; slower
    mixing as gamma grows.  Deterministic once started, so steps consume
    no randomness; the start is the invariant law's inverse cdf at one
    uniform.
    """

    gamma: float

    variant = "lsv"

    def validate(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("lsv needs gamma in (0,1)")


@dataclass(frozen=True)
class ARHalfProcess(ProcessSpec):
    """X' = X/2 + e with Bernoulli(1/2) innovations; state space [0,2]."""

    variant = "ar-half"


@dataclass(frozen=True)
class CircleRWProcess(ProcessSpec):
    """Random walk on the torus: x_k = x_0 + j_k a mod 1, with j_k the net
    number of +a steps of a fair coin; Haar invariant.

    drift t shifts the hit test frame: step k tests x_k - k t mod 1.
    """

    a: float = GOLDEN_CONJUGATE
    drift: float = 0.0

    variant = "circle-rw"

    def validate(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError("rotation a must lie in (0,1)")
        if not 0.0 <= self.drift < 1.0:
            raise ValueError("drift must lie in [0,1)")


@dataclass(frozen=True)
class SplitChainProcess(ProcessSpec):
    """Minorized chain: with prob s(x) regenerate from nu, else follow Q1.

    s is either the identity on [0,1] ("linear", scaled by s_scale) or a
    constant; nu has cdf x**nu_power on [0,1].  Built-in residual kernels:
    "delta" stays put, "nu" redraws from nu.  The invariant law has cdf
    x**invariant_power().
    """

    s_kind: str = "linear"
    s_scale: float = 1.0
    nu_power: float = 2.0
    q1: str = "delta"

    variant = "split-chain"

    def validate(self):
        if self.s_kind not in ("linear", "const"):
            raise ValueError(f"unknown s kind {self.s_kind!r}")
        if not 0.0 <= self.s_scale <= 1.0:
            raise ValueError("s must map into [0,1]")
        if self.nu_power <= 0:
            raise ValueError("nu needs a positive power")
        if self.q1 not in ("delta", "nu"):
            raise ValueError(f"unknown residual kernel {self.q1!r}")
        if self.s_scale == 0.0:
            raise ValueError("nu(s) = 0: the chain never regenerates")
        if self.invariant_power() <= 0:
            raise ValueError("null-recurrent: no invariant probability law")

    def invariant_power(self) -> float:
        """p in the invariant cdf x**p: mu ~ nu/s when s is linear and Q1
        stays put, else mu = nu."""
        if self.s_kind == "linear" and self.q1 == "delta":
            return self.nu_power - 1.0
        return self.nu_power

    def nu_inverse(self, u, in_place: bool = False):
        return array_pow(u, 1.0 / self.nu_power, in_place)


@dataclass(frozen=True)
class DMRProcess(SplitChainProcess):
    """P(x,.) = x nu + (1-x) delta_x on [0,1] with nu = (a+1) x**a lambda.

    The split-chain preset s(x) = x, nu cdf x**(a+1), q1 = delta; its
    invariant law is mu = a x**(a-1) lambda.
    """

    s_kind: str = field(default="linear", init=False)
    s_scale: float = field(default=1.0, init=False)
    nu_power: float = field(init=False)
    q1: str = field(default="delta", init=False)
    a: float = 1.0

    variant = "dmr"

    def __post_init__(self):
        object.__setattr__(self, "nu_power", self.a + 1.0)

    def validate(self):
        if self.a <= 0:
            raise ValueError("dmr needs a > 0")

    def invariant_power(self) -> float:
        return self.a  # (a + 1) - 1 is not a for every float a


_VARIANTS = {cls.variant: cls for cls in (
    IIDProcess, LSVProcess, ARHalfProcess, CircleRWProcess,
    SplitChainProcess, DMRProcess)}
_FIELD_TYPES = {"float": float, "int": int, "str": str}


def process_to_json(spec: ProcessSpec) -> dict:
    """{"variant": ...} followed by the init fields in declaration order."""
    if _VARIANTS.get(getattr(spec, "variant", None)) is not type(spec):
        raise TypeError(f"unknown spec type {type(spec).__name__}")
    d = {"variant": spec.variant}
    d.update((f.name, getattr(spec, f.name)) for f in fields(spec) if f.init)
    return d


def process_from_json(d: dict) -> ProcessSpec:
    """Spec from its JSON: "variant" and init fields only, those without a
    default required, each value a JSON value of its annotated type."""
    v = json_object("process", d).get("variant")
    if type(v) is not str or v not in _VARIANTS:
        raise ValueError(f"unknown process variant {v!r}")
    init = {f.name: f for f in fields(_VARIANTS[v]) if f.init}
    check_fields(f"process {v!r}", d, ["variant", *init])
    kw = {}
    for name, f in init.items():
        if name in d:
            kw[name] = json_value(f"process {v!r} {name}", d[name],
                                  _FIELD_TYPES[f.type])
        elif f.default is MISSING:
            raise ValueError(f"process {v!r} missing required field {name!r}")
    spec = _VARIANTS[v](**kw)
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# Circle positions

# a = H 2**-27 + lo with H an integer; j H stays below 2**53, so it is exact
# in int64 and float64, while |j| < 2**26.  Only its low 27 bits are used,
# so in int32, where j H wraps modulo 2**32, it gives the same bits.
_CIRCLE_BITS = 27
CIRCLE_MAX_STEPS = 2**26 - 1


def circle_position(a: float, x0, j: np.ndarray, out=None) -> np.ndarray:
    """x0 + j a mod 1 for an int32 or int64 array j of net +a step counts,
    |j| < 2**26.

    With a = H 2**-27 + lo (H an integer, |lo| <= 2**-28) the fractional
    part of j H 2**-27 is exact integer arithmetic, and |j lo| < 1/4 adds
    one rounding: the result stays within an ulp of 1.0 of the exact value
    at every step count, where the recursion x +- a rounds at every step.
    j is overwritten; out, when given, receives the result.  The kernel and
    a scalar stepper that both call this agree bit for bit.
    """
    unit = 2.0**-_CIRCLE_BITS
    h = round(a / unit)
    lo = a - h * unit  # exact
    out = np.multiply(j, lo / unit, out=out)
    j *= h
    j &= (1 << _CIRCLE_BITS) - 1
    out += j  # (frac(j H unit) + j lo) / unit
    out *= unit
    out += x0
    out -= np.floor(out)
    return out


# ---------------------------------------------------------------------------
# Draws and starting states

_WORD_BITS = 64
# _OCTET_WALK[v, b]: the net +a steps of steps 0..b of an octet v
_OCTET_WALK = np.cumsum(1 - 2 * (np.arange(256)[:, None] >> np.arange(8) & 1),
                        axis=1, dtype=np.int32)


def _circle_octets(gen, m: int) -> np.ndarray:
    """The ceil(m / 64) raw words circle-rw's next m steps read, as octets."""
    words = gen.bit_generator.random_raw(-(-m // _WORD_BITS))
    return words.astype("<u8", copy=False).view(np.uint8)


def step_draws(spec: ProcessSpec, gen, m: int) -> np.ndarray:
    """The draws of the next m steps of the stream gen, one row per step.

    This is each variant's per-step draw budget, defined here alone: the
    kernels draw as it does (a zero-step call gives the draws per step),
    and a scalar stepper reads one row per step.
    - circle-rw: one bit.  Step 64 i + b reads bit b of raw word i, least
      significant bit first, and a 0 bit is a +a step.  A call starts on a
      fresh word: m steps take ceil(m / 64) words (_circle_octets, which
      the kernel also reads, summing their steps an octet at a time).
    - iid: one uniform.
    - lsv: none; the map is deterministic once started.
    - split chains (dmr included) and ar-half: two uniforms.
    A uniform is Generator.random's, one 64-bit word.  Consecutive calls
    draw what one call for all their steps would, provided every circle-rw
    call but the last covers a multiple of 64 steps.
    """
    if isinstance(spec, CircleRWProcess):
        return np.unpackbits(_circle_octets(gen, m), count=m,
                             bitorder="little")[:, None]
    if isinstance(spec, LSVProcess):
        return np.empty((m, 0))
    return gen.random((m, 1 if isinstance(spec, IIDProcess) else 2))


def init_uniform_count(spec: ProcessSpec) -> int:
    """Uniforms the stationary initializer consumes from the stream."""
    if isinstance(spec, ARHalfProcess):
        return 54  # dyadic series truncated at 2**-53 resolution
    return 1


def init_from_uniforms(spec: ProcessSpec, us) -> float:
    """Deterministic map from the consumed uniforms to the starting state.

    Exact for IID, CircleRW (Haar), every split chain including dmr (inverse
    cdf of x**invariant_power() from one uniform), LSV (inverse of the
    lsv_calibration cdf from one uniform) and the dyadic ARHalf series.
    """
    us = np.atleast_1d(np.asarray(us, dtype=float))
    if isinstance(spec, IIDProcess):
        return float(spec._inverse(us[0]))
    if isinstance(spec, CircleRWProcess):
        return float(us[0])
    if isinstance(spec, SplitChainProcess):
        return float(array_pow(us[0], 1.0 / spec.invariant_power()))
    if isinstance(spec, LSVProcess):
        law = lsv_calibration(spec.gamma)
        return float(np.interp(us[0], law.Fs, law.xs))
    if isinstance(spec, ARHalfProcess):
        bits = (us < 0.5).astype(float)
        weights = 2.0 ** -np.arange(len(us))
        return float(np.dot(bits, weights))
    raise TypeError(f"unknown spec type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Hit records


def hit_dtype(n: int) -> np.dtype:
    """The dtype hit times of an n-step run are packed in, in each chunk's
    array, records and hits.npy: np.min_scalar_type(n), little-endian."""
    if not 0 <= n < 10**18:
        raise ValueError(f"hit times are packed for 0 <= n < 10**18, not {n}")
    return np.min_scalar_type(n).newbyteorder("<")


@dataclass(frozen=True)
class HitRecord:
    """One trajectory's hits; seed, n and drift live in the run's config.
    Frozen, with read-only hit times, in hit_dtype(n) for a run's records
    (harness.report_from_records), which harness writes and reads."""

    trajectory: int
    hit_times: np.ndarray  # strictly increasing step indices in 1..n
    renewal_count: int = 0  # split-chain regenerations over the n steps
    restarts: int = 0  # degenerate interval-map streams skipped first

    def __post_init__(self):
        # a read-only view: an array the caller passed keeps its own flags
        ht = np.asarray(self.hit_times).view()
        ht.flags.writeable = False
        object.__setattr__(self, "hit_times", ht)


# ---------------------------------------------------------------------------
# Vectorized ensemble driver

# states per chunk across the width: bounds the draws, states and hit masks
# held at once, whatever the number of trajectories.
_CELLS = 1 << 21
# the loop-free kernel holds one trajectory's row at a time, so its rows
# stop shrinking past this width: at the default _CELLS they are at least
# 16,384 steps, 128 KB of states that stay in cache and amortize the calls
# made per row.
_ROW_WIDTH = 128
# most rows per chunk, by kernel kind, on top of the rows _CELLS allows.  A
# row-stepped chunk holds its whole (rows, width) block, and 1,024 rows
# already amortize each trajectory's calls per chunk (one draw, one hit
# extraction), so more rows only grow the block.  A loop-free chunk
# holds one trajectory's row at a time, and 2**16 steps keep a narrow
# run's row and its window of bounds small.
_MAX_ROWS = {"row-stepped": 1 << 10, "loop-free": 1 << 16}
# trajectories whose draws are staged, then copied into the planes at once
_STAGE = 16
_LOOP_FREE = (IIDProcess, CircleRWProcess)  # stepped by _loop_free_chunks


def _init_vector(spec, gens):
    """Starting states for the trajectories of gens: init_from_uniforms on
    each stream's first init_uniform_count values."""
    count = init_uniform_count(spec)
    return np.array([init_from_uniforms(spec, g.random(count)) for g in gens])


def _hit_test(bounds, drift, c0):
    """The hit test of steps c0 + 1 .. c0 + m against their targets'
    bounds (the family's window of those indices): a function of their
    states, laid along the last axis (one trajectory's row, or a (width,
    m) block), that is True where a state lies in its step's target.

    A target is [lo, hi), or [lo, 1) and [0, hi) where it wraps, or the
    whole space where it is full; drift t tests step k at x - k t mod 1.
    """
    lo, hi, wraps, full = bounds
    shift = drift * np.arange(c0 + 1, c0 + len(lo) + 1) if drift else None
    low = lo.any()  # every state is >= 0, so lo = 0 needs no test
    wraps = wraps if wraps.any() else None
    full = full if full.any() else None

    def test(xs):
        if shift is not None:
            xs = (xs - shift) % 1.0
        hit = xs < hi
        if low:
            hit &= xs >= lo
        if wraps is not None:
            hit = np.where(wraps, (xs >= lo) | (xs < hi), hit)
        if full is not None:
            hit |= full
        return hit

    return test


def _hit_times(hit, c0, dtype, out=None):
    """The steps c0 + 1 + i at which the 1-d mask hit is True, in dtype
    (hit_dtype of the run's n); written into out when it is given."""
    return np.add(np.flatnonzero(hit), c0 + 1, out=out, dtype=dtype,
                  casting="unsafe")


def _advance_rows(spec, x, U, keep):
    """Step states x through the m rows of the draw planes U (planes, m,
    width), writing the states after step i into row i of the last plane,
    over draws no later step reads; returns a copy of the states after the
    last row, since the next chunk's draws overwrite U.  For split chains
    keep[i] is True where step i did not regenerate."""
    xs = U[-1]
    m = xs.shape[0]
    if isinstance(spec, LSVProcess):
        # the map written into the rows in place: x(1 + (2x)**gamma) below
        # 1/2, 2x - 1 above, capped at _BELOW_ONE.  From a state at or
        # below the cap both branches stay there (2x - 1 and, rounded,
        # x(1 + (2x)**gamma) <= 2x), so only a chunk's first row is capped
        g = spec.gamma
        low = np.empty(x.shape, dtype=bool)
        two, left = np.empty((2, len(x)))
        for i in range(m):
            row = xs[i]
            np.less(x, 0.5, out=low)
            np.multiply(x, 2.0, out=two)
            np.power(two, g, out=left)
            left += 1.0
            left *= x
            np.subtract(two, 1.0, out=row)
            np.putmask(row, low, left)
            if not i:
                np.minimum(row, _BELOW_ONE, out=row)
            x = row
        return x.copy()
    if isinstance(spec, ARHalfProcess):
        # the second uniform goes unused, so the states take its plane
        coin = U[0]
        for i in range(m):
            x = np.multiply(x, 0.5, out=xs[i])
            x += coin[i] < 0.5
        return x.copy()
    if isinstance(spec, SplitChainProcess):
        # one call for the whole chunk, in place of its nu uniforms, which
        # the states then overwrite row by row
        drawn = spec.nu_inverse(xs, in_place=True)
        u, const, scale = U[0], spec.s_kind == "const", spec.s_scale
        s = None if const or scale == 1.0 else np.empty(x.shape)
        for i in range(m):
            # u > s(x) is "no regeneration": s maps into [0, 1] (validate)
            # and no draw or state is NaN; s(x) takes no new array
            sx = scale if const else x if s is None else np.multiply(
                x, scale, out=s)
            stay = np.greater(u[i], sx, out=keep[i])
            if spec.q1 == "delta":
                np.putmask(drawn[i], stay, x)
            x = drawn[i]
        return x.copy()
    raise TypeError(f"unknown spec type {type(spec).__name__}")


def _chunks(spec, n, gens, x, family):
    """Step the trajectories of gens in lockstep from states x for n steps,
    testing each step's states against its target in family.

    Yields (x, (hits, lengths), (renewals, underflowed)) per chunk of
    steps: x holds the states after its last step, hits the steps at which
    the trajectories hit their targets, in hit_dtype(n), lengths[t] of
    them trajectory t's after those before it, renewals[t] the number of
    t's steps at which a split chain regenerated and underflowed[t] whether
    an interval-map orbit lay below _DEGENERATE at one of them (0 and
    False for the variants that cannot).  The _LOOP_FREE variants
    compute a chunk one trajectory's row at a time, the others step all
    trajectories row by row.  At most _CELLS states are held at once (a
    circle-rw row is at least 64 steps), in no more rows than _MAX_ROWS
    allows the kernel's kind, and in reused buffers, so each chunk is read
    before the next is requested; the targets' bounds are the family's
    window of each chunk's steps.  Every trajectory draws from its own
    stream in step order, so the chunk size never changes the path.
    """
    loop_free = isinstance(spec, _LOOP_FREE)
    width = min(len(gens), _ROW_WIDTH) if loop_free else len(gens)
    most = _MAX_ROWS["loop-free" if loop_free else "row-stepped"]
    rows = max(1, min(n, _CELLS // width, most))
    return (_loop_free_chunks if loop_free else _row_chunks)(
        spec, n, gens, x, family, rows)


def _loop_free_chunks(spec, n, gens, x, family, rows):
    """Chunks computed one trajectory's row at a time, with no loop over
    steps, each row's hit times taken while it is in cache.  Only a row's
    states differ: iid's are the marginal's inverse cdf at its uniforms;
    circle-rw's are x_0 + j_k a mod 1 (circle_position), j_k the net +a
    steps in int32 (|j| < 2**26): an octet's row of _OCTET_WALK plus the j
    before it, a cumsum of the octets' last columns from the carried j.
    Its chunks but the last are whole words, each from a fresh word.
    """
    x0, x, dtype = x, np.empty(len(gens)), hit_dtype(n)
    circle = isinstance(spec, CircleRWProcess)
    if circle:
        rows = max(_WORD_BITS, rows - rows % _WORD_BITS) if rows < n else rows
        j_end, xs = np.zeros(len(gens), dtype=np.int32), np.empty(rows)
        j = np.empty((-(-rows // _WORD_BITS) * 8, 8), dtype=np.int32)
    for lo, bounds in family.windows(n, rows):
        c0, m = lo - 1, len(bounds[0])
        test = _hit_test(bounds, spec.drift if circle else 0.0, c0)
        times = []
        for t, g in enumerate(gens):
            if circle:
                octets = _circle_octets(g, m)
                jo = np.take(_OCTET_WALK, octets, axis=0, mode="clip",
                             out=j[:len(octets)])  # clip: out unbuffered
                jo[0] += j_end[t]
                jo[1:] += np.cumsum(jo[:-1, -1], dtype=np.int32)[:, None]
                jm = jo.reshape(-1)[:m]
                j_end[t] = jm[-1]
                xm = circle_position(spec.a, x0[t], jm, out=xs[:m])
            else:
                xm = spec._inverse(step_draws(spec, g, m)[:, 0])
            times.append(_hit_times(test(xm), c0, dtype))
            x[t] = xm[-1]
        del bounds, test  # freed before the next window is built
        yield x, (np.concatenate(times), list(map(len, times))), (0, False)


def _row_chunks(spec, n, gens, x, family, rows):
    """Chunks stepped row by row: U[d, i, t] holds draw d of step i of
    trajectory t, one (rows, width) plane per draw and at least one.
    _STAGE trajectories at a time draw their uniforms as step_draws does
    (Generator.random, a row per step) into a small staging block, copied
    into the planes transposed at once.  The states overwrite the last
    plane as they are stepped: no block of states is held beside the
    draws.  The chunk's hit mask is tested whole and transposed once, so
    each trajectory's hits are one contiguous row, counted, then
    extracted into the chunk's one packed array."""
    width, dtype = len(gens), hit_dtype(n)
    d = step_draws(spec, gens[0], 0).shape[1]  # a call that draws nothing
    keep = (np.empty((rows, width), dtype=bool)
            if isinstance(spec, SplitChainProcess) else None)
    U = np.empty((max(1, d), rows, width))
    stage = np.empty((min(_STAGE, width), rows, d))
    for lo, bounds in family.windows(n, rows):
        c0, m = lo - 1, len(bounds[0])
        for t in range(0, width if d else 0, len(stage)):
            block = gens[t:t + len(stage)]
            for g, draws in zip(block, stage):
                g.random(out=draws[:m])
            U[:, :m, t:t + len(block)] = stage[:len(block), :m].T
        x = _advance_rows(spec, x, U[:, :m], keep)
        xs = U[-1, :m]
        test = _hit_test(bounds, 0.0, c0)
        hit = np.ascontiguousarray(test(xs.T))
        del bounds, test  # freed before the next window is built
        lengths = np.count_nonzero(hit, axis=1).tolist()
        hits = np.empty(sum(lengths), dtype=dtype)
        for row, e, c in zip(hit, accumulate(lengths), lengths):
            _hit_times(row, c0, dtype, out=hits[e - c:e])
        renewed = 0 if keep is None else m - keep[:m].sum(axis=0)
        underflowed = (isinstance(spec, LSVProcess)
                       and (xs < _DEGENERATE).any(axis=0))
        yield x, (hits, lengths), (renewed, underflowed)


def _run_block(spec, n, seed, traj_ids, family):
    """Lockstep simulation of the given trajectory ids, in the packed form
    hits.npy stores: (hits, counts, renewals, restarts), where hits holds
    counts[j] hit times of traj_ids[j] after those of the ids before it,
    in hit_dtype(n), and the others are lists over the ids.  Until it is
    built, the block holds one packed array of hit times per chunk.

    An interval-map orbit that underflows below _DEGENERATE moves its
    trajectory to its next restart stream and runs the whole block again,
    at most 8 times; every other trajectory re-walks its own stream.
    """
    width = len(traj_ids)
    restarts = np.zeros(width, dtype=np.int64)
    for _ in range(9):
        gens = [make_generator(seed, t, r)
                for t, r in zip(traj_ids, restarts.tolist())]
        parts, (counts, renewals) = [], np.zeros((2, width), dtype=int)
        degenerate = np.zeros(width, dtype=bool)
        for _, part, (renewed, underflowed) in _chunks(
                spec, n, gens, _init_vector(spec, gens), family):
            parts.append(part)
            counts += part[1]
            renewals += renewed
            degenerate |= underflowed
        if not degenerate.any():
            break
        restarts += degenerate
    else:
        ids = [traj_ids[j] for j in np.flatnonzero(degenerate)]
        raise RuntimeError(f"trajectories {ids}: orbit degenerate after 8"
                           f" restarts")
    # chunk by chunk, each trajectory's hits after those of the ids before
    hits = np.empty(counts.sum(), dtype=hit_dtype(n))
    dst = (np.cumsum(counts) - counts).tolist()
    for part, lengths in parts:
        for j, e, c in zip(range(width), accumulate(lengths), lengths):
            if c:
                hits[dst[j]:dst[j] + c] = part[e - c:e]
                dst[j] += c
    return hits, counts.tolist(), renewals.tolist(), restarts.tolist()


def packed_records(traj_ids, hits, counts, renewals, restarts) -> list:
    """HitRecords of trajectories traj_ids from the packed form _run_block
    returns and hits.npy stores; each views its hit times."""
    return [HitRecord(t, hits[e - c:e], r, s) for t, e, c, r, s in
            zip(traj_ids, accumulate(counts), counts, renewals, restarts)]


# steps a worker process must have to pay for its fork and its transfer:
# on 2 CPUs two workers ran 2**22 loop-free steps 0.81 to 1.28 times as
# long as one, and 2**24 steps 0.63 to 0.81 times (sparse targets, fresh
# process); a fork from a larger process costs more (about 30 ms at 300 MB)
_MIN_STEPS = 1 << 23


def _workers(spec, n, n_traj) -> int:
    """Worker processes for a run: BCLAB_THREADS if set, which must be a
    positive integer, else one per usable CPU for the loop-free kernel as
    long as each has _MIN_STEPS steps, and one for the row-stepped kernel,
    which a second process did not speed up at 100 trajectories.  One
    where processes cannot be forked; never more than n_traj."""
    value = os.environ.get("BCLAB_THREADS")
    if value is not None:
        workers = int(value) if re.fullmatch("[0-9]+", value) else 0
        if workers < 1:
            raise ValueError(f"BCLAB_THREADS must be a positive integer, "
                             f"not {value!r}")
    else:
        workers = 1
        if isinstance(spec, _LOOP_FREE):
            cpus = (len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else os.cpu_count())
            workers = min(cpus, n * n_traj // _MIN_STEPS)
    workers = max(1, min(workers, n_traj))
    if workers > 1:
        # imported only here, as in simulate_ensemble: the import takes
        # about 15 ms, which a one-worker run need not pay
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return workers


def check_run(spec: ProcessSpec, family: IntervalFamily, n: int,
              n_traj: int):
    """Raise ValueError unless n_traj trajectories of spec can be simulated
    exactly for n steps of family: spec.validate(), n >= 1, n_traj >= 1,
    circle-rw's exact horizon (CIRCLE_MAX_STEPS) and the family's."""
    spec.validate()
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_traj < 1:
        raise ValueError("need at least one trajectory (n_traj >= 1)")
    if isinstance(spec, CircleRWProcess) and n > CIRCLE_MAX_STEPS:
        raise ValueError(f"circle-rw positions are exact up to "
                         f"{CIRCLE_MAX_STEPS} = 2**26 - 1 steps, not n = {n}")
    fh = family.horizon
    if fh is not None and fh < n:
        raise ValueError(f"family defined only up to {fh} < n = {n}")


def simulate_ensemble(spec: ProcessSpec, family: IntervalFamily, n: int,
                      seed: int, n_traj: int) -> list:
    """HitRecords for trajectories 0..n_traj-1, in trajectory order.

    The trajectories are cut into one contiguous block per worker
    (_workers): the calling process steps the first block, and a process
    forked for this call steps each other one.  Each block's records view
    its one packed buffer (packed_records).  Every trajectory owns its
    own stream, so the partition has no effect on the results.  No worker
    outlives the call, and an error in one is raised here.
    """
    check_run(spec, family, n, n_traj)
    workers = _workers(spec, n, n_traj)
    edges = [n_traj * i // workers for i in range(workers + 1)]
    blocks = [range(a, b) for a, b in zip(edges, edges[1:])]
    if workers == 1:
        return packed_records(blocks[0], *_run_block(spec, n, seed, blocks[0],
                                                     family))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
            max_workers=workers - 1,
            mp_context=multiprocessing.get_context("fork")) as pool:
        parts = [pool.submit(_run_block, spec, n, seed, b, family)
                 for b in blocks[1:]]
        records = packed_records(blocks[0], *_run_block(spec, n, seed,
                                                        blocks[0], family))
        for b, part in zip(blocks[1:], parts):
            records += packed_records(b, *part.result())
    return records


# ---------------------------------------------------------------------------
# The interval map's invariant law

# cdf edges: geometric cells from 1e-30 up to 1, plus an exact zero edge,
# resolve the x**-gamma density blowup at 0 across many decades
_LAW_EDGES = np.concatenate(([0.0], np.geomspace(1e-30, 1.0, 1801)))
_LAW_EDGES.flags.writeable = False
_LAW_NODES = 48  # Chebyshev-Lobatto nodes of the density on [1/2, 1]
_LAW_TERMS = 400  # orbit terms summed one by one
# u = (2x)**-gamma from which an orbit's remaining terms are summed in
# closed form at once; that remainder's relative error is about 0.04/u**2
_LAW_JUNCTION = 300.0
# orbit points below this radius enter through Taylor moments at 0
_TAYLOR_RADIUS = 1.0 / 64
_TAYLOR_ORDER = 10


def _left_preimage(s, t, gamma):
    """s' with s'(1 + s'**gamma) = s, given t = s**gamma.

    s = 2x: this is the left-branch inverse phi in doubled coordinates.
    Newton's method on a convex increasing function, started left of the
    root, then converges monotonically and quadratically, with a
    contraction factor below 1: after a relative step below 1e-9 the next
    iterate is exact to rounding.
    """
    s_new = s / (1.0 + t)
    for _ in range(64):
        t = s_new**gamma
        nxt = (s + gamma * s_new * t) / (1.0 + (1.0 + gamma) * t)
        if (np.abs(nxt - s_new) <= 1e-9 * nxt).all():
            return nxt
        s_new = nxt
    raise RuntimeError("left-branch inverse did not converge")


def _orbit_sums(x0, n_nodes, gamma, terms, junction):
    """Moments of the backward orbits x_k = phi**k(x0) of each start.

    Returns (mom, far): mom[i, p] sums w_k x_k**p over the orbit points
    below _TAYLOR_RADIUS, with w_k = (phi**k)'(x0) for the first n_nodes
    starts and w_k = x_k for the others; far holds the other points as
    arrays (start index, x_k, w_k).  The first `terms` points are taken one
    by one and the rest in closed form: with u = (2x)**-gamma, phi raises u
    by gamma - gamma(1 + gamma)/(2u) + O(u**-2), so
        sum_j x_j**q = x**q (u/(q - gamma) + 1/2 + (1 + gamma)/(2q)),
    and its derivative gives the weighted sums.  A start with u at or above
    the junction takes the closed form at once.
    """
    s = 2.0 * x0
    t = s**gamma
    nodes = np.arange(x0.size) < n_nodes
    idx = np.nonzero(nodes | (t * junction > 1.0))[0]
    si, ti = s[idx], t[idx]
    # column i: w_k, w_k x_k, w_k x_k**2, ...
    pw = np.empty((_TAYLOR_ORDER, idx.size))
    pw[0] = np.where(nodes[idx], 1.0, 0.5 * si)
    acc = np.zeros_like(pw)
    far, far_phase = [], True
    for _ in range(terms):
        x = 0.5 * si
        w = pw[0].copy()
        for p in range(1, _TAYLOR_ORDER):
            np.multiply(pw[p - 1], x, out=pw[p])
        if far_phase:  # orbit points only ever move toward 0
            out = x > _TAYLOR_RADIUS
            far_phase = out.any()
            if far_phase:
                far.append((idx[out], x[out], w[out]))
                pw[:, out] = 0.0
        acc += pw
        si = _left_preimage(si, ti, gamma)
        ti = si**gamma
        pw[0, :n_nodes] = w[:n_nodes] / (1.0 + (1.0 + gamma) * ti[:n_nodes])
        pw[0, n_nodes:] = 0.5 * si[n_nodes:]
    s[idx], t[idx] = si, ti
    x, u = 0.5 * s[:, None], 1.0 / t[:, None]
    w = pw[0, :n_nodes, None]
    p = np.arange(_TAYLOR_ORDER)
    q = p + 1
    mom = x * x**p * (u / (q - gamma) + 0.5 + (1 + gamma) / (2 * q))
    mom[:n_nodes] = (w * x[:n_nodes]**p
                     * (u[:n_nodes] + (p + 2 + gamma) / 2) / q)
    mom[idx] += acc.T
    return mom, tuple(np.concatenate(a) for a in zip(*far))


def _invariant_cdf(gamma, at=_LAW_EDGES, nodes=_LAW_NODES, terms=_LAW_TERMS,
                   junction=_LAW_JUNCTION):
    """F(x) = mu[0, x) at the points `at` of [0, 1], which must end at 1.

    phi is the inverse of the left branch, g(x) = h((1 + x)/2)/2 for the
    invariant density h, and G(x) = int_0^x g.  Invariance gives, on
    Y = [1/2, 1], h(y) = sum_k (phi**k)'(y) g(phi**k(y)): the first-return
    operator on Y, whose spectral gap (Young, Israel J. Math. 1999) makes h
    smooth there.  h is solved for by Chebyshev collocation, and then
    F(r) = sum_k G(phi**k(r)), normalized so that F(1) = 1.  g and G are
    Taylor series near 0, so both sums are linear in the orbit moments.
    """
    j = np.arange(nodes)
    theta = np.pi * j / (nodes - 1)
    # node values -> Chebyshev coefficients of h(t), t = 4y - 3 = 2x - 1
    to_coef = np.linalg.inv(np.cos(np.outer(theta, j)))
    # Taylor coefficients of g at 0 from T_j^(p)(-1)
    dT = np.ones((_TAYLOR_ORDER, nodes))
    for p in range(1, _TAYLOR_ORDER):
        dT[p] = -dT[p - 1] * (j**2 - (p - 1)**2) / (2 * p - 1)
    dT *= (-1.0)**j
    p = np.arange(_TAYLOR_ORDER)
    fact = np.cumprod(np.maximum(p, 1))
    taylor = (0.5 * 2.0**p / fact)[:, None] * (dT @ to_coef)

    y = 0.75 + 0.25 * np.cos(theta)
    if at[-1] != 1.0:
        raise ValueError("the points must end at 1, where F is normalized")
    r = at[at > 0]
    # the node orbits start far from 0, so far is never empty
    mom, (fi, fx, fw) = _orbit_sums(np.concatenate((y, r)), nodes, gamma,
                                    terms, junction)
    # collocation: h(y_i) = (M h)_i, with the far points evaluated in full
    M = mom[:nodes] @ taylor
    of_node = fi < nodes
    rows = np.cos(np.outer(np.arccos(2.0 * fx[of_node] - 1.0), j)) @ to_coef
    np.add.at(M, fi[of_node], 0.5 * fw[of_node, None] * rows)
    A = M - np.eye(nodes)
    # one equation traded for the normalization int_Y h = 1
    cheb_int = np.zeros(nodes)
    cheb_int[::2] = 2.0 / (1.0 - j[::2]**2)
    A[0] = 0.25 * cheb_int @ to_coef
    rhs = np.zeros(nodes)
    rhs[0] = 1.0
    h = np.linalg.solve(A, rhs)

    c = to_coef @ h
    G = np.polynomial.chebyshev.chebint(c, lbnd=-1) / 4.0
    F = mom[nodes:] @ ((taylor @ h) / (p + 1))
    F += np.bincount(fi[~of_node] - nodes, minlength=r.size,
                     weights=np.polynomial.chebyshev.chebval(
                         2.0 * fx[~of_node] - 1.0, G))
    out = np.zeros(len(at))
    out[at > 0] = F / F[-1]
    return out


@functools.cache
def lsv_calibration(gamma: float) -> TabulatedCdfMeasure:
    """The interval map's invariant law mu, computed once per gamma.

    The cdf at _LAW_EDGES from the map's transfer operator
    (_invariant_cdf): deterministic, exact to about 1e-6 relative, with the
    tail mu[0, r) ~ C r**(1 - gamma) of Liverani, Saussol and Vaienti (ETDS
    1999).  Its arrays are read-only, as every caller shares them.
    """
    spec = LSVProcess(gamma=float(gamma))
    spec.validate()
    F = _invariant_cdf(spec.gamma)
    if not (np.all(np.isfinite(F)) and np.all(np.diff(F) > 0)):
        raise RuntimeError(f"invariant law for gamma = {gamma!r} is not a "
                           f"strictly increasing cdf")
    law = TabulatedCdfMeasure(_LAW_EDGES, F)
    law.xs.flags.writeable = law.Fs.flags.writeable = False
    return law
