"""Stationary process samplers and hit recording.

Every trajectory owns a counter-based random stream derived from
(seed, trajectory id), and every step of a given process variant consumes
a fixed number of uniforms from that stream, so results are reproducible
no matter how trajectories are scheduled or batched.  The vectorized
ensemble driver and the scalar process_step walk identical trajectories.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .intervals import IntervalFamily, TabulatedCdfMeasure
from .seqcore import check_fields

GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0

# largest double below 1: keeps rounding from reaching absorbing endpoints
_BELOW_ONE = 1.0 - 2.0**-53
_DEGENERATE = 1e-300


def array_pow(u, e: float):
    """u**e routed through numpy's 1-d loop for scalars and arrays alike.

    numpy evaluates 0-d and 1-d powers with different code paths whose
    results can differ in the last ulp; forcing one path keeps scalar
    process_step and the vectorized driver on identical trajectories.
    """
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
    uniforms_per_step = 2

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
    no randomness; the start is one uniform followed by burn-in.
    """

    gamma: float
    burn_in: int = 10_000

    variant = "lsv"
    uniforms_per_step = 0

    def validate(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("lsv needs gamma in (0,1)")
        if self.burn_in < 0:
            raise ValueError("negative burn-in")


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

    def s_of(self, x):
        if self.s_kind == "const":
            return np.full_like(np.asarray(x, dtype=float), self.s_scale)
        return self.s_scale * np.asarray(x, dtype=float)

    def nu_inverse(self, u):
        return array_pow(u, 1.0 / self.nu_power)


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
_COERCE = {"float": float, "int": int, "str": str}


def process_to_json(spec: ProcessSpec) -> dict:
    """{"variant": ...} followed by the init fields in declaration order."""
    if _VARIANTS.get(getattr(spec, "variant", None)) is not type(spec):
        raise TypeError(f"unknown spec type {type(spec).__name__}")
    d = {"variant": spec.variant}
    d.update((f.name, getattr(spec, f.name)) for f in fields(spec) if f.init)
    return d


def process_from_json(d: dict) -> ProcessSpec:
    """Spec from its JSON: "variant" and init fields only, those without a
    default required, each value coerced to its annotated type."""
    v = d.get("variant")
    if v not in _VARIANTS:
        raise ValueError(f"unknown process variant {v!r}")
    init = {f.name: f for f in fields(_VARIANTS[v]) if f.init}
    check_fields(f"process {v!r}", d, ["variant", *init])
    kw = {}
    for name, f in init.items():
        if name in d:
            kw[name] = _COERCE[f.type](d[name])
        elif f.default is MISSING:
            raise ValueError(f"process {v!r} missing required field {name!r}")
    spec = _VARIANTS[v](**kw)
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# Circle positions

# a = H 2**-27 + lo with H an integer; j H stays below 2**53, so it is exact
# in int64 and float64, while |j| < 2**26
_CIRCLE_BITS = 27
CIRCLE_MAX_STEPS = 2**26 - 1


def check_horizon(spec: ProcessSpec, n: int):
    """Raise ValueError when spec cannot be simulated exactly for n steps."""
    if isinstance(spec, CircleRWProcess) and n > CIRCLE_MAX_STEPS:
        raise ValueError(f"circle-rw positions are exact up to "
                         f"{CIRCLE_MAX_STEPS} = 2**26 - 1 steps, not n = {n}")


def circle_position(a: float, x0, j: np.ndarray, out=None) -> np.ndarray:
    """x0 + j a mod 1 for an int64 array j of net +a step counts, |j| < 2**26.

    With a = H 2**-27 + lo (H an integer, |lo| <= 2**-28) the fractional
    part of j H 2**-27 is exact integer arithmetic, and |j lo| < 1/4 adds
    one rounding: the result stays within an ulp of 1.0 of the exact value
    at every step count, where the recursion x +- a rounds at every step.
    j is overwritten; out, when given, receives the result.  The kernel and
    the scalar process_step both call this, so their paths agree bit for bit.
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
    np.floor(out, out=j, casting="unsafe")
    out -= j
    return out


class CircleState(float):
    """A circle-rw state: its position as a float, with the start x0 and
    the net +a step count j the position is computed from."""

    def __new__(cls, position: float, x0: float, j: int):
        self = super().__new__(cls, position)
        self.x0, self.j = x0, j
        return self


# ---------------------------------------------------------------------------
# Scalar stepping (the reference semantics)


def lsv_map(x, gamma: float):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    low = arr < 0.5
    out = np.where(low, arr * (1.0 + (2.0 * arr) ** gamma), 2.0 * arr - 1.0)
    out = np.minimum(out, _BELOW_ONE)
    return float(out[0]) if np.ndim(x) == 0 else out


def process_step(spec: ProcessSpec, state: float, uniforms) -> tuple:
    """Advance one step using two uniforms; returns (next state, regen flag).

    The flag is 1 only when a split chain regenerates this step; variants
    that need fewer than two uniforms ignore the rest.
    """
    u1, u2 = float(uniforms[0]), float(uniforms[1])
    if isinstance(spec, IIDProcess):
        return float(spec._inverse(u1)), 0
    if isinstance(spec, LSVProcess):
        if not 0.0 <= state <= 1.0:
            raise ValueError("lsv state outside [0,1]")
        return float(lsv_map(state, spec.gamma)), 0
    if isinstance(spec, ARHalfProcess):
        return 0.5 * state + (1.0 if u1 < 0.5 else 0.0), 0
    if isinstance(spec, CircleRWProcess):
        # a plain float state starts a walk there
        x0, j = ((state.x0, state.j) if isinstance(state, CircleState)
                 else (float(state), 0))
        j += 1 if u1 < 0.5 else -1
        if abs(j) > CIRCLE_MAX_STEPS:
            raise ValueError("circle-rw walk beyond 2**26 - 1 net steps")
        x = float(circle_position(spec.a, x0, np.array([j]))[0])
        return CircleState(x, x0, j), 0
    if isinstance(spec, SplitChainProcess):
        if not 0.0 <= state <= 1.0:
            raise ValueError("split-chain state outside [0,1]")
        s = float(spec.s_of(state))
        if not 0.0 <= s <= 1.0:
            raise ValueError("s(x) outside [0,1]")
        if u1 <= s:
            return float(spec.nu_inverse(u2)), 1
        if spec.q1 == "delta":
            return state, 0
        return float(spec.nu_inverse(u2)), 0
    raise TypeError(f"unknown spec type {type(spec).__name__}")


def init_uniform_count(spec: ProcessSpec) -> int:
    """Uniforms the stationary initializer consumes from the stream."""
    if isinstance(spec, ARHalfProcess):
        return 54  # dyadic series truncated at 2**-53 resolution
    return 1


def init_from_uniforms(spec: ProcessSpec, us) -> float:
    """Deterministic map from the consumed uniforms to the starting state.

    Exact for IID, CircleRW (Haar), every split chain including dmr (inverse
    cdf of x**invariant_power() from one uniform), and the dyadic ARHalf
    series; burn-in iteration for LSV.
    """
    us = np.atleast_1d(np.asarray(us, dtype=float))
    if isinstance(spec, IIDProcess):
        return float(spec._inverse(us[0]))
    if isinstance(spec, CircleRWProcess):
        return float(us[0])
    if isinstance(spec, SplitChainProcess):
        return float(array_pow(us[0], 1.0 / spec.invariant_power()))
    if isinstance(spec, LSVProcess):
        x = float(us[0])
        for _ in range(spec.burn_in):
            x = float(lsv_map(x, spec.gamma))
        return x
    if isinstance(spec, ARHalfProcess):
        bits = (us < 0.5).astype(float)
        weights = 2.0 ** -np.arange(len(us))
        return float(np.dot(bits, weights))
    raise TypeError(f"unknown spec type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Hit records


# A hits.jsonl line as to_line writes it: compact JSON, keys sorted.  The
# hit-time list's text is checked by parsing it (_canonical_hits).
_CANONICAL_LINE = re.compile(
    rb'\{"hit_times":\[(.*)\],"renewal_count":(0|[1-9][0-9]*),'
    rb'"restarts":(0|[1-9][0-9]*),"trajectory":(0|[1-9][0-9]*)\}')
# 1, 10, ..., 10**17: the insertion point of v >= 1 is its digit count,
# capped at 18
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_RECORD_KEYS = ("trajectory", "hit_times", "renewal_count", "restarts")


def _canonical_hits(body: bytes):
    """Hit times of a canonical list body, or None unless body is exactly
    how json.dumps writes a list of integers from 1 to 10**18 - 1."""
    if not body:
        return np.zeros(0, dtype=np.int64)
    try:
        ht = np.fromstring(body, dtype=np.int64, sep=",")
    except ValueError:  # text that is not integers between commas
        return None
    commas = body.count(b",")
    # One value per comma-separated element, and their digit counts summed
    # equal to the non-comma characters: so no element holds anything but
    # digits (a sign, space, point or exponent adds a character and no
    # digit), starts with 0 or is longer than 18 digits (which includes
    # every value the int64 parse clamped).
    if (ht.size != commas + 1
            or np.searchsorted(_POW10, ht, side="right").sum()
            != len(body) - commas):
        return None
    return ht


@dataclass(frozen=True)
class HitRecord:
    """One trajectory's hits; seed, n and drift live in the run's config.

    Frozen, with read-only hit times, so a record read from a canonical
    hits.jsonl line keeps that line as its serialization.
    """

    trajectory: int
    hit_times: np.ndarray  # strictly increasing step indices in 1..n
    renewal_count: int = 0  # split-chain regenerations over the n steps
    restarts: int = 0  # degenerate interval-map streams skipped first
    _line: bytes = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # a read-only view: an array the caller passed keeps its own flags
        ht = np.asarray(self.hit_times, dtype=np.int64).view()
        ht.flags.writeable = False
        object.__setattr__(self, "hit_times", ht)

    def to_json(self) -> dict:
        return {
            "trajectory": self.trajectory,
            "hit_times": self.hit_times.tolist(),
            "renewal_count": self.renewal_count,
            "restarts": self.restarts,
        }

    def to_line(self) -> bytes:
        """This record as one hits.jsonl line, without the newline."""
        if self._line is not None:
            return self._line
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":")).encode()

    @staticmethod
    def from_line(line: bytes) -> "HitRecord":
        """Record from one hits.jsonl line.

        A line in the form to_line writes is parsed by numpy and kept
        verbatim; any other line must be a JSON object for from_json.
        """
        m = _CANONICAL_LINE.fullmatch(line)
        ht = _canonical_hits(m[1]) if m else None
        if ht is None:
            try:
                doc = json.loads(line)
            except RecursionError:
                raise ValueError("hit record nests too deeply") from None
            return HitRecord.from_json(doc)
        rec = HitRecord(trajectory=int(m[4]), hit_times=ht,
                        renewal_count=int(m[2]), restarts=int(m[3]))
        object.__setattr__(rec, "_line", line)
        return rec

    @staticmethod
    def from_json(d: dict) -> "HitRecord":
        """Record from the object to_json writes; every field must be a JSON
        integer (hit_times a flat list of them) and the counters >= 0."""
        if not isinstance(d, dict):
            raise ValueError(f"hit record must be a JSON object, "
                             f"not {type(d).__name__}")
        extra = sorted(set(d) - set(_RECORD_KEYS))
        if extra:
            raise ValueError(f"hit record has unknown fields {extra}; "
                             f"rerun the experiment to rewrite hits.jsonl")
        missing = [k for k in _RECORD_KEYS if k not in d]
        if missing:
            raise ValueError(f"hit record missing fields {missing}")
        for k in ("trajectory", "renewal_count", "restarts"):
            if type(d[k]) is not int:  # bool is not a hit-record integer
                raise ValueError(f"hit record {k} must be a JSON integer")
        for k in ("renewal_count", "restarts"):
            if d[k] < 0:
                raise ValueError(f"hit record {k} must be >= 0")
        ht = d["hit_times"]
        if not (isinstance(ht, list) and all(type(t) is int for t in ht)):
            raise ValueError("hit record hit_times must be a flat list of "
                             "JSON integers")
        try:
            ht = np.array(ht, dtype=np.int64)
        except OverflowError:
            raise ValueError(
                "hit record hit_times must fit in 64 bits") from None
        return HitRecord(trajectory=d["trajectory"], hit_times=ht,
                         renewal_count=d["renewal_count"],
                         restarts=d["restarts"])


# ---------------------------------------------------------------------------
# Vectorized ensemble driver

# states per chunk across the width: bounds the uniforms, states and hit
# masks held at once, whatever the number of trajectories
_CELLS = 1 << 21


def _init_vector(spec, gens):
    """Starting states for the trajectories of gens, one stream each.

    The interval-map burn-in runs through the stepping kernel in lockstep
    across the width; each state equals init_from_uniforms on its stream's
    first init_uniform_count values.
    """
    if isinstance(spec, LSVProcess):
        x = np.array([g.random() for g in gens])
        return _final_state(spec, spec.burn_in, gens, x)
    count = init_uniform_count(spec)
    return np.array([init_from_uniforms(spec, g.random(count)) for g in gens])


def _advance_rows(spec, x, U, xs_buf, flags_buf):
    """Fill xs_buf[i] with the state after step i of this chunk, row by row."""
    m = xs_buf.shape[0]
    if isinstance(spec, LSVProcess):
        g = spec.gamma
        for i in range(m):
            low = x < 0.5
            x = np.where(low, x * (1.0 + (2.0 * x) ** g), 2.0 * x - 1.0)
            np.minimum(x, _BELOW_ONE, out=x)
            xs_buf[i] = x
        return x
    if isinstance(spec, ARHalfProcess):
        for i in range(m):
            x = 0.5 * x + (U[i, :, 0] < 0.5)
            xs_buf[i] = x
        return x
    if isinstance(spec, SplitChainProcess):
        for i in range(m):
            s = spec.s_of(x)
            regen = U[i, :, 0] <= s
            drawn = spec.nu_inverse(U[i, :, 1])
            if spec.q1 == "delta":
                x = np.where(regen, drawn, x)
            else:
                x = drawn
            xs_buf[i] = x
            flags_buf[i] = regen
        return x
    raise TypeError(f"unknown spec type {type(spec).__name__}")


def _chunks(spec, n, gens, x):
    """Step the trajectories of gens in lockstep from states x for n steps.

    Yields (c0, xs, flags) per chunk: xs[i] holds the states after step
    c0 + i + 1 and flags[i] the split-chain regeneration flags (None for
    other variants).  iid and circle-rw chunks are computed whole, without
    a loop over steps, and stored trajectory-major (xs is then a transposed
    view); the other variants step row by row.  A chunk holds at most
    _CELLS states; its buffers are reused, so each chunk is read before the
    next is requested.  Every trajectory draws from its own stream in step
    order, so the chunk size never changes the path.
    """
    rows = max(1, min(n, _CELLS // len(gens)))
    if isinstance(spec, IIDProcess):
        return _iid_chunks(spec, n, gens, rows)
    if isinstance(spec, CircleRWProcess):
        return _circle_chunks(spec, n, gens, x, rows)
    return _row_chunks(spec, n, gens, x, rows)


def _step_words(gens, m):
    """(t, w) per stream t: w holds the raw 64-bit word of the first uniform
    of each of its next m steps, drawn as one contiguous block.

    Both uniforms of every step are consumed, as by process_step.
    Generator.random makes the uniform (w >> 11) 2**-53 of a word w, so
    u < 1/2 exactly when w < 2**63.
    """
    for t, g in enumerate(gens):
        yield t, g.bit_generator.random_raw(2 * m)[::2]


def _iid_chunks(spec, n, gens, rows):
    """Each step's state is the marginal's inverse cdf at its first uniform."""
    xs = np.empty((len(gens), rows))  # trajectory-major
    for c0 in range(0, n, rows):
        m = min(rows, n - c0)
        for t, w in _step_words(gens, m):
            xs[t, :m] = spec._inverse((w >> 11) * 2.0**-53)
        yield c0, xs[:, :m].T, None


def _circle_chunks(spec, n, gens, x, rows):
    """x_k = x_0 + j_k a mod 1 for a whole chunk: j_k is a cumsum of the
    +-1 steps, carried across chunks, and circle_position needs no loop."""
    width = len(gens)
    xs = np.empty((width, rows))  # trajectory-major
    steps = np.empty((width, rows), dtype=np.int8)
    j = np.empty((width, rows), dtype=np.int64)
    x0, j_end = x[:, None], np.zeros((width, 1), dtype=np.int64)
    for c0 in range(0, n, rows):
        m = min(rows, n - c0)
        for t, w in _step_words(gens, m):
            np.less(w, 1 << 63, out=steps[t, :m])  # u < 1/2: a +a step
        s = steps[:, :m]
        s *= 2
        s -= 1
        jm = np.cumsum(s, axis=1, dtype=np.int64, out=j[:, :m])
        jm += j_end
        j_end = jm[:, -1:].copy()
        circle_position(spec.a, x0, jm, out=xs[:, :m])
        yield c0, xs[:, :m].T, None


def _row_chunks(spec, n, gens, x, rows):
    """Chunks of the variants stepped row by row: U[i, t] holds the two
    uniforms of step i of trajectory t."""
    width = len(gens)
    xs = np.empty((rows, width))
    flags = (np.empty((rows, width), dtype=bool)
             if isinstance(spec, SplitChainProcess) else None)
    U = draw = None
    if spec.uniforms_per_step:
        U, draw = np.empty((rows, width, 2)), np.empty((rows, 2))
    for c0 in range(0, n, rows):
        m = min(rows, n - c0)
        if U is not None:
            for t, g in enumerate(gens):
                g.random(out=draw[:m])
                U[:m, t] = draw[:m]
        fl = None if flags is None else flags[:m]
        x = _advance_rows(spec, x, None if U is None else U[:m], xs[:m], fl)
        yield c0, xs[:m], fl


def _final_state(spec, n, gens, x):
    """States of the trajectories of gens after n lockstep steps from x."""
    for _, xs, _ in _chunks(spec, n, gens, x):
        x = xs[-1].copy()
    return x


def _scatter(mask, c0):
    """(column, step times) for every column of mask with a True entry.

    One pass over the chunk: nonzero of the transpose lists entries column
    by column in step order, and bincount offsets split them per column.
    """
    cols, rows = np.nonzero(mask.T)
    counts = np.bincount(cols, minlength=mask.shape[1])
    pieces = np.split(rows + (c0 + 1), np.cumsum(counts)[:-1])
    return [(j, pieces[j]) for j in np.flatnonzero(counts)]


def _run_block(spec, n, seed, traj_ids, bounds, restart=0):
    """Lockstep simulation of the given trajectory ids; one HitRecord each.

    Interval-map orbits that underflow below _DEGENERATE are rerun
    together on their next restart stream, at most 8 times.
    """
    spec.validate()
    drift = spec.drift if isinstance(spec, CircleRWProcess) else 0.0
    lo, hi, wraps, full = bounds
    width = len(traj_ids)
    gens = [make_generator(seed, t, restart) for t in traj_ids]
    hits = [[] for _ in range(width)]
    rcount = np.zeros(width, dtype=int)
    degenerate = np.zeros(width, dtype=bool)

    for c0, xs, flags in _chunks(spec, n, gens, _init_vector(spec, gens)):
        m = xs.shape[0]
        if isinstance(spec, LSVProcess):
            degenerate |= (xs < _DEGENERATE).any(axis=0)
        ks = np.arange(c0 + 1, c0 + m + 1)
        pts = xs if drift == 0.0 else (xs - drift * ks[:, None]) % 1.0
        blo = lo[c0 : c0 + m, None]
        bhi = hi[c0 : c0 + m, None]
        bw = wraps[c0 : c0 + m, None]
        bf = full[c0 : c0 + m, None]
        hit = np.where(bw, (pts >= blo) | (pts < bhi), (pts >= blo) & (pts < bhi))
        hit |= bf
        for j, times in _scatter(hit, c0):
            hits[j].append(times)
        if flags is not None:
            rcount += flags.sum(axis=0)

    out = []
    for j, t in enumerate(traj_ids):
        ht = np.concatenate(hits[j]) if hits[j] else np.zeros(0, dtype=int)
        out.append(HitRecord(trajectory=t, hit_times=ht,
                             renewal_count=int(rcount[j]), restarts=restart))
    if degenerate.any():
        redo = [traj_ids[j] for j in np.flatnonzero(degenerate)]
        if restart == 8:
            raise RuntimeError(
                f"trajectories {redo}: orbit degenerate after 8 restarts")
        again = iter(_run_block(spec, n, seed, redo, bounds, restart + 1))
        out = [next(again) if d else r for r, d in zip(out, degenerate)]
    return out


def _checked_bounds(spec, family, n):
    """family.bounds(n), once n steps of spec against family are known to
    be simulable."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_horizon(spec, n)
    fh = family.horizon
    if fh is not None and fh < n:
        raise ValueError(f"family defined only up to {fh} < n = {n}")
    return family.bounds(n)


def simulate_ensemble(spec: ProcessSpec, family: IntervalFamily, n: int,
                      seed: int, n_traj: int, workers: int = None) -> list:
    """HitRecords for trajectories 0..n_traj-1, merged in trajectory order.

    Worker count comes from BCLAB_THREADS when not given; the partition has
    no effect on the results because every trajectory owns its own stream.
    """
    if n_traj < 1:
        raise ValueError("need n_traj >= 1")
    bounds = _checked_bounds(spec, family, n)
    if workers is None:
        workers = int(os.environ.get("BCLAB_THREADS", "1"))
    workers = max(1, min(workers, n_traj))
    ids = list(range(n_traj))
    if workers == 1:
        return _run_block(spec, n, seed, ids, bounds)
    from concurrent.futures import ThreadPoolExecutor

    blocks = [ids[i::workers] for i in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(lambda b: _run_block(spec, n, seed, b, bounds), blocks)
        records = [r for part in parts for r in part]
    records.sort(key=lambda r: r.trajectory)
    return records


# ---------------------------------------------------------------------------
# LSV occupation-measure calibration

CALIBRATION_VERSION = 1

# orbit entries into [0, r) the table must hold before its cdf is trusted at r
TAIL_ENTRIES = 1000


@dataclass
class LSVCalibration:
    gamma: float
    edges: np.ndarray  # increasing, edges[0] = 0, edges[-1] = 1
    counts: np.ndarray  # occupation counts per cell
    steps: int
    seed: int

    def cdf_values(self) -> np.ndarray:
        """Raw occupation cdf at the edges (zero below the deepest visit)."""
        c = np.concatenate(([0.0], np.cumsum(self.counts)))
        return c / c[-1]

    def tail_radius(self) -> float:
        """Junction r0 below which as_measure replaces the table by its tail.

        The orbit enters [0, r) only through the right-branch preimage
        [1/2, 1/2 + r/2), so the table's occupation of that preimage counts
        the separate entries below r.  r0 is the smallest edge with at least
        TAIL_ENTRIES entries (at most 1/2): deeper, few long excursions
        reach the radius and the table is biased low.  At 1e7 steps this
        gives r0 of a few 1e-4.
        """
        c = np.concatenate(([0.0], np.cumsum(self.counts, dtype=float)))
        radii = self.edges[(self.edges > 0.0) & (self.edges <= 0.5)]
        entries = (np.interp(0.5 + radii / 2.0, self.edges, c)
                   - np.interp(0.5, self.edges, c))
        enough = np.nonzero(entries >= TAIL_ENTRIES)[0]
        return float(radii[enough[0]] if enough.size else radii[-1])

    def as_measure(self) -> TabulatedCdfMeasure:
        """mu: the table above r0 = tail_radius(), F(r0) (r/r0)**(1-gamma) below.

        The invariant density behaves like x**-gamma near the neutral fixed
        point (Liverani, Saussol and Vaienti, ETDS 1999), so
        mu[0, r) ~ C r**(1-gamma): the exponent comes from theory and the
        constant from the table at r0, which keeps the cdf continuous,
        nondecreasing and positive on (0, 1].  The tail is computed from
        the stored counts, so tables cached before it existed get it too.
        """
        F = self.cdf_values()
        r0 = self.tail_radius()
        below = (self.edges > 0.0) & (self.edges < r0)
        F[below] = (np.interp(r0, self.edges, F)
                    * (self.edges[below] / r0) ** (1.0 - self.gamma))
        return TabulatedCdfMeasure(self.edges, F)


def _calibration_edges() -> np.ndarray:
    # geometric cells from 1e-30 up to 1, plus an exact zero edge: resolves
    # the polynomial density blowup at 0 across many decades
    geo = np.geomspace(1e-30, 1.0, 1801)
    return np.concatenate(([0.0], geo))


def _calibration_path(gamma: float, steps: int, seed: int) -> Path:
    """Cache file of one table; repr spells gamma exactly."""
    cache = os.environ.get(
        "BCLAB_CACHE", os.path.join(os.path.expanduser("~"), ".cache", "bclab"))
    return Path(cache) / f"lsv-cal-g{gamma!r}-s{steps}-r{seed}.npz"


def lsv_calibration(gamma: float, steps: int = 10_000_000,
                    seed: int = 0) -> LSVCalibration:
    """Occupation-measure table from one long orbit, cached to disk.

    The invariant density has no closed form; a single calibrated orbit
    (burn-in discarded) supplies mu-estimates for interval masses.  The
    table is built on first use and cached under ``BCLAB_CACHE`` (default
    ``~/.cache/bclab``); a cached file is used only when its version and
    stored (gamma, steps, seed) equal the requested ones.  It is written
    to a temporary file beside its place and moved there, so a reader
    never sees a partial table.
    """
    gamma, steps, seed = float(gamma), int(steps), int(seed)
    spec = LSVProcess(gamma=gamma)
    spec.validate()
    path = _calibration_path(gamma, steps, seed)
    if path.exists():
        with np.load(path) as z:
            if (int(z["version"]) == CALIBRATION_VERSION
                    and float(z["gamma"]) == gamma
                    and int(z["steps"]) == steps and int(z["seed"]) == seed):
                return LSVCalibration(gamma=gamma, edges=z["edges"],
                                      counts=z["counts"], steps=steps,
                                      seed=seed)
    edges = _calibration_edges()
    counts = np.zeros(len(edges) - 1, dtype=np.int64)

    def start(restart):
        # scalar Python floats, so cached and rebuilt tables agree bit for bit
        x = float(make_generator(seed, 0, restart).random(1)[0])
        for _ in range(spec.burn_in):
            x = x * (1.0 + (2.0 * x) ** gamma) if x < 0.5 else 2.0 * x - 1.0
            x = min(x, _BELOW_ONE)
        return x

    x = start(0)
    buf = np.empty(1 << 20)
    done = 0
    restart = 0
    while done < steps:
        m = min(len(buf), steps - done)
        for i in range(m):
            x = x * (1.0 + (2.0 * x) ** gamma) if x < 0.5 else 2.0 * x - 1.0
            if x > _BELOW_ONE:
                x = _BELOW_ONE
            buf[i] = x
        if buf[:m].min() < _DEGENERATE:
            restart += 1
            if restart > 8:
                raise RuntimeError("calibration orbit degenerate repeatedly")
            x = start(restart)
            continue
        counts += np.histogram(buf[:m], bins=edges)[0]
        done += m
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            np.savez(f, version=CALIBRATION_VERSION, gamma=gamma, edges=edges,
                     counts=counts, steps=steps, seed=seed)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return LSVCalibration(gamma=gamma, edges=edges, counts=counts,
                          steps=steps, seed=seed)
