"""The scalar reference the ensemble kernel is tested against: one state,
one step at a time, on the draws step_draws gives each step."""

import math
from fractions import Fraction

import numpy as np

from bclab.processes import (
    ARHalfProcess,
    CircleRWProcess,
    IIDProcess,
    LSVProcess,
    ProcessSpec,
    SplitChainProcess,
    _BELOW_ONE,
)

UNITS = 2**64  # a circle-rw position in units of 2**-64


def units(v: float) -> int:
    """v 2**64 as a Python integer, for v a whole multiple of 2**-64."""
    q = Fraction(v) * UNITS
    if q.denominator != 1:
        raise ValueError(f"{v!r} is no whole multiple of 2**-64")
    return int(q)


class CircleState(float):
    """A circle-rw state: the start x0 and the net +a step count j, with
    the exact position X = units(x0) + j units(a) mod 2**64 in Python
    integers; as a float, X 2**-64 rounded down to a multiple of 2**-53."""

    def __new__(cls, x0: float, j: int, a: float):
        fixed = (units(x0) + j * units(a)) % UNITS
        self = super().__new__(cls, math.ldexp(fixed >> 11, -53))
        self.x0, self.j, self.units = x0, j, fixed
        return self


def lsv_map(x, gamma: float):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    low = arr < 0.5
    two = 2.0 * arr
    # np.power, not **, which takes sqrt at gamma = 1/2: the kernel's ufunc
    out = np.where(low, arr * (1.0 + np.power(two, gamma)), two - 1.0)
    out = np.minimum(out, _BELOW_ONE)
    return float(out[0]) if np.ndim(x) == 0 else out


def process_step(spec: ProcessSpec, state: float, draws) -> tuple:
    """Advance one step on its draws, a row of step_draws; returns
    (next state, regen flag).

    The flag is 1 only when a split chain regenerates this step.
    """
    if isinstance(spec, IIDProcess):
        return float(spec._inverse(float(draws[0]))), 0
    if isinstance(spec, LSVProcess):
        if not 0.0 <= state <= 1.0:
            raise ValueError("lsv state outside [0,1]")
        return float(lsv_map(state, spec.gamma)), 0
    if isinstance(spec, ARHalfProcess):
        return 0.5 * state + (1.0 if draws[0] < 0.5 else 0.0), 0
    if isinstance(spec, CircleRWProcess):
        # a plain float state starts a walk there
        x0, j = ((state.x0, state.j) if isinstance(state, CircleState)
                 else (float(state), 0))
        return CircleState(x0, j + (-1 if draws[0] else 1), spec.a), 0
    if isinstance(spec, SplitChainProcess):
        if not 0.0 <= state <= 1.0:
            raise ValueError("split-chain state outside [0,1]")
        s = spec.s_scale * (state if spec.s_kind == "linear" else 1.0)
        if not 0.0 <= s <= 1.0:
            raise ValueError("s(x) outside [0,1]")
        u1, u2 = float(draws[0]), float(draws[1])
        if u1 <= s:
            return float(spec.nu_inverse(u2)), 1
        if spec.q1 == "delta":
            return state, 0
        return float(spec.nu_inverse(u2)), 0
    raise TypeError(f"unknown spec type {type(spec).__name__}")


def in_target(spec: ProcessSpec, iv, k: int, x) -> bool:
    """Whether step k's state x lies in its target iv.  A circle-rw state
    is tested exactly, in rationals, in the drift frame: x_k - k t mod 1;
    any other by Interval.contains."""
    if not isinstance(x, CircleState):
        return bool(iv.contains(x))
    y = (Fraction(x.units, UNITS) - k * Fraction(spec.drift)) % 1
    lo, hi = Fraction(iv.lo), Fraction(iv.hi)
    if iv.full:
        return True
    if iv.wraps:
        return y >= lo or y < hi
    return lo <= y < hi


def replay(spec: ProcessSpec, family, x, draws) -> list:
    """Hit times of a trajectory from state x, stepped by process_step on
    the rows of draws (step_draws') and tested by in_target."""
    hits = []
    for k, (row, iv) in enumerate(
            zip(draws, family.targets(1, len(draws))), start=1):
        x, _ = process_step(spec, x, row)
        if in_target(spec, iv, k, x):
            hits.append(k)
    return hits
