"""The scalar reference the ensemble kernel is tested against: one state,
one step at a time, on the draws step_draws gives each step."""

import numpy as np

from bclab.processes import (
    CIRCLE_MAX_STEPS,
    ARHalfProcess,
    CircleRWProcess,
    IIDProcess,
    LSVProcess,
    ProcessSpec,
    SplitChainProcess,
    _BELOW_ONE,
    circle_position,
)


class CircleState(float):
    """A circle-rw state: its position as a float, with the start x0 and
    the net +a step count j the position is computed from."""

    def __new__(cls, position: float, x0: float, j: int):
        self = super().__new__(cls, position)
        self.x0, self.j = x0, j
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
        j += -1 if draws[0] else 1
        if abs(j) > CIRCLE_MAX_STEPS:
            raise ValueError("circle-rw walk beyond 2**26 - 1 net steps")
        x = float(circle_position(spec.a, x0, np.array([j]))[0])
        return CircleState(x, x0, j), 0
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
