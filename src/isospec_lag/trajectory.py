"""Time grids, the RK4 step, and time-stamped state sequences on disk.

Every integration in the package samples its flow on
:func:`time_grid` and advances it with :func:`rk4_step`.

A :class:`Trajectory` stores either a stack of complex matrices
(shape ``(N, n, n)``) or a stack of named real coordinate vectors
(shape ``(N, k)``).  Serialization flattens complex matrices
column-major into ``<name>_re_<row>_<col>`` / ``<name>_im_<row>_<col>``
columns; real coordinate stacks use their explicit column names.  All
floats are written with shortest round-trip formatting so repeated runs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


#: A remainder below this fraction of a step snaps onto the last grid point.
GRID_SNAP = 1e-9


def time_grid(t_final: float, step: float) -> np.ndarray:
    """Sample times ``t_k = k*step`` whose last entry is exactly ``t_final``.

    All gaps equal ``step`` except the last, which is a shorter remainder
    when ``step`` does not divide ``t_final``.  A remainder below
    ``GRID_SNAP * step`` moves the last full-step point onto ``t_final``
    instead of adding a sliver row, so there are
    ``ceil(t_final/step - GRID_SNAP) + 1`` samples; a positive
    ``t_final`` below ``GRID_SNAP * step`` still gets its one step.

    Raises
    ------
    ValueError
        Unless ``step`` is finite and positive, ``t_final`` is finite
        and non-negative, and the step count ``t_final/step`` is finite.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step}")
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    if not math.isfinite(t_final / step):
        raise ValueError(f"t_final/step overflows: {t_final}/{step}")
    n_steps = max(math.ceil(t_final / step - GRID_SNAP), int(t_final > 0))
    times = np.arange(n_steps + 1) * step
    times[-1] = t_final
    return times


def rk4_step(f, y, dt: float):
    """One classic fourth-order Runge-Kutta step of ``dy/dt = f(y)``."""
    k1 = f(y)
    k2 = f(y + dt / 2 * k1)
    k3 = f(y + dt / 2 * k2)
    k4 = f(y + dt * k3)
    return y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def format_float(x) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


@dataclass
class Trajectory:
    """Sampled states of one integration run.

    times : (N,) array of sample times.
    states : (N, n, n) complex matrices or (N, k) real vectors.
    name : column prefix for matrix states.
    column_names : names of the k coordinates when states are vectors.
    meta : free-form metadata (step size, warnings, singularity record).
    """

    times: np.ndarray
    states: np.ndarray
    name: str = "A"
    column_names: tuple | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states)
        if len(self.times) != len(self.states):
            raise ValueError("times and states lengths differ")

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def headers(self) -> list[str]:
        """Column headers, excluding the leading time column."""
        if self.states.ndim == 3:
            n = self.states.shape[1]
            cols = []
            for j in range(n):  # column-major flattening
                for i in range(n):
                    cols.append(f"{self.name}_re_{i}_{j}")
                    cols.append(f"{self.name}_im_{i}_{j}")
            return cols
        if self.column_names is None:
            return [f"{self.name}_{k}" for k in range(self.states.shape[1])]
        return list(self.column_names)

    def table(self) -> np.ndarray:
        """(N, columns) float array of the states in header order."""
        if self.states.ndim == 3:  # column-major, each entry as (re, im)
            stack = np.ascontiguousarray(self.states.swapaxes(1, 2), dtype=complex)
            return stack.view(float).reshape(len(stack), 2 * stack.shape[1] ** 2)
        return self.states.astype(float)


def rk4_trajectory(f, y0, times: np.ndarray, step: float, name: str) -> Trajectory:
    """RK4 samples of ``dy/dt = f(y)`` on ``times = time_grid(t_final, step)``.

    Every step has size ``step`` except the last, which ends at ``times[-1]``.
    """
    states = [y0]
    for k in range(1, len(times)):
        dt = step if k < len(times) - 1 else times[-1] - times[-2]
        states.append(rk4_step(f, states[-1], dt))
    return Trajectory(times, np.array(states), name=name,
                      meta={"step": step, "t_final": float(times[-1])})


def write_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with a leading ``t`` column."""
    lines = [",".join(["t"] + traj.headers())]
    for t, row in zip(traj.times.tolist(), traj.table()):
        lines.append(",".join(map(format_float, [t] + row.tolist())))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(traj: Trajectory, path) -> None:
    """Write a trajectory as JSON: time list plus per-column value lists."""
    columns = dict(zip(traj.headers(), traj.table().T.tolist()))
    doc = {"t": traj.times.tolist(), "columns": columns}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
