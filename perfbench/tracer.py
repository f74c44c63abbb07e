"""Outside-in layer tracing of the isospec_lag package.

``Tracer.install`` wraps every public function of the eight modules in
every module namespace that binds it, which is where callers look the
name up: ``cli.evolve_lvn_rk4`` is the same wrapper as
``unitary_orbit.evolve_lvn_rk4``, and ``operator_core.as_complex_matrix``
is wrapped too, so calls from ``require_hermitian`` count.
``numpy.linalg.eigvalsh`` gets a count-only wrapper, so its time stays in
the caller's self time.  Nothing in the program is edited.

Each wrapper keeps per-function calls, total time and self time (total
minus time spent in wrapped callees).  Names that a later version of the
package no longer defines are reported as absent, not as errors.
"""

from __future__ import annotations

import importlib
import inspect
import time

import numpy as np

MODULES = ("cli", "operator_core", "trajectory", "heisenberg", "unitary_orbit",
           "sb2c", "bloch", "verifier")
LAGRANGIANS = ("heisenberg.lagrangian_heisenberg", "unitary_orbit.lagrangian_unitary",
               "sb2c.lagrangian_sb2c")


def _batch_size(args) -> int:
    """Points evaluated by one Lagrangian call: leading dims of a stacked tangent."""
    if not args:
        return 1
    arr = getattr(args[0], "point", getattr(args[0], "u", args[0]))
    if isinstance(arr, np.ndarray) and arr.ndim > 2:
        return int(np.prod(arr.shape[:-2]))
    return 1


class Tracer:
    def __init__(self):
        #: "module.function" -> [calls, total_s, self_s, points]
        self.stats: dict[str, list] = {}
        self.functions: set[str] = set()
        self._stack: list[float] = []

    def _wrap(self, key: str, fn, count_only=False):
        entry = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        batched = key in LAGRANGIANS

        if count_only:
            def counted(*args, **kwargs):
                entry[0] += 1
                return fn(*args, **kwargs)
            return counted

        def wrapper(*args, **kwargs):
            entry[0] += 1
            if batched:
                entry[3] += _batch_size(args)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                entry[1] += dt
                entry[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str = "isospec_lag") -> None:
        modules = []
        for name in MODULES:
            try:
                modules.append((name, importlib.import_module(f"{package}.{name}")))
            except ImportError:
                continue
        wrappers = {}
        for name, mod in modules:
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    key = f"{name}.{attr}"
                    self.functions.add(key)
                    wrappers[id(obj)] = (obj, self._wrap(key, obj))
        for _, mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        np.linalg.eigvalsh = self._wrap("numpy.eigvalsh", np.linalg.eigvalsh,
                                        count_only=True)
        self.functions.add("numpy.eigvalsh")


def merge(into: dict, stats: dict) -> None:
    for key, row in stats.items():
        acc = into.setdefault(key, [0, 0.0, 0.0, 0])
        for i, v in enumerate(row):
            acc[i] += v


# Per-layer metrics read straight off one wrapped function:
# metric name = "<module>.<function>.<stat>".
_STAT_INDEX = {"calls": 0, "total_s": 1, "self_s": 2}
_STAT_UNIT = {"calls": "count", "total_s": "s", "self_s": "s"}
FUNCTION_METRICS = (
    "cli.load_config.total_s", "cli.run.total_s", "cli.run.self_s", "numpy.eigvalsh.calls",
    "heisenberg.evolve_heisenberg_rk4.total_s", "heisenberg.heisenberg_rhs.calls",
    "unitary_orbit.evolve_lvn_rk4.total_s", "unitary_orbit.lvn_rhs.calls",
    "unitary_orbit.validate_density.calls",
    "trajectory.write_csv.total_s", "trajectory.write_json.total_s",
    "verifier.verify_trajectory.total_s",
    "operator_core.as_complex_matrix.calls", "operator_core.as_complex_matrix.total_s",
    "operator_core.matrix_exponential.calls", "operator_core.matrix_exponential.total_s",
    "heisenberg.evolve_heisenberg_exact.calls", "heisenberg.evolve_heisenberg_exact.total_s",
    "bloch.sb2c_flow_on_state.calls", "bloch.sb2c_flow_on_state.total_s",
    "sb2c.integrate_reduced.total_s", "sb2c.derive_parameters.calls",
    "sb2c.phi_prime.calls", "sb2c.reduced_rhs.calls", "sb2c.constraint_residual.total_s",
)
# Metrics derived from several functions or from the output files.
DERIVED_METRICS = {
    "process.interpreter_s": "s",
    "process.import_s": "s",
    "process.scipy_linalg_import_s": "s",
    "rk4.steps": "count",
    "rk4.step_us": "us",
    "trajectory.rows": "count",
    "trajectory.bytes": "B",
    "trajectory.write_us_per_row": "us",
    "verifier.lagrangian_evals": "count",
    "verifier.eval_us": "us",
    "verifier.validations_per_eval": "1",
    "sb2c.derive_parameters.per_step": "1",
    "trace.overhead_frac": "1",
}
LAYER_UNITS = {**{m: _STAT_UNIT[m.rsplit(".", 1)[1]] for m in FUNCTION_METRICS},
               **DERIVED_METRICS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, functions: set, files: list, n_scenarios: int,
                  process: dict, overhead_frac: float):
    """Per-scenario layer metrics and the names of absent functions.

    ``files`` holds one ``(kind, rows, bytes)`` triple per traced scenario
    that wrote a trajectory.
    """
    def total(key, stat="total_s"):
        return stats.get(key, [0, 0.0, 0.0, 0])[_STAT_INDEX[stat]]

    absent = sorted({m.rsplit(".", 1)[0] for m in FUNCTION_METRICS}
                    - functions)
    values = {}
    for metric in FUNCTION_METRICS:
        key, stat = metric.rsplit(".", 1)
        values[metric] = total(key, stat) / n_scenarios

    rk4_steps = sum(rows - 1 for kind, rows, _ in files if kind in ("heisenberg", "lvn"))
    rk4_time = (total("heisenberg.evolve_heisenberg_rk4")
                + total("unitary_orbit.evolve_lvn_rk4"))
    rows = sum(r for _, r, _ in files)
    write_time = total("trajectory.write_csv") + total("trajectory.write_json")
    evals = sum(stats.get(k, [0, 0, 0, 0])[3] for k in LAGRANGIANS)
    if not any(k in functions for k in LAGRANGIANS):
        absent.append("lagrangian_*")
    sb2c_steps = sum(rows - 1 for kind, rows, _ in files if kind == "sb2c" and rows > 0)

    values.update({
        **process,
        "rk4.steps": rk4_steps / n_scenarios,
        "rk4.step_us": 1e6 * _ratio(rk4_time, rk4_steps),
        "trajectory.rows": rows / n_scenarios,
        "trajectory.bytes": sum(b for _, _, b in files) / n_scenarios,
        "trajectory.write_us_per_row": 1e6 * _ratio(write_time, rows),
        "verifier.lagrangian_evals": evals / n_scenarios,
        "verifier.eval_us": 1e6 * _ratio(total("verifier.verify_trajectory"), evals),
        "verifier.validations_per_eval": _ratio(
            total("operator_core.as_complex_matrix", "calls"), evals),
        "sb2c.derive_parameters.per_step": _ratio(
            total("sb2c.derive_parameters", "calls"), sb2c_steps),
        "trace.overhead_frac": overhead_frac,
    })
    return values, absent
