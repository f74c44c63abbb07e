"""Batch command line front end.

One scenario per invocation:

    isospec-lag <kind> --config cfg.json [--out DIR] [--format csv|json]
                [--tolerance NAME=VALUE ...]

with kind one of heisenberg, lvn, sb2c, bloch, verify.  The config file
is JSON; complex entries are [re, im] pairs, so a named matrix is a
nested array with innermost length 2.  times holds t_final and step,
output holds path and format, tolerances holds per-invariant overrides.

Each run writes trajectory.csv (or .json) and report.json (kind, wall
time, trajectory path, invariants, warnings, singular flag) into the
output directory and prints one line per invariant:

    NAME max=<deviation> tol=<tolerance> PASS|FAIL

Exit status: 0 all invariants pass, 1 invariant failure, 2 config
error, 3 numerical singularity (partial outputs are kept).  Repeated
runs with the same config produce byte-identical trajectory files;
bloch evaluates its wedge and flow-field checks on the rows it writes.
ISOSPEC_LOG (error, warn, info, debug), read on each call of main, sets
diagnostic verbosity on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# trajectory loads operator_core for every kind, so it is bound here once;
# each runner imports the modules of its own kind, so one process loads
# only what its scenario runs.
from .operator_core import dagger, det2, frobenius_norm, mul2, require_hermitian
from .trajectory import (Trajectory, exact_commutator_flow, format_float,
                         rk4_commutator_trajectory, splits, stream_csv, time_grid, write_csv,
                         write_json)

# Named, not __name__: under python -m this module runs as __main__.
logger = logging.getLogger("isospec_lag.cli")

class ConfigError(ValueError):
    """Scenario configuration is malformed or inconsistent."""


@dataclass
class ScenarioConfig:
    kind: str
    matrices: dict
    t_final: float
    step: float
    tolerances: dict
    out_dir: Path
    fmt: str

    @property
    def trajectory_path(self) -> Path:
        return self.out_dir / f"trajectory.{self.fmt}"


@dataclass(frozen=True)
class InvariantResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool


def _number(value, what: str) -> float:
    """A config number; bools, which float() would take for 0 and 1, are not."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} is not a number: {exc}") from exc


def _complex_matrix(node, name: str) -> np.ndarray:
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"matrix {name!r} is not a numeric array: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ConfigError(
            f"matrix {name!r} must be a nested array of [re, im] pairs, "
            f"got shape {arr.shape}"
        )
    if any(isinstance(x, bool) for row in node for pair in row for x in pair):
        raise ConfigError(f"matrix {name!r} has a true or false entry, not a number")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"matrix {name!r} has non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def _real_row(m: np.ndarray, name: str, width: int) -> np.ndarray:
    if m.shape != (1, width):
        raise ConfigError(f"matrix {name!r} must be a 1x{width} row, got {m.shape}")
    if np.max(np.abs(m.imag)) > 1e-12:
        raise ConfigError(f"matrix {name!r} must be real")
    return m.real[0]


def load_config(path, kind: str, out_dir=None, fmt=None,
                tolerance_overrides=()) -> ScenarioConfig:
    """Parse and validate a scenario file, applying command-line overrides."""
    if kind not in SCENARIO_KINDS:
        raise ConfigError(f"unknown kind {kind!r}")
    _, required_matrices, default_tolerances = SCENARIO_KINDS[kind]
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    if "kind" in doc and doc["kind"] != kind:
        raise ConfigError(f"config kind {doc['kind']!r} does not match {kind!r}")

    raw_matrices = doc.get("matrices", {})
    if not isinstance(raw_matrices, dict):
        raise ConfigError("matrices must be an object of named arrays")
    matrices = {k: _complex_matrix(v, k) for k, v in raw_matrices.items()}
    for required in required_matrices:
        if required not in matrices:
            raise ConfigError(f"kind {kind!r} requires matrix {required!r}")

    times = doc.get("times", {})
    if not isinstance(times, dict) or "t_final" not in times or "step" not in times:
        raise ConfigError("times must provide t_final and step")
    t_final = _number(times["t_final"], "t_final")
    step = _number(times["step"], "step")

    tolerances = dict(default_tolerances)
    declared = doc.get("tolerances", {})
    if not isinstance(declared, dict):
        raise ConfigError("tolerances must be an object")
    for key, value in list(declared.items()) + list(tolerance_overrides):
        if key not in tolerances:
            raise ConfigError(
                f"unknown tolerance {key!r} for kind {kind!r}; "
                f"known: {', '.join(sorted(tolerances))}"
            )
        tolerances[key] = _number(value, f"tolerance {key!r}")
        if not (math.isfinite(tolerances[key]) and tolerances[key] >= 0):
            raise ConfigError(f"tolerance {key!r} must be finite and non-negative, got {value!r}")

    output = doc.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output must be an object")
    chosen_path = out_dir if out_dir is not None else output.get("path", ".")
    if not isinstance(chosen_path, (str, os.PathLike)):
        raise ConfigError(f"output path must be a string, got {chosen_path!r}")
    chosen_dir = Path(chosen_path)
    chosen_fmt = fmt if fmt is not None else output.get("format", "csv")
    if chosen_fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {chosen_fmt!r}")

    return ScenarioConfig(
        kind=kind, matrices=matrices, t_final=t_final, step=step,
        tolerances=tolerances, out_dir=chosen_dir, fmt=chosen_fmt,
    )


def _judge(measured: dict, times, tolerances: dict) -> list:
    """One InvariantResult per tolerance, in the table's order.

    A measurement is a number, or one deviation per sample of ``times``;
    then its worst sample is the value, and its index and time are
    logged.  An empty grid gives NaN, which fails.
    """
    results = []
    for name, tol in tolerances.items():
        value = measured[name]
        if np.ndim(value):
            if len(value) == 0:
                value = float("nan")
            else:
                worst = int(np.argmax(value))
                logger.info("%s worst at sample %d, t=%s",
                            name, worst, format_float(times[worst]))
                value = value[worst]
        value, tol = float(value), float(tol)
        results.append(InvariantResult(name, value, tol, bool(value <= tol)))
    return results


def _trace(states) -> np.ndarray:
    return np.trace(states, axis1=-2, axis2=-1)


def _run_commutator(config: ScenarioConfig, stream, validate, sign: int, name: str, drifts):
    """heisenberg (sign -1) and lvn (sign +1): RK4 on dy/dt = sign i [y, H], its
    spectrum drift, the kind's ``drifts(states, spectra)``, then the exact endpoint."""
    # RK4 and the reference share one H
    y0 = validate(config.matrices["initial"])
    h = require_hermitian(config.matrices["hamiltonian"], name="hamiltonian", shape=y0.shape)
    traj = rk4_commutator_trajectory(y0, h, sign, config.t_final, config.step, name)
    # the first row is y0, the reference of every drift
    spectra = np.linalg.eigvalsh(traj.states)
    return traj, {"spectrum_drift": np.max(np.abs(spectra - spectra[0]), axis=-1),
                  **drifts(traj.states, spectra),
                  "rk4_exact_endpoint": frobenius_norm(
                      traj.final_state - exact_commutator_flow(y0, h, sign, config.t_final))}, []


def _operator(m):
    return require_hermitian(m, name="initial")


def _operator_drifts(states, spectra):
    traces = _trace(states)
    norms = np.linalg.norm(states, axis=(-2, -1))
    return {"trace_drift": np.abs(traces - traces[0]), "frobenius_drift": np.abs(norms - norms[0])}


def _density(m):
    from .unitary_orbit import validate_density
    return validate_density(m)


def _density_drifts(states, spectra):
    purity = _trace(states @ states).real
    weights = np.clip(spectra, 0.0, None)
    kept = weights > 1e-14
    entropy = -np.sum(np.where(kept, weights * np.log(np.where(kept, weights, 1.0)), 0.0),
                      axis=-1)
    return {"purity_drift": np.abs(purity - purity[0]),
            "entropy_drift": np.abs(entropy - entropy[0]),
            "trace_drift": np.abs(_trace(states) - 1.0)}


def _run_sb2c(config: ScenarioConfig, stream):
    from .sb2c import (ReducedState, SB2CSetup, constraint_residual_values,
                       derive_parameters, integrate_reduced, sb2c_matrices)

    row = _real_row(config.matrices["initial"], "initial", 2)
    setup = SB2CSetup(a0=config.matrices["a0"], hamiltonian=config.matrices["hamiltonian"])
    params = derive_parameters(setup)
    initial = ReducedState(y=float(row[0]), r=float(row[1]))
    traj = integrate_reduced(initial, params, config.t_final, config.step, stream)
    rho0 = setup.a0 @ dagger(setup.a0)
    ys, rs, xs = traj.states.T
    gm = sb2c_matrices(rs, xs, ys)
    with np.errstate(over="ignore", invalid="ignore"):  # a row out of float range reads NaN
        det_drifts = np.abs(det2(mul2(mul2(gm, rho0), dagger(gm))) - det2(rho0))
    residuals = np.abs(constraint_residual_values(rs, xs, ys, params))
    return traj, {
        "constraint_residual": residuals,
        "determinant_conservation": det_drifts,
    }, []


def _three_flows(t, points):
    """conjugate_flow of the three subgroups, stacked on a leading axis."""
    from .bloch import conjugate_flow

    conjugated, coords = zip(*(conjugate_flow(k, t, points) for k in (1, 2, 3)))
    return np.stack(conjugated), np.stack(coords)


def _run_bloch(config: ScenarioConfig, stream):
    from .bloch import (FD_STEP, BlochVector, conjugate_flow, density_from_bloch,
                        generator_frame, wedge_closed_form_values)

    x0 = BlochVector(*_real_row(config.matrices["initial"], "initial", 3).tolist())
    times = time_grid(config.t_final, config.step)
    conjugated, flowed = _three_flows(times, x0.as_array())
    columns = tuple(f"f{k}_x{i}" for k in (1, 2, 3) for i in (1, 2, 3))
    traj = Trajectory(times=times, states=np.concatenate(flowed, axis=-1), column_names=columns)

    # deviations of shape (3, N): flows by samples
    ball_excess = np.maximum(0.0, np.linalg.norm(flowed, axis=-1) - 1.0)
    det_drift = np.abs(det2(conjugated) - det2(density_from_bloch(x0)))

    # the frame's determinant against its closed form, at every row written
    wedge_err = np.max(np.abs(np.linalg.det(generator_frame(flowed))
                              - wedge_closed_form_values(flowed)))
    # flow k's rate at up to 127 of its own rows, evenly strided, against Y_k
    sampled = flowed[:, ::-(-len(times) // 127)]
    nearby = np.stack([conjugate_flow(k, [[FD_STEP], [-FD_STEP]], sampled[k - 1])[1]
                       for k in (1, 2, 3)])
    rates = (nearby[:, 0] - nearby[:, 1]) / (2 * FD_STEP)
    fields = np.einsum("kmkj->kmj", generator_frame(sampled))
    flow_err = np.max(np.abs(rates - fields))

    pole = np.array([0.0, 0.0, 1.0])
    probe_times = [t for t in (config.t_final / 2, config.t_final) if t > 0]
    moved = _three_flows(probe_times, pole)[1]
    p_err = np.max(np.linalg.norm(moved - pole, axis=-1), initial=0.0)

    return traj, {
        "ball_invariance": np.max(ball_excess, axis=0),
        "det_conservation": np.max(det_drift, axis=0),
        "wedge_closed_form": wedge_err,
        "flow_field_consistency": flow_err,
        "fixed_point_p": p_err,
    }, []


def _run_verify(config: ScenarioConfig, stream):
    from .heisenberg import flatten_complex, lagrangian_heisenberg_chart
    from .verifier import EXPECTED_RATIO, refine, verify_trajectory

    initial = _operator(config.matrices["initial"])
    h = require_hermitian(config.matrices["hamiltonian"], name="hamiltonian", shape=initial.shape)
    times = time_grid(config.t_final, config.step)
    states = exact_commutator_flow(initial, h, -1, times)
    traj = Trajectory(times=times, states=states, name="A")

    check = functools.partial(verify_trajectory, lagrangian_heisenberg_chart(h))
    fine, coarse, ratio = refine(check, times, flatten_complex(states))
    for label, report in (("fine", fine), ("coarse", coarse)):
        logger.info("%s pass: %d Lagrangian evaluations in %d stacked calls",
                    label, report.lagrangian_evals, report.lagrangian_calls)
    if ratio is None:  # both at the rounding floor; refinement uninformative
        deviation, warnings = 0.0, ["residuals at rounding floor; convergence ratio not measured"]
    else:
        deviation, warnings = abs(ratio - EXPECTED_RATIO), []
        logger.info("refinement ratio %.3f", ratio)
    measured = {"el_residual_max": fine.max_residual, "convergence_ratio": deviation}
    return traj, measured, warnings


# Each kind's runner, its required config matrices and its default
# tolerances, whose order is the printed and reported invariant order.
SCENARIO_KINDS = {
    "heisenberg": (
        functools.partial(_run_commutator, validate=_operator, sign=-1, name="A",
                          drifts=_operator_drifts),
        ("initial", "hamiltonian"),
        {"spectrum_drift": 1e-10, "trace_drift": 1e-10, "frobenius_drift": 1e-10,
         "rk4_exact_endpoint": 1e-8},
    ),
    "lvn": (
        functools.partial(_run_commutator, validate=_density, sign=1, name="rho",
                          drifts=_density_drifts),
        ("initial", "hamiltonian"),
        {"spectrum_drift": 1e-10, "purity_drift": 1e-8, "entropy_drift": 1e-8,
         "trace_drift": 1e-10, "rk4_exact_endpoint": 1e-8},
    ),
    "sb2c": (
        _run_sb2c,
        ("initial", "a0", "hamiltonian"),
        {"constraint_residual": 1e-8, "determinant_conservation": 1e-9},
    ),
    "bloch": (
        _run_bloch,
        ("initial",),
        {"ball_invariance": 1e-9, "det_conservation": 1e-10, "wedge_closed_form": 1e-9,
         "flow_field_consistency": 1e-6, "fixed_point_p": 1e-9},
    ),
    # convergence_ratio passes when the refinement ratio lies in
    # [4 - tol, 4 + tol]; the reported deviation is |ratio - 4|.
    "verify": (
        _run_verify,
        ("initial", "hamiltonian"),
        {"el_residual_max": 1e-3, "convergence_ratio": 1.0},
    ),
}


def _json_safe(x: float):
    return float(x) if math.isfinite(x) else None


def run(config: ScenarioConfig):
    """Execute one scenario, judge its invariants, write trajectory and
    report; return the invariant results, the warnings and the singular flag.

    The kind's runner in ``SCENARIO_KINDS``, ``runner(config, stream)``,
    returns the trajectory, its measurements and its warnings; run writes
    every file.  sb2c's integrator calls ``stream(times, headers)`` after
    its config checks, so a config error leaves no output directory: a CSV table that splits is then streamed
    to a second process while the runner steps and measures (else None),
    and is otherwise written after the runner.  The library raises ValueError for
    inputs outside its domain (a non-Hermitian matrix, a bad grid, a flow
    or a Lagrangian beyond float range), so a runner's ValueError is a
    ConfigError, as is an OSError from writing the outputs (the output
    path names a file, say), streamed or not.
    """
    start, streamed = time.perf_counter(), False
    try:
        with contextlib.ExitStack() as outputs:
            def stream(times, headers):
                nonlocal streamed
                streamed = config.fmt == "csv" and splits(len(times) * (len(headers) + 1))
                if not streamed:
                    return None
                config.out_dir.mkdir(parents=True, exist_ok=True)
                return outputs.enter_context(stream_csv(config.trajectory_path, times, headers))

            traj, measured, warnings = SCENARIO_KINDS[config.kind][0](config, stream)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except OSError as exc:
        raise _unwritable(config, exc) from exc
    invariants = _judge(measured, traj.times, config.tolerances)
    record = traj.meta.get("singularity")
    singular = record is not None
    if singular:
        warnings.append(f"singularity near t={record['time']!r}, "
                        f"bracket={record['bracket']!r}: {record['reason']}")
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        if not streamed:
            (write_csv if config.fmt == "csv" else write_json)(traj, config.trajectory_path)
        doc = {
            "kind": config.kind,
            "wall_time_s": time.perf_counter() - start,
            "trajectory": str(config.trajectory_path),
            "invariants": {
                r.name: {"max": _json_safe(r.max_deviation), "tol": r.tolerance,
                         "pass": r.passed}
                for r in invariants
            },
            "warnings": warnings,
            "singular": singular,
        }
        with open(config.out_dir / "report.json", "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise _unwritable(config, exc) from exc
    return invariants, warnings, singular


def _unwritable(config: ScenarioConfig, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write outputs to {config.out_dir}: {exc}")


def _configure_logging() -> None:
    """Set the root level from ISOSPEC_LOG on every call.  The stderr
    handler is added only where the root logger has none, so a process
    that calls main repeatedly keeps the handler, and the stream, of its
    first call."""
    raw = os.environ.get("ISOSPEC_LOG", "warn")
    levels = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    level = levels.get(raw.strip().lower())
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    logging.getLogger().setLevel(logging.WARNING if level is None else level)
    if level is None and raw.strip().lower() != "warn":
        logger.warning("ignoring invalid ISOSPEC_LOG=%r", raw)


def _parse_tolerance_overrides(pairs):
    out = []
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"--tolerance expects NAME=VALUE, got {pair!r}")
        out.append((key, value))
    return out


def main(argv=None) -> int:
    _configure_logging()
    parser = argparse.ArgumentParser(
        prog="isospec-lag",
        description="Quantum-evolution Lagrangian simulations and checks.",
    )
    parser.add_argument("kind", choices=SCENARIO_KINDS, help="scenario family to run")
    parser.add_argument("--config", required=True, help="JSON scenario file")
    parser.add_argument("--out", help="output directory (default: config output.path)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt",
                        help="trajectory format (default: config output.format)")
    parser.add_argument("--tolerance", action="append", default=[],
                        metavar="NAME=VALUE", help="override one tolerance")
    args = parser.parse_args(argv)

    try:
        overrides = _parse_tolerance_overrides(args.tolerance)
        config = load_config(args.config, args.kind, out_dir=args.out,
                             fmt=args.fmt, tolerance_overrides=overrides)
        invariants, warnings, singular = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    for r in invariants:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name} max={format_float(r.max_deviation)} "
              f"tol={format_float(r.tolerance)} {status}")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)

    if singular:
        return 3
    return 0 if all(r.passed for r in invariants) else 1


def script() -> None:
    """Entry of the ``isospec-lag`` console script and of ``python -m
    isospec_lag.cli``: run main, then exit with its code.

    Before exiting, every object the collector tracks (~22k, nearly all
    numpy's and the stdlib's) is frozen into its permanent generation,
    which the interpreter's exit-time collections skip.  atexit handlers,
    the flush of the std streams and module teardown still run.  main
    itself leaves the collector alone: tests and tools call it in-process.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    script()
