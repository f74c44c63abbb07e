"""Batch command line front end.

One scenario per invocation:

    isospec-lag <kind> --config cfg.json [--out DIR] [--format csv|json]
                [--seed N] [--tolerance NAME=VALUE ...]

with kind one of heisenberg, lvn, sb2c, bloch, verify.  The config file
is JSON; complex entries are [re, im] pairs, so a named matrix is a
nested array with innermost length 2.  times holds t_final and step,
output holds path and format, tolerances holds per-invariant overrides.

Each run writes trajectory.csv (or .json) and report.json into the
output directory and prints one line per invariant:

    NAME max=<deviation> tol=<tolerance> PASS|FAIL

Exit status: 0 all invariants pass, 1 invariant failure, 2 config
error, 3 numerical singularity (partial outputs are kept).  Repeated
runs with the same config and seed produce byte-identical trajectory
files.  ISOSPEC_LOG (error, warn, info, debug) sets diagnostic
verbosity on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bloch import (
    BlochVector,
    OrbitTag,
    classify_orbit,
    conjugate_flow,
    density_from_bloch,
    generator_frame,
    uniform_ball_sample,
    wedge_closed_form_values,
)
from .heisenberg import (
    HeisenbergScenario,
    evolve_heisenberg_exact,
    evolve_heisenberg_rk4,
)
from .operator_core import (
    dagger,
    frobenius_norm,
    hermitian_propagator,
    require_hermitian,
)
from .sb2c import (
    ReducedState,
    SB2CSetup,
    constraint_residual_values,
    derive_parameters,
    integrate_reduced,
    sb2c_matrices,
)
from .trajectory import Trajectory, format_float, time_grid, write_csv, write_json
from .unitary_orbit import evolve_lvn_rk4
from .verifier import (
    UNIFORM_SPACING_RTOL,
    heisenberg_chart,
    path_from_matrices,
    verify_trajectory,
)

logger = logging.getLogger(__name__)

KINDS = ("heisenberg", "lvn", "sb2c", "bloch", "verify")

REQUIRED_MATRICES = {
    "heisenberg": ("initial", "hamiltonian"),
    "lvn": ("initial", "hamiltonian"),
    "sb2c": ("initial", "a0", "hamiltonian"),
    "bloch": ("initial",),
    "verify": ("initial", "hamiltonian"),
}

DEFAULT_TOLERANCES = {
    "heisenberg": {
        "spectrum_drift": 1e-10,
        "trace_drift": 1e-10,
        "frobenius_drift": 1e-10,
        "rk4_exact_endpoint": 1e-8,
    },
    "lvn": {
        "spectrum_drift": 1e-10,
        "purity_drift": 1e-8,
        "entropy_drift": 1e-8,
        "trace_drift": 1e-10,
        "rk4_exact_endpoint": 1e-8,
    },
    "sb2c": {
        "constraint_residual": 1e-8,
        "determinant_conservation": 1e-9,
    },
    "bloch": {
        "ball_invariance": 1e-9,
        "det_conservation": 1e-10,
        "wedge_closed_form": 1e-9,
        "flow_field_consistency": 1e-6,
        "fixed_point_p": 1e-9,
    },
    # convergence_ratio passes when the refinement ratio lies in
    # [4 - tol, 4 + tol]; the reported deviation is |ratio - 4|.
    "verify": {
        "el_residual_max": 1e-3,
        "convergence_ratio": 1.0,
    },
}


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
    seed: int


@dataclass(frozen=True)
class InvariantResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool


@dataclass
class RunReport:
    scenario_id: str
    kind: str
    seed: int
    wall_time_s: float
    invariants: list
    trajectory_path: str
    warnings: list = field(default_factory=list)
    singular: bool = False

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.invariants)


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
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"matrix {name!r} has non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def _real_row(m: np.ndarray, name: str, width: int) -> np.ndarray:
    if m.shape != (1, width):
        raise ConfigError(f"matrix {name!r} must be a 1x{width} row, got {m.shape}")
    if np.max(np.abs(m.imag)) > 1e-12:
        raise ConfigError(f"matrix {name!r} must be real")
    return m.real[0]


def load_config(path, kind: str, out_dir=None, fmt=None, seed=None,
                tolerance_overrides=()) -> ScenarioConfig:
    """Parse and validate a scenario file, applying command-line overrides."""
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}")
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
    for required in REQUIRED_MATRICES[kind]:
        if required not in matrices:
            raise ConfigError(f"kind {kind!r} requires matrix {required!r}")
    if kind in ("heisenberg", "lvn", "verify"):
        shape = matrices["hamiltonian"].shape
        if shape[0] != shape[1] or matrices["initial"].shape != shape:
            raise ConfigError(
                f"initial {matrices['initial'].shape} and hamiltonian {shape} "
                f"must be square matrices of the same shape"
            )

    times = doc.get("times", {})
    if not isinstance(times, dict) or "t_final" not in times or "step" not in times:
        raise ConfigError("times must provide t_final and step")
    t_final = _number(times["t_final"], "t_final")
    step = _number(times["step"], "step")

    tolerances = dict(DEFAULT_TOLERANCES[kind])
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
        if not math.isfinite(tolerances[key]):
            raise ConfigError(f"tolerance {key!r} must be finite, got {value!r}")

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

    chosen_seed = seed if seed is not None else doc.get("seed", 0)
    if isinstance(chosen_seed, bool) or not isinstance(chosen_seed, int) or chosen_seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {chosen_seed!r}")

    return ScenarioConfig(
        kind=kind, matrices=matrices, t_final=t_final, step=step,
        tolerances=tolerances, out_dir=chosen_dir, fmt=chosen_fmt,
        seed=chosen_seed,
    )


def _invariant(name, value, tolerances) -> InvariantResult:
    value = float(value)
    tol = float(tolerances[name])
    return InvariantResult(name, value, tol, bool(value <= tol))


def _grid_invariant(name, deviations, times, tolerances) -> InvariantResult:
    """Invariant whose value is the worst of per-sample deviations.

    Logs the index and time of the worst sample; an empty grid gives NaN.
    """
    if len(deviations) == 0:
        return _invariant(name, float("nan"), tolerances)
    worst = int(np.argmax(deviations))
    logger.info("%s worst at sample %d, t=%s", name, worst, format_float(times[worst]))
    return _invariant(name, deviations[worst], tolerances)


def _trace(states) -> np.ndarray:
    return np.trace(states, axis1=-2, axis2=-1)


def _run_heisenberg(config: ScenarioConfig):
    initial = require_hermitian(config.matrices["initial"], name="initial")
    scenario = HeisenbergScenario(
        hamiltonian=config.matrices["hamiltonian"], initial=initial,
        t_final=config.t_final, step=config.step,
    )
    traj = evolve_heisenberg_rk4(scenario)
    exact_end = evolve_heisenberg_exact(initial, scenario.hamiltonian, config.t_final)
    # the first row is the initial state, the reference of every drift
    states, times, tol = traj.states, traj.times, config.tolerances
    spectra = np.linalg.eigvalsh(states)
    traces = _trace(states)
    norms = np.linalg.norm(states, axis=(-2, -1))
    invariants = [
        _grid_invariant("spectrum_drift",
                        np.max(np.abs(spectra - spectra[0]), axis=-1), times, tol),
        _grid_invariant("trace_drift", np.abs(traces - traces[0]), times, tol),
        _grid_invariant("frobenius_drift", np.abs(norms - norms[0]), times, tol),
        _invariant("rk4_exact_endpoint",
                   frobenius_norm(traj.final_state - exact_end), tol),
    ]
    return traj, invariants, [], False


def _run_lvn(config: ScenarioConfig):
    h = config.matrices["hamiltonian"]
    traj = evolve_lvn_rk4(config.matrices["initial"], h, config.t_final, config.step)
    # evolve_lvn_rk4 has validated both inputs; its first row is the checked rho0,
    # the reference of every drift
    states, times, tol = traj.states, traj.times, config.tolerances
    u = hermitian_propagator(h, config.t_final)
    exact_end = u @ states[0] @ dagger(u)
    spectra = np.linalg.eigvalsh(states)
    purity = _trace(states @ states).real
    weights = np.clip(spectra, 0.0, None)
    kept = weights > 1e-14
    entropy = -np.sum(np.where(kept, weights * np.log(np.where(kept, weights, 1.0)), 0.0),
                      axis=-1)
    invariants = [
        _grid_invariant("spectrum_drift",
                        np.max(np.abs(spectra - spectra[0]), axis=-1), times, tol),
        _grid_invariant("purity_drift", np.abs(purity - purity[0]), times, tol),
        _grid_invariant("entropy_drift", np.abs(entropy - entropy[0]), times, tol),
        _grid_invariant("trace_drift", np.abs(_trace(states) - 1.0), times, tol),
        _invariant("rk4_exact_endpoint",
                   frobenius_norm(traj.final_state - exact_end), tol),
    ]
    return traj, invariants, [], False


def _run_sb2c(config: ScenarioConfig):
    row = _real_row(config.matrices["initial"], "initial", 2)
    setup = SB2CSetup(a0=config.matrices["a0"], hamiltonian=config.matrices["hamiltonian"])
    params = derive_parameters(setup)
    initial = ReducedState(y=float(row[0]), r=float(row[1]))
    warnings = []
    traj = integrate_reduced(initial, params, config.t_final, config.step)
    record = traj.meta.get("singularity")
    singular = record is not None
    if singular:
        warnings.append(
            f"singularity near t={record['time']!r}, bracket={record['bracket']!r}: "
            f"{record['reason']}"
        )

    rho0 = setup.a0 @ dagger(setup.a0)
    ys, rs, xs = traj.states.T
    gm = sb2c_matrices(rs, xs, ys)
    det_drifts = np.abs(np.linalg.det(gm @ rho0 @ gm.conj().swapaxes(-1, -2))
                        - np.linalg.det(rho0))
    invariants = [
        _grid_invariant("constraint_residual",
                        np.abs(constraint_residual_values(rs, xs, ys, params)),
                        traj.times, config.tolerances),
        _grid_invariant("determinant_conservation", det_drifts, traj.times,
                        config.tolerances),
    ]
    return traj, invariants, warnings, singular


def _three_flows(t, points):
    """conjugate_flow of the three subgroups, stacked on a leading axis."""
    conjugated, coords = zip(*(conjugate_flow(k, t, points) for k in (1, 2, 3)))
    return np.stack(conjugated), np.stack(coords)


def _run_bloch(config: ScenarioConfig):
    x0 = BlochVector(*_real_row(config.matrices["initial"], "initial", 3).tolist())
    times = time_grid(config.t_final, config.step)
    conjugated, flowed = _three_flows(times, x0.as_array())
    columns = tuple(f"f{k}_x{i}" for k in (1, 2, 3) for i in (1, 2, 3))
    traj = Trajectory(times=times, states=np.concatenate(flowed, axis=-1), name="x",
                      column_names=columns,
                      meta={"step": config.step, "t_final": config.t_final})

    tol = config.tolerances
    # deviations of shape (3, N): flows by samples
    ball_excess = np.maximum(0.0, np.linalg.norm(flowed, axis=-1) - 1.0)
    det_drift = np.abs(np.linalg.det(conjugated) - np.linalg.det(density_from_bloch(x0)))

    rng = np.random.default_rng(config.seed)
    samples = [uniform_ball_sample(rng) for _ in range(256)]
    checked = np.concatenate([[p.as_array() for p in samples], flowed.reshape(-1, 3)])
    wedge_err = np.max(np.abs(np.linalg.det(generator_frame(checked))
                              - wedge_closed_form_values(checked)))

    fd = 1e-5
    bulk = np.array([p.as_array() for p in samples
                     if classify_orbit(p).tag is OrbitTag.BULK][:64]).reshape(-1, 3)
    nearby = _three_flows([[fd], [-fd]], bulk)[1]
    rates = (nearby[:, 0] - nearby[:, 1]) / (2 * fd)
    flow_err = np.max(np.abs(rates - generator_frame(bulk).swapaxes(0, 1)), initial=0.0)

    pole = np.array([0.0, 0.0, 1.0])
    probe_times = [t for t in (config.t_final / 2, config.t_final) if t > 0]
    moved = _three_flows(probe_times, pole)[1]
    p_err = np.max(np.linalg.norm(moved - pole, axis=-1), initial=0.0)

    invariants = [
        _grid_invariant("ball_invariance", np.max(ball_excess, axis=0), times, tol),
        _grid_invariant("det_conservation", np.max(det_drift, axis=0), times, tol),
        _invariant("wedge_closed_form", wedge_err, tol),
        _invariant("flow_field_consistency", flow_err, tol),
        _invariant("fixed_point_p", p_err, tol),
    ]
    return traj, invariants, [], False


def _run_verify(config: ScenarioConfig):
    initial = require_hermitian(config.matrices["initial"], name="initial")
    h = require_hermitian(config.matrices["hamiltonian"], name="hamiltonian")
    times = time_grid(config.t_final, config.step)
    if len(times) < 9:
        raise ConfigError("verify needs at least 9 grid samples (t_final/step >= 8)")
    # the finite-difference stencils need the last gap to be a full step
    if abs(times[-1] - times[-2] - config.step) > UNIFORM_SPACING_RTOL * config.step:
        raise ConfigError("verify needs step to divide t_final exactly")
    states = evolve_heisenberg_exact(initial, h, times)
    traj = Trajectory(times=times, states=states, name="A",
                      meta={"step": config.step, "t_final": config.t_final})

    lag = heisenberg_chart(h)
    fine = verify_trajectory(lag, path_from_matrices(times, states),
                             tolerance=config.tolerances["el_residual_max"])
    coarse = verify_trajectory(lag, path_from_matrices(times[::2], states[::2]),
                               tolerance=config.tolerances["el_residual_max"])
    for label, report in (("fine", fine), ("coarse", coarse)):
        logger.info("%s pass: %d Lagrangian evaluations in %d stacked calls",
                    label, report.lagrangian_evals, report.lagrangian_calls)
    logger.info("el_residual_max worst at sample %d, t=%s",
                fine.worst_index, format_float(times[fine.worst_index]))
    warnings = []
    if fine.max_residual < 1e-12 and coarse.max_residual < 1e-12:
        ratio_dev = 0.0  # both at the rounding floor; refinement uninformative
        warnings.append("residuals at rounding floor; convergence ratio not measured")
    else:
        ratio = coarse.max_residual / max(fine.max_residual, 1e-300)
        ratio_dev = abs(ratio - 4.0)
        logger.info("refinement ratio %.3f", ratio)
    invariants = [
        _invariant("el_residual_max", fine.max_residual, config.tolerances),
        _invariant("convergence_ratio", ratio_dev, config.tolerances),
    ]
    return traj, invariants, warnings, False


_RUNNERS = {
    "heisenberg": _run_heisenberg,
    "lvn": _run_lvn,
    "sb2c": _run_sb2c,
    "bloch": _run_bloch,
    "verify": _run_verify,
}


def _json_safe(x: float):
    return float(x) if math.isfinite(x) else None


def run(config: ScenarioConfig) -> RunReport:
    """Execute one scenario: write trajectory and report, return the report.

    The library raises ValueError for inputs outside its domain (a
    non-Hermitian matrix, a bad grid, a flow or a Lagrangian beyond float
    range), so a runner's ValueError is a ConfigError.
    """
    start = time.perf_counter()
    try:
        traj, invariants, warnings, singular = _RUNNERS[config.kind](config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config.out_dir.mkdir(parents=True, exist_ok=True)

    traj_path = config.out_dir / f"trajectory.{config.fmt}"
    if config.fmt == "csv":
        write_csv(traj, traj_path)
    else:
        write_json(traj, traj_path)

    report = RunReport(
        scenario_id=f"{config.kind}-seed{config.seed}",
        kind=config.kind,
        seed=config.seed,
        wall_time_s=time.perf_counter() - start,
        invariants=invariants,
        trajectory_path=str(traj_path),
        warnings=warnings,
        singular=singular,
    )
    doc = {
        "scenario": report.scenario_id,
        "kind": report.kind,
        "seed": report.seed,
        "wall_time_s": report.wall_time_s,
        "trajectory": report.trajectory_path,
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
    return report


def _configure_logging() -> None:
    raw = os.environ.get("ISOSPEC_LOG", "warn")
    levels = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    level = levels.get(raw.strip().lower())
    logging.basicConfig(
        level=logging.WARNING if level is None else level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
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
    parser.add_argument("kind", choices=KINDS, help="scenario family to run")
    parser.add_argument("--config", required=True, help="JSON scenario file")
    parser.add_argument("--out", help="output directory (default: config output.path)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt",
                        help="trajectory format (default: config output.format)")
    parser.add_argument("--seed", type=int, help="seed for sampled invariants")
    parser.add_argument("--tolerance", action="append", default=[],
                        metavar="NAME=VALUE", help="override one tolerance")
    args = parser.parse_args(argv)

    try:
        overrides = _parse_tolerance_overrides(args.tolerance)
        config = load_config(args.config, args.kind, out_dir=args.out,
                             fmt=args.fmt, seed=args.seed,
                             tolerance_overrides=overrides)
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    for r in report.invariants:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name} max={format_float(r.max_deviation)} "
              f"tol={format_float(r.tolerance)} {status}")
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)

    if report.singular:
        return 3
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
