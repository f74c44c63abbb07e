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
    density_from_bloch,
    flow_generator,
    sb2c_flow_on_state,
    uniform_ball_sample,
    wedge_closed_form,
    wedge_determinant,
    y_field,
)
from .heisenberg import (
    HeisenbergScenario,
    evolve_heisenberg_exact,
    evolve_heisenberg_rk4,
)
from .operator_core import (
    dagger,
    frobenius_norm,
    matrix_exponential,
    require_hermitian,
)
from .sb2c import (
    ReducedState,
    SB2CElement,
    SB2CSetup,
    SingularityError,
    build_matrix_system,
    constraint_residual,
    derive_parameters,
    integrate_reduced,
    sb2c_to_matrix,
)
from .trajectory import Trajectory, format_float, write_csv, write_json
from .unitary_orbit import evolve_lvn_exact, evolve_lvn_rk4, validate_density
from .verifier import heisenberg_chart, path_from_matrices, verify_trajectory

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
        "kernel_identity": 1e-12,
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


def _complex_matrix(node, name: str) -> np.ndarray:
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"matrix {name!r} is not a numeric array: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ConfigError(
            f"matrix {name!r} must be a nested array of [re, im] pairs, "
            f"got shape {arr.shape}"
        )
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
    try:
        t_final = float(times["t_final"])
        step = float(times["step"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"times entries must be numbers: {exc}") from exc
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"step must be positive, got {step}")
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ConfigError(f"t_final must be >= 0, got {t_final}")

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
        try:
            tolerances[key] = float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"tolerance {key!r} is not a number: {exc}") from exc
        if not math.isfinite(tolerances[key]):
            raise ConfigError(f"tolerance {key!r} must be finite, got {value!r}")

    output = doc.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output must be an object")
    chosen_dir = Path(out_dir) if out_dir is not None else Path(output.get("path", "."))
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


def _max_or_nan(values) -> float:
    values = list(values)
    return max(values) if values else float("nan")


def _spectrum_drift(states, reference) -> float:
    w0 = np.linalg.eigvalsh(reference)
    return _max_or_nan(
        float(np.max(np.abs(np.linalg.eigvalsh(s) - w0))) for s in states
    )


def _von_neumann_entropy(rho) -> float:
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    w = w[w > 1e-14]
    return float(-np.sum(w * np.log(w)))


def _run_heisenberg(config: ScenarioConfig):
    try:
        initial = require_hermitian(config.matrices["initial"], name="initial")
        scenario = HeisenbergScenario(
            hamiltonian=config.matrices["hamiltonian"], initial=initial,
            t_final=config.t_final, step=config.step,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    traj = evolve_heisenberg_rk4(scenario)
    exact_end = evolve_heisenberg_exact(initial, scenario.hamiltonian, config.t_final)
    tr0 = np.trace(initial)
    nrm0 = frobenius_norm(initial)
    invariants = [
        _invariant("spectrum_drift", _spectrum_drift(traj.states, initial),
                   config.tolerances),
        _invariant("trace_drift",
                   _max_or_nan(abs(np.trace(s) - tr0) for s in traj.states),
                   config.tolerances),
        _invariant("frobenius_drift",
                   _max_or_nan(abs(frobenius_norm(s) - nrm0) for s in traj.states),
                   config.tolerances),
        _invariant("rk4_exact_endpoint",
                   frobenius_norm(traj.final_state - exact_end),
                   config.tolerances),
    ]
    return traj, invariants, [], False


def _run_lvn(config: ScenarioConfig):
    try:
        rho0 = validate_density(config.matrices["initial"])
        h = require_hermitian(config.matrices["hamiltonian"], name="hamiltonian")
        traj = evolve_lvn_rk4(rho0, h, config.t_final, config.step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    exact_end = evolve_lvn_exact(rho0, h, config.t_final)
    purity0 = float(np.trace(rho0 @ rho0).real)
    entropy0 = _von_neumann_entropy(rho0)
    invariants = [
        _invariant("spectrum_drift", _spectrum_drift(traj.states, rho0),
                   config.tolerances),
        _invariant("purity_drift",
                   _max_or_nan(abs(float(np.trace(s @ s).real) - purity0)
                               for s in traj.states),
                   config.tolerances),
        _invariant("entropy_drift",
                   _max_or_nan(abs(_von_neumann_entropy(s) - entropy0)
                               for s in traj.states),
                   config.tolerances),
        _invariant("trace_drift",
                   _max_or_nan(abs(np.trace(s) - 1.0) for s in traj.states),
                   config.tolerances),
        _invariant("rk4_exact_endpoint",
                   frobenius_norm(traj.final_state - exact_end),
                   config.tolerances),
    ]
    return traj, invariants, [], False


def _run_sb2c(config: ScenarioConfig):
    row = _real_row(config.matrices["initial"], "initial", 2)
    try:
        setup = SB2CSetup(a0=config.matrices["a0"],
                          hamiltonian=config.matrices["hamiltonian"])
        params = derive_parameters(setup)
        initial = ReducedState(y=float(row[0]), r=float(row[1]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    warnings = []
    try:
        traj = integrate_reduced(initial, params, config.t_final, config.step)
    except ValueError as exc:  # not the reducible parameter regime
        raise ConfigError(str(exc)) from exc
    except SingularityError as exc:
        traj = Trajectory(
            times=np.empty(0), states=np.empty((0, 3)), name="q",
            column_names=("y", "r", "x"),
            meta={"singularity": {"time": initial.time, "bracket": None,
                                  "reason": str(exc)}},
        )
    record = traj.meta.get("singularity")
    singular = record is not None
    if singular:
        warnings.append(
            f"singularity near t={record['time']!r}, bracket={record['bracket']!r}: "
            f"{record['reason']}"
        )

    rho0 = setup.a0 @ dagger(setup.a0)
    det0 = complex(np.linalg.det(rho0))
    residuals, det_drifts = [], []
    for yv, rv, xv in traj.states:
        element = SB2CElement(r=float(rv), x=float(xv), y=float(yv))
        residuals.append(abs(constraint_residual(element, setup)))
        gm = sb2c_to_matrix(element)
        det_drifts.append(abs(complex(np.linalg.det(gm @ rho0 @ dagger(gm))) - det0))
    amat, _ = build_matrix_system(SB2CElement(r=max(initial.r, 1.0), x=0.0, y=0.0),
                                  setup)
    kernel = np.array([params.a, params.b, -params.d])
    invariants = [
        _invariant("constraint_residual", _max_or_nan(residuals), config.tolerances),
        _invariant("kernel_identity", float(np.max(np.abs(amat @ kernel))),
                   config.tolerances),
        _invariant("determinant_conservation", _max_or_nan(det_drifts),
                   config.tolerances),
    ]
    return traj, invariants, warnings, singular


def _bloch_grid(t_final: float, step: float) -> np.ndarray:
    times = [0.0]
    t = 0.0
    while t_final - t > step * (1 + 1e-12):
        t += step
        times.append(t)
    if t_final - t > 1e-15:
        times.append(t_final)
    return np.array(times)


def _run_bloch(config: ScenarioConfig):
    row = _real_row(config.matrices["initial"], "initial", 3)
    try:
        x0 = BlochVector(*[float(v) for v in row])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    times = _bloch_grid(config.t_final, config.step)
    flowed = {
        k: [sb2c_flow_on_state(k, t, x0) for t in times] for k in (1, 2, 3)
    }
    states = np.array([
        [getattr(flowed[k][i], comp) for k in (1, 2, 3)
         for comp in ("x1", "x2", "x3")]
        for i in range(len(times))
    ])
    columns = tuple(f"f{k}_x{i}" for k in (1, 2, 3) for i in (1, 2, 3))
    traj = Trajectory(times=times, states=states, name="x", column_names=columns,
                      meta={"step": config.step, "t_final": config.t_final})

    trajectory_points = [p for k in (1, 2, 3) for p in flowed[k]]
    ball_excess = _max_or_nan(max(0.0, p.norm - 1.0) for p in trajectory_points)

    sigma = density_from_bloch(x0)
    det0 = complex(np.linalg.det(sigma))
    det_drift = 0.0
    for k in (1, 2, 3):
        for t in times:
            g = matrix_exponential(t * flow_generator(k))
            det_drift = max(
                det_drift,
                abs(complex(np.linalg.det(g @ sigma @ dagger(g))) - det0),
            )

    rng = np.random.default_rng(config.seed)
    samples = [uniform_ball_sample(rng) for _ in range(256)]
    wedge_err = max(
        abs(wedge_determinant(p) - wedge_closed_form(p))
        for p in samples + trajectory_points
    )

    fd = 1e-5
    flow_err = 0.0
    bulk = [p for p in samples if classify_orbit(p).tag is OrbitTag.BULK][:64]
    for p in bulk:
        for k in (1, 2, 3):
            plus = sb2c_flow_on_state(k, fd, p).as_array()
            minus = sb2c_flow_on_state(k, -fd, p).as_array()
            flow_err = max(
                flow_err,
                float(np.max(np.abs((plus - minus) / (2 * fd) - y_field(k, p)))),
            )

    pole = BlochVector(0.0, 0.0, 1.0)
    p_err = 0.0
    probe_times = [t for t in (config.t_final / 2, config.t_final) if t > 0]
    for k in (1, 2, 3):
        for t in probe_times:
            moved = sb2c_flow_on_state(k, t, pole).as_array()
            p_err = max(p_err, float(np.linalg.norm(moved - pole.as_array())))

    invariants = [
        _invariant("ball_invariance", ball_excess, config.tolerances),
        _invariant("det_conservation", det_drift, config.tolerances),
        _invariant("wedge_closed_form", wedge_err, config.tolerances),
        _invariant("flow_field_consistency", flow_err, config.tolerances),
        _invariant("fixed_point_p", p_err, config.tolerances),
    ]
    return traj, invariants, [], False


def _run_verify(config: ScenarioConfig):
    try:
        initial = require_hermitian(config.matrices["initial"], name="initial")
        h = require_hermitian(config.matrices["hamiltonian"], name="hamiltonian")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ratio_steps = config.t_final / config.step
    if abs(ratio_steps - round(ratio_steps)) > 1e-9:
        raise ConfigError("verify needs step to divide t_final exactly")
    n = int(round(ratio_steps)) + 1
    if n < 9:
        raise ConfigError("verify needs at least 9 grid samples (t_final/step >= 8)")
    times = np.linspace(0.0, config.t_final, n)
    states = [evolve_heisenberg_exact(initial, h, t) for t in times]
    traj = Trajectory(times=times, states=np.array(states), name="A",
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
    """Execute one scenario: write trajectory and report, return the report."""
    start = time.perf_counter()
    config.out_dir.mkdir(parents=True, exist_ok=True)
    traj, invariants, warnings, singular = _RUNNERS[config.kind](config)

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
