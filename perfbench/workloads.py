"""Seeded scenario generator for the four benchmark workloads.

Every workload is a fixed *cycle* of scenario configs drawn from one
``numpy.random.Generator`` seeded with the workload seed, so the same
seed always yields byte-identical config files.  A run repeats the
cycle a fixed number of times; the repeats feed the determinism check.

Sizing rules shared by all workloads:

* Hamiltonians are random Hermitian matrices scaled to unit spectral
  norm, so step sizes mean the same thing at every n.
* Heisenberg and verify initial operators are random Hermitian
  matrices of unit spectral norm.
* Densities have full rank: a Wishart draw mixed with 10% of I/n, so
  the smallest eigenvalue is at least 0.1/n.
* Bloch points lie in the bulk: uniform direction, radius in
  [0.1, 0.8].
* sb2c uses the real-symmetric family a0 = [[1, 1], [1, 2]],
  H = diag(1, -1) with (y, r) drawn from a stated box.  orbit-flows
  draws one point in each cell of a 4x4 grid over
  [-3, -0.5] x [1, 9]: with t = 5 the r < ~2.95 column halts at the
  singular manifold (exit 3) after ~0.04 s and r > 3 runs all 5,000
  steps, so every cycle holds four short singular runs and twelve
  regular ones whatever the seed.  Singular runs sometimes hit the
  exit-2 defect below; they are counted as failed, never redrawn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SB2C_A0 = [[1.0, 1.0], [1.0, 2.0]]
SB2C_H = [[1.0, 0.0], [0.0, -1.0]]
# Valid sb2c config whose RK4 stage drives r through zero: integrate_reduced
# raises ValueError and the CLI exits 2 ("config error").
SB2C_DEFECT_REPRODUCER = (-1.0, 1.2)


@dataclass(frozen=True)
class Scenario:
    """One CLI invocation: ``isospec-lag <kind> --config <id>.json``."""

    id: str
    kind: str
    doc: dict


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    #: Wall seconds of one cycle at the seed commit on a 2-core x86 VM
    #: (Python 3.11, numpy 2.4, scipy 1.17).  A run measures a fixed
    #: number of cycles sized from it, so the sample set, and with it every
    #: percentile, is the same on every commit; a faster program finishes
    #: sooner.
    nominal_cycle_s: float
    sizes: str


WORKLOADS = {
    w.name: w for w in (
        Workload("cli-mix", False, 3.9,
                 "n=2; heisenberg/lvn t=1 step=1e-3; sb2c t=1 step=1e-3 "
                 "(y,r) in [-2,-1]x[4,8]; bloch t=1 step=1e-2; verify t=1 step=1e-2"),
        Workload("long-evolve", True, 3.5,
                 "heisenberg and lvn at n=2,3,4, t=5 step=1e-3 (5,001 rows), "
                 "csv/json alternating"),
        Workload("verify-fd", True, 3.05,
                 "verify at n=2,3,4, t=1 step=1e-2 (101 samples), unit-norm H"),
        Workload("orbit-flows", True, 7.15,
                 "bloch t=5 step=1e-3 (5,001 samples); 17 sb2c t=5 step=1e-3: "
                 "(y,r) jittered 4x4 over [-3,-0.5]x[1,9] plus the (-1,1.2) reproducer"),
    )
}


def _pairs(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _hermitian(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2
    return h / np.linalg.norm(h, 2)


def _density(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    rho = 0.9 * w / np.trace(w).real + 0.1 * np.eye(n) / n
    return (rho + rho.conj().T) / 2


def _bloch_point(rng) -> list:
    v = rng.standard_normal(3)
    v *= rng.uniform(0.1, 0.8) / np.linalg.norm(v)
    return [[float(c) for c in v]]


def _doc(kind, matrices, t_final, step, fmt, seed) -> dict:
    return {
        "kind": kind,
        "matrices": {k: _pairs(v) for k, v in matrices.items()},
        "times": {"t_final": t_final, "step": step},
        "output": {"format": fmt},
        "seed": seed,
    }


def _operator(rng, kind, n, t_final, step, fmt, seed) -> dict:
    initial = _density(rng, n) if kind == "lvn" else _hermitian(rng, n)
    return _doc(kind, {"initial": initial, "hamiltonian": _hermitian(rng, n)},
                t_final, step, fmt, seed)


def _sb2c(y, r, t_final, step, seed) -> dict:
    return _doc("sb2c", {"initial": [[y, r]], "a0": SB2C_A0, "hamiltonian": SB2C_H},
                t_final, step, "csv", seed)


def _bloch(rng, t_final, step, seed) -> dict:
    return _doc("bloch", {"initial": _bloch_point(rng)}, t_final, step, "csv", seed)


def _jittered_box(rng, ys, rs, cells):
    """One uniform draw in each cell of a cells x cells grid over the box."""
    out = []
    for i in range(cells):
        for j in range(cells):
            y = ys[0] + (i + rng.uniform()) * (ys[1] - ys[0]) / cells
            r = rs[0] + (j + rng.uniform()) * (rs[1] - rs[0]) / cells
            out.append((float(y), float(r)))
    return out


def cycle(workload: str, seed: int) -> tuple[Scenario, list[Scenario]]:
    """The warm-up scenario and the scenario cycle of a workload."""
    rng = np.random.default_rng(seed)
    docs = []
    if workload == "cli-mix":
        warmup = None
        docs.append(_operator(rng, "heisenberg", 2, 1.0, 1e-3, "csv", seed))
        docs.append(_operator(rng, "lvn", 2, 1.0, 1e-3, "csv", seed))
        y, r = rng.uniform(-2.0, -1.0), rng.uniform(4.0, 8.0)
        docs.append(_sb2c(float(y), float(r), 1.0, 1e-3, seed))
        docs.append(_bloch(rng, 1.0, 1e-2, seed))
        docs.append(_operator(rng, "verify", 2, 1.0, 1e-2, "csv", seed))
    elif workload == "long-evolve":
        warmup = _operator(rng, "heisenberg", 2, 0.1, 1e-3, "csv", seed)
        fmts = {("heisenberg", 2): "csv", ("lvn", 2): "json",
                ("heisenberg", 3): "json", ("lvn", 3): "csv",
                ("heisenberg", 4): "csv", ("lvn", 4): "json"}
        for (kind, n), fmt in fmts.items():
            docs.append(_operator(rng, kind, n, 5.0, 1e-3, fmt, seed))
    elif workload == "verify-fd":
        warmup = _operator(rng, "verify", 2, 0.1, 1e-2, "csv", seed)
        for n in (2, 3, 4):
            docs.append(_operator(rng, "verify", n, 1.0, 1e-2, "csv", seed))
    elif workload == "orbit-flows":
        warmup = _bloch(rng, 0.1, 1e-3, seed)
        docs.append(_bloch(rng, 5.0, 1e-3, seed))
        docs.append(_sb2c(*SB2C_DEFECT_REPRODUCER, 5.0, 1e-3, seed))
        for y, r in _jittered_box(rng, (-3.0, -0.5), (1.0, 9.0), 4):
            docs.append(_sb2c(y, r, 5.0, 1e-3, seed))
    else:
        raise KeyError(workload)
    scenarios = [Scenario(f"c{i:02d}-{d['kind']}", d["kind"], d) for i, d in enumerate(docs)]
    warm = None if warmup is None else Scenario("warmup", warmup["kind"], warmup)
    return warm, scenarios


def cycles_per_run(workload: str, seconds: int, cycle_len: int) -> int:
    """Fixed cycle count: about ``seconds`` of work at the seed commit, and
    at least 21 scenarios so the tail percentile lies above the median."""
    nominal = WORKLOADS[workload].nominal_cycle_s
    return max(round(seconds / nominal), math.ceil(21 / cycle_len), 1)


def write_config(scenario: Scenario, directory: Path) -> Path:
    path = directory / f"{scenario.id}.json"
    path.write_text(json.dumps(scenario.doc))
    return path
