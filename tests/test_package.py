"""The package root: its lazy exports and what importing it loads, and the
package's records."""

import math
import subprocess
import sys

import numpy as np
import pytest

import isospec_lag
from isospec_lag import (bloch, cli, heisenberg, operator_core, sb2c, trajectory, unitary_orbit,
                         verifier)

from conftest import src_env

#: Every name the package root exports, by the module that defines it.
EXPORTS = {
    bloch: """
        BlochVector OrbitClass OrbitTag classify_orbit density_from_bloch
        flow_exponential flow_generator sb2c_flow_on_state sb2c_generator
        wedge_closed_form wedge_determinant y_field
    """,
    heisenberg: """
        OperatorTangent cartan_one_form_heisenberg cartan_two_form_heisenberg
        el_residual_heisenberg evolve_heisenberg_exact evolve_heisenberg_rk4
        flatten_complex heisenberg_rhs lagrangian_heisenberg
        lagrangian_heisenberg_chart
    """,
    operator_core: """
        HERMITIAN_TOL as_complex_matrix commutator dagger frobenius_norm
        hermitian_sqrt require_hermitian unitary_algebra_basis
    """,
    sb2c: """
        ReducedState SB2CElement SB2CParameters SB2CSetup SingularityError
        build_matrix_system constraint_residual derive_parameters
        integrate_reduced lagrangian_sb2c matrix_el_residuals phi_of_r
        phi_prime reduced_rhs sb2c_to_matrix scalar_el_residuals
    """,
    trajectory: "Trajectory format_float write_csv write_json",
    unitary_orbit: """
        UnitaryTangent el_residual_unitary evolve_lvn_exact evolve_lvn_rk4
        lagrangian_unitary lvn_rhs validate_density
    """,
    verifier: """
        VerificationReport chart_coordinates el_residual_path
        el_residual_unitary_path gradients heisenberg_chart refine unitary_chart
        verify_trajectory
    """,
}
EXPORTED = {name: module for module, names in EXPORTS.items() for name in names.split()}


def test_every_export_resolves_to_its_module_attribute():
    for name, module in EXPORTED.items():
        assert getattr(isospec_lag, name) is getattr(module, name), name
    assert sorted(isospec_lag.__all__) == sorted(EXPORTED)
    assert set(EXPORTED) <= set(dir(isospec_lag))
    assert isospec_lag.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as info:
        getattr(isospec_lag, "no_such_name")
    assert str(info.value) == "module 'isospec_lag' has no attribute 'no_such_name'"
    with pytest.raises(ImportError):
        from isospec_lag import no_such_name  # noqa: F401


@pytest.mark.parametrize("statement, loaded", [
    ("import isospec_lag", []),
    ("from isospec_lag import dagger", ["operator_core"]),
    ("from isospec_lag import Trajectory", ["operator_core", "trajectory"]),
])
def test_importing_the_root_loads_no_submodule(statement, loaded):
    """In a fresh process, the root loads a submodule only when one of its
    names is asked for, and then only that submodule and its imports."""
    script = (f"import sys\n{statement}\n"
              "print(sorted(m for m in sys.modules if m.startswith('isospec_lag.')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr([f"isospec_lag.{m}" for m in loaded])


#: One record of each immutable type, with the name of one of its fields.
FROZEN = [
    (cli.InvariantResult("spectrum_drift", 0.0, 1e-10, True), "passed"),
    (sb2c.SB2CElement(r=1.0, x=0.0, y=0.0), "r"),
    (sb2c.SB2CParameters(*map(float, range(12))), "h4"),
    (sb2c.ReducedState(y=0.0, r=1.0), "y"),
    (bloch.BlochVector(0.0, 0.0, 1.0), "x3"),
    (bloch.OrbitClass(bloch.OrbitTag.BULK, 0.5), "tag"),
    (verifier.VerificationReport(0.0, 2, 8, 1), "worst_index"),
]


@pytest.mark.parametrize("record, field", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_an_immutable_record_refuses_assignment(record, field):
    value = getattr(record, field)
    for name in (field, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
    assert getattr(record, field) == value
    assert not hasattr(record, "unknown")


@pytest.mark.parametrize("make, error, message", [
    (lambda: sb2c.SB2CElement(r=0.0, x=0.0, y=0.0), ValueError,
     "r must be positive and finite, got 0.0"),
    (lambda: sb2c.SB2CElement(1.0, math.inf, 0.0), ValueError, "coordinates must be finite"),
    (lambda: sb2c.ReducedState(y=0.0, r=math.nan), ValueError,
     "r must be positive and finite, got nan"),
    (lambda: sb2c.ReducedState(math.inf, 1.0), ValueError, "y must be finite, got inf"),
    (lambda: bloch.BlochVector(0.0, math.nan, 0.0), ValueError,
     "Bloch vector (0.0, nan, 0.0) is not finite"),
    (lambda: bloch.BlochVector(0.6, 0.8, 0.6), ValueError,
     "Bloch vector has norm 1.1661903789690602 > 1"),
    (lambda: trajectory.Trajectory([0.0, 1.0], np.zeros((3, 2))), ValueError,
     "times and states lengths differ"),
    (lambda: trajectory.Trajectory([0.0], np.zeros((1, 2)), column_names=("a", 1)), TypeError,
     "column names must be strings"),
    (lambda: trajectory.Trajectory([0.0], np.zeros((1, 2)), column_names=("a",)), ValueError,
     "1 column names for states of shape (1, 2)"),
    (lambda: sb2c.SB2CSetup(np.eye(3), np.eye(2)), ValueError,
     "a0 must have shape (2, 2), got (3, 3)"),
    (lambda: sb2c.SB2CSetup(np.eye(2), hamiltonian=[[0, 1], [0, 0]]), ValueError,
     "hamiltonian is not Hermitian: defect 1.414e+00 > tolerance 1.000e-10"),
    (lambda: heisenberg.OperatorTangent(np.eye(2), velocity=np.eye(3)), ValueError,
     "velocity must have shape (2, 2), got (3, 3)"),
    (lambda: unitary_orbit.UnitaryTangent(2 * np.eye(2), np.zeros((2, 2))), ValueError,
     "u is not unitary: defect 4.243e+00"),
    (lambda: unitary_orbit.UnitaryTangent(np.eye(2), udot=np.eye(2)), ValueError,
     "udot is not tangent: defect 2.828e+00"),
])
def test_a_validating_record_names_what_is_wrong(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_a_trajectory_takes_its_defaults_and_keywords():
    """name "A", no column names, and a new meta dict per trajectory."""
    first, second = (trajectory.Trajectory([0.0], np.zeros((1, 2, 2))) for _ in range(2))
    assert (first.name, first.column_names, first.meta) == ("A", None, {})
    assert first.meta is not second.meta
    meta = {"singularity": None}
    named = trajectory.Trajectory(times=[0.0], states=[[1.0, 2.0]], name="q",
                                  column_names=("y", "r"), meta=meta)
    assert (named.name, named.column_names) == ("q", ("y", "r")) and named.meta is meta
    assert named.times.dtype == float and named.headers() == ["y", "r"]
