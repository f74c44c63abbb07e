"""The package root: its lazy exports and what importing it loads."""

import subprocess
import sys

import pytest

import isospec_lag
from isospec_lag import bloch, heisenberg, operator_core, sb2c, trajectory, unitary_orbit, verifier

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
