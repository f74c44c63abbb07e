"""Lagrangian formulations of quantum evolution on operator spaces.

Simulation and verification tools for three pictures of the same
dynamics: the Heisenberg equation on operator space, constrained
first-order dynamics on the group SB(2,C), and the Landau-von Neumann
equation on isospectral orbits of the unitary group, plus the qubit
Bloch-ball geometry of the SB(2,C) action and a generic
finite-difference Euler-Lagrange verifier.

The package root is lazy (PEP 562): ``from isospec_lag import X`` loads
the one submodule that defines ``X`` on first use, so importing the
package, or one submodule, loads nothing else.
"""

import importlib

#: The submodule that defines each exported name.
_EXPORTS = {
    "bloch": """
        BlochVector OrbitClass OrbitTag classify_orbit density_from_bloch
        flow_exponential flow_generator sb2c_flow_on_state sb2c_generator
        wedge_closed_form wedge_determinant y_field
    """,
    "heisenberg": """
        OperatorTangent cartan_one_form_heisenberg cartan_two_form_heisenberg
        el_residual_heisenberg evolve_heisenberg_exact evolve_heisenberg_rk4
        flatten_complex heisenberg_rhs lagrangian_heisenberg
        lagrangian_heisenberg_chart
    """,
    "operator_core": """
        HERMITIAN_TOL as_complex_matrix commutator dagger frobenius_norm
        hermitian_sqrt require_hermitian unitary_algebra_basis
    """,
    "sb2c": """
        ReducedState SB2CElement SB2CParameters SB2CSetup SingularityError
        build_matrix_system constraint_residual derive_parameters
        integrate_reduced lagrangian_sb2c matrix_el_residuals phi_of_r
        phi_prime reduced_rhs sb2c_to_matrix scalar_el_residuals
    """,
    "trajectory": "Trajectory format_float write_csv write_json",
    "unitary_orbit": """
        UnitaryTangent el_residual_unitary evolve_lvn_exact evolve_lvn_rk4
        lagrangian_unitary lvn_rhs validate_density
    """,
    "verifier": """
        VerificationReport chart_coordinates el_residual_path
        el_residual_unitary_path gradients heisenberg_chart refine unitary_chart
        verify_trajectory
    """,
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
