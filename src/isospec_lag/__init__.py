"""Lagrangian formulations of quantum evolution on operator spaces.

Simulation and verification tools for three pictures of the same
dynamics: the Heisenberg equation on operator space, constrained
first-order dynamics on the group SB(2,C), and the Landau-von Neumann
equation on isospectral orbits of the unitary group, plus the qubit
Bloch-ball geometry of the SB(2,C) action and a generic
finite-difference Euler-Lagrange verifier.
"""

from .bloch import (
    BlochVector,
    OrbitClass,
    OrbitTag,
    TangencyReport,
    bloch_from_density,
    classify_orbit,
    density_from_bloch,
    flow_generator,
    sb2c_flow_on_state,
    sb2c_generator,
    tangency_to_unitary_orbit,
    uniform_ball_sample,
    wedge_closed_form,
    wedge_determinant,
    y_field,
)
from .heisenberg import (
    HeisenbergScenario,
    KetTangent,
    OperatorTangent,
    cartan_one_form_heisenberg,
    cartan_two_form_heisenberg,
    el_residual_heisenberg,
    evolve_heisenberg_exact,
    evolve_heisenberg_rk4,
    evolve_schrodinger_exact,
    heisenberg_rhs,
    lagrangian_heisenberg,
    lagrangian_heisenberg_values,
    lagrangian_schrodinger,
)
from .operator_core import (
    HERMITIAN_TOL,
    anticommutator,
    as_complex_matrix,
    commutator,
    dagger,
    frobenius_norm,
    hermitian_defect,
    hermitian_eigendecomposition,
    hermitian_sqrt,
    is_hermitian,
    matrix_exponential,
    require_hermitian,
    unitary_algebra_basis,
)
from .sb2c import (
    IDENTITY,
    ReducedState,
    SB2CElement,
    SB2CParameters,
    SB2CSetup,
    SB2CState,
    SingularityError,
    build_matrix_system,
    constraint_residual,
    derive_parameters,
    full_el_residual,
    integrate_reduced,
    lagrangian_sb2c,
    matrix_el_residuals,
    orbit_point,
    phi_of_r,
    phi_prime,
    reduced_rhs,
    rho1_projection,
    rho2_projection,
    sb2c_inv,
    sb2c_mul,
    sb2c_to_matrix,
    scalar_el_residuals,
)
from .trajectory import Trajectory, format_float, write_csv, write_json
from .unitary_orbit import (
    IsospectralOrbitPoint,
    UnitaryTangent,
    el_residual_unitary,
    evolve_lvn_exact,
    evolve_lvn_rk4,
    immersion_phi_sigma,
    lagrangian_unitary,
    lvn_rhs,
    maurer_cartan_left,
    maurer_cartan_right,
    theta_u_pairing,
    validate_density,
)
from .verifier import (
    CoordinateLagrangian,
    SampledPath,
    VerificationReport,
    chart_coordinates,
    el_residual_path,
    el_residual_unitary_path,
    flatten_complex,
    grad_q,
    grad_qdot,
    gradients,
    heisenberg_chart,
    operator_chart,
    path_from_matrices,
    unflatten_complex,
    unitary_chart,
    verify_trajectory,
)

__version__ = "0.1.0"
