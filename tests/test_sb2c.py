import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec_lag.heisenberg import OperatorTangent, lagrangian_heisenberg
from isospec_lag.operator_core import dagger, frobenius_norm
from isospec_lag.sb2c import (
    IDENTITY,
    ReducedState,
    SB2CElement,
    SB2CParameters,
    SB2CSetup,
    SingularityError,
    build_matrix_system,
    constraint_residual,
    constraint_residual_values,
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
    sb2c_matrices,
    sb2c_mul,
    sb2c_to_matrix,
    scalar_el_residuals,
)

from conftest import SX, SZ, rand_complex, rand_hermitian


def worked_setup():
    """Reference A0 = [[1,1],[1,2]] with a diagonal Hamiltonian."""
    return SB2CSetup(np.array([[1, 1], [1, 2]], dtype=complex), SZ.copy())


def offdiag_setup():
    """Same reference with a purely off-diagonal Hamiltonian."""
    return SB2CSetup(np.array([[1, 1], [1, 2]], dtype=complex), SX.copy())


def rand_element(rng):
    return SB2CElement(
        float(np.exp(rng.uniform(-0.7, 0.7))),
        float(rng.uniform(-2, 2)),
        float(rng.uniform(-2, 2)),
    )


def rand_setup(rng):
    return SB2CSetup(rand_complex(rng, 2), rand_hermitian(rng, 2))


coords = st.tuples(
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)


def test_element_requires_positive_r():
    with pytest.raises(ValueError):
        SB2CElement(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        SB2CElement(-1.0, 0.0, 0.0)


def test_to_matrix():
    np.testing.assert_array_equal(sb2c_to_matrix(IDENTITY), np.eye(2))
    got = sb2c_to_matrix(SB2CElement(2.0, 1.0, -1.0))
    np.testing.assert_allclose(got, np.array([[2, 1 - 1j], [0, 0.5]]))
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rand_element(rng)
        assert abs(np.linalg.det(sb2c_to_matrix(g)) - 1.0) <= 1e-14


def test_mul_and_inv():
    g = SB2CElement(1.7, 0.3, -0.4)
    for prod in (sb2c_mul(g, IDENTITY), sb2c_mul(IDENTITY, g)):
        assert prod.r == pytest.approx(g.r)
        assert prod.x == pytest.approx(g.x)
        assert prod.y == pytest.approx(g.y)
    out = sb2c_mul(SB2CElement(2, 0, 0), SB2CElement(3, 1, 0))
    assert (out.r, out.x, out.y) == pytest.approx((6.0, 2.0, 0.0))

    inv = sb2c_inv(SB2CElement(2, 0, 0))
    assert (inv.r, inv.x, inv.y) == pytest.approx((0.5, 0.0, 0.0))
    back = sb2c_inv(sb2c_inv(g))
    assert (back.r, back.x, back.y) == pytest.approx((g.r, g.x, g.y))
    ident = sb2c_mul(g, sb2c_inv(g))
    assert (ident.r, ident.x, ident.y) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(coords, coords, coords)
def test_group_law_matches_matrices(c1, c2, c3):
    g1, g2, g3 = (SB2CElement(*c) for c in (c1, c2, c3))
    np.testing.assert_allclose(
        sb2c_to_matrix(sb2c_mul(g1, g2)),
        sb2c_to_matrix(g1) @ sb2c_to_matrix(g2),
        rtol=1e-12,
        atol=1e-12,
    )
    assoc_l = sb2c_mul(sb2c_mul(g1, g2), g3)
    assoc_r = sb2c_mul(g1, sb2c_mul(g2, g3))
    np.testing.assert_allclose(
        sb2c_to_matrix(assoc_l), sb2c_to_matrix(assoc_r), rtol=1e-9, atol=1e-12
    )


def test_orbit_point():
    setup = worked_setup()
    np.testing.assert_allclose(orbit_point(IDENTITY, setup), setup.a0)
    np.testing.assert_allclose(
        orbit_point(SB2CElement(2, 0, 0), SB2CSetup(np.eye(2), SZ.copy())),
        np.diag([2.0, 0.5]),
    )
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = rand_element(rng)
        pt = orbit_point(g, setup)
        assert abs(np.linalg.det(pt) - np.linalg.det(setup.a0)) <= 1e-12


def test_derive_parameters_identity_reference():
    p = derive_parameters(SB2CSetup(np.eye(2), SZ.copy()))
    assert (p.a, p.b, p.c, p.d) == (0.0, 0.0, 1.0, 1.0)
    assert (p.gamma, p.delta, p.alpha, p.beta) == (1.0, -1.0, 0.0, 0.0)
    assert (p.h3, p.h4, p.h1, p.h2) == (1.0, -1.0, 0.0, 0.0)


def test_derive_parameters_worked_reference():
    p = derive_parameters(worked_setup())
    assert (p.c, p.a, p.b, p.d) == (2.0, 3.0, 0.0, 5.0)
    assert (p.h3, p.h1, p.h2, p.h4) == (0.0, -1.0, 0.0, -3.0)


def test_derive_parameters_real_symmetric_is_simplified():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = rng.standard_normal((2, 2))
        a0 = m + m.T
        h = rng.standard_normal((2, 2))
        p = derive_parameters(SB2CSetup(a0, h + h.T))
        assert p.b == 0.0 and p.h2 == 0.0 and p.beta == 0.0


def test_derive_parameters_psd_invariants():
    rng = np.random.default_rng(3)
    for _ in range(50):
        setup = rand_setup(rng)
        p = derive_parameters(setup)
        assert p.c >= 0 and p.d >= 0
        assert p.c * p.d >= p.a**2 + p.b**2 - 1e-12
        rho0 = np.array([[p.c, p.a + 1j * p.b], [p.a - 1j * p.b, p.d]])
        np.testing.assert_allclose(rho0, setup.a0 @ dagger(setup.a0), atol=1e-12)


def test_derive_parameters_rejects_non_hermitian_h():
    with pytest.raises(ValueError):
        derive_parameters(SB2CSetup(np.eye(2), np.array([[0, 1], [0, 0]])))


def test_lagrangian_pullback_identity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        setup = rand_setup(rng)
        g = rand_element(rng)
        gdot = rng.uniform(-2, 2, size=3)
        gm = sb2c_to_matrix(g)
        gd = np.array(
            [[gdot[0], gdot[1] + 1j * gdot[2]], [0.0, -gdot[0] / g.r**2]]
        )
        on_orbit = lagrangian_heisenberg(
            OperatorTangent(gm @ setup.a0, gd @ setup.a0), setup.hamiltonian
        )
        assert lagrangian_sb2c(g, gdot, setup) == pytest.approx(on_orbit, abs=1e-10)


def test_lagrangian_trivial_cases():
    setup = SB2CSetup(SZ.copy(), SZ.copy())  # A0 Hermitian, commutes with H
    assert lagrangian_sb2c(IDENTITY, (0.0, 0.0, 0.0), setup) == pytest.approx(0.0, abs=1e-14)
    rng = np.random.default_rng(5)
    setup = rand_setup(rng)
    a0 = setup.a0
    want = np.trace(setup.hamiltonian @ (a0 @ dagger(a0) - dagger(a0) @ a0)).real
    got = lagrangian_sb2c(IDENTITY, (0.0, 0.0, 0.0), setup)
    assert got == pytest.approx(want, abs=1e-12)


def test_matrix_system_structure():
    rng = np.random.default_rng(6)
    for _ in range(50):
        setup = rand_setup(rng)
        p = derive_parameters(setup)
        amat, _ = build_matrix_system(rand_element(rng), setup)
        np.testing.assert_allclose(
            amat,
            np.array([[-p.b, p.a, 0.0], [0.0, p.d, p.b], [-p.d, 0.0, -p.a]]),
        )
        kernel = np.array([p.a, p.b, -p.d])
        assert np.linalg.norm(amat @ kernel) <= 1e-12 * max(1.0, np.linalg.norm(kernel))
        left = np.array([p.d, -p.a, -p.b])
        assert np.linalg.norm(left @ amat) <= 1e-12 * max(1.0, np.linalg.norm(left))


def test_matrix_system_rank_two():
    rng = np.random.default_rng(7)
    for _ in range(50):
        amat, _ = build_matrix_system(rand_element(rng), rand_setup(rng))
        s = np.linalg.svd(amat, compute_uv=False)
        assert s[2] <= 1e-12 * s[0]
        assert s[1] > 1e-10 * s[0]


def test_constraint_is_left_kernel_contraction():
    rng = np.random.default_rng(8)
    for _ in range(50):
        setup = rand_setup(rng)
        g = rand_element(rng)
        p = derive_parameters(setup)
        _, yv = build_matrix_system(g, setup)
        want = np.dot(np.array([p.d, -p.a, -p.b]), yv)
        assert constraint_residual(g, setup) == pytest.approx(want, abs=1e-12)


def test_constraint_diagonal_reference():
    # a = b = 0 leaves only the d * Y1 term
    setup = SB2CSetup(np.diag([1.0, 2.0]).astype(complex), SZ.copy())
    p = derive_parameters(setup)
    assert p.a == 0.0 and p.b == 0.0
    rng = np.random.default_rng(9)
    for _ in range(20):
        g = rand_element(rng)
        _, yv = build_matrix_system(g, setup)
        assert constraint_residual(g, setup) == pytest.approx(p.d * yv[0], abs=1e-13)


def test_constraint_vanishes_on_phi_curve():
    setup = worked_setup()
    p = derive_parameters(setup)
    for r in np.geomspace(0.2, 5.0, 25):
        x = phi_of_r(float(r), p)
        res = constraint_residual(SB2CElement(float(r), x, 0.7), setup)
        assert abs(res) <= 1e-10
        # the simplified-case constraint does not see y
        res2 = constraint_residual(SB2CElement(float(r), x, -1.3), setup)
        assert abs(res - res2) <= 1e-12
        off = constraint_residual(SB2CElement(float(r), x + 0.1, 0.7), setup)
        assert abs(off) > 1e-3


def test_stacked_constraint_and_matrices_match_per_element():
    rng = np.random.default_rng(21)
    setup = rand_setup(rng)
    p = derive_parameters(setup)
    elements = [rand_element(rng) for _ in range(30)]
    r, x, y = (np.array([getattr(g, c) for g in elements]) for c in "rxy")
    # numpy's array power may round r**3 one ulp away from Python's float power
    want = np.array([constraint_residual(g, setup, p) for g in elements])
    np.testing.assert_allclose(constraint_residual_values(r, x, y, p), want,
                               rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))
    np.testing.assert_array_equal(sb2c_matrices(r, x, y),
                                  [sb2c_to_matrix(g) for g in elements])
    # scalar coordinates broadcast against arrays
    assert sb2c_matrices(2.0, x, 0.0).shape == (30, 2, 2)


def test_phi_worked_values():
    p = derive_parameters(worked_setup())
    assert phi_of_r(1.0, p) == pytest.approx(2.0, abs=1e-14)
    for r in np.geomspace(0.3, 4.0, 17):
        want = (5.0 - r**4) / (2.0 * r**3)
        assert phi_of_r(float(r), p) == pytest.approx(want, rel=1e-13)
        want_prime = -(r**4 + 15.0) / (2.0 * r**4)
        assert phi_prime(float(r), p) == pytest.approx(want_prime, rel=1e-13)


def test_phi_prime_matches_finite_difference():
    for setup in (worked_setup(), offdiag_setup()):
        p = derive_parameters(setup)
        h = 1e-6
        for r in (0.5, 1.0, 1.8, 3.3):
            fd = (phi_of_r(r + h, p) - phi_of_r(r - h, p)) / (2 * h)
            assert phi_prime(r, p) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_phi_inverse_cube_shape():
    # only the constant numerator coefficient is nonzero: Phi ~ C / r^3
    p = SB2CParameters(
        a=0.0, b=0.0, c=1.0, d=2.0,
        alpha=0.0, beta=0.0, gamma=1.0, delta=-1.0,
        h1=1.0, h2=0.0, h3=1.0, h4=0.5,
    )
    # numerator r^4 coefficient: a(gamma a - h1) - d(gamma c - h3) = 0
    c0 = (p.delta * p.d - p.h4) * p.d
    k2 = p.h4 * p.a - p.d * p.h1
    for r in (0.5, 1.0, 2.0, 3.0):
        assert phi_of_r(r, p) == pytest.approx(c0 / (k2 * r**3), rel=1e-13)


def test_phi_domain_errors():
    p = derive_parameters(worked_setup())
    with pytest.raises(ValueError):
        phi_of_r(-1.0, p)
    with pytest.raises(ValueError):
        phi_of_r(0.0, p)
    rng = np.random.default_rng(10)
    complex_setup = SB2CSetup(rand_complex(rng, 2), rand_hermitian(rng, 2))
    with pytest.raises(ValueError):
        phi_of_r(1.0, derive_parameters(complex_setup))


def test_phi_degenerate_denominator_raises():
    # h4 a - d h1 = 0 with alpha = 0 makes the denominator vanish identically
    p = SB2CParameters(
        a=1.0, b=0.0, c=1.0, d=2.0,
        alpha=0.0, beta=0.0, gamma=1.0, delta=0.5,
        h1=1.0, h2=0.0, h3=0.2, h4=2.0,
    )
    with pytest.raises(SingularityError):
        phi_of_r(1.0, p)
    with pytest.raises(SingularityError):
        reduced_rhs(ReducedState(y=0.0, r=1.0), p)


def test_reduced_rhs_worked_closed_form():
    p = derive_parameters(worked_setup())
    rng = np.random.default_rng(11)
    for _ in range(20):
        y = float(rng.uniform(-2, 2))
        r = float(rng.uniform(0.5, 2.5))
        ydot, rdot = reduced_rhs(ReducedState(y=y, r=r), p)
        assert ydot == pytest.approx(4.0 / r**3, rel=1e-12)
        assert rdot == pytest.approx(-16.0 * y * r**4 / (r**4 - 75.0), rel=1e-12)


def test_reduced_rhs_requires_nonzero_d():
    p = SB2CParameters(
        a=1.0, b=0.0, c=1.0, d=0.0,
        alpha=0.0, beta=0.0, gamma=1.0, delta=0.0,
        h1=0.5, h2=0.0, h3=0.0, h4=1.0,
    )
    with pytest.raises(ValueError):
        reduced_rhs(ReducedState(y=0.0, r=1.0), p)


def test_frozen_radius_when_gamma_d_matches_h4():
    # gamma d = h4 kills the rdot equation entirely
    setup = SB2CSetup(
        np.array([[1, 1], [1, 2]], dtype=complex),
        np.array([[2, 1], [1, 1]], dtype=complex),
    )
    p = derive_parameters(setup)
    assert p.gamma * p.d - p.h4 == 0.0
    ydot, rdot = reduced_rhs(ReducedState(y=0.3, r=2.0), p)
    assert rdot == 0.0
    traj = integrate_reduced(ReducedState(y=0.3, r=2.0), p, t_final=1.0, step=0.01)
    assert "singularity" not in traj.meta
    np.testing.assert_allclose(traj.states[:, 1], 2.0, atol=1e-13)
    np.testing.assert_allclose(
        traj.states[:, 0], 0.3 + ydot * traj.times, atol=1e-12
    )


def test_point_equilibrium_is_stationary():
    # for the off-diagonal Hamiltonian the y equation has a root at r^4 = 9
    p = derive_parameters(offdiag_setup())
    r_star = 9.0 ** 0.25
    ydot, rdot = reduced_rhs(ReducedState(y=0.0, r=r_star), p)
    assert abs(ydot) <= 1e-12
    assert rdot == 0.0
    traj = integrate_reduced(ReducedState(y=0.0, r=r_star), p, t_final=1.0, step=0.01)
    assert "singularity" not in traj.meta
    np.testing.assert_allclose(traj.states[:, 0], 0.0, atol=1e-10)
    np.testing.assert_allclose(traj.states[:, 1], r_star, atol=1e-10)


def test_integrate_reduced_regular_trajectory():
    p = derive_parameters(worked_setup())
    traj = integrate_reduced(ReducedState(y=-1.0, r=6.0), p, t_final=5.0, step=1e-3)
    assert "singularity" not in traj.meta
    assert traj.times[0] == 0.0
    assert abs(traj.times[-1] - 5.0) <= 1e-12
    ys, rs = traj.states[:, 0], traj.states[:, 1]
    # first integral of the reduced flow, constant along solutions
    conserved = 4.0 * ys**2 - 1.0 / rs**2 + 25.0 / rs**6
    assert np.max(np.abs(conserved - conserved[0])) <= 1e-9


def test_integrate_reduced_constraint_along_trajectory():
    setup = worked_setup()
    p = derive_parameters(setup)
    traj = integrate_reduced(ReducedState(y=-1.0, r=6.0), p, t_final=5.0, step=1e-3)
    worst = 0.0
    for k in range(0, traj.n_samples, 50):
        y, r, x = traj.states[k]
        worst = max(worst, abs(constraint_residual(SB2CElement(r, x, y), setup)))
    assert worst <= 1e-8


def test_integrate_reduced_richardson_ratio():
    p = derive_parameters(worked_setup())
    initial = ReducedState(y=-1.0, r=6.0)
    fine = integrate_reduced(initial, p, t_final=2.0, step=0.0125)
    errs = []
    for step in (0.1, 0.05):
        traj = integrate_reduced(initial, p, t_final=2.0, step=step)
        errs.append(np.linalg.norm(traj.states[-1, :2] - fine.states[-1, :2]))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_integrate_reduced_halts_at_singularity():
    p = derive_parameters(worked_setup())
    traj = integrate_reduced(ReducedState(y=1.0, r=4.0), p, t_final=5.0, step=1e-3)
    record = traj.meta["singularity"]
    lo, hi = record["bracket"]
    assert hi - lo <= 2e-8
    assert lo <= record["time"] <= hi
    assert 0.031 < record["time"] < 0.033
    # partial trajectory stops on the regular side of r* = 75^(1/4)
    assert traj.n_samples >= 2
    assert traj.times[-1] <= record["time"]
    assert traj.states[-1, 1] > 75.0 ** 0.25


def test_integrate_reduced_rejects_bad_step():
    p = derive_parameters(worked_setup())
    with pytest.raises(ValueError):
        integrate_reduced(ReducedState(y=0.0, r=1.0), p, t_final=1.0, step=0.0)


def test_integrate_reduced_rejects_negative_t_final():
    p = derive_parameters(worked_setup())
    with pytest.raises(ValueError):
        integrate_reduced(ReducedState(y=0.0, r=1.0), p, t_final=-1.0, step=0.1)


def test_integrate_reduced_stage_through_zero_radius_is_singular():
    # an RK4 stage of the step after t = 1.263 drives r through 0; this is a
    # singularity of the flow, not an invalid input
    p = derive_parameters(worked_setup())
    traj = integrate_reduced(ReducedState(y=-1.0, r=1.2), p, t_final=5.0, step=1e-3)
    record = traj.meta["singularity"]
    lo, hi = record["bracket"]
    assert hi - lo <= 1e-8
    assert lo <= record["time"] <= hi
    assert 1.263 < record["time"] < 1.264
    assert traj.n_samples == 1264
    assert np.all(traj.states[:, 1] > 0)


def test_integrate_reduced_field_overflow_at_start_is_singular():
    # r^4 leaves float range in Phi'(r): the field is not finite there
    p = derive_parameters(worked_setup())
    traj = integrate_reduced(ReducedState(y=-1.0, r=1e80, time=0.5), p, t_final=1.0, step=1e-2)
    assert traj.states.shape == (0, 3) and traj.times.shape == (0,)
    record = traj.meta["singularity"]
    assert record["time"] == 0.5 and record["bracket"] is None
    assert "overflow" in record["reason"]


def test_flow_map_is_nonlinear():
    p = derive_parameters(worked_setup())

    def endpoint(y, r):
        traj = integrate_reduced(ReducedState(y=y, r=r), p, t_final=1.0, step=0.01)
        assert "singularity" not in traj.meta
        return traj.states[-1, :2]

    f_u = endpoint(-1.0, 6.0)
    f_v = endpoint(-0.5, 5.0)
    f_mid = endpoint(-0.75, 5.5)
    # an affine time-1 map would send the midpoint to the average
    assert np.linalg.norm(f_mid - 0.5 * (f_u + f_v)) > 1e-3


def test_scalar_residuals_vanish_on_reduced_solutions():
    setup = worked_setup()
    p = derive_parameters(setup)
    traj = integrate_reduced(ReducedState(y=-1.0, r=6.0), p, t_final=2.0, step=1e-3)
    for k in (100, 500, 1500):
        y, r, x = traj.states[k]
        ydot, rdot = reduced_rhs(ReducedState(y=y, r=r), p)
        gdot = (rdot, phi_prime(r, p) * rdot, ydot)
        rows = scalar_el_residuals(SB2CElement(r, x, y), gdot, setup)
        assert np.max(np.abs(rows)) <= 1e-9


def test_scalar_residuals_with_finite_difference_velocities():
    setup = worked_setup()
    p = derive_parameters(setup)
    traj = integrate_reduced(ReducedState(y=-1.0, r=6.0), p, t_final=2.0, step=1e-3)
    dt = traj.times[1] - traj.times[0]
    for k in (200, 900):
        vel = (traj.states[k + 1] - traj.states[k - 1]) / (2 * dt)
        y, r, x = traj.states[k]
        gdot = (vel[1], vel[2], vel[0])
        rows = scalar_el_residuals(SB2CElement(r, x, y), gdot, setup)
        assert np.max(np.abs(rows)) <= 1e-6


def test_matrix_residual_symmetries():
    rng = np.random.default_rng(12)
    for _ in range(30):
        setup = rand_setup(rng)
        g = rand_element(rng)
        gdot = rng.uniform(-2, 2, size=3)
        e_a, e_h = matrix_el_residuals(g, gdot, setup)
        scale = max(1.0, frobenius_norm(e_a), frobenius_norm(e_h))
        assert frobenius_norm(e_a + dagger(e_a)) <= 1e-12 * scale
        assert frobenius_norm(e_h - dagger(e_h)) <= 1e-12 * scale


def test_full_el_residual_consistency_and_zero_case():
    rng = np.random.default_rng(13)
    for _ in range(50):
        value = full_el_residual(
            rand_element(rng), rng.uniform(-2, 2, size=3), rand_setup(rng)
        )
        assert np.isfinite(value) and value >= 0.0
    h = np.array([[1.0, 0.4 + 0.2j], [0.4 - 0.2j, -0.7]])
    setup = SB2CSetup(np.eye(2), h)
    assert full_el_residual(IDENTITY, (0.0, 0.0, 0.0), setup) <= 1e-14


def test_rho_projections():
    rng = np.random.default_rng(14)
    sigma = np.diag([0.25, 0.75]).astype(complex)
    np.testing.assert_allclose(rho1_projection(IDENTITY, sigma), sigma)
    np.testing.assert_allclose(rho2_projection(IDENTITY, sigma), sigma, atol=1e-14)
    for _ in range(100):
        g = rand_element(rng)
        m = rand_complex(rng, 2)
        sigma = m @ dagger(m)
        sigma /= np.trace(sigma).real
        for rho in (rho1_projection(g, sigma), rho2_projection(g, sigma)):
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            assert frobenius_norm(rho - dagger(rho)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_rho1_preserves_determinant_and_rank():
    rng = np.random.default_rng(15)
    psi = np.array([[0.6], [0.8j]])
    pure = psi @ dagger(psi)
    for _ in range(50):
        g = rand_element(rng)
        gm = sb2c_to_matrix(g)
        m = rand_complex(rng, 2)
        sigma = m @ dagger(m)
        before = np.linalg.det(sigma)
        after = np.linalg.det(gm @ sigma @ dagger(gm))
        assert abs(after - before) <= 1e-9 * max(1.0, abs(before))
        evals = np.linalg.eigvalsh(rho1_projection(g, pure))
        assert evals[0] <= 1e-10  # rank stays 1
        assert evals[1] == pytest.approx(1.0, abs=1e-10)


def test_rho_projection_degenerate_trace():
    with pytest.raises(ValueError):
        rho1_projection(IDENTITY, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        rho2_projection(IDENTITY, np.zeros((2, 2)))
