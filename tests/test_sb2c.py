import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from isospec_lag import sb2c
from isospec_lag.heisenberg import OperatorTangent, lagrangian_heisenberg
from isospec_lag.operator_core import dagger, frobenius_norm
from isospec_lag.sb2c import (
    ReducedState,
    SB2CElement,
    SB2CParameters,
    SB2CSetup,
    SingularityError,
    build_matrix_system,
    constraint_residual,
    constraint_residual_values,
    derive_parameters,
    integrate_reduced,
    lagrangian_sb2c,
    matrix_el_residuals,
    phi_of_r,
    phi_prime,
    reduced_rhs,
    sb2c_matrices,
    sb2c_to_matrix,
    scalar_el_residuals,
)
from isospec_lag.trajectory import CSV_BLOCK_ROWS, time_grid
from isospec_lag.verifier import gradients

from conftest import SX, SZ, rand_complex, rand_hermitian, rk4_step


IDENTITY = SB2CElement(1.0, 0.0, 0.0)


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


@pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_element_requires_finite_coordinates(x, y):
    with pytest.raises(ValueError, match="^coordinates must be finite$"):
        SB2CElement(1.0, x, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reduced_state_requires_finite_coordinates(bad):
    # a non-finite y used to start a run whose first row was non-finite,
    # with a false singularity record a few nanoseconds in
    with pytest.raises(ValueError, match="y must be finite"):
        ReducedState(y=bad, r=6.0)
    with pytest.raises(ValueError, match="r must be positive and finite"):
        ReducedState(y=-1.0, r=bad)


def test_to_matrix():
    np.testing.assert_array_equal(sb2c_to_matrix(IDENTITY), np.eye(2))
    got = sb2c_to_matrix(SB2CElement(2.0, 1.0, -1.0))
    np.testing.assert_allclose(got, np.array([[2, 1 - 1j], [0, 0.5]]))
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rand_element(rng)
        assert abs(np.linalg.det(sb2c_to_matrix(g)) - 1.0) <= 1e-14


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
    want = np.array([constraint_residual(g, setup) for g in elements])
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
    for r in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        for f in (phi_of_r, phi_prime):
            with pytest.raises(ValueError, match="^r must be positive and finite, got "):
                f(r, p)
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


def test_phi_and_phi_prime_stay_defined_where_only_the_field_is_singular():
    # a diagonal A0 gives a = 0 and a zero numerator, so Phi = 0 and
    # a + d Phi' = 0 at every r: the surface and its slope are still defined,
    # signs of zero included, and only the reduced field raises
    p = derive_parameters(SB2CSetup(np.array([[1, 0], [0, 2]], dtype=complex),
                                    np.array([[1, 0.5], [0.5, -1]], dtype=complex)))
    assert p.a == 0.0
    phi, slope = phi_of_r(2.0, p), phi_prime(2.0, p)
    assert (phi, math.copysign(1.0, phi)) == (0.0, -1.0)
    assert (slope, math.copysign(1.0, slope)) == (0.0, 1.0)
    with pytest.raises(SingularityError, match=r"a \+ d Phi'\(r\) vanishes at r=2\.0"):
        reduced_rhs(ReducedState(y=-1.0, r=2.0), p)


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
    # the record is the failing step, one step wide, starting at the last row
    assert record["time"] == traj.times[-1] == pytest.approx(0.032, abs=1e-15)
    assert record["bracket"] == [record["time"], 0.033]
    assert record["reason"].startswith("a + d Phi'(r) changed sign from r=")
    # partial trajectory stops on the regular side of r* = 75^(1/4)
    assert traj.n_samples >= 2
    assert traj.states[-1, 1] > 75.0 ** 0.25


def test_integrate_reduced_halts_where_a_step_crosses_the_pole_of_phi():
    # with alpha != 0, Phi = num / (r (k2 r^2 - k0)) has a pole at
    # r* = sqrt(k0 / k2).  One step of 0.5 from each start lands beyond it,
    # by less than `past` (r* ~ 2.953, landing at r ~ 3.10; r* ~ 2.527,
    # landing 3e-4 beyond it) while a + d Phi' keeps its sign, so only the
    # sign of Phi's own denominator can stop the flow, and the record must
    # be that step
    cases = [
        ([[0.0, -2.0], [-0.3, 2.0]], [[-1.8, -1.6], [-1.6, 0.1]], (-2.0, 2.7), 0.15),
        ([[-1.7, -1.9], [-1.1, -1.5]], [[1.2, -1.0], [-1.0, -1.9]], (1.0, 2.3), 1e-3),
    ]
    for a0, h, (y, r), past in cases:
        p = derive_parameters(SB2CSetup(np.array(a0), np.array(h)))
        assert p.alpha != 0
        r_star = np.sqrt(p.d**2 * p.alpha / (p.h4 * p.a - p.d * p.h1))
        initial = ReducedState(y=y, r=r)

        def step(dt):
            z = rk4_step(lambda z: complex(*reduced_rhs(ReducedState(z.real, z.imag), p)),
                         complex(initial.y, initial.r), dt)
            return z.imag

        def dynamical_sign(r):
            return np.sign(p.a + p.d * phi_prime(r, p))

        landing = step(0.5)
        assert initial.r < r_star < landing < r_star + past
        assert dynamical_sign(landing) == dynamical_sign(initial.r)

        traj = integrate_reduced(initial, p, t_final=1.0, step=0.5)
        assert traj.n_samples == 1
        record = traj.meta["singularity"]
        assert record["time"] == 0.0 and record["bracket"] == [0.0, 0.5]
        assert record["reason"] == (f"Phi's denominator r (k2 r^2 - k0) changed sign "
                                    f"from r={initial.r} to r={landing}")
        lo, hi = record["bracket"]
        assert step(lo) < r_star < step(hi)


def test_integrate_reduced_brackets_the_first_failing_step_length_not_the_pole():
    # whether a step fails is not monotone in its length: from r = 2.3 a
    # step of 0.3 fails, one of 0.31 is accepted (landing at r ~ 1.59, far
    # from the pole r* ~ 2.527 of Phi), and one of 0.315 fails again, where
    # an RK4 stage drives r through 0.  The record is the grid step of 0.5
    # that failed, crossing r*, and no shorter step length inside it
    p = derive_parameters(SB2CSetup(np.array([[-1.7, -1.9], [-1.1, -1.5]]),
                                    np.array([[1.2, -1.0], [-1.0, -1.9]])))
    r_star = np.sqrt(p.d**2 * p.alpha / (p.h4 * p.a - p.d * p.h1))
    initial = ReducedState(y=1.0, r=2.3)
    start = np.array([initial.y, initial.r])
    signs0 = pair_oracle(p)[3](initial.r)
    assert [oracle_step(p, start, dt, signs0) is None
            for dt in (0.2, 0.3, 0.31, 0.315, 0.5)] == [False, True, False, True, True]
    assert oracle_step(p, start, 0.31, signs0)[1] < r_star - 0.9

    traj = integrate_reduced(initial, p, t_final=1.0, step=0.5)
    assert traj.n_samples == 1
    record = traj.meta["singularity"]
    assert record["time"] == 0.0 and record["bracket"] == [0.0, 0.5]
    assert record["reason"].startswith("Phi's denominator r (k2 r^2 - k0) changed sign")


def test_integrate_reduced_rejects_bad_step():
    p = derive_parameters(worked_setup())
    with pytest.raises(ValueError):
        integrate_reduced(ReducedState(y=0.0, r=1.0), p, t_final=1.0, step=0.0)


def test_integrate_reduced_rejects_negative_t_final():
    p = derive_parameters(worked_setup())
    with pytest.raises(ValueError):
        integrate_reduced(ReducedState(y=0.0, r=1.0), p, t_final=-1.0, step=0.1)


def test_integrate_reduced_stage_through_zero_radius_is_singular():
    # an RK4 stage that drives r through 0 is a singularity of the flow, not
    # an invalid input: from (-3, 0.5) the third stage of the step after
    # t = 1.065 reaches r ~ -24.3
    p = derive_parameters(worked_setup())
    traj = integrate_reduced(ReducedState(y=-3.0, r=0.5), p, t_final=5.0, step=1e-3)
    record = traj.meta["singularity"]
    assert record["time"] == traj.times[-1] == pytest.approx(1.065, abs=1e-12)
    assert record["bracket"] == [record["time"], 1.066]
    assert record["reason"].startswith("an RK4 stage left r > 0: r=-")
    assert traj.n_samples == 1066
    assert np.all(traj.states[:, 1] > 0)
    # from (-1, 1.2) the step after t = 1.263 lands past the root
    # r* = 75^(1/4) of a + d Phi' (its second stage at r ~ 2.9420, r* - 9e-4)
    traj = integrate_reduced(ReducedState(y=-1.0, r=1.2), p, t_final=5.0, step=1e-3)
    record = traj.meta["singularity"]
    assert record["time"] == traj.times[-1] == pytest.approx(1.263, abs=1e-12)
    assert record["bracket"] == [record["time"], 1.264]
    assert record["reason"].startswith("a + d Phi'(r) changed sign from r=")
    assert traj.n_samples == 1264
    assert np.all(traj.states[:, 1] > 0)


@pytest.mark.parametrize("initial, t_final, rows", [
    ((-2.0, 6.0), 1.0, 1001),
    ((-3.0, 1.0), 2.0, 1483),  # halts near t = 1.48
], ids=["full", "halting"])
def test_integrate_reduced_hands_its_grid_and_columns_to_the_stream(initial, t_final, rows):
    """integrate_reduced calls ``stream(times, headers)``, the shape the CLI's
    run hands every runner, once, then sends its rows in whole blocks and,
    last, the rest."""
    calls, sent = [], []

    def stream(times, headers):
        calls.append((list(times), headers))
        return sent.append

    p = derive_parameters(worked_setup())
    traj = integrate_reduced(ReducedState(*initial), p, t_final, 1e-3, stream)
    grid = time_grid(t_final, 1e-3).tolist()
    assert traj.n_samples == rows
    assert ("singularity" in traj.meta) == (rows < len(grid))
    assert calls == [(grid, ("y", "r", "x"))]
    *blocks, last = [len(floats) // 3 for floats in sent]
    assert blocks == [CSV_BLOCK_ROWS] * len(blocks)
    assert last < CSV_BLOCK_ROWS
    streamed = np.array([x for floats in sent for x in floats], dtype=float).reshape(-1, 3)
    assert streamed.tobytes() == traj.states.tobytes()


def pair_oracle(p):
    """(Phi, Phi', field, signs) of the reduced dynamics on a float64 (y, r)
    pair, written out from the parameters term for term and without
    sb2c._reduced_flow, so a fault in one of its coefficients shows in the
    last bit: Phi(r) = (n4 r^4 + n2 r^2 + n0) / den with every power of r a
    product, den = r (k2 r^2 - k0) and Phi' over den^2,
    ydot = ((gamma a - h1) r + (gamma d - h4) Phi + d alpha / r) / d and
    rdot = -(gamma d - h4) y / (a + d Phi'(r)); the field raises
    OverflowError where Phi or Phi' is not finite, and signs(r) are those of
    a + d Phi'(r) and of den, whose changes stop the flow."""
    n4 = p.a * (p.gamma * p.a - p.h1) - p.d * (p.gamma * p.c - p.h3)
    n2, n0 = p.a * p.d * p.alpha, (p.delta * p.d - p.h4) * p.d
    k2, k0 = p.h4 * p.a - p.d * p.h1, p.d * p.d * p.alpha

    def num_den(r):
        r2 = r * r
        return n4 * (r2 * r2) + n2 * r2 + n0, r * (k2 * r2 - k0)

    def phi(r):
        num, den = num_den(r)
        return num / den

    def phi_prime(r):
        (num, den), r2 = num_den(r), r * r
        dnum_over_r, dden = 4 * n4 * r2 + 2 * n2, 3 * k2 * r2 - k0
        return (dnum_over_r * r * den - num * dden) / (den * den)

    def field(s):
        y, r = s.tolist()
        x, slope = phi(r), phi_prime(r)
        if not (math.isfinite(x) and math.isfinite(slope)):
            raise OverflowError(f"Phi or Phi' is not finite at r={r}")
        ydot = ((p.gamma * p.a - p.h1) * r + (p.gamma * p.d - p.h4) * x
                + p.d * p.alpha / r) / p.d
        return np.array([ydot, -(p.gamma * p.d - p.h4) * y / (p.a + p.d * slope)])

    def signs(r):
        return (math.copysign(1.0, p.a + p.d * phi_prime(r)),
                math.copysign(1.0, num_den(r)[1]))

    return phi, phi_prime, field, signs


def power_forms(p):
    """(Phi, Phi', scale, scale') with every power of r taken by ``**`` and
    Phi' over (k2 r^3 - k0 r)**2, the expanded form of Phi's denominator;
    the scales are the sizes of the terms each form sums, (|n4 r^4| +
    |n2 r^2| + |n0|) / |den| and (|num' den| + |num den'|) / den^2, against
    which rounding in either form is measured."""
    n4 = p.a * (p.gamma * p.a - p.h1) - p.d * (p.gamma * p.c - p.h3)
    n2, n0 = p.a * p.d * p.alpha, (p.delta * p.d - p.h4) * p.d
    k2, k0 = p.h4 * p.a - p.d * p.h1, p.d**2 * p.alpha

    def forms(r):
        num, den = n4 * r**4 + n2 * r**2 + n0, k2 * r**3 - k0 * r
        dnum, dden = 4 * n4 * r**3 + 2 * n2 * r, 3 * k2 * r**2 - k0
        return (num / den, (dnum * den - num * dden) / den**2,
                (abs(n4 * r**4) + abs(n2 * r**2) + abs(n0)) / abs(den),
                (abs(dnum * den) + abs(num * dden)) / den**2)

    return forms


def oracle_step(p, state, dt, signs0):
    """rk4_step of size dt from the float64 pair state through pair_oracle's
    field, or None unless it is accepted: no stage leaves 0 < r < inf, the
    field neither raises nor overflows, and the landing point has finite y,
    0 < r < inf and both denominators with the signs signs0."""
    _, _, field, signs = pair_oracle(p)

    def stage_field(s):
        if not 0 < s[1] < math.inf:
            raise ArithmeticError(f"an RK4 stage left r > 0: r={s[1]}")
        return field(s)

    try:
        with np.errstate(over="raise", invalid="raise"):
            nxt = rk4_step(stage_field, state, dt)
        y, r = nxt.tolist()
        if math.isfinite(y) and 0 < r < math.inf and signs(r) == signs0:
            return nxt
    except ArithmeticError:
        pass
    return None


def assert_pair_oracle_rows(traj, initial, p, t_final, step):
    """Check the rows of traj bit for bit, signs of zeros included, against
    rk4_step over a numpy (y, r) pair through pair_oracle's field, with x
    from its Phi; the public reduced_rhs, phi_of_r and phi_prime agree with
    both.  A run that halts must carry the singularity record of the
    first step the oracle rejects: its time and that grid step as the
    bracket."""
    times = time_grid(t_final, step)
    phi, oracle_phi_prime, field, signs = pair_oracle(p)
    states = [np.array([initial.y, initial.r])]
    for k in range(traj.n_samples - 1):
        dt = step if k < len(times) - 2 else times[-1] - times[k]
        states.append(rk4_step(field, states[-1], dt))
    want = np.array([[y, r, phi(r)] for y, r in np.array(states).tolist()])
    np.testing.assert_array_equal(traj.states, want)
    np.testing.assert_array_equal(np.signbit(traj.states), np.signbit(want))
    y, r, x = want[-1].tolist()
    assert reduced_rhs(ReducedState(y=y, r=r), p) == tuple(field(want[-1, :2]).tolist())
    assert phi_of_r(r, p) == x
    assert phi_prime(r, p) == oracle_phi_prime(r)
    if "singularity" not in traj.meta:
        assert traj.n_samples == len(times)
        return
    k = traj.n_samples - 1
    t = float(times[k])
    dt = step if k < len(times) - 2 else float(times[-1]) - t
    assert oracle_step(p, states[-1], dt, signs(initial.r)) is None
    record = traj.meta["singularity"]
    assert record["time"] == t
    assert record["bracket"] == [t, float(times[k + 1])]


def tilted_setup():
    """Same reference with H = [[1, 0.7], [0.7, -1]]: alpha = 0.7, and no
    halt from (y, r) in [-3, -0.5] x [3, 9] within t = 0.5."""
    return SB2CSetup(np.array([[1, 1], [1, 2]], dtype=complex),
                     np.array([[1, 0.7], [0.7, -1]], dtype=complex))


@settings(max_examples=40, deadline=None)
@given(y=st.floats(-3.0, -0.5), r=st.floats(3.0, 9.0))
def test_integrate_reduced_equals_the_numpy_pair_oracle(y, r):
    # every row must be the one the reference rk4_step gives on a float64
    # (y, r) pair
    p = derive_parameters(worked_setup())
    initial = ReducedState(y=y, r=r)
    traj = integrate_reduced(initial, p, t_final=0.5, step=1e-3)
    assert traj.n_samples >= 2
    assert_pair_oracle_rows(traj, initial, p, 0.5, 1e-3)


@settings(max_examples=40, deadline=None)
@given(y=st.floats(-3.0, -0.5), r=st.floats(3.0, 9.0))
def test_integrate_reduced_equals_the_numpy_pair_oracle_with_alpha(y, r):
    # alpha = 0.7 brings in Phi's k0 and n2 and the field's d alpha / r term,
    # all zero at the worked setup's alpha = 0
    p = derive_parameters(tilted_setup())
    initial = ReducedState(y=y, r=r)
    traj = integrate_reduced(initial, p, t_final=0.5, step=1e-3)
    assert "singularity" not in traj.meta and traj.n_samples == 501
    assert_pair_oracle_rows(traj, initial, p, 0.5, 1e-3)


def test_integrate_reduced_equals_the_numpy_pair_oracle_up_to_the_halt():
    p = derive_parameters(worked_setup())
    initial = ReducedState(y=-1.0, r=1.2)
    traj = integrate_reduced(initial, p, t_final=5.0, step=1e-3)
    assert "singularity" in traj.meta and traj.n_samples == 1264
    assert_pair_oracle_rows(traj, initial, p, 5.0, 1e-3)


def test_integrate_reduced_equals_the_numpy_pair_oracle_up_to_the_halt_with_alpha():
    p = derive_parameters(offdiag_setup())  # alpha = 1
    initial = ReducedState(y=-2.0, r=6.0)
    traj = integrate_reduced(initial, p, t_final=0.5, step=1e-3)
    assert "singularity" in traj.meta and traj.n_samples == 481
    assert_pair_oracle_rows(traj, initial, p, 0.5, 1e-3)


@settings(max_examples=25, deadline=None)
@given(y=st.floats(-3.0, -0.5), r=st.floats(1.0, 2.9))
@example(y=-3.0, r=1.0)
def test_integrate_reduced_equals_the_numpy_pair_oracle_with_its_halt(y, r):
    # nearly every start in this column halts within t = 2 (418 of a
    # 21 x 20 grid of them, between t = 1.04 and 1.98; not (-0.99999, 1.0)):
    # 395 on a step that lands past the root of a + d Phi', 18 where an RK4
    # stage drives r through 0 and 5 on a step that lands outside r > 0.  The
    # rows up to the halt and the singularity record are the oracle's
    p = derive_parameters(worked_setup())
    initial = ReducedState(y=y, r=r)
    traj = integrate_reduced(initial, p, t_final=2.0, step=1e-3)
    assert_pair_oracle_rows(traj, initial, p, 2.0, 1e-3)
    if (y, r) == (-3.0, 1.0):
        assert "singularity" in traj.meta


def test_integrate_reduced_field_overflow_at_start_is_singular():
    # the field is not finite at either start: r^4 leaves float range in
    # Phi(r) at r = 1e80, and Phi' divides by a den^2 that underflows to 0
    # at r = 1e-55
    p = derive_parameters(worked_setup())
    reasons = {
        1e80: "singular or overflowing field at r=1e+80: Phi or Phi' is not finite at r=1e+80",
        1e-55: "singular or overflowing field at r=1e-55: float division by zero",
    }
    for r, reason in reasons.items():
        traj = integrate_reduced(ReducedState(y=-1.0, r=r), p, t_final=1.0, step=1e-2)
        assert traj.states.shape == (0, 3) and traj.times.shape == (0,)
        record = traj.meta["singularity"]
        assert record == {"time": 0.0, "bracket": None, "reason": reason}


def test_denominator_rounding_to_zero_is_singular():
    # Phi's denominator is r (k2 r^2 - k0).  With k2 = 1, k0 = r^2 makes it
    # round to exactly 0 at r (one where r^3 and r^2 r differ, so the
    # expanded k2 r^3 - k0 r would not); phi_of_r, phi_prime and the flow
    # all treat r as singular
    rs = np.linspace(0.5, 5.0, 1001).tolist()
    r = next(r for r in rs if r**3 != r**2 * r)
    k0 = r**2
    p = SB2CParameters(
        a=1.0, b=0.0, c=1.0, d=1.0,
        alpha=k0, beta=0.0, gamma=1.0, delta=0.5,
        h1=0.0, h2=0.0, h3=0.2, h4=1.0,
    )
    message = f"constraint denominator vanishes at r={r}"
    for f in (phi_of_r, phi_prime):
        with pytest.raises(SingularityError, match=message):
            f(r, p)
    traj = integrate_reduced(ReducedState(y=-1.0, r=r), p, t_final=1.0, step=0.1)
    assert traj.states.shape == (0, 3)
    assert traj.meta["singularity"]["reason"] == (
        f"singular or overflowing field at r={r}: {message}")


@pytest.mark.parametrize("setup", [worked_setup, tilted_setup, offdiag_setup])
def test_phi_and_phi_prime_are_the_power_forms_up_to_rounding(setup):
    # the product forms over one denominator round differently from the
    # power forms, by a few eps of the terms summed; a wrong coefficient
    # is off by O(1)
    p = derive_parameters(setup())
    forms = power_forms(p)
    eps = np.finfo(float).eps
    rs = np.concatenate([np.linspace(0.05, 20.0, 2000), np.geomspace(1e-6, 1e40, 2000)])
    for r in rs.tolist():
        phi, slope, scale, slope_scale = forms(r)
        assert abs(phi_of_r(r, p) - phi) <= 8 * eps * scale, r
        assert abs(phi_prime(r, p) - slope) <= 8 * eps * slope_scale, r


@pytest.mark.parametrize("setup", [worked_setup, tilted_setup, offdiag_setup])
def test_phi_phi_prime_and_the_field_raise_rather_than_leave_float_range(setup):
    # far from r ~ 1, r^4 or 1 / den^2 leaves float range: each call either
    # returns finite values or raises ArithmeticError
    p = derive_parameters(setup())
    rs = np.concatenate([np.geomspace(1e40, 1e110, 7500), np.geomspace(1e-80, 1e-40, 7500)])
    raised = 0
    for r in rs.tolist():
        for call in (lambda: (phi_of_r(r, p),), lambda: (phi_prime(r, p),),
                     lambda: reduced_rhs(ReducedState(y=-1.0, r=r), p)):
            try:
                values = call()
            except ArithmeticError:
                raised += 1
                continue
            assert all(math.isfinite(v) for v in values), (r, values)
    assert raised > 0


def alpha_setup():
    """A0 = [[-1.7, -1.9], [-1.1, -1.5]] and H = [[1.2, -1], [-1, -1.9]]: alpha = -1."""
    return SB2CSetup(np.array([[-1.7, -1.9], [-1.1, -1.5]]),
                     np.array([[1.2, -1.0], [-1.0, -1.9]]))


#: Where the field is singular: the pole r* of Phi in alpha_setup, and the
#: roots of a + d Phi' in worked_setup (the first) and alpha_setup, to 1e-15
SINGULAR_RADII = (2.9428309563827115, 2.5271637095851167, 1.340941730484837, 5.030224449627363)

radii = st.one_of(
    st.sampled_from(SINGULAR_RADII).flatmap(lambda x: st.one_of(
        st.floats(x * (1 - 1e-6), x * (1 + 1e-6)),
        st.integers(-64, 64).map(lambda k: x + k * math.ulp(x)))),
    st.floats(1e-3, 1e3),
    st.floats(1e-80, 1e-40),  # 1 / den^2 overflows or den^2 underflows to 0
    st.floats(1e40, 1e110),  # r^4 leaves float range
)


@pytest.mark.parametrize("setup", [worked_setup, alpha_setup])
@settings(max_examples=300, deadline=None)
@given(y=st.floats(-3.0, 3.0), r=radii)
@example(y=-1.0, r=1e80)
@example(y=-1.0, r=1e-55)
@example(y=-1.0, r=2.5271637095851167)
def test_the_field_computes_phi_and_its_denominators_as_terms_does(setup, y, r):
    # field writes terms' lines out rather than calling it: both must give the
    # same bits, and raise the same error with the same message
    p = derive_parameters(setup())
    terms, field = sb2c._reduced_flow(p)
    try:
        phi, phi1, den = terms(r)
    except (SingularityError, ArithmeticError) as exc:
        with pytest.raises(type(exc)) as raised:
            field(y, r)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    denom = p.a + p.d * phi1
    if denom == 0.0:
        with pytest.raises(SingularityError, match=r"a \+ d Phi'\(r\) vanishes"):
            field(y, r)
    else:
        assert [v.hex() for v in field(y, r)[2:]] == [v.hex() for v in (phi, denom, den)]


def singular_radii(p):
    """The positive real roots of Phi's denominator r (k2 r^2 - k0) and of
    (a + d Phi') den^2, by numpy.polynomial, keyed by the name a halting
    run's reason gives each."""
    n4 = p.a * (p.gamma * p.a - p.h1) - p.d * (p.gamma * p.c - p.h3)
    num = Polynomial([(p.delta * p.d - p.h4) * p.d, 0, p.a * p.d * p.alpha, 0, n4])
    den = Polynomial([0, -p.d * p.d * p.alpha, 0, p.h4 * p.a - p.d * p.h1])
    dynamical = p.a * den**2 + p.d * (num.deriv() * den - num * den.deriv())
    return {name: [z.real for z in poly.roots() if abs(z.imag) < 1e-9 and z.real > 0]
            for name, poly in (("a + d Phi'(r)", dynamical),
                               ("Phi's denominator r (k2 r^2 - k0)", den))}


def test_the_closed_form_singular_radii_are_the_pinned_ones():
    worked, alpha = (singular_radii(derive_parameters(s())) for s in (worked_setup, alpha_setup))
    assert worked["a + d Phi'(r)"] == pytest.approx([2.94283], abs=1e-5)
    assert worked["Phi's denominator r (k2 r^2 - k0)"] == []
    assert sorted(worked["a + d Phi'(r)"] + alpha["Phi's denominator r (k2 r^2 - k0)"]
                  + alpha["a + d Phi'(r)"]) == pytest.approx(sorted(SINGULAR_RADII), rel=1e-12)


@pytest.mark.parametrize("setup", [worked_setup, alpha_setup])
@settings(max_examples=150, deadline=None)
@given(y=st.floats(-3.0, 3.0), r=st.floats(0.3, 9.0))
def test_a_sign_change_halt_crosses_a_closed_form_singular_radius(setup, y, r):
    # a run halts on a sign change exactly where a root of the named
    # denominator lies between its last row and the landing point, and no
    # root lies between two consecutive rows of any run
    p = derive_parameters(setup())
    radii = singular_radii(p)
    traj = integrate_reduced(ReducedState(y=y, r=r), p, t_final=2.0, step=1e-3)
    rows = traj.states[:, 1]
    lo, hi = np.minimum(rows[:-1], rows[1:]), np.maximum(rows[:-1], rows[1:])
    for root in sum(radii.values(), []):
        assert not np.any((lo < root) & (root < hi)), root
    reason = traj.meta.get("singularity", {}).get("reason", "")
    crossed = re.fullmatch(r"(.*) changed sign from r=(\S+) to r=(\S+)", reason)
    if crossed:
        r0, r1 = sorted(map(float, crossed.groups()[1:]))
        for name in crossed[1].split(" and "):
            assert any(r0 < root < r1 for root in radii[name]), (name, r0, r1)


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


#: Bound of the projection identity below, relative to max(1, |rows|, |extracted|).
CONSISTENCY_TOL = 1e-9


@settings(max_examples=200, deadline=None)
@given(coords, st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 3),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_matrix_residuals_project_onto_the_scalar_rows(c, gdot, seed):
    # with P = E_a + E_h, the group directions of the matrix residuals are
    # the scalar rows: row2 = r Re P21, row3 = -r Im P21 and
    # row1 = (Re(P11 - P22) - x row2 - y row3) / r
    g = SB2CElement(*c)
    setup = rand_setup(np.random.default_rng(seed))
    e_a, e_h = matrix_el_residuals(g, gdot, setup)
    pmat = e_a + e_h
    rows = scalar_el_residuals(g, gdot, setup)
    row2 = g.r * pmat[1, 0].real
    row3 = -g.r * pmat[1, 0].imag
    row1 = ((pmat[0, 0] - pmat[1, 1]).real - g.x * row2 - g.y * row3) / g.r
    extracted = np.array([row1, row2, row3])
    scale = max(1.0, float(np.linalg.norm(rows)), float(np.linalg.norm(extracted)))
    assert np.linalg.norm(rows - extracted) <= CONSISTENCY_TOL * scale


#: Bound of the Euler-Lagrange identity below, relative to max(1, max|rows|).  Its finite
#: differences of lagrangian_sb2c read up to 1.5e-6 at the corners of coords.
EL_TOL = 1e-5
#: Step along qdot of the centred difference that takes d/dt of dL/dqdot.
EL_TIME_STEP = 1e-4


@settings(max_examples=200, deadline=None)
@given(coords, st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 3),
       st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_implicit_system_is_the_euler_lagrange_system_of_the_lagrangian(c, gdot, seed, real):
    # d/dt dL/dqdot - dL/dq of lagrangian_sb2c by finite differences, in (r, x, y)
    # order, is twice the rows of A Xdot - Y.  dL/dqdot depends on q alone (L is
    # linear in qdot), so its d/dt is the centred difference along qdot.
    setup = rand_setup(np.random.default_rng(seed))
    if real:
        setup = SB2CSetup(setup.a0.real, setup.hamiltonian.real)

    lagrangian = np.vectorize(lambda p, w: lagrangian_sb2c(SB2CElement(*p), w, setup),
                              signature="(d),(d)->()")

    q, v, eps = np.array(c), np.array(gdot), EL_TIME_STEP
    p = gradients(lagrangian, np.stack([q + eps * v, q - eps * v]), np.stack([v, v]), "qdot")
    el = (p[0] - p[1]) / (2 * eps) - gradients(lagrangian, q, v, "q")
    rows = 2 * scalar_el_residuals(SB2CElement(*c), gdot, setup)
    assert np.max(np.abs(el - rows)) <= EL_TOL * max(1.0, np.max(np.abs(rows)))


def test_matrix_residuals_vanish_at_rest_at_the_identity():
    h = np.array([[1.0, 0.4 + 0.2j], [0.4 - 0.2j, -0.7]])
    e_a, e_h = matrix_el_residuals(IDENTITY, (0.0, 0.0, 0.0), SB2CSetup(np.eye(2), h))
    assert frobenius_norm(e_a) + frobenius_norm(e_h) <= 1e-14


def test_rho1_preserves_determinant_and_rank():
    # rho1 = g sigma g^dag / Tr(g sigma g^dag), with det g = 1
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
        m = gm @ pure @ dagger(gm)
        evals = np.linalg.eigvalsh(m / np.trace(m).real)
        assert evals[0] <= 1e-10  # rank stays 1
        assert evals[1] == pytest.approx(1.0, abs=1e-10)
