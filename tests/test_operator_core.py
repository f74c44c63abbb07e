import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec_lag.heisenberg import (
    OperatorTangent,
    cartan_one_form_heisenberg,
    cartan_two_form_heisenberg,
    el_residual_heisenberg,
    evolve_heisenberg_exact,
    evolve_heisenberg_rk4,
    lagrangian_heisenberg,
)
from isospec_lag.operator_core import (
    as_complex_matrix,
    commutator,
    dagger,
    det2,
    frobenius_norm,
    hermitian_sqrt,
    mul2,
    require_hermitian,
    unitary_algebra_basis,
)
from isospec_lag.sb2c import SB2CSetup
from isospec_lag.trajectory import exact_commutator_flow
from isospec_lag.unitary_orbit import (
    UnitaryTangent,
    el_residual_unitary,
    evolve_lvn_exact,
    evolve_lvn_rk4,
    lagrangian_unitary,
)
from isospec_lag.verifier import el_residual_unitary_path, unitary_chart

from conftest import SI, SX, SY, SZ, rand_complex, rand_hermitian


def test_as_complex_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_complex_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_complex_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        as_complex_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_complex_matrix([[np.nan, 0], [0, 1]])


TWO, THREE = np.eye(2), np.eye(3)


def at_rest():
    return UnitaryTangent(TWO, np.zeros((2, 2)))


def still_path():
    """times and the 2 x 2 unitaries of a path at rest on them, seven samples."""
    return np.arange(7) * 1e-2, np.broadcast_to(TWO, (7, 2, 2))


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: commutator(TWO, THREE), "b", id="commutator"),
    pytest.param(lambda: OperatorTangent(TWO, THREE), "velocity", id="operator-tangent"),
    pytest.param(lambda: evolve_heisenberg_exact(TWO, THREE, 1.0), "hamiltonian",
                 id="heisenberg-exact"),
    pytest.param(lambda: evolve_heisenberg_rk4(TWO, THREE, 1.0, 0.1), "hamiltonian",
                 id="heisenberg-rk4"),
    pytest.param(lambda: lagrangian_heisenberg(OperatorTangent(TWO, TWO), THREE),
                 "hamiltonian", id="lagrangian-heisenberg"),
    pytest.param(lambda: cartan_one_form_heisenberg(TWO, THREE), "v", id="one-form"),
    pytest.param(lambda: cartan_two_form_heisenberg(TWO, THREE), "v2", id="two-form"),
    pytest.param(lambda: el_residual_heisenberg(OperatorTangent(TWO, TWO), THREE),
                 "hamiltonian", id="el-residual-heisenberg"),
    pytest.param(lambda: UnitaryTangent(TWO, np.zeros((3, 3))), "udot", id="unitary-tangent"),
    pytest.param(lambda: evolve_lvn_exact(TWO / 2, THREE, 1.0), "hamiltonian", id="lvn-exact"),
    pytest.param(lambda: evolve_lvn_rk4(TWO / 2, THREE, 1.0, 0.1), "hamiltonian",
                 id="lvn-rk4"),
    pytest.param(lambda: lagrangian_unitary(at_rest(), THREE / 3, TWO), "sigma",
                 id="lagrangian-unitary-sigma"),
    pytest.param(lambda: lagrangian_unitary(at_rest(), TWO / 2, THREE), "hamiltonian",
                 id="lagrangian-unitary-hamiltonian"),
    pytest.param(lambda: el_residual_unitary(at_rest(), THREE / 3, TWO), "sigma",
                 id="el-residual-unitary-sigma"),
    pytest.param(lambda: el_residual_unitary(at_rest(), TWO / 2, THREE), "hamiltonian",
                 id="el-residual-unitary-hamiltonian"),
    pytest.param(lambda: SB2CSetup(THREE, TWO), "a0", id="sb2c-a0"),
    pytest.param(lambda: SB2CSetup(TWO, THREE), "hamiltonian", id="sb2c-hamiltonian"),
    pytest.param(lambda: el_residual_unitary_path(*still_path(), THREE / 3, TWO), "sigma",
                 id="orbit-path-sigma"),
    pytest.param(lambda: el_residual_unitary_path(*still_path(), TWO / 2, THREE), "hamiltonian",
                 id="orbit-path-hamiltonian"),
    pytest.param(lambda: unitary_chart(TWO, THREE / 3, TWO), "sigma", id="orbit-chart-sigma"),
    pytest.param(lambda: unitary_chart(TWO, TWO / 2, THREE), "hamiltonian",
                 id="orbit-chart-hamiltonian"),
])
def test_an_input_of_another_shape_is_named(call, name):
    # each input is checked against the shape of the one it pairs with before any
    # product, so no mismatch reaches numpy's matmul
    with pytest.raises(ValueError, match=rf"^{name} must have shape \(2, 2\), got \(3, 3\)$"):
        call()


def test_commutator_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="^b contains non-finite entries$"):
        commutator(SI, [[np.nan, 0], [0, 1]])


def test_dagger():
    m = np.array([[0, 1j], [0, 0]])
    np.testing.assert_array_equal(dagger(m), np.array([[0, 0], [-1j, 0]]))
    np.testing.assert_array_equal(dagger(SY), SY)
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        a = rand_complex(rng, n)
        np.testing.assert_allclose(dagger(dagger(a)), a)


@pytest.mark.parametrize("a_shape, b_shape", [((2, 2), (2, 2)), ((7, 2, 2), (7, 2, 2)),
                                              ((4, 1, 2, 2), (3, 2, 2))])
def test_written_out_2x2_product_and_determinant_match_numpy(a_shape, b_shape):
    rng = np.random.default_rng(17)
    a, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in (a_shape, b_shape))
    np.testing.assert_allclose(mul2(a, b), np.matmul(a, b), rtol=1e-13)
    for m in (a, b):
        np.testing.assert_allclose(det2(m), np.linalg.det(m), rtol=1e-13)


def test_commutator_pauli():
    np.testing.assert_allclose(commutator(SZ, SX), 2j * SY, atol=1e-15)
    np.testing.assert_allclose(commutator(SX, SX), np.zeros((2, 2)))
    b = np.array([[1, 2 + 1j], [0, -3]])
    np.testing.assert_allclose(commutator(SI, b), np.zeros((2, 2)))


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(SI, np.eye(3))


def test_commutator_traceless():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        for _ in range(20):
            a = rand_complex(rng, n)
            b = rand_complex(rng, n)
            assert abs(np.trace(commutator(a, b))) <= 1e-12 * max(
                1.0, frobenius_norm(a) * frobenius_norm(b)
            )


def test_hermitian_predicates():
    np.testing.assert_array_equal(require_hermitian(SX), SX)
    assert frobenius_norm(SY - dagger(SY)) == 0.0
    with pytest.raises(ValueError):
        require_hermitian(np.array([[0, 1], [0, 0]]))
    # defect just below / above the fixed tolerance HERMITIAN_TOL = 1e-10
    require_hermitian(SX + np.array([[0, 7e-11], [0, 0]]))
    with pytest.raises(ValueError):
        require_hermitian(SX + np.array([[0, 7.1e-11], [0, 0]]))


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: require_hermitian([[0, 1e200], [-1e200, 0]]),
                 "^matrix is not Hermitian: defect inf", id="hermitian"),
    pytest.param(lambda: UnitaryTangent(np.diag([1e200, 1]), np.zeros((2, 2))),
                 "^u is not unitary", id="unitary"),
    pytest.param(lambda: UnitaryTangent(TWO, [[1e200, 0], [0, 0]]), "^udot is not tangent",
                 id="tangent"),
])
def test_an_overflowing_defect_fails_its_check_without_a_warning(call, match):
    # the suite turns RuntimeWarning into an error, so an overflow warning fails here
    with pytest.raises(ValueError, match=match):
        call()


def test_require_hermitian_returns_the_hermitian_part():
    near = SX + np.array([[0, 7e-11j], [0, 0]])
    np.testing.assert_array_equal(require_hermitian(near), SX + np.array([[0, 3.5e-11j],
                                                                          [-3.5e-11j, 0]]))
    hermitian = require_hermitian(near)
    assert frobenius_norm(hermitian - dagger(hermitian)) == 0.0
    # an exactly Hermitian matrix comes back as given, signed zeros included
    exact = np.array([[complex(1, -0.0), 2 + 1j], [2 - 1j, complex(-1, -0.0)]])
    assert require_hermitian(exact).tobytes() == exact.tobytes()


def test_hermitian_sqrt_examples():
    np.testing.assert_allclose(hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    np.testing.assert_allclose(hermitian_sqrt(SI), SI)
    m = 0.5 * (SI + 0.6 * SZ)
    np.testing.assert_allclose(
        hermitian_sqrt(m), np.diag([np.sqrt(0.8), np.sqrt(0.2)]), atol=1e-12
    )


def test_hermitian_sqrt_reconstruction():
    rng = np.random.default_rng(5)
    for n in (2, 3, 6):
        for _ in range(5):
            a = rand_complex(rng, n)
            m = a @ dagger(a)
            s = hermitian_sqrt(m)
            assert frobenius_norm(s - dagger(s)) <= 1e-10
            np.testing.assert_allclose(s @ s, m, atol=1e-9)


def test_hermitian_sqrt_negative_clip():
    # eigenvalue at -1e-12 is inside the tolerance band and clips to zero
    v = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    m = v @ np.diag([1.0, -1e-12]) @ v.T
    s = hermitian_sqrt(m)
    np.testing.assert_allclose(s @ s, v @ np.diag([1.0, 0.0]) @ v.T, atol=1e-9)
    with pytest.raises(ValueError):
        hermitian_sqrt(v @ np.diag([1.0, -1e-3]) @ v.T)


def test_eigendecomposition_rejects_non_hermitian():
    # the eigendecomposition inside hermitian_sqrt refuses a non-Hermitian input
    with pytest.raises(ValueError):
        hermitian_sqrt(np.array([[0, 1], [0, 0]]))


def test_unitary_algebra_basis_n1():
    basis = unitary_algebra_basis(1)
    assert len(basis) == 1
    np.testing.assert_array_equal(basis[0], np.array([[1j]]))


def test_unitary_algebra_basis_n2_paulis():
    basis = unitary_algebra_basis(2)
    want = [1j * SI, 1j * SX, 1j * SY, 1j * SZ]
    for got, expect in zip(basis, want):
        np.testing.assert_allclose(got, expect / np.sqrt(2), atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unitary_algebra_basis_orthonormal(n):
    basis = unitary_algebra_basis(n)
    assert len(basis) == n * n
    for tau in basis:
        np.testing.assert_allclose(dagger(tau), -tau, atol=1e-15)
    gram = np.array(
        [[np.trace(dagger(bi) @ bj) for bj in basis] for bi in basis]
    )
    np.testing.assert_allclose(gram, np.eye(n * n), atol=1e-12)


def test_unitary_algebra_basis_rejects_n0():
    with pytest.raises(ValueError):
        unitary_algebra_basis(0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([-1, 1]),
    st.floats(min_value=-10.0, max_value=10.0),
)
def test_exact_commutator_flow_matches_expm(seed, n, sign, t):
    # sign -1 is U^dag y0 U and +1 is U y0 U^dag, with U = expm(-i t h)
    rng = np.random.default_rng(seed)
    y0, h = rand_complex(rng, n), rand_hermitian(rng, n)
    u = scipy.linalg.expm(-1j * t * h)
    expected = dagger(u) @ y0 @ u if sign == -1 else u @ y0 @ dagger(u)
    state = exact_commutator_flow(y0, h, sign, t)
    assert frobenius_norm(state - expected) <= 1e-12 * frobenius_norm(y0)


def test_exact_commutator_flow_stacks_over_times():
    rng = np.random.default_rng(7)
    y0, h = rand_complex(rng, 3), rand_hermitian(rng, 3)
    times = np.linspace(-2.0, 3.0, 11)
    for sign in (-1, 1):
        stacked = exact_commutator_flow(y0, h, sign, times)
        assert stacked.shape == (11, 3, 3)
        for t, row in zip(times, stacked):
            np.testing.assert_array_equal(row, exact_commutator_flow(y0, h, sign, t))
