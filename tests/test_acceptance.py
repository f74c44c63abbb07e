"""End-to-end acceptance checks at contract tolerances.

Each test prints exactly one PASS/FAIL line (visible with pytest -s)
and asserts the same condition, so the suite doubles as a report.
"""

import json
import time

import numpy as np
import scipy.linalg

from isospec_lag import cli
from isospec_lag.bloch import (
    BlochVector,
    OrbitTag,
    classify_orbit,
    density_from_bloch,
    flow_generator,
    sb2c_flow_on_state,
    wedge_closed_form,
    wedge_determinant,
    y_field,
)
from isospec_lag.heisenberg import (
    OperatorTangent,
    cartan_one_form_heisenberg,
    cartan_two_form_heisenberg,
    el_residual_heisenberg,
    evolve_heisenberg_exact,
    evolve_heisenberg_rk4,
    flatten_complex,
    heisenberg_rhs,
    lagrangian_heisenberg,
)
from isospec_lag.operator_core import (
    dagger,
    frobenius_norm,
    hermitian_sqrt,
)
from isospec_lag.sb2c import (
    ReducedState,
    SB2CElement,
    SB2CSetup,
    build_matrix_system,
    constraint_residual,
    derive_parameters,
    integrate_reduced,
    lagrangian_sb2c,
    phi_of_r,
    sb2c_to_matrix,
)
from isospec_lag.unitary_orbit import (
    UnitaryTangent,
    evolve_lvn_exact,
    evolve_lvn_rk4,
    lagrangian_unitary,
)
from isospec_lag.verifier import (
    heisenberg_chart,
    verify_trajectory,
)

from conftest import (
    SX,
    SZ,
    rand_complex,
    rand_density,
    rand_hermitian,
    rand_unitary,
    uniform_ball_sample,
)


def _report(num: int, passed: bool, text: str) -> None:
    print(f"criterion {num:02d} {'PASS' if passed else 'FAIL'}: {text}")
    assert passed, f"criterion {num:02d}: {text}"


def test_criterion_01_el_residual_iff_heisenberg_velocity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_on = 0.0
    worst_off = np.inf
    for i in range(1000):
        n = 2 + i % 3
        a = rand_hermitian(rng, n)
        h = rand_hermitian(rng, n)
        v = heisenberg_rhs(a, h)
        worst_on = max(worst_on, el_residual_heisenberg(OperatorTangent(a, v), h))
        bump = rand_hermitian(rng, n)
        bump = 1e-6 * bump / frobenius_norm(bump)
        off = el_residual_heisenberg(OperatorTangent(a, v + bump), h)
        worst_off = min(worst_off, off)
    elapsed = time.perf_counter() - start
    ok = worst_on <= 1e-12 and worst_off > 1e-12 and elapsed < 5.0
    _report(1, ok, "EL residual vanishes exactly on Heisenberg velocities "
            f"(on-shell {worst_on:.2e}, off-shell {worst_off:.2e}, {elapsed:.2f}s)")


def test_criterion_02_cartan_forms_degenerate_on_hermitian():
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(1000):
        n = 2 + i % 3
        point = rand_hermitian(rng, n)
        v1 = rand_hermitian(rng, n)
        v2 = rand_hermitian(rng, n)
        worst = max(worst, abs(cartan_one_form_heisenberg(point, v1)))
        worst = max(worst, abs(cartan_two_form_heisenberg(v1, v2)))
    ok = worst <= 1e-12
    _report(2, ok, f"one- and two-forms vanish on Hermitian arguments (max {worst:.2e})")


def _rk4_halving_ratio(run, exact):
    coarse = frobenius_norm(run(0.05) - exact)
    fine = frobenius_norm(run(0.025) - exact)
    return coarse / fine


def test_criterion_03_rk4_matches_exact_flows():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    h3 = rand_hermitian(rng, 3)
    a3 = rand_hermitian(rng, 3)
    errs = []
    for a0, h in ((SX, SZ), (a3, h3)):
        got = evolve_heisenberg_rk4(a0, h, 1.0, 1e-3).final_state
        errs.append(frobenius_norm(got - evolve_heisenberg_exact(a0, h, 1.0)))
    rho0 = rand_density(rng, 3)
    got = evolve_lvn_rk4(rho0, h3, 1.0, 1e-3).final_state
    errs.append(frobenius_norm(got - evolve_lvn_exact(rho0, h3, 1.0)))
    endpoint = max(errs)

    def run_h(step):
        return evolve_heisenberg_rk4(a3, h3, 1.0, step).final_state

    def run_l(step):
        return evolve_lvn_rk4(rho0, h3, 1.0, step).final_state

    ratio_h = _rk4_halving_ratio(run_h, evolve_heisenberg_exact(a3, h3, 1.0))
    ratio_l = _rk4_halving_ratio(run_l, evolve_lvn_exact(rho0, h3, 1.0))
    elapsed = time.perf_counter() - start
    ok = (endpoint <= 1e-8 and 12 <= ratio_h <= 20 and 12 <= ratio_l <= 20
          and elapsed < 10.0)
    _report(3, ok, f"RK4 endpoint error {endpoint:.2e} at step 1e-3, halving "
            f"ratios {ratio_h:.1f}/{ratio_l:.1f}, {elapsed:.2f}s")


def _entropy(rho) -> float:
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    w = w[w > 1e-14]
    return float(-np.sum(w * np.log(w)))


def test_criterion_04_exact_lvn_is_isospectral():
    rng = np.random.default_rng(104)
    spectrum_worst = 0.0
    scalar_worst = 0.0
    for t in (0.1, 1.0, 10.0):
        for i in range(60):
            n = 2 + i % 3
            rho0 = rand_density(rng, n)
            h = rand_hermitian(rng, n)
            rho_t = evolve_lvn_exact(rho0, h, t)
            drift = np.max(np.abs(np.linalg.eigvalsh(rho_t)
                                  - np.linalg.eigvalsh(rho0)))
            spectrum_worst = max(spectrum_worst, float(drift))
            purity = abs(np.trace(rho_t @ rho_t).real
                         - np.trace(rho0 @ rho0).real)
            entropy = abs(_entropy(rho_t) - _entropy(rho0))
            scalar_worst = max(scalar_worst, float(purity), entropy)
    ok = spectrum_worst <= 1e-10 and scalar_worst <= 1e-8
    _report(4, ok, f"eigenvalues drift {spectrum_worst:.2e}, purity/entropy "
            f"drift {scalar_worst:.2e} for t up to 10")


def test_criterion_05_coefficient_matrix_kernel_and_rank():
    rng = np.random.default_rng(105)
    kernel_worst = 0.0
    third_sv_worst = 0.0
    second_sv_least = np.inf
    for _ in range(1000):
        setup = SB2CSetup(rand_complex(rng, 2), rand_hermitian(rng, 2))
        p = derive_parameters(setup)
        g = SB2CElement(r=float(np.exp(rng.uniform(-0.7, 0.7))),
                        x=float(rng.uniform(-2, 2)), y=float(rng.uniform(-2, 2)))
        amat, _ = build_matrix_system(g, setup)
        kernel = np.array([p.a, p.b, -p.d])
        kernel_worst = max(kernel_worst, float(np.max(np.abs(amat @ kernel))))
        s = np.linalg.svd(amat, compute_uv=False)
        third_sv_worst = max(third_sv_worst, float(s[2]))
        second_sv_least = min(second_sv_least, float(s[1]))
    ok = (kernel_worst <= 1e-12 and third_sv_worst <= 1e-12
          and second_sv_least > 1e-8)
    _report(5, ok, f"(a, b, -d) annihilates the system matrix ({kernel_worst:.2e}); "
            f"rank 2 (third sv {third_sv_worst:.2e}, second sv >= {second_sv_least:.2e})")


def test_criterion_06_constraint_surface_of_worked_setup():
    start = time.perf_counter()
    setup = SB2CSetup(np.array([[1.0, 1.0], [1.0, 2.0]]), SZ)
    p = derive_parameters(setup)
    phi_err = abs(phi_of_r(1.0, p) - 2.0)
    rng = np.random.default_rng(106)
    surface_worst = 0.0
    for r in np.linspace(0.4, 2.8, 100):
        g = SB2CElement(r=float(r), x=phi_of_r(float(r), p),
                        y=float(rng.uniform(-2, 2)))
        surface_worst = max(surface_worst, abs(constraint_residual(g, setup)))
    traj = integrate_reduced(ReducedState(y=-1.0, r=6.0), p, 5.0, 1e-3)
    path_worst = 0.0
    for yv, rv, xv in traj.states:
        g = SB2CElement(r=float(rv), x=float(xv), y=float(yv))
        path_worst = max(path_worst, abs(constraint_residual(g, setup)))
    elapsed = time.perf_counter() - start
    ok = (phi_err <= 1e-12 and surface_worst <= 1e-10 and path_worst <= 1e-8
          and "singularity" not in traj.meta and elapsed < 5.0)
    _report(6, ok, f"phi(1)=2 ({phi_err:.1e}), surface residual {surface_worst:.2e}, "
            f"integrated residual {path_worst:.2e}, {elapsed:.2f}s")


def test_criterion_07_pullback_identities():
    rng = np.random.default_rng(107)
    worst_group = 0.0
    for _ in range(500):
        setup = SB2CSetup(rand_complex(rng, 2), rand_hermitian(rng, 2))
        g = SB2CElement(r=float(np.exp(rng.uniform(-0.7, 0.7))),
                        x=float(rng.uniform(-2, 2)), y=float(rng.uniform(-2, 2)))
        gdot = rng.uniform(-2, 2, size=3)
        gm = sb2c_to_matrix(g)
        gd = np.array([[gdot[0], gdot[1] + 1j * gdot[2]],
                       [0.0, -gdot[0] / g.r**2]])
        pulled = lagrangian_heisenberg(
            OperatorTangent(gm @ setup.a0, gd @ setup.a0), setup.hamiltonian
        )
        worst_group = max(worst_group,
                          abs(lagrangian_sb2c(g, gdot, setup) - pulled))
    worst_orbit = 0.0
    for i in range(500):
        n = 2 + i % 3
        sigma = rand_density(rng, n)
        h = rand_hermitian(rng, n)
        u = rand_unitary(rng, n)
        ut = UnitaryTangent(u, u @ (1j * rand_hermitian(rng, n)))
        root = hermitian_sqrt(sigma)
        pulled = lagrangian_heisenberg(
            OperatorTangent(root @ ut.u, root @ ut.udot), h
        )
        worst_orbit = max(worst_orbit, abs(lagrangian_unitary(ut, sigma, h) - pulled))
    ok = worst_group <= 1e-10 and worst_orbit <= 1e-10
    _report(7, ok, "group and orbit Lagrangians pull back from the operator one "
            f"(deviations {worst_group:.2e}, {worst_orbit:.2e})")


def test_criterion_08_wedge_determinant_closed_form():
    rng = np.random.default_rng(108)
    worst = 0.0
    interior_min = np.inf
    for _ in range(1000):
        x = uniform_ball_sample(rng)
        det = wedge_determinant(x)
        worst = max(worst, abs(det - wedge_closed_form(x)))
        if x.norm < 1 - 1e-6:
            interior_min = min(interior_min, abs(det))
    ok = worst <= 1e-9 and interior_min > 1e-12
    _report(8, ok, f"frame determinant matches closed form ({worst:.2e}); "
            f"no interior zero (min |det| {interior_min:.2e})")


def test_criterion_09_flows_generate_the_fields():
    rng = np.random.default_rng(109)
    fd = 1e-5
    worst = 0.0
    count = 0
    while count < 200:
        x = uniform_ball_sample(rng)
        if classify_orbit(x).tag is not OrbitTag.BULK:
            continue
        count += 1
        for k in (1, 2, 3):
            diff = (sb2c_flow_on_state(k, fd, x).as_array()
                    - sb2c_flow_on_state(k, -fd, x).as_array()) / (2 * fd)
            worst = max(worst, float(np.max(np.abs(diff - y_field(k, x)))))
    pole = BlochVector(0.0, 0.0, 1.0)
    p_worst = 0.0
    for k in (1, 2, 3):
        for t in (0.5, 2.0):
            moved = sb2c_flow_on_state(k, t, pole)
            p_worst = max(p_worst, float(np.linalg.norm(
                moved.as_array() - pole.as_array())))
    ok = worst <= 1e-6 and p_worst <= 1e-9
    _report(9, ok, f"flow derivatives match the fields ({worst:.2e}); "
            f"pole held fixed ({p_worst:.2e})")


def test_criterion_10_determinant_conserved_spectrum_not():
    x0 = BlochVector(0.0, 0.0, 0.5)
    sigma = density_from_bloch(x0)
    det0 = np.linalg.det(sigma).real
    det_worst = 0.0
    for k in (1, 2, 3):
        for t in np.linspace(-2.0, 2.0, 9):
            g = scipy.linalg.expm(t * flow_generator(k))
            det_worst = max(det_worst,
                            abs(np.linalg.det(g @ sigma @ dagger(g)).real - det0))
    before = np.linalg.eigvalsh(sigma)
    moved = density_from_bloch(sb2c_flow_on_state(3, 1.0, x0))
    change = float(np.max(np.abs(np.linalg.eigvalsh(moved) - before)))
    ok = det_worst <= 1e-10 and change > 1e-3
    _report(10, ok, f"determinant drift {det_worst:.2e} while eigenvalues "
            f"move by {change:.3f}")


def test_criterion_11_verifier_convergence():
    def harmonic(q, qdot):
        return 0.5 * np.sum(qdot * qdot, axis=-1) - 0.5 * np.sum(q * q, axis=-1)

    def cosine(dt):
        times = np.arange(21) * dt
        return times, np.cos(times)[:, None]

    fine = verify_trajectory(harmonic, *cosine(1e-3)).max_residual
    coarse = verify_trajectory(harmonic, *cosine(2e-3)).max_residual
    ratio_h = coarse / fine

    lag = heisenberg_chart(SZ)

    def flow_residual(dt):
        times = np.arange(9) * dt
        mats = [evolve_heisenberg_exact(SX, SZ, t) for t in times]
        return verify_trajectory(lag, times, flatten_complex(mats)).max_residual

    ratio_op = flow_residual(2e-3) / flow_residual(1e-3)
    ok = fine <= 1e-5 and 3 <= ratio_h <= 5 and 3 <= ratio_op <= 5
    _report(11, ok, f"harmonic residual {fine:.2e} at grid 1e-3; refinement "
            f"ratios {ratio_h:.2f} and {ratio_op:.2f}")


def _write_config(path, kind, matrices, t_final, step):
    doc = {
        "kind": kind,
        "matrices": {
            k: [[[float(np.real(v)), float(np.imag(v))] for v in row]
                for row in np.atleast_2d(m)]
            for k, m in matrices.items()
        },
        "times": {"t_final": t_final, "step": step},
        "output": {"path": ".", "format": "csv"},
    }
    path.write_text(json.dumps(doc))
    return path


def test_criterion_12_cli_determinism_and_exit_codes(tmp_path, capsys):
    cfg = _write_config(tmp_path / "h.json", "heisenberg",
                        {"initial": SX, "hamiltonian": SZ}, 0.05, 1e-3)
    code_a = cli.main(["heisenberg", "--config", str(cfg),
                       "--out", str(tmp_path / "one")])
    code_b = cli.main(["heisenberg", "--config", str(cfg),
                       "--out", str(tmp_path / "two")])
    identical = ((tmp_path / "one" / "trajectory.csv").read_bytes()
                 == (tmp_path / "two" / "trajectory.csv").read_bytes())

    code_fail = cli.main(["heisenberg", "--config", str(cfg),
                          "--out", str(tmp_path / "fail"),
                          "--tolerance", "rk4_exact_endpoint=1e-20"])

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrices": {}, "times": {"t_final": 1, "step": 0.1}}))
    code_config = cli.main(["heisenberg", "--config", str(bad),
                            "--out", str(tmp_path / "bad")])

    sing = _write_config(tmp_path / "s.json", "sb2c",
                         {"initial": np.array([[1.0, 4.0]]),
                          "a0": np.array([[1.0, 1.0], [1.0, 2.0]]),
                          "hamiltonian": SZ}, 1.0, 1e-3)
    code_sing = cli.main(["sb2c", "--config", str(sing),
                          "--out", str(tmp_path / "sing")])
    report = json.loads((tmp_path / "sing" / "report.json").read_text())
    capsys.readouterr()  # swallow the CLI lines; the criterion prints its own

    ok = (code_a == 0 and code_b == 0 and identical and code_fail == 1
          and code_config == 2 and code_sing == 3 and report["singular"] is True)
    _report(12, ok, "repeated runs byte-identical; exit codes "
            f"{code_a}/{code_fail}/{code_config}/{code_sing} for "
            "pass/tolerance-failure/config-error/singularity")
