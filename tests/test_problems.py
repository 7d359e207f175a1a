import itertools

import numpy as np
import pytest

from setopt.problems import (
    DomainError,
    UnknownProblemError,
    DerivativeTable,
    derivatives_all,
    fd_jacobian_all,
    make_linear_plant,
    make_quadratic_plant,
    make_sphere_helper_plant,
    problem_ids,
    registry,
)

EXPECTED_IDS = {
    "zdt1_n2_m2", "zdt1_n5_m2", "zdt1_n8_m2", "zdt1_n10_m2", "zdt4_n10_m2",
    "dtlz1_n6_m4", "dtlz3_n5_m4", "dtlz5_n3_m3", "dtlz5_n5_m3", "dtlz5_n7_m5",
    "hil_n2_m2", "dgo1_n1_m2", "dgo2_n1_m2", "jos1a_n5_m2", "fdsa_n2_m3",
    "rosenbrock_n4_m3", "brown_dennis_n4_m5", "trigonometric_n4_m4",
    "das_dennis_n5_m2", "modified_ex51_n1_m2", "modified_ex53_n2_m2", "sphere_n3_m3",
}


def test_registry_has_all_instances():
    assert set(problem_ids()) == EXPECTED_IDS
    for pid in problem_ids():
        p = registry(pid)
        assert p.p == (5 if pid == "modified_ex51_n1_m2" else 100)
        lo, hi = p.domain_box
        assert lo.shape == (p.n,) and hi.shape == (p.n,) and np.all(lo < hi)
        assert p.eval_all(0.5 * (lo + hi)).shape == (p.p, p.m)
    with pytest.raises(UnknownProblemError):
        registry("nope_n1_m1")


def test_table_boxes():
    p = registry("zdt1_n10_m2")
    assert p.n == 10 and p.m == 2
    assert np.array_equal(p.domain_box[0], np.zeros(10))
    assert np.array_equal(p.domain_box[1], np.ones(10))
    z4 = registry("zdt4_n10_m2")
    assert z4.domain_box[0][0] == 0.01 and z4.domain_box[1][0] == 1.0
    assert np.array_equal(z4.domain_box[0][1:], np.full(9, -5.0))
    assert np.array_equal(z4.domain_box[1][1:], np.full(9, 5.0))
    hil = registry("hil_n2_m2")
    assert np.array_equal(hil.domain_box[0], np.zeros(2))
    assert np.array_equal(hil.domain_box[1], np.full(2, 5.0))
    bd = registry("brown_dennis_n4_m5")
    assert np.array_equal(bd.domain_box[0], [-25.0, -5.0, -5.0, -1.0])
    assert np.array_equal(bd.domain_box[1], [25.0, 5.0, 5.0, 1.0])


def test_zdt1_values_at_origin():
    p = registry("zdt1_n10_m2")
    vals = p.eval_all(np.zeros(10))
    # helper g(0) = 1, h = 1; the i = 100 offsets are (0.04, 0.15)
    assert vals[99, 0] == pytest.approx(0.04, abs=1e-12)
    assert vals[99, 1] == pytest.approx(1.15, abs=1e-12)


def test_dgo1_values_at_origin():
    p = registry("dgo1_n1_m2")
    vals = p.eval_all([0.0])
    # helper g(0) = (sin 0, sin 0.7); i = 50 offset is (sin(pi - 1), cos(pi))
    assert vals[49, 0] == pytest.approx(np.sin(1.0), abs=1e-12)
    assert vals[49, 1] == pytest.approx(np.sin(0.7) - 1.0, abs=1e-12)


def test_jos1a_values_at_origin():
    p = registry("jos1a_n5_m2")
    vals = p.eval_all(np.zeros(5))
    # helper g(0) = (0, 4); i = 25 offset is (0.1 cos(pi/2), 50 sin(pi/2))
    assert vals[24, 0] == pytest.approx(0.0, abs=1e-12)
    assert vals[24, 1] == pytest.approx(54.0, abs=1e-12)


def test_modified_ex51_interpolation():
    p = registry("modified_ex51_n1_m2")
    assert p.p == 5
    x = 2.0
    vals = p.eval_all([x])
    c2 = np.cos(x) ** 2
    for i in range(1, 6):
        alpha = (i - 1) / 4.0
        expect = np.array([x + c2, 0.5 * x * np.sin(x) + c2 * (1.0 - 2.0 * alpha)])
        assert np.allclose(vals[i - 1], expect, atol=1e-12)


def test_brown_dennis_trailing_rows_unperturbed():
    p = registry("brown_dennis_n4_m5")
    vals = p.eval_all([1.0, 0.5, -0.5, 0.2])
    assert vals.shape == (100, 5)
    assert np.ptp(vals[:, 3]) == 0.0 and np.ptp(vals[:, 4]) == 0.0
    t = 4.0 / 5.0
    x = np.array([1.0, 0.5, -0.5, 0.2])
    base4 = (x[0] + t * x[1] - np.exp(t)) ** 2 + (x[2] + x[3] * np.sin(t) - np.cos(t)) ** 2
    assert vals[0, 3] == pytest.approx(base4, abs=1e-12)


def test_grid_enumerations_have_100_members():
    pi5 = [np.pi / 5.0 * j for j in range(10)]
    pi10 = [np.pi / 10.0 * j for j in range(10)]
    two_pi5 = [2.0 * np.pi / 5.0 * j for j in range(10)]
    offs = [0.01 + 0.098 * j for j in range(10)]
    expected = {
        "dtlz1_n6_m4": (pi5, pi5), "dtlz3_n5_m4": (pi5, pi5),
        "dtlz5_n3_m3": (pi5, pi5), "fdsa_n2_m3": (pi5, pi5),
        "rosenbrock_n4_m3": (pi5, pi5),
        "brown_dennis_n4_m5": (two_pi5, offs), "trigonometric_n4_m4": (two_pi5, offs),
        "sphere_n3_m3": (pi10, pi5),
    }
    for pid, (phis, psis) in expected.items():
        grid = registry(pid).phi_psi
        assert grid.shape == (100, 2)
        want = np.array(list(itertools.product(phis, psis)))
        assert np.allclose(grid, want, atol=0.0)


def test_determinism_bitwise():
    rng = np.random.default_rng(11)
    for pid in ["zdt4_n10_m2", "hil_n2_m2", "sphere_n3_m3"]:
        p = registry(pid)
        lo, hi = p.domain_box
        x = rng.uniform(lo, hi)
        a, b = p.eval_all(x), p.eval_all(x)
        assert a.tobytes() == b.tobytes()


def test_domain_error_outside_range():
    p = registry("dgo2_n1_m2")
    with pytest.raises(DomainError):
        p.eval_all([10.0])  # sqrt(81 - 100) undefined


def test_eval_index_bounds():
    p = registry("dgo1_n1_m2")
    assert p.eval(1, [0.5]).shape == (2,)
    with pytest.raises(IndexError):
        p.eval(0, [0.5])
    with pytest.raises(IndexError):
        p.eval(101, [0.5])


def test_log_tan_clamp_counter():
    # the pi/5 grid contains psi = 0 and psi >= pi where log(tan(psi/2))
    # is non-finite without the clamp
    p = registry("dtlz1_n6_m4")
    assert p.clamp_events > 0
    assert np.all(np.isfinite(p.eval_all(np.full(6, 0.3))))
    bd = registry("brown_dennis_n4_m5")
    assert bd.clamp_events == 0  # its psi grid stays inside (0, pi)


def test_linear_plant_derivatives():
    c = np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.0]])
    p = make_linear_plant(c)
    jac, hess = derivatives_all(p, [0.3, -0.4, 2.0])
    assert np.allclose(jac[0], c, atol=1e-8)
    # FD of FD Jacobians: rounding of order eps^(2/3) / hess step, as below
    assert np.allclose(hess[0], 0.0, atol=1e-5)


def test_quadratic_plant_hessian():
    a = np.array([[2.0, 1.0], [1.0, 4.0]])
    p = make_quadratic_plant(a)
    x = np.array([0.7, -1.3])
    jac, hess = derivatives_all(p, x)
    assert np.allclose(hess[0, 0], a, atol=1e-5)
    assert np.allclose(jac[0, 0], a @ x, atol=1e-6)


def test_sphere_helper_slope():
    # f(x) = (x - 1/2)^2: slope 2 (x - 1/2) = 0.5 and curvature 2 at x = 0.75
    p = make_sphere_helper_plant()
    jac, hess = derivatives_all(p, [0.75])
    assert jac[0, 0, 0] == pytest.approx(0.5, abs=1e-7)
    assert hess[0, 0, 0, 0] == pytest.approx(2.0, abs=1e-5)
    fd = fd_jacobian_all(p, [0.75])
    assert fd[0, 0, 0] == pytest.approx(0.5, abs=1e-7)


def test_fd_matches_analytic_on_plants():
    rng = np.random.default_rng(12)
    plants = [
        make_linear_plant(np.array([[1.0, -2.0], [3.0, 0.5]])),
        make_quadratic_plant(np.array([[2.0, 1.0], [1.0, 4.0]])),
        make_sphere_helper_plant(),
    ]
    for p in plants:
        lo, hi = p.domain_box
        span = hi - lo
        for _ in range(100):
            x = rng.uniform(lo + 0.05 * span, hi - 0.05 * span)
            fd = fd_jacobian_all(p, x)
            exact = np.asarray(p.analytic_jacobian(1, x))
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(fd[0] - exact)) / scale < 1e-5


def test_hessian_symmetry_exact():
    p = registry("hil_n2_m2")
    _, hess = derivatives_all(p, [1.2, 3.4])
    assert np.max(np.abs(hess - hess.swapaxes(2, 3))) == 0.0


def test_fd_safe_near_boundary():
    p = registry("zdt1_n5_m2")
    jac, hess = derivatives_all(p, np.zeros(5))  # corner of the box
    assert np.all(np.isfinite(jac)) and np.all(np.isfinite(hess))


def test_derivative_table_caches():
    p = registry("dgo1_n1_m2")
    table = DerivativeTable(p)
    x = np.array([0.25])
    j1, h1 = table.bundle_arrays(x)
    j2, h2 = table.bundle_arrays(x)
    assert j1 is j2 and h1 is h2
    assert table.jacobians(x) is j1
