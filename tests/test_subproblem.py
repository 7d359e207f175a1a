import numpy as np
import pytest

from setopt.cone import k2prime, orthant
from setopt.partition import minimal_structure, structure_from_values
from setopt.problems import make_quadratic_plant, registry
from setopt.subproblem import (
    ModelSet,
    _Branches,
    criticality_value,
    inner_minimax,
    predicted_reduction,
    theta_and_step,
)


def grid_oracle(models, cone, radius, box_shift=None, points=201):
    """Dense feasible-grid minimum of phi for n = 2 model sets."""
    br = _Branches.build(models, cone)
    g = np.linspace(-radius, radius, points)
    xs, ys = np.meshgrid(g, g)
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    mask = np.linalg.norm(pts, axis=1) <= radius
    if box_shift is not None:
        mask &= np.all(pts >= box_shift[0], axis=1) & np.all(pts <= box_shift[1], axis=1)
    return float(br.phi_values(pts[mask]).min())


def zero_models(omega=1, m=1, n=2):
    return ModelSet(G=np.zeros((omega, m, n)), H=np.zeros((omega, m, n, n)))


def test_all_zero_models():
    res = inner_minimax(zero_models(), orthant(1), 2.0)
    assert res.t == 0.0 and np.allclose(res.s, 0.0)


def test_zero_radius():
    models = ModelSet(G=np.ones((1, 1, 2)), H=np.zeros((1, 1, 2, 2)))
    res = inner_minimax(models, orthant(1), 0.0)
    assert res.t == 0.0 and np.allclose(res.s, 0.0)


def test_linear_ball_analytic():
    # phi(s) = s1 over the unit ball: minimizer (-1, 0), value -1
    models = ModelSet(G=np.array([[[1.0, 0.0]]]), H=np.zeros((1, 1, 2, 2)))
    res = inner_minimax(models, orthant(1), 1.0)
    assert res.t == pytest.approx(-1.0, abs=1e-9)
    assert np.allclose(res.s, [-1.0, 0.0], atol=1e-6)


def test_quadratic_branch_oracle():
    # phi(s) = max(2 s1 + |s|^2, 2 s1); minimum -1 at (-1, 0)
    models = ModelSet(G=np.array([[[2.0, 0.0]]]),
                      H=np.array([[2.0 * np.eye(2)]]).reshape(1, 1, 2, 2))
    cone = orthant(1)
    res = inner_minimax(models, cone, 10.0)
    gm = grid_oracle(models, cone, 10.0)
    assert gm == pytest.approx(-1.0, abs=1e-9)
    assert res.t <= gm + 1e-3
    assert res.t >= -1.0 - 1e-9
    assert predicted_reduction(models, cone, 0, res.s) == pytest.approx(1.0, abs=2e-3)


def test_predicted_reduction_examples():
    models = zero_models()
    assert predicted_reduction(models, orthant(1), 0, np.zeros(2)) == 0.0
    # m(s) strictly inside -K gives a positive value
    models = ModelSet(G=np.array([[[1.0, 0.0], [0.0, 1.0]]]).reshape(1, 2, 2),
                      H=np.zeros((1, 2, 2, 2)))
    s = np.array([-0.5, -0.25])
    assert predicted_reduction(models, orthant(2), 0, s) > 0.0


def test_t_nonpositive_and_self_consistent_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        omega, m, n = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 5))
        g = rng.normal(size=(omega, m, n))
        h = rng.normal(size=(omega, m, n, n))
        models = ModelSet(G=g, H=0.5 * (h + h.swapaxes(2, 3)))
        cone = orthant(m)
        radius = float(rng.uniform(0.2, 5.0))
        res = inner_minimax(models, cone, radius)
        assert res.t <= 0.0
        assert np.linalg.norm(res.s) <= radius + 1e-9
        recompute = max(
            max(cone.scalarize(models.value(j, res.s)) for j in range(omega)),
            max(cone.scalarize(models.G[j] @ res.s) for j in range(omega)),
        )
        assert res.t == pytest.approx(recompute, abs=1e-9)
        if res.t < 0.0:
            for j in range(omega):
                assert predicted_reduction(models, cone, j, res.s) > 0.0
                # s is a common descent direction: every linear branch sits below t
                assert cone.scalarize(models.G[j] @ res.s) <= res.t + 1e-12


def test_box_shift_respected():
    models = ModelSet(G=np.array([[[1.0, 1.0]]]), H=np.zeros((1, 1, 2, 2)))
    shift = (np.array([-0.25, -4.0]), np.array([4.0, 0.1]))
    res = inner_minimax(models, orthant(1), 3.0, box_shift=shift)
    assert np.all(res.s >= shift[0] - 1e-9) and np.all(res.s <= shift[1] + 1e-9)
    gm = grid_oracle(models, orthant(1), 3.0, box_shift=shift)
    assert res.t <= gm + 1e-3


def test_theta_at_critical_point():
    p = make_quadratic_plant(np.eye(2))
    cone = orthant(1)
    st = minimal_structure(p, cone, np.zeros(2))
    sol = theta_and_step(p, cone, np.zeros(2), st, 1.0, box=p.domain_box)
    assert abs(sol.t_star) < 1e-9
    assert np.allclose(sol.s_star, 0.0, atol=1e-6)
    assert sol.feasible


def test_theta_deterministic():
    p = registry("hil_n2_m2")
    cone = orthant(2)
    x = np.array([1.3, 2.1])
    st = minimal_structure(p, cone, x)
    a = theta_and_step(p, cone, x, st, 1.0, box=p.domain_box)
    b = theta_and_step(p, cone, x, st, 1.0, box=p.domain_box)
    assert a.t_star == b.t_star
    assert a.s_star.tobytes() == b.s_star.tobytes()
    assert a.a_star == b.a_star


def test_theta_tie_break_lexicographic():
    # two equal-value groups of two equal functions: 4 tuples, all equivalent
    vals = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, -1.0], [1.0, -1.0]])
    st = structure_from_values(vals, orthant(2))
    assert st.group_sizes() == (2, 2)

    import setopt.problems as problems
    rows = [np.array([0.0, 0.0]), np.array([0.0, 0.0]),
            np.array([1.0, -1.0]), np.array([1.0, -1.0])]
    p = problems.from_functions(
        "ties", 1, 2, [lambda x, r=r: r + x[0] * np.array([1.0, 1.0]) for r in rows],
        (-2.0, 2.0))
    sol = theta_and_step(p, orthant(2), np.array([0.0]), st, 1.0, box=p.domain_box)
    assert sol.a_star == (1, 3)


def test_theta_uses_box_rows():
    # at the lower box corner the only linear objective cannot decrease
    import setopt.problems as problems
    p = problems.from_functions("lin", 2, 1, [lambda x: np.array([x[0] + x[1]])],
                                (0.0, 1.0))
    cone = orthant(1)
    x = np.zeros(2)
    st = minimal_structure(p, cone, x)
    boxed = theta_and_step(p, cone, x, st, 1.0, box=p.domain_box)
    assert abs(boxed.t_star) < 1e-9
    free = criticality_value(p, cone, x, st, radius=1.0)
    assert free.t_star < -0.5  # descent exists without the box


def test_grid_oracle_battery_small():
    rng = np.random.default_rng(21)
    cone_cache = {1: orthant(1), 2: orthant(2)}
    for _ in range(10):
        omega, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        g = rng.normal(size=(omega, m, 2)) * 2.0
        h = rng.normal(size=(omega, m, 2, 2))
        models = ModelSet(G=g, H=0.5 * (h + h.swapaxes(2, 3)))
        cone = cone_cache[m]
        radius = float(rng.choice([0.5, 1.0, 2.0]))
        shift = (-radius * rng.uniform(0.0, 1.0, 2), radius * rng.uniform(0.0, 1.0, 2))
        for box_shift in (None, shift):
            res = inner_minimax(models, cone, radius, box_shift)
            assert res.t <= grid_oracle(models, cone, radius, box_shift) + 1e-3


def _random_models(rng, blocks, m, n):
    g = rng.normal(size=(blocks, m, n))
    h = rng.normal(size=(blocks, m, n, n))
    return g, 0.5 * (h + h.swapaxes(2, 3))


def test_branches_keep_first_of_bitwise_duplicates():
    rng = np.random.default_rng(5)
    g, h = _random_models(rng, 2, 2, 3)
    cone = orthant(2)
    pair = _Branches.build(ModelSet(G=g, H=h), cone)
    order = [0, 1, 0, 0, 1]
    repeated = _Branches.build(ModelSet(G=g[order], H=h[order]), cone)
    assert repeated.R.tobytes() == pair.R.tobytes()
    assert repeated.WH.tobytes() == pair.WH.tobytes()

    # a copy of block 0 with one entry moved by one ulp: its first branch
    # repeats block 0's and goes, its second is one ulp away and stays
    g_ulp = g[0].copy()
    g_ulp[1, 2] = np.nextafter(g_ulp[1, 2], np.inf)
    g3, h3 = np.stack([g[0], g[1], g_ulp]), h[[0, 1, 0]]
    three = _Branches.build(ModelSet(G=g3, H=h3), cone)
    single = _Branches.build(ModelSet(G=g_ulp[None], H=h[[0]]), cone)
    assert three.R.shape[0] == 5
    assert three.R[:4].tobytes() == pair.R.tobytes()
    assert three.R[4].tobytes() == single.R[1].tobytes()
    assert three.WH[4].tobytes() == single.WH[1].tobytes()
    near = _Branches.build(ModelSet(G=g3[[0, 1, 2, 0, 1]], H=h3[[0, 1, 2, 0, 1]]), cone)
    assert near.R.tobytes() == three.R.tobytes()
    assert near.WH.tobytes() == three.WH.tobytes()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_inner_minimax_bitwise_on_repeated_blocks(n):
    rng = np.random.default_rng(100 + n)
    cone = orthant(2)
    for trial in range(4):
        g, h = _random_models(rng, 2, 2, n)
        radius = float(rng.uniform(0.3, 3.0))
        box_shift = None
        if trial % 2:
            box_shift = (-rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n))
        pair = inner_minimax(ModelSet(G=g, H=h), cone, radius, box_shift)
        order = [0, 1, 0, 0, 1]
        repeated = inner_minimax(ModelSet(G=g[order], H=h[order]), cone, radius, box_shift)
        assert repeated.t == pair.t
        assert repeated.s.tobytes() == pair.s.tobytes()


def _phi_oracle(models, cone, S):
    """phi at each row of S, straight from the model definition."""
    vals = np.full(len(S), -np.inf)
    for j in range(models.omega):
        lin = S @ models.G[j].T
        quad = lin + 0.5 * np.stack([np.sum((S @ h) * S, axis=1) for h in models.H[j]], axis=1)
        vals = np.maximum(vals, np.maximum(cone.scalarize_rows(quad), cone.scalarize_rows(lin)))
    return vals


def _ball_points(n, radius, rng):
    """41^3 grid points for n = 3, 2e5 uniform samples for n = 4 and 5."""
    if n == 3:
        axis = np.linspace(-radius, radius, 41)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        return pts[np.linalg.norm(pts, axis=1) <= radius]
    d = rng.standard_normal((200_000, n))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d * (radius * rng.uniform(size=(200_000, 1)) ** (1.0 / n))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inner_minimax_oracle_higher_dim(n):
    # Table-2 runs call the inner solver at n = 1-10
    rng = np.random.default_rng(1000 + n)
    for _ in range(10):
        omega, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        g = rng.normal(size=(omega, m, n)) * float(rng.choice([0.5, 1.0, 3.0]))
        h = rng.normal(size=(omega, m, n, n)) * float(rng.choice([0.5, 1.0, 3.0]))
        models = ModelSet(G=g, H=0.5 * (h + h.swapaxes(2, 3)))
        cone = k2prime() if m == 2 and rng.uniform() < 0.5 else orthant(m)
        radius = float(rng.choice([0.5, 1.0, 2.0]))
        pts = _ball_points(n, radius, rng)
        shift = (-radius * rng.uniform(0.1, 1.0, n), radius * rng.uniform(0.1, 1.0, n))
        for box_shift in (None, shift):
            feasible = pts
            if box_shift is not None:
                feasible = pts[np.all(pts >= box_shift[0], axis=1)
                               & np.all(pts <= box_shift[1], axis=1)]
            res = inner_minimax(models, cone, radius, box_shift)
            assert np.linalg.norm(res.s) <= radius + 1e-9
            if box_shift is not None:
                assert np.all(res.s >= box_shift[0] - 1e-12)
                assert np.all(res.s <= box_shift[1] + 1e-12)
            assert res.t <= float(_phi_oracle(models, cone, feasible).min()) + 1e-3
