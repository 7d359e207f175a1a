from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import _slsqplib, minimize

import setopt.subproblem as subproblem
from setopt._scipy_core import min_norm_point
from setopt.cone import k2prime, orthant
from setopt.partition import PARTITION_CAP, MinimalStructure, structure_from_values
from setopt.problems import derivatives_all, from_functions, registry
from setopt.solvers import SolverConfig, run
from setopt.subproblem import (
    InnerSolveFailure,
    ModelSet,
    _Branches,
    criticality_value,
    inner_minimax,
    theta_and_step,
)

from plants import make_quadratic_plant


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


def model_value(models, j, s):
    """Reference model increment m^j(s) = G_j s + s^T H_j s / 2 of block j alone."""
    return models.G[j] @ s + 0.5 * np.einsum("rab,a,b->r", models.H[j], s, s)


def predicted_reduction(models, cone, j, s):
    """Reference predicted reduction of block j, as ``solvers.predicted_reductions``
    gives it: -psi(m^j(s)), the model analogue of the ratio's numerator."""
    return -cone.scalarize(model_value(models, j, np.asarray(s, dtype=float)))


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
    # each model set without a box, and with a seeded box shift around 0 (x
    # inside the box, on a wall where a bound is 0): the zero step is always
    # a candidate, so t <= 0 with no clamp
    rng, shifts = np.random.default_rng(7), np.random.default_rng(8)
    for _ in range(30):
        omega, m, n = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 5))
        g = rng.normal(size=(omega, m, n))
        h = rng.normal(size=(omega, m, n, n))
        models = ModelSet(G=g, H=0.5 * (h + h.swapaxes(2, 3)))
        cone = orthant(m)
        radius = float(rng.uniform(0.2, 5.0))
        lo, hi = -shifts.uniform(0.0, 3.0, n), shifts.uniform(0.0, 3.0, n)
        lo[shifts.random(n) < 0.25] = 0.0
        hi[shifts.random(n) < 0.25] = 0.0
        for box_shift in (None, (lo, hi)):
            res = inner_minimax(models, cone, radius, box_shift)
            assert res.t <= 0.0
            assert np.linalg.norm(res.s) <= radius + 1e-9
            assert box_shift is None or (np.all(lo <= res.s) and np.all(res.s <= hi))
            recompute = max(
                max(cone.scalarize(model_value(models, j, res.s)) for j in range(omega)),
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
    x = np.zeros(2)
    st = structure_from_values(p.eval_all(x), cone)
    sol = theta_and_step(p, cone, x, st, 1.0, derivatives_all(p, x), box=p.domain_box)
    assert abs(sol.t_star) < 1e-9
    assert np.allclose(sol.s_star, 0.0, atol=1e-6)


def test_theta_deterministic():
    p = registry("hil_n2_m2")
    cone = orthant(2)
    x = np.array([1.3, 2.1])
    st = structure_from_values(p.eval_all(x), cone)
    a = theta_and_step(p, cone, x, st, 1.0, derivatives_all(p, x), box=p.domain_box)
    b = theta_and_step(p, cone, x, st, 1.0, derivatives_all(p, x), box=p.domain_box)
    assert a.t_star == b.t_star
    assert a.s_star.tobytes() == b.s_star.tobytes()
    assert a.a_star == b.a_star


def test_theta_tie_break_lexicographic():
    # two equal-value groups of two equal functions: 4 tuples, all equivalent
    vals = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, -1.0], [1.0, -1.0]])
    st = structure_from_values(vals, orthant(2))
    assert st == MinimalStructure(groups=((1, 2), (3, 4)))

    import setopt.problems as problems
    rows = [np.array([0.0, 0.0]), np.array([0.0, 0.0]),
            np.array([1.0, -1.0]), np.array([1.0, -1.0])]
    p = problems.from_functions(
        "ties", 1, 2, [lambda x, r=r: r + x[0] * np.array([1.0, 1.0]) for r in rows],
        (-2.0, 2.0))
    x = np.array([0.0])
    sol = theta_and_step(p, orthant(2), x, st, 1.0, derivatives_all(p, x), box=p.domain_box)
    assert sol.a_star == (1, 3)


def _ties_plant():
    """Two equal-value groups {1, 2} and {3, 4} at x = 0; all 4 tuples tie."""
    rows = [np.array([0.0, 0.0]), np.array([0.0, 0.0]),
            np.array([1.0, -1.0]), np.array([1.0, -1.0])]
    p = from_functions(
        "ties", 1, 2, [lambda x, r=r: r + x[0] * np.array([1.0, 1.0]) for r in rows],
        (-2.0, 2.0))
    return p, structure_from_values(p.eval_all(np.array([0.0])), orthant(2))


@pytest.mark.parametrize("variant", ["sd", "cg"])
def test_sd_cg_tie_break_lexicographic(variant):
    p, _ = _ties_plant()
    res = run(p, orthant(2), np.array([0.0]), SolverConfig(variant=variant, it_max=1))
    assert len(res.trace) == 1
    assert res.trace[0].a == (1, 3)


def test_theta_every_tuple_failing_raises(monkeypatch):
    def fail(*args, **kwargs):
        raise InnerSolveFailure("forced")

    monkeypatch.setattr(subproblem, "inner_minimax", fail)
    p, st = _ties_plant()
    x = np.array([0.0])
    with pytest.raises(InnerSolveFailure, match="forced"):
        theta_and_step(p, orthant(2), x, st, 1.0, derivatives_all(p, x), box=p.domain_box)
    # no t = 0 stands in for the failed solves, so the run does not stop as converged
    res = run(p, orthant(2), x, SolverConfig(variant="trm"))
    assert not res.converged and res.iterations == 0 and not res.trace
    assert res.diagnostic.startswith("InnerSolveFailure: ")


def test_theta_first_tuple_failing_falls_to_next(monkeypatch):
    original = subproblem.inner_minimax
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise InnerSolveFailure("forced")
        return original(*args, **kwargs)

    monkeypatch.setattr(subproblem, "inner_minimax", fail_first)
    p, st = _ties_plant()
    x = np.array([0.0])
    sol = theta_and_step(p, orthant(2), x, st, 1.0, derivatives_all(p, x), box=p.domain_box)
    assert sol.a_star == (1, 4) and sol.t_star < 0.0


def test_theta_solves_first_tuple_of_offset_family():
    # fdsa's raw group product is 2^22 tuples; every tuple has the same models
    p = registry("fdsa_n2_m3")
    cone = orthant(3)
    x = np.array([0.33, -0.93])
    st = structure_from_values(p.eval_all(x), cone)
    assert st.partition_count() > PARTITION_CAP
    box_shift = (p.domain_box[0] - x, p.domain_box[1] - x)
    sol = theta_and_step(p, cone, x, st, 1.0, derivatives_all(p, x), box=p.domain_box)
    first = tuple(g[0] for g in st.groups)
    assert sol.a_star == first
    jac, hess = derivatives_all(p, x)
    i = first[0] - 1
    alone = inner_minimax(ModelSet(G=jac[[i]], H=hess[[i]]), cone, 1.0, box_shift)
    assert sol.t_star == alone.t < 0.0
    assert sol.s_star.tobytes() == alone.s.tobytes()


def test_theta_uses_box_rows():
    # at the lower box corner the only linear objective cannot decrease
    import setopt.problems as problems
    p = problems.from_functions("lin", 2, 1, [lambda x: np.array([x[0] + x[1]])],
                                (0.0, 1.0))
    cone = orthant(1)
    x = np.zeros(2)
    st = structure_from_values(p.eval_all(x), cone)
    boxed = theta_and_step(p, cone, x, st, 1.0, derivatives_all(p, x), box=p.domain_box)
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
    for j in range(len(models.G)):
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


# -- the SLSQP driver against scipy's public minimize ------------------------

def _epigraph_minimize(branches, starts, phi0, radius, lower, upper, ftol):
    """The epigraph solve through ``minimize(method="SLSQP")``: the reference
    that ``_epigraph_slsqp`` must match bit for bit."""
    R = branches.R
    n_b, n = R.shape
    sym = 0.5 * (branches.WH + branches.WH.transpose(0, 2, 1))
    r2 = radius * radius
    e_tau = np.zeros(n + 1)
    e_tau[n] = 1.0

    def cons(z):
        s, tau = z[:n], z[n]
        lin = R @ s
        return np.concatenate([tau - lin - 0.5 * ((sym @ s) @ s), tau - lin, [r2 - s @ s]])

    def cons_jac(z):
        s = z[:n]
        jac = np.zeros((2 * n_b + 1, n + 1))
        jac[:n_b, :n] = -(R + sym @ s)
        jac[n_b:2 * n_b, :n] = -R
        jac[:2 * n_b, n] = 1.0
        jac[-1, :n] = -2.0 * s
        return jac

    bounds = [*zip(lower, upper), (None, None)]
    constraints = {"type": "ineq", "fun": cons, "jac": cons_jac}
    options = {"maxiter": subproblem._SLSQP_MAXITER, "ftol": ftol}
    res = [minimize(lambda z: z[n], np.append(s0, t0), jac=lambda z: e_tau, method="SLSQP",
                    bounds=bounds, constraints=constraints, options=options)
           for s0, t0 in zip(starts, phi0)]
    return np.array([r.x[:n] for r in res]), tuple((r.status, r.nit) for r in res)


def _epigraph_case(rng, n, n_b, scale, boxed):
    """Branch set, projected starts, their phi, radius, bounds and the ftol
    that ``inner_minimax`` would use."""
    branches = _Branches(R=scale * rng.normal(size=(n_b, n)),
                         WH=scale * rng.normal(size=(n_b, n, n)))
    radius = float(rng.uniform(0.2, 3.0))
    lower, upper = np.full(n, -radius), np.full(n, radius)
    box_shift = None
    if boxed:
        box_shift = (-radius * rng.uniform(0.05, 0.8, n), radius * rng.uniform(0.05, 0.8, n))
        lower, upper = np.maximum(lower, box_shift[0]), np.minimum(upper, box_shift[1])
    starts = subproblem._project(rng.uniform(-radius, radius, (4, n)), radius, box_shift)
    return (branches, starts, branches.phi_values(starts), radius, lower, upper,
            subproblem._scaled_ftol(branches, np.linalg.norm(branches.R, axis=1), radius))


def _seeded_epigraph_cases(count, fig1_count=0):
    """Seeded branch sets: n = 1-10, 1-60 branches, indefinite curvatures,
    every other case with a box shift that cuts the ball, every third with
    branch magnitudes of 1e3-1e6; each at the ftol that ``inner_minimax``
    would use.  Then ``fig1_count`` sets of the Fig-1 shape: n = 2 with
    61-120 branches (K2' gives omega up to 50 there, about 100 branches),
    every other one under a box shift."""
    rng = np.random.default_rng(2024)
    for k in range(count):
        n, n_b = 1 + k % 10, int(rng.integers(1, 61))
        scale = 10.0 ** rng.uniform(3.0, 6.0) if k % 3 == 0 else 1.0
        yield _epigraph_case(rng, n, n_b, scale, k % 2)
    rng = np.random.default_rng(2025)
    for k in range(fig1_count):
        scale = 10.0 ** rng.uniform(1.0, 3.0) if k % 3 == 0 else 1.0
        yield _epigraph_case(rng, 2, int(rng.integers(61, 121)), scale, k % 2)


def test_epigraph_driver_is_bitwise_minimize():
    # _epigraph_slsqp calls a core loaded on its own, apart from the copy minimize uses
    assert subproblem._slsqp is not _slsqplib.slsqp
    modes = set()
    for case in _seeded_epigraph_cases(60, fig1_count=16):
        ends, statuses = subproblem._epigraph_slsqp(*case)
        ref_ends, ref_statuses = _epigraph_minimize(*case)
        assert ends.tobytes() == ref_ends.tobytes()
        assert statuses == ref_statuses
        modes.update(mode for mode, _ in statuses)
    # the non-zero exits are covered: positive directional derivative (8)
    # and the iteration cap (9)
    assert {0, 8, 9} <= modes


def test_inner_minimax_reports_one_status_per_start(monkeypatch):
    original = subproblem._epigraph_slsqp
    solved = []

    def record(branches, starts, phi0, radius, lower, upper, ftol):
        # every solve stops at the ftol scaled to its branches
        assert ftol == subproblem._scaled_ftol(branches, np.linalg.norm(branches.R, axis=1),
                                               radius)
        solved.append(starts.copy())
        return original(branches, starts, phi0, radius, lower, upper, ftol)

    monkeypatch.setattr(subproblem, "_epigraph_slsqp", record)
    rng = np.random.default_rng(8)
    cone = orthant(2)
    cases = []
    for trial in range(6):
        n = 1 + trial
        g, h = _random_models(rng, 3, 2, n)
        box_shift = (-rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)) if trial % 2 else None
        cases.append((ModelSet(G=g, H=h), cone, 1.0, box_shift))
    # large indefinite sets, where solves stop on modes 4, 8 and 9
    cases += list(_reference_model_sets(60))
    first_failed = []
    for models, kone, radius, box_shift in cases:
        solved.clear()
        res = inner_minimax(models, kone, radius, box_shift)
        # one pair per distinct solved start; the next starts only when no
        # solve of the first _N_STARTS ended on mode 0
        starts = np.concatenate(solved)
        assert len(res.statuses) == len(starts) == len(subproblem._first_of_each(starts))
        failed = [mode != 0 for mode, _ in res.statuses[:subproblem._N_STARTS]]
        assert (len(res.statuses) > subproblem._N_STARTS) == all(failed)
        assert len(res.statuses) <= 2 * subproblem._N_STARTS
        first_failed.append(sum(failed))
        for mode, iterations in res.statuses:
            assert type(mode) is int and type(iterations) is int
            assert mode in {0, 2, 3, 4, 5, 6, 7, 8, 9}
            assert 0 <= iterations <= subproblem._SLSQP_MAXITER
    # both sides of the rule occur: one failed solve, and every one failed
    assert {0, 1, subproblem._N_STARTS} <= set(first_failed)
    assert inner_minimax(zero_models(), orthant(1), 0.0).statuses == ()


def _unique_keep(key):
    """The branch dedup as first written: np.unique on the uint64 view."""
    _, first = np.unique(key.view(np.uint64), axis=0, return_index=True)
    return np.sort(first)


def test_branch_dedup_matches_unique_form():
    rng = np.random.default_rng(31)
    for trial in range(40):
        width, distinct = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        base = rng.normal(size=(distinct, width))
        # zeros of both signs: 0.0 and -0.0 are different bit patterns
        base[rng.uniform(size=base.shape) < 0.3] = 0.0
        base[rng.uniform(size=base.shape) < 0.2] = -0.0
        key = base[rng.integers(0, distinct, size=int(rng.integers(1, 4 * distinct + 1)))]
        assert subproblem._first_of_each(key) == _unique_keep(key).tolist()
    key = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]])
    assert subproblem._first_of_each(key) == _unique_keep(key).tolist() == [0, 1]

    cone = orthant(2)
    g, h = _random_models(rng, 3, 2, 3)
    order = [2, 0, 2, 1, 0, 0]
    rows = subproblem.scalarized_rows(cone, g[order])
    wh = np.einsum("lr,jrab->jlab", cone.dual_normals, h[order]).reshape(len(rows), 3, 3)
    keep = _unique_keep(np.concatenate([rows, wh.reshape(len(rows), -1)], axis=1))
    br = _Branches.build(ModelSet(G=g[order], H=h[order]), cone)
    assert br.R.tobytes() == rows[keep].tobytes()
    assert br.WH.tobytes() == wh[keep].tobytes()


def test_first_of_each_matches_unique_form_on_the_battery(monkeypatch):
    # every branch stack and start set that inner_minimax dedups on the
    # 60-set battery, each also with a block repeated and with signed zeros
    original = subproblem._first_of_each
    seen = []

    def record(rows):
        seen.append(rows.copy())
        return original(rows)

    monkeypatch.setattr(subproblem, "_first_of_each", record)
    for models, cone, radius, box_shift in _reference_model_sets(60):
        doubled = ModelSet(G=models.G[[0, *range(len(models.G)), 0]],
                           H=models.H[[0, *range(len(models.H)), 0]])
        inner_minimax(models, cone, radius, box_shift)
        inner_minimax(doubled, cone, radius, box_shift)
    assert len(seen) == 240
    signed = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [1.0, 0.0]])
    for rows in seen + [signed]:
        assert original(rows) == _unique_keep(rows).tolist()
    assert original(signed) == [0, 1, 4]
    assert any(len(original(rows)) < len(rows) for rows in seen)


# -- two distinct starts at the scaled ftol against the four-start solve -----

def _four_start_inner_minimax(models, cone, radius, box_shift=None):
    """``inner_minimax`` as it was with 4 starts, repeats kept and the fixed
    ftol: the reference for the two-start solve."""
    n = models.G.shape[2]
    branches = _Branches.build(models, cone)
    norms = np.linalg.norm(branches.R, axis=1)
    moving = norms > 0.0
    starts = np.concatenate([np.zeros((1, n)),
                             -radius * branches.R[moving] / norms[moving, None],
                             radius * subproblem._fixed_directions(n)])
    S = subproblem._project(starts, radius, box_shift)
    phi = branches.phi_values(S)
    order = np.argsort(phi, kind="stable")[:4]
    S, phi = S[order], phi[order]
    lower, upper = np.full(n, -radius), np.full(n, radius)
    if box_shift is not None:
        lower, upper = np.maximum(lower, box_shift[0]), np.minimum(upper, box_shift[1])
    ends, _ = subproblem._epigraph_slsqp(branches, S, phi, radius, lower, upper,
                                         subproblem._SLSQP_FTOL)
    cand = np.concatenate([S[:1], subproblem._project(ends, radius, box_shift)])
    return float(np.nanmin(branches.phi_values(cand)))


def _reference_model_sets(count):
    """Seeded model sets: n = 1-10, every other one with a box shift, blocks
    of magnitude 1 to 1e6 with indefinite curvature; every fourth is
    critical at 0 (two blocks with opposite gradients and PSD curvature)."""
    rng = np.random.default_rng(60)
    for k in range(count):
        n = 1 + k % 10
        omega, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        scale = 10.0 ** rng.uniform(0.0, 6.0)
        g = scale * rng.normal(size=(omega, m, n))
        h = scale * rng.normal(size=(omega, m, n, n))
        if k % 4 == 3:
            g = np.stack([g[0], -g[0]])
            h = np.einsum("jrab,jrcb->jrac", h[[0, 0]], h[[0, 0]]) / scale
        cone = k2prime() if m == 2 and k % 3 == 0 else orthant(m)
        radius = float(rng.choice([0.5, 1.0, 2.0]))
        box_shift = None
        if k % 2:
            box_shift = (-radius * rng.uniform(0.0, 1.0, n), radius * rng.uniform(0.0, 1.0, n))
        yield ModelSet(G=g, H=0.5 * (h + h.swapaxes(2, 3))), cone, radius, box_shift


def test_two_start_solve_against_four_start_reference():
    verdicts = []
    for models, cone, radius, box_shift in _reference_model_sets(60):
        ref = _four_start_inner_minimax(models, cone, radius, box_shift)
        res = inner_minimax(models, cone, radius, box_shift)
        assert (abs(res.t) < 1e-3) == (abs(ref) < 1e-3)
        assert res.t <= ref + 1e-7 * max(1.0, abs(ref))
        verdicts.append(abs(ref) < 1e-3)
    # both verdicts occur, so the first check compares something
    assert 10 <= sum(verdicts) <= 50


def test_duplicate_starts_are_solved_once(monkeypatch):
    original = subproblem._epigraph_slsqp
    solved = []

    def record(branches, starts, *args):
        solved.append(starts.copy())
        return original(branches, starts, *args)

    monkeypatch.setattr(subproblem, "_epigraph_slsqp", record)
    # the box shift [0, 0.3]^2 clips the steepest-descent start of the one
    # branch and every fixed direction with two positive entries to the
    # corner (0.3, 0.3), the best start; the rest clip to the edges or to 0
    models = ModelSet(G=np.array([[[-1.0, -1.0]]]), H=np.zeros((1, 1, 2, 2)))
    box_shift = (np.zeros(2), np.full(2, 0.3))
    radius = 1.0
    branches = _Branches.build(models, orthant(1))
    cheap = np.concatenate([np.zeros((1, 2)), -radius * branches.R / np.linalg.norm(branches.R),
                            radius * subproblem._fixed_directions(2)])
    cheap = subproblem._project(cheap, radius, box_shift)
    corner = np.full(2, 0.3)
    assert np.sum(np.all(cheap == corner, axis=1)) >= 2
    res = inner_minimax(models, orthant(1), radius, box_shift)
    starts = np.concatenate(solved)
    assert len(subproblem._first_of_each(starts)) == len(starts)
    assert starts[0].tobytes() == corner.tobytes()
    assert len(res.statuses) == len(starts) <= subproblem._N_STARTS
    assert res.t == pytest.approx(-0.6, abs=1e-12)

    # a point box leaves one distinct start, 0: one solve, one status pair
    solved.clear()
    res = inner_minimax(models, orthant(1), radius, (np.zeros(2), np.zeros(2)))
    assert [s.tolist() for s in np.concatenate(solved)] == [[0.0, 0.0]]
    assert len(res.statuses) == 1 and res.t == 0.0


def test_final_pick_never_takes_a_nan_value(monkeypatch):
    # the final pick reads a NaN candidate value as +inf: with the least
    # value made NaN the next least wins; with every value NaN there is
    # nothing to return, and InnerSolveFailure says so
    models, cone, radius, box_shift = next(_reference_model_sets(1))
    original = _Branches.phi_values
    seen = []

    def poisoned(nan_at):
        def phi_values(self, S):
            vals = original(self, S)
            seen.append(S.copy())
            if len(seen) == 2:  # the candidates: the best start, then the end points
                vals[nan_at(vals)] = np.nan
            return vals
        return phi_values

    monkeypatch.setattr(_Branches, "phi_values", poisoned(lambda v: v.argmin()))
    res = inner_minimax(models, cone, radius, box_shift)
    cand = seen[1]
    vals = original(_Branches.build(models, cone), cand)
    assert len(set(vals.tolist())) >= 2
    vals[vals.argmin()] = np.nan
    k = int(np.nanargmin(vals))
    assert res.s.tobytes() == cand[k].tobytes() and res.t == vals[k]

    seen.clear()
    monkeypatch.setattr(_Branches, "phi_values", poisoned(lambda v: slice(None)))
    with pytest.raises(InnerSolveFailure, match="non-finite subproblem value"):
        inner_minimax(models, cone, radius, box_shift)


# -- the first-order bound that decides the stop test -------------------------

def _bound_model_sets(count, eps):
    """Seeded model sets, n = 1-10, every other one with a box shift, whose
    bound radius |p*| lies between eps / 2 and 3 eps / 2 (the gradients are
    scaled to it); every fifth has 0 in the hull of its rows (two blocks
    with opposite gradients).  The curvature is indefinite, of scale 1-1e3."""
    rng = np.random.default_rng(18)
    for k in range(count):
        n = 1 + k % 10
        omega, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        g = rng.normal(size=(omega, m, n))
        h = 10.0 ** rng.uniform(0.0, 3.0) * rng.normal(size=(omega, m, n, n))
        if k % 5 == 4:
            g, h = np.stack([g[0], -g[0]]), h[[0, 0]]
        cone = k2prime() if m == 2 and k % 3 == 0 else orthant(m)
        radius = float(rng.choice([0.5, 1.0, 2.0]))
        models = ModelSet(G=g, H=0.5 * (h + h.swapaxes(2, 3)))
        p_norm = np.linalg.norm(min_norm_point(_Branches.build(models, cone).R))
        if p_norm > 1e-12:
            target = eps * rng.uniform(0.5, 1.5) / radius
            models = ModelSet(G=g * (target / p_norm), H=models.H)
        box_shift = None
        if k % 2:
            box_shift = (-radius * rng.uniform(0.0, 1.0, n), radius * rng.uniform(0.0, 1.0, n))
        yield models, cone, radius, box_shift


def _one_tuple(models):
    """A stand-in problem and partition whose one tuple takes the blocks of
    ``models`` as its derivative rows."""
    omega, _, n = models.G.shape
    structure = MinimalStructure(tuple((j + 1,) for j in range(omega)))
    return SimpleNamespace(n=n, offsets=None), structure


def _bounded_step(monkeypatch, models, cone, radius, box_shift, stop_tol):
    """``theta_and_step`` with ``stop_tol`` on the one tuple of ``models``
    at x = 0, the box shift as its box, and the statuses of its
    ``inner_minimax`` call: None when the first-order bound decided."""
    problem, structure = _one_tuple(models)
    solves = []
    original = subproblem.inner_minimax
    with monkeypatch.context() as patch:
        patch.setattr(subproblem, "inner_minimax",
                      lambda *args: solves.append(original(*args)) or solves[-1])
        sol = theta_and_step(problem, cone, np.zeros(problem.n), structure, radius,
                             (models.G, models.H), box=box_shift, stop_tol=stop_tol)
    return sol, solves[0].statuses if solves else None


def test_step_bound_fires_only_where_the_solve_would_stop(monkeypatch):
    eps = 1e-3
    fired = 0
    for models, cone, radius, box_shift in _bound_model_sets(120, eps):
        full = inner_minimax(models, cone, radius, box_shift)
        res, statuses = _bounded_step(monkeypatch, models, cone, radius, box_shift, eps)
        if statuses is None:
            fired += 1
            assert res.t_star == 0.0 and \
                res.s_star.tobytes() == np.zeros(len(res.s_star)).tobytes()
            assert abs(full.t) < eps
        else:
            assert res.t_star == full.t and res.s_star.tobytes() == full.s.tobytes()
            assert statuses == full.statuses
    # both sides of the bound occur (85 and 35 of the 120)
    assert fired >= 30 and 120 - fired >= 20


def test_step_bound_is_strict(monkeypatch):
    # phi(s) = a s1 over the ball of radius 1: t = -a, and the bound radius |v| = a
    for a, fires in ((1e-3 * (1.0 - 1e-6), True), (1e-3, False), (1e-3 * (1.0 + 1e-6), False)):
        models = ModelSet(G=np.array([[[a, 0.0]]]), H=np.zeros((1, 1, 2, 2)))
        res, statuses = _bounded_step(monkeypatch, models, orthant(1), 1.0, None, 1e-3)
        assert (statuses is None) == fires
        full = inner_minimax(models, orthant(1), 1.0)
        assert full.t == pytest.approx(-a, rel=1e-9)
        assert res.t_star == (0.0 if fires else full.t)


def test_bound_decides_before_any_branches_are_built(monkeypatch):
    # a tuple that the bound decides builds no _Branches and calls no
    # inner_minimax; without stop_tol the same tuple is solved
    models = ModelSet(G=np.array([[[1e-4, 0.0]]]), H=np.eye(2)[None, None])
    problem, structure = _one_tuple(models)
    calls = {"build": 0, "inner_minimax": 0}
    build, original = _Branches.build.__func__, subproblem.inner_minimax

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_Branches, "build", classmethod(counted("build", build)))
    monkeypatch.setattr(subproblem, "inner_minimax", counted("inner_minimax", original))
    for stop_tol, solved in ((1e-3, 0), (None, 1)):
        sol = theta_and_step(problem, orthant(1), np.zeros(2), structure, 1.0,
                             (models.G, models.H), stop_tol=stop_tol)
        assert calls == {"build": solved, "inner_minimax": solved}
        assert (sol.t_star == 0.0) == (stop_tol is not None)
        assert sol.models.G.tobytes() == models.G.tobytes()
    # non-finite model data fails the tuple before the bound is read
    for G, H in ((np.array([[[np.nan, 0.0]]]), models.H),
                 (models.G, np.full((1, 1, 2, 2), np.inf))):
        with pytest.raises(InnerSolveFailure, match="non-finite model data"):
            theta_and_step(problem, orthant(1), np.zeros(2), structure, 1.0, (G, H),
                           stop_tol=1e-3)


def test_criticality_value_never_takes_the_bound(monkeypatch):
    # at this corner of the box |v| < eps, so the bound at radius 1 would
    # skip the solve; the certificate must stay the full solve's value
    p = registry("dtlz3_n5_m4")
    cone = orthant(4)
    x = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    st = structure_from_values(p.eval_all(x), cone)
    skipped = theta_and_step(p, cone, x, st, 1.0, derivatives_all(p, x), stop_tol=1e-3)
    assert skipped.t_star == 0.0 and not np.any(skipped.s_star)
    monkeypatch.setattr(subproblem, "first_order",
                        lambda rows: pytest.fail("the certificate read the first-order bound"))
    cert = criticality_value(p, cone, x, st, radius=1.0)
    full = theta_and_step(p, cone, x, st, 1.0, derivatives_all(p, x))
    assert cert.t_star == full.t_star and cert.s_star.tobytes() == full.s_star.tobytes()
    assert cert.a_star == full.a_star
    assert -1e-3 < cert.t_star < 0.0


@pytest.mark.parametrize("radius", [-1.0, 0.0, float("nan"), float("inf")])
def test_criticality_value_needs_a_positive_finite_radius(radius):
    p = registry("jos1a_n5_m2")
    x = np.array([0.3, 0.1, 0.2, -0.4, 0.5])
    st = structure_from_values(p.eval_all(x), orthant(2))
    with pytest.raises(ValueError, match="positive finite radius"):
        criticality_value(p, orthant(2), x, st, radius=radius)
    assert criticality_value(p, orthant(2), x, st, radius=1.0).t_star < -0.09
