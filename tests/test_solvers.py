import dataclasses
import logging

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

from setopt import problems, solvers, subproblem
from setopt.bench import ExperimentConfig, _problem_seed, _result_record, run_matrix, sample_points
from setopt.cone import Cone, k2prime, orthant
from setopt.partition import structure_from_values
from setopt.problems import (
    DomainError,
    SetValuedProblem,
    _grad_steps,
    _hess_steps,
    derivatives_all,
    from_functions,
    problem_ids,
    registry,
)
from setopt.solvers import (
    VARIANTS,
    NonMonotoneMemory,
    RunResult,
    SolverConfig,
    SolverInternalError,
    StepMemo,
    _armijo_step,
    _backtracking_steps,
    accept_and_update,
    predicted_reductions,
    reduction_ratios,
    run,
)
from setopt.subproblem import ModelSet, _distinct_rows, first_order

from plants import make_overflow_plant, make_quadratic_plant


def test_config_validation():
    SolverConfig()
    with pytest.raises(ValueError):
        SolverConfig(eta1=0.9, eta2=0.5)
    with pytest.raises(ValueError):
        SolverConfig(gamma1=0.9, gamma2=0.4)
    with pytest.raises(ValueError):
        SolverConfig(omega0=30.0, omega_max=20.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0)
    with pytest.raises(ValueError):
        SolverConfig(variant="newton")
    for nu in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            SolverConfig(nu=nu)
    # every range test fails on NaN; the counts must be integers, not bools
    for field, value in (("eps", float("nan")), ("eps", np.inf), ("rho_armijo", -5.0),
                         ("rho_armijo", 1.0), ("sigma", float("nan")), ("it_max", 2.5),
                         ("it_max", True), ("n_memory", 2.5), ("n_memory", float("nan"))):
        with pytest.raises(ValueError, match=f"{field}.*got {value!r}"):
            SolverConfig(**{field: value})


def test_config_stores_numpy_integer_counts_as_int():
    config = SolverConfig(n_memory=np.int32(3), it_max=np.int64(100))
    assert type(config.n_memory) is int and type(config.it_max) is int
    assert (config.n_memory, config.it_max) == (3, 100)
    assert config == SolverConfig(n_memory=3, it_max=100)
    for field, least in (("n_memory", 0), ("it_max", 1)):
        for value in (True, 2.0, -1, np.int64(least - 1)):
            with pytest.raises(ValueError) as info:
                SolverConfig(**{field: value})
            assert str(info.value) == f"need an integer {field} >= {least}, got {value!r}"


def test_accept_and_update_examples():
    cfg = SolverConfig()
    accepted, omega = accept_and_update((0.9, 0.8), 1.0, cfg)
    assert accepted is True and omega == 2.0
    accepted, omega = accept_and_update((0.5, 0.9), 1.0, cfg)
    assert accepted is True and omega == 1.0
    accepted, omega = accept_and_update((-0.2, 0.9), 1.0, cfg)
    assert accepted is False and omega == pytest.approx(0.65)
    _, omega = accept_and_update((0.99,), 15.0, cfg)
    assert omega == 20.0  # doubling capped at omega_max
    # a NaN ratio passes neither test, as under np.all
    nan = float("nan")
    assert accept_and_update((nan, 0.9), 1.0, cfg) == (False, pytest.approx(0.65))
    assert accept_and_update((0.5, nan), 1.0, cfg) == (False, pytest.approx(0.65))
    assert accept_and_update((0.9, 0.8), 1.0, cfg) == (True, 2.0)
    assert accept_and_update((0.9, 0.5), 1.0, cfg) == (True, 1.0)


def test_radius_collapse_warns_once(monkeypatch, caplog):
    # every ratio test rejects and collapses the radius below OMEGA_UNDERFLOW;
    # at this eps the collapsed steps do not stop the run
    tiny = 0.1 * solvers.OMEGA_UNDERFLOW
    monkeypatch.setattr(solvers, "accept_and_update", lambda rho, omega, config: (False, tiny))
    p = registry("hil_n2_m2")
    with caplog.at_level(logging.WARNING, logger="setopt.solvers"):
        res = run(p, orthant(2), np.array([2.718, 4.675]), SolverConfig(eps=1e-300, it_max=5))
    assert not res.converged and res.iterations == 5
    assert [r.omega for r in res.trace] == [1.0] + [tiny] * 4
    assert res.diagnostic == "omega_underflow" and res.final_omega == tiny
    warnings = [r for r in caplog.records if r.name == "setopt.solvers"]
    assert [r.getMessage() for r in warnings] == \
        [f"trust radius underflow ({tiny:.3e}) at iteration 0"]


def test_avg_q_recursion():
    mem = NonMonotoneMemory("avg", 0, 0.5)
    f = np.array([[0.0]])
    mem.begin_iteration(f, (1,))
    assert mem.q == 1.0
    mem.begin_iteration(f, (1,))
    assert mem.q == 1.5
    mem.begin_iteration(f, (1,))
    assert mem.q == 1.75


def test_avg_reference_scalar_example():
    mem = NonMonotoneMemory("avg", 0, 0.5)
    mem.begin_iteration(np.array([[10.0]]), (1,))
    assert mem.C[0, 0] == 10.0
    mem.begin_iteration(np.array([[4.0]]), (1,))
    assert mem.C[0, 0] == pytest.approx(6.0)
    assert mem.reference is mem.C


def test_avg_mu_zero_is_current_value():
    mem = NonMonotoneMemory("avg", 0, 0.0)
    mem.begin_iteration(np.array([[10.0, -3.0]]), (1,))
    f = np.array([[4.0, 7.0]])
    mem.begin_iteration(f, (1,))
    assert mem.reference.tobytes() == f.tobytes()


def test_avg_streak_break_resets():
    mem = NonMonotoneMemory("avg", 0, 0.5)
    mem.begin_iteration(np.array([[10.0]]), (1,))
    mem.begin_iteration(np.array([[4.0]]), (1,))
    assert mem.C[0, 0] == pytest.approx(6.0)
    mem.begin_iteration(np.array([[8.0]]), (2,))  # tuple changed: reset for good
    assert mem.C[0, 0] == 8.0 and mem.q == 1.0
    mem.begin_iteration(np.array([[2.0]]), (2,))
    assert mem.C[0, 0] == 2.0  # once broken, stays current-value


def test_max_window_reference():
    mem = NonMonotoneMemory("max", 4, 0.5)
    a = (1,)
    # window holds the values {3, 5} of the last two iterations; current value 2
    mem.begin_iteration(np.array([[3.0]]), a)
    mem.begin_iteration(np.array([[5.0]]), a)
    mem.begin_iteration(np.array([[2.0]]), a)
    assert mem.reference[0, 0] == 5.0
    # a different tuple falls back to the current value
    mem2 = NonMonotoneMemory("max", 4, 0.5)
    mem2.begin_iteration(np.array([[3.0], [9.0]]), (1,))
    mem2.begin_iteration(np.array([[2.0], [4.0]]), (2,))
    assert mem2.reference[1, 0] == 4.0


def test_max_window_does_not_reach_past_tuple_change():
    # the tuple changes at the second iteration and the third step is
    # rejected; the window must not bring back the value from before the change
    mem = NonMonotoneMemory("max", 2, 0.5)
    f0, f1, f2 = np.array([[0.0], [10.0]]), np.array([[0.0], [5.0]]), np.array([[0.0], [4.0]])
    refs = []
    for f, a in [(f0, (1,)), (f1, (2,)), (f2, (2,)), (f2, (2,))]:
        mem.begin_iteration(f, a)
        refs.append(float(mem.reference[1, 0]))
    assert refs[1:] == [5.0, 5.0, 5.0]


def test_max_window_depth_zero_is_current_value():
    mem = NonMonotoneMemory("max", 0, 0.5)
    mem.begin_iteration(np.array([[9.0]]), (1,))
    f = np.array([[2.0]])
    mem.begin_iteration(f, (1,))
    assert mem.reference.tobytes() == f.tobytes()


def _ratio_fixture():
    # single block, m = 1: model m(s) = -2 s1, step picks s = (1, 0)
    models = ModelSet(G=np.array([[[-2.0, 0.0]]]), H=np.zeros((1, 1, 2, 2)))
    s = np.array([1.0, 0.0])
    return models, s


def test_reduction_ratio_arithmetic():
    models, s = _ratio_fixture()
    cone = orthant(1)
    mem = NonMonotoneMemory("trm", 0, 0.5)
    mem.begin_iteration(np.array([[7.0]]), (1,))
    rho = reduction_ratios(mem, np.array([[6.0]]), (1,), predicted_reductions(s, models, cone),
                           cone)
    assert rho[0] == pytest.approx(0.5)  # decrease 1 over prediction 2


def test_reduction_ratio_variants_reduce_to_trm():
    models, s = _ratio_fixture()
    cone = orthant(1)
    f_x, f_new = np.array([[7.0]]), np.array([[6.5]])
    out = {}
    for variant, kwargs in [("trm", {}), ("max", {"n_memory": 0}), ("avg", {"mu": 0.0})]:
        mem = NonMonotoneMemory(variant, kwargs.get("n_memory", 0), kwargs.get("mu", 0.5))
        mem.begin_iteration(f_x, (1,))
        out[variant] = reduction_ratios(mem, f_new, (1,), predicted_reductions(s, models, cone),
                                        cone)[0]
    assert out["trm"] == out["max"] == out["avg"]


def test_reduction_ratios_match_the_per_block_loop():
    rng = np.random.default_rng(5)
    G, H = rng.standard_normal((2, 2, 3)), rng.standard_normal((2, 2, 3, 3))
    pattern = [0, 0, 1, 0, 1, 1]
    models = ModelSet(G=G[pattern], H=H[pattern])
    s = np.array([0.3, -0.2, 0.1])
    # G_j s = -(1 + |G_j s|) puts every m^j(s) inside -K for both cones below,
    # so every prediction is positive
    Gs = models.G @ s
    models = ModelSet(G=models.G - (Gs + 1.0 + np.abs(Gs))[..., None] * s / (s @ s),
                      H=models.H)
    a = (3, 1, 6, 2, 2, 5)  # a tuple picks the rows of F; a member may repeat
    F_new, F_x = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    mem = NonMonotoneMemory("trm", 0, 0.5)
    mem.begin_iteration(F_x, a)
    # k2prime: a matmul over the rows would not give scalarize's bits
    for cone in (orthant(2), k2prime()):
        # each block alone: -psi of its model increment m^j(s)
        looped = [-cone.scalarize(F_new[ai - 1] - F_x[ai - 1])
                  / -cone.scalarize(models.G[j] @ s
                                    + 0.5 * np.einsum("rab,a,b->r", models.H[j], s, s))
                  for j, ai in enumerate(a)]
        rho = reduction_ratios(mem, F_new, a, predicted_reductions(s, models, cone), cone)
        assert rho.tobytes() == np.array(looped).tobytes()


def test_reduction_ratio_nonpositive_denominator():
    models = ModelSet(G=np.array([[[2.0, 0.0]]]), H=np.zeros((1, 1, 2, 2)))
    with pytest.raises(SolverInternalError):
        predicted_reductions(np.array([1.0, 0.0]), models, orthant(1))
    # the error names the first block whose prediction is not positive
    models = ModelSet(G=np.array([[[-2.0, 0.0]], [[2.0, 0.0]], [[0.0, 0.0]]]),
                      H=np.zeros((3, 1, 2, 2)))
    with pytest.raises(SolverInternalError, match="for block 1$"):
        predicted_reductions(np.array([1.0, 0.0]), models, orthant(1))


def test_ratio_is_one_where_the_family_is_its_model():
    # two members whose components are quadratics of different curvature:
    # central differences are exact on them up to round-off, so F equals its model
    curvature = np.array([[[1.0, 0.0], [0.0, 4.0]], [[3.0, 1.0], [1.0, 2.0]]])
    p = from_functions("vector_quadratic", 2, 2,
                       [lambda x, A=A: 0.5 * np.einsum("a,rab,b->r", x, A, x)
                        for A in (curvature, curvature[::-1])], (-10.0, 10.0))
    for cone in (orthant(2), k2prime()):
        for x0 in ([3.0, -2.0], [-7.0, 5.5], [4.0, 4.0]):
            res = run(p, cone, x0, SolverConfig(variant="trm"))
            assert res.converged and res.iterations > 0
            assert all(r.accepted for r in res.trace)
            rho = np.concatenate([r.rho for r in res.trace])
            assert np.abs(rho - 1.0).max() < 1e-6
            assert any(len(r.rho) == 2 for r in res.trace)


@pytest.mark.parametrize("pid", ["rosenbrock_n4_m3", "dtlz1_n6_m4"])
def test_ratios_tend_to_one_as_the_radius_shrinks(pid):
    # start 0 of the shared setup is not critical on either instance
    problem = registry(pid)
    cone = orthant(problem.m)
    x = sample_points(problem.domain_box, 5, _problem_seed(5, pid))[0]
    F_x = problem.eval_all(x)
    structure = structure_from_values(F_x, cone)
    gaps = []
    for radius in (2.0 ** -4, 2.0 ** -8, 2.0 ** -12):
        sol = subproblem.theta_and_step(problem, cone, x, structure, radius,
                                        derivatives_all(problem, x), box=problem.domain_box)
        assert sol.t_star <= -SolverConfig().eps
        memory = NonMonotoneMemory("trm", 0, 0.5)
        memory.begin_iteration(F_x, sol.a_star)
        F_new = problem.eval_all(np.clip(x + sol.s_star, *problem.domain_box))
        rho = reduction_ratios(memory, F_new, sol.a_star,
                               predicted_reductions(sol.s_star, sol.models, cone), cone)
        gaps.append(np.abs(rho - 1.0).max())
    assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-4


def test_run_already_critical():
    p = make_quadratic_plant(np.eye(2))
    res = run(p, orthant(1), np.zeros(2), SolverConfig(variant="trm"))
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.final_point, np.zeros(2))


def test_run_x0_outside_box():
    p = registry("dgo2_n1_m2")
    with pytest.raises(ValueError):
        run(p, orthant(2), [15.0], SolverConfig())


@pytest.mark.parametrize("variant", ["trm", "sd"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_x0_not_finite(variant, bad):
    # NaN passes no comparison with the box, so it fails the box check too
    p = registry("zdt1_n2_m2")
    with pytest.raises(ValueError, match="finite"):
        run(p, orthant(2), [bad, 0.5], SolverConfig(variant=variant))


def test_rejected_steps_keep_iterate():
    p = registry("hil_n2_m2")
    res = run(p, orthant(2), np.array([2.718, 4.675]), SolverConfig(variant="trm"))
    xs = [r.x for r in res.trace] + [res.final_point]
    rejected = 0
    for rec, x_next in zip(res.trace, xs[1:]):
        if not rec.accepted:
            rejected += 1
            assert np.array_equal(rec.x, x_next)
    assert rejected > 0


def test_run_variants_bitwise_equal_when_degenerate():
    p = registry("dgo1_n1_m2")
    cone = orthant(2)
    x0 = np.array([3.1])
    base = run(p, cone, x0, SolverConfig(variant="trm"))
    red_max = run(p, cone, x0, SolverConfig(variant="max", n_memory=0))
    red_avg = run(p, cone, x0, SolverConfig(variant="avg", mu=0.0))
    seq = lambda r: [rec.x.tobytes() for rec in r.trace] + [r.final_point.tobytes()]
    assert seq(base) == seq(red_max) == seq(red_avg)


def test_acceptance_means_reference_decrease():
    p = registry("dgo2_n1_m2")
    cone = orthant(2)
    checked = 0
    infos = []
    res = run(p, cone, np.array([4.0]), SolverConfig(variant="max"),
              observer=infos.append)
    for info in infos:
        rec = info["record"]
        for j, ai in enumerate(rec.a):
            val = float(np.max(info["F_new"][ai - 1] - info["reference_full"][ai - 1]))
            if abs(val) > 1e-12:
                assert (rec.rho[j] > 0) == (val < 0)
                checked += 1
    assert checked > 0


def test_sd_quadratic_converges():
    p = make_quadratic_plant(np.eye(2), box=(-5.0, 5.0))
    res = run(p, orthant(1), np.array([3.0, -2.0]), SolverConfig(variant="sd"))
    assert res.converged
    assert np.linalg.norm(res.final_point) < 2e-3  # v = -x for this plant


def test_sd_zero_direction_immediate():
    p = make_quadratic_plant(np.eye(2))
    res = run(p, orthant(1), np.zeros(2), SolverConfig(variant="sd"))
    assert res.converged and res.iterations == 0


def test_cg_first_step_matches_sd():
    p = registry("jos1a_n5_m2")
    cone = orthant(2)
    # off the segment between the two objectives' minimisers 0 and (2, ..., 2),
    # so x0 is not critical and both methods take a step
    x0 = np.array([1.5, -1.0, 0.5, 1.0, -0.5])
    r_sd = run(p, cone, x0, SolverConfig(variant="sd", it_max=1))
    r_cg = run(p, cone, x0, SolverConfig(variant="cg", it_max=1))
    for r in (r_sd, r_cg):
        assert r.iterations == 1
        assert not np.array_equal(r.final_point, x0)
    assert r_sd.final_point.tobytes() == r_cg.final_point.tobytes()


def _hull_distance(rows: np.ndarray, p: np.ndarray) -> float:
    """||rows^T lam - p||_inf for the simplex weights lam that an LP finds
    minimising it: an upper bound on the distance from p to conv(rows)."""
    k, n = rows.shape
    cost = np.r_[np.zeros(k), 1.0]
    a_ub = np.block([[rows.T, -np.ones((n, 1))], [-rows.T, -np.ones((n, 1))]])
    b_ub = np.r_[p, -p]
    a_eq = np.r_[np.ones(k), 0.0][None, :]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (k + 1), method="highs")
    assert res.status == 0
    lam = np.maximum(res.x[:k], 0.0)
    return float(np.max(np.abs(rows.T @ (lam / lam.sum()) - p)))


def _oracle_row_sets():
    """Seeded row sets, n = 1-10, up to 60 rows, row norms 1e-2 to 1e3.

    Even sets put 0 inside the hull (the last row is minus a positive
    combination of the others); odd sets keep every row in the open
    half-space {r : r . c > 0} of a unit vector c, so 0 lies outside.
    """
    rng = np.random.default_rng(20260418)
    for case in range(40):
        n = 1 + case % 10
        k = int(rng.integers(1, 61))
        dirs = rng.standard_normal((k, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        if case % 2:
            c = rng.standard_normal(n)
            c /= np.linalg.norm(c)
            dirs = dirs - np.minimum(dirs @ c - 0.1, 0.0)[:, None] * c
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rows = dirs * 10.0 ** rng.uniform(-2.0, 3.0, size=(k, 1))
        if case % 2 == 0:
            k = max(k, 2)
            rows = np.vstack([rows[:k - 1], -rng.uniform(0.1, 1.0, k - 1) @ rows[:k - 1]])
        yield case % 2 == 0, rows


def test_prox_direction_oracle():
    checked = {True: 0, False: 0}
    for zero_inside, rows in _oracle_row_sets():
        v = first_order(rows)
        p = -v
        scale = float(np.max(np.sum(rows * rows, axis=1)))
        assert _hull_distance(rows, p) <= 1e-10 * np.sqrt(scale)
        # p is the projection of 0 onto the hull: r . p >= |p|^2 for every row
        assert np.all(rows @ p >= p @ p - 1e-10 * scale)
        if zero_inside:
            assert np.linalg.norm(v) <= 1e-10 * np.sqrt(scale)
        else:
            assert np.linalg.norm(v) > 0.0
        checked[zero_inside] += 1
        assert first_order(np.vstack([rows, rows, rows])).tobytes() == v.tobytes()
    assert checked[True] == checked[False] == 20


def test_sd_ranks_tuples_by_t():
    # two linear members, equal at 0, whose slopes differ by 1e-9 at about
    # 1e-4: -|v| tells them apart, -|v|^2 / 2 would not (1e-13 apart, inside
    # best_tuple's 1e-12 tie window, which keeps the earlier tuple)
    slopes = (1e-4, 1e-4 + 1e-9)
    p = from_functions("tie_plant", 1, 1, [lambda x, g=g: g * x[0] for g in slopes],
                       (-1.0, 1.0))
    assert structure_from_values(p.eval_all([0.0]), orthant(1)).groups == ((1, 2),)
    res = run(p, orthant(1), [0.0], SolverConfig(variant="sd", it_max=1, eps=1e-5))
    assert res.trace[0].a == (2,)
    assert res.trace[0].t == pytest.approx(-slopes[1], rel=1e-12)


def test_run_rejects_a_cone_of_another_dimension():
    p = registry("dgo1_n1_m2")
    for variant in ("trm", "sd"):
        with pytest.raises(ValueError, match=r"dgo1_n1_m2 maps into R\^2, but the cone is in R\^3"):
            run(p, orthant(3), [0.5], SolverConfig(variant=variant))


def _kkt_row_sets():
    """Seeded row sets, n = 1-10 and up to 60 rows, row norms 1e-2 to 1e2:
    general rows, rows repeated, collinear rows (of one sign, or of both, so
    that 0 is in the hull) and rows with 0 inside their hull, each kind
    also scaled by 1e100 and by 1e-100."""
    rng = np.random.default_rng(20261019)
    kinds = ("general", "duplicates", "collinear", "zero_inside")
    for case in range(240):
        kind = kinds[case % 4]
        n, k = 1 + case % 10, int(rng.integers(1, 31))
        rows = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-2.0, 2.0, (k, 1))
        if kind == "duplicates":
            rows = np.vstack([rows, rows[rng.integers(0, k, size=k)]])
        elif kind == "collinear":
            one_sign = rng.choice([-1.0, 1.0]) if case % 8 == 2 else None
            signs = one_sign if one_sign is not None else rng.choice([-1.0, 1.0], size=k)
            rows = np.outer(signs * 10.0 ** rng.uniform(-2.0, 2.0, k), rng.standard_normal(n))
        elif kind == "zero_inside":
            rows = np.vstack([rows, -rng.uniform(0.1, 1.0, k) @ rows])
        yield kind, rows * (1e100, 1.0, 1e-100)[case // 4 % 3]


def test_prox_direction_meets_the_kkt_conditions():
    # p = -first_order(rows) is the min-norm point of conv(rows) when some
    # lam >= 0 with sum 1 gives p = rows^T lam and min_i r_i.p >= |p|^2.
    # In units of the largest row norm s: the lam that scipy's nnls finds
    # reproduces p and sums to 1 within 1e-13, the gap |p|^2 - min_i r_i.p
    # is at most 1e-13 s^2, and p is within 1e-13 s of the min-norm point
    # through scipy's nnls (u >= 0 least |[R^T; 1^T] u - e_{n+1}|,
    # p = R^T u / sum(u); Lawson & Hanson 1974, ch. 23).
    seen = set()
    for kind, rows in _kkt_row_sets():
        p = -first_order(rows)
        s = np.linalg.norm(rows, axis=1).max()
        R, p = rows / s, p / s
        A = np.vstack([R.T, np.ones(len(R))])
        lam = nnls(A, np.r_[p, 1.0], maxiter=50 * len(R))[0]
        assert np.abs(R.T @ lam - p).max() <= 1e-13 and abs(lam.sum() - 1.0) <= 1e-13, kind
        assert (R @ p).min() >= p @ p - 1e-13, kind
        u = nnls(A, np.r_[np.zeros(R.shape[1]), 1.0], maxiter=50 * len(R))[0]
        assert np.abs(p - R.T @ (u / u.sum())).max() <= 1e-13, kind
        seen.add(kind)
    assert len(seen) == 4


def test_prox_direction_single_row_and_1d():
    rng = np.random.default_rng(7)
    for n in range(1, 11):
        row = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 3.0)
        v = first_order(row[None, :])
        np.testing.assert_array_max_ulp(v, -row, maxulp=4)
    for a, b in [(1.0, 1.0), (1e3, 1e-2), (1e-2, 1e3), (0.37, 52.0)]:
        v = first_order(np.array([[a], [-b]]))
        assert np.linalg.norm(v) < 1e-12


def test_sd_cg_stop_where_dual_loop_missed_criticality():
    # the 400-step simplex-dual loop reported |v| = 0.38 here; the exact
    # min-norm element of the scalarised rows has |v| below 1e-15
    p = registry("modified_ex53_n2_m2")
    x0 = np.array([8.822137670766843, 12.706533650869709])
    for variant in ("sd", "cg"):
        res = run(p, orthant(2), x0, SolverConfig(variant=variant, it_max=1))
        assert res.converged and res.iterations == 0
        assert -res.final_t < 1e-10


def test_record_cpu_time_is_process_time():
    fake = RunResult(converged=True, iterations=3, wall_time=2.0, cpu_time=0.25,
                     final_point=np.zeros(2), final_t=0.0, trace=[], algorithm="sd")
    rec = _result_record("plant", 0, [1.0, 1.0], fake)
    assert rec["cpu_time"] == 0.25


def test_run_dispatches_sd_cg():
    p = make_quadratic_plant(np.eye(2))
    res = run(p, orthant(1), np.array([1.0, 1.0]), SolverConfig(variant="cg"))
    assert res.algorithm == "cg" and res.converged


def test_summary_is_json_ready():
    import json
    p = registry("dgo2_n1_m2")
    res = run(p, orthant(2), np.array([4.0]), SolverConfig(variant="avg"))
    text = json.dumps(res.summary(), allow_nan=False)
    assert json.loads(text)["algorithm"] == "avg"
    # a run that fails before any step problem has no t: strict JSON has null, not NaN
    res = run(make_overflow_plant(), orthant(1), np.zeros(1), SolverConfig(variant="trm"))
    assert res.iterations == 0 and res.diagnostic.startswith("DomainError: ")
    assert json.loads(json.dumps(res.summary(), allow_nan=False))["final_t"] is None


def test_public_api_resolves():
    import setopt
    missing = [name for name in setopt.__all__ if not hasattr(setopt, name)]
    assert not missing


@pytest.mark.parametrize("variant", ["trm", "max", "avg", "sd", "cg"])
def test_observer_sees_every_record_in_order(variant):
    p = registry("dgo2_n1_m2")
    events = []
    res = run(p, orthant(2), np.array([4.0]), SolverConfig(variant=variant, it_max=3),
              observer=events.append)
    assert res.trace
    assert len(events) == len(res.trace)
    for k, (event, record) in enumerate(zip(events, res.trace)):
        assert event["record"] is record and record.k == k
        assert event["F_x"].shape == (p.p, p.m)
    if variant in ("sd", "cg"):
        keys = {"record", "F_x", "direction"}
    else:
        keys = {"record", "F_x", "F_new", "reference_full", "C", "structure", "solution"}
    assert all(set(event) == keys for event in events)


def _looped_armijo(nu):
    """The one-point-at-a-time Armijo loop that ``_armijo_step`` batches,
    kept as the reference: one ``eval_all`` call per candidate step, and F
    at the accepted point from its own call."""
    def step_rule(problem, cone, x, d, idx, F_x, slopes, steps, rho_armijo):
        lo, hi = problem.domain_box
        step = 1.0
        while step > 1e-14:
            cand = np.clip(x + step * d, lo, hi)
            try:
                F_cand = problem.eval_all(cand)
            except DomainError:
                step *= nu
                continue
            decrease = cone.scalarize_rows(F_cand[idx] - F_x[idx])
            if np.all(decrease <= rho_armijo * step * slopes):
                return step, cand, F_cand
            step *= nu
        return None, x, None
    return step_rule


def _checked_armijo(checks):
    """``_armijo_step`` asserting that the F row it returns for an accepted
    point is ``eval_all`` at that point alone, bit for bit; ``checks``
    counts the accepted points."""
    original = solvers._armijo_step

    def step_rule(problem, *args):
        step, point, F = original(problem, *args)
        if step is None:
            assert F is None
        else:
            assert F.tobytes() == problem.eval_all(point).tobytes()
            checks.append(step)
        return step, point, F
    return step_rule


def _run_bytes(res):
    """What the batched search must keep bit for bit: iterates, steps
    (``omega``), acceptance, tuples, the end point, t and the counts."""
    records = [(r.x.tobytes(), np.float64(r.omega).tobytes(), r.accepted, r.a, r.t)
               for r in res.trace]
    return (records, res.final_point.tobytes(), res.final_t, res.iterations,
            res.converged, res.diagnostic)


def _batched_and_looped(monkeypatch, problem, cone, x0, config, checks=None):
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_armijo_step", _checked_armijo([] if checks is None else checks))
        batched = run(problem, cone, x0, config)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_armijo_step", _looped_armijo(config.nu))
        looped = run(problem, cone, x0, config)
    assert _run_bytes(batched) == _run_bytes(looped)
    return batched


@pytest.mark.parametrize("pid", problem_ids())
def test_batched_armijo_is_looped(monkeypatch, pid):
    p = registry(pid)
    cones = [orthant(p.m)] + ([k2prime()] if p.m == 2 else [])
    starts = sample_points(p.domain_box, 2, _problem_seed(13, pid))
    checks, accepted = [], 0
    for variant in ("sd", "cg"):
        for cone in cones:
            for i, x0 in enumerate(starts):
                for nu in ((0.5, 0.3, 0.9) if i == 0 else (0.5,)):
                    config = SolverConfig(variant=variant, it_max=5, nu=nu)
                    res = _batched_and_looped(monkeypatch, p, cone, x0, config, checks)
                    accepted += sum(r.accepted for r in res.trace)
    # the F row of every accepted point was checked against eval_all
    assert len(checks) == accepted


def _counted_eval_all(monkeypatch):
    """Record the shape of every ``eval_all`` input."""
    calls = []
    evaluate = SetValuedProblem.eval_all

    def eval_all(problem, x):
        calls.append(np.shape(x))
        return evaluate(problem, x)

    monkeypatch.setattr(SetValuedProblem, "eval_all", eval_all)
    return calls


def test_failed_armijo_search_takes_doubling_chunks(monkeypatch):
    p = make_quadratic_plant(np.eye(2))
    cone = orthant(1)
    x = np.array([1.0, 2.0])
    F_x, idx = p.eval_all(x), [0]
    d = x.copy()  # the gradient of |x|^2 / 2: an ascent direction, no step passes
    slopes = cone.scalarize_rows(d[None, None, :] @ d)
    for nu, n_steps in ((0.5, 47), (0.9, 306)):
        steps = _backtracking_steps(nu)
        assert len(steps) == n_steps
        looped = _looped_armijo(nu)(p, cone, x, d, idx, F_x, slopes, steps, 1e-4)
        with monkeypatch.context() as patch:
            calls = _counted_eval_all(patch)
            batched = _armijo_step(p, cone, x, d, idx, F_x, slopes, steps, 1e-4)
        assert looped[0] is batched[0] is None and looped[1] is batched[1] is x
        assert looped[2] is batched[2] is None
        sizes = [shape[0] for shape in calls]
        assert sizes[:-1] == [2 ** i for i in range(len(sizes) - 1)]
        assert sum(sizes) == n_steps and len(sizes) == int(np.ceil(np.log2(n_steps + 1)))


def test_failed_armijo_search_in_a_run(monkeypatch):
    # f(x) = x^T A x / 2, but 1e3 lower at one point alone: the derivatives
    # miss the dip, so every search from there fails.  One along v ends the
    # run, since from the same x it would fail again; one along CG's
    # conjugate direction restarts CG from v once.  The dip sits at x0, then
    # at x1, the first iterate of SD and of CG
    x0, stiff = np.array([3.0, -2.0]), np.diag([1.0, 10.0])
    x1 = run(make_quadratic_plant(stiff), orthant(1), x0,
             SolverConfig(variant="sd", it_max=1)).final_point
    cases = ((np.eye(2), x0, {"sd": [False], "cg": [False]}),
             (stiff, x1, {"sd": [True, False], "cg": [True, False, False]}))
    for a, dip, accepted in cases:
        f = lambda x, a=a, dip=dip: np.array([0.5 * x @ a @ x - 1e3 * np.array_equal(x, dip)])
        p = from_functions("dipped_plant", 2, 1, [f], (-10.0, 10.0))
        for variant in ("sd", "cg"):
            res = _batched_and_looped(monkeypatch, p, orthant(1), x0,
                                      SolverConfig(variant=variant, it_max=10))
            assert [r.accepted for r in res.trace] == accepted[variant]
            assert all(r.x.tobytes() == dip.tobytes() and r.omega == 0.0
                       for r in res.trace if not r.accepted)
            assert not res.converged and res.diagnostic == "line_search_failed"
            assert res.final_point.tobytes() == dip.tobytes() and res.final_t == res.trace[-1].t


def test_batched_armijo_skips_domain_errors_like_the_loop(monkeypatch):
    # f(x) = x^2 with a non-finite hole around 0; from x0 = 3 the direction
    # is -6, step 1 fails the test at -3, and the chunk (0.5, 0.25) holds the
    # hole at 0 and the passing point 1.5
    holed = from_functions("holed_ray_plant", 1, 1,
                           [lambda x: np.array([np.nan if abs(x[0]) < 0.1 else x[0] ** 2])],
                           (-10.0, 10.0))
    config = SolverConfig(variant="sd", it_max=1)
    res = _batched_and_looped(monkeypatch, holed, orthant(1), np.array([3.0]), config)
    calls = _counted_eval_all(monkeypatch)
    run(holed, orthant(1), np.array([3.0]), config)
    assert res.trace[0].accepted and res.trace[0].omega == 0.25
    assert res.trace[0].x[0] == 3.0 and res.final_point[0] == 1.5
    # F(x0), the chunk (1.0), the chunk (0.5, 0.25) that raised, then 0.5 and 0.25
    assert calls[:5] == [(1,), (1, 1), (2, 1), (1,), (1,)]


def test_batched_armijo_meets_an_exception_only_where_the_loop_does(monkeypatch):
    # the function raises on (1, 2), which holds the point 1.5 of step 0.25;
    # the loop accepts step 0.5 (x = 0) first and never evaluates it
    def f(x):
        if 1.0 < x[0] < 2.0:
            raise ZeroDivisionError("evaluated past the accepted step")
        return np.array([x[0] ** 2])

    plant = from_functions("raising_ray_plant", 1, 1, [f], (-10.0, 10.0))
    res = _batched_and_looped(monkeypatch, plant, orthant(1), np.array([3.0]),
                              SolverConfig(variant="sd", it_max=2))
    assert res.trace[0].accepted and res.trace[0].omega == 0.5
    assert res.converged and res.final_point[0] == 0.0


def _without_armijo_F(step_rule):
    """``step_rule`` returning no F row, so the memo keeps no F entry from it."""
    def dropped(*args):
        step, point, _ = step_rule(*args)
        return step, point, None
    return dropped


@pytest.mark.parametrize("pid, start", [("dtlz5_n7_m5", 1), ("modified_ex53_n2_m2", 2)])
@pytest.mark.parametrize("variant", ["sd", "cg"])
def test_armijo_point_reads_F_from_its_search(monkeypatch, pid, start, variant):
    # F at a point an accepted search reached is the row of its batch: the
    # run never evaluates the family there again, and is bitwise the run
    # that does
    p = registry(pid)
    cone = orthant(p.m)
    x0 = sample_points(p.domain_box, 3, _problem_seed(29, pid))[start]
    config = SolverConfig(variant=variant, it_max=20)
    points = []  # the points evaluated alone, not in a search's batch
    evaluate = SetValuedProblem.eval_all
    monkeypatch.setattr(SetValuedProblem, "eval_all", lambda self, x: np.ndim(x) == 1 and (
        points.append(np.asarray(x).tobytes())) or evaluate(self, x))
    res = run(p, cone, x0, config)
    # the iterates an accepted search reached, each one F(x) of the run
    reached = [r.x.tobytes() for r, before in zip(res.trace[1:], res.trace) if before.accepted]
    assert len(reached) >= 3
    assert not (set(reached) | {res.final_point.tobytes()}) & set(points)
    points.clear()
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_armijo_step", _without_armijo_F(solvers._armijo_step))
        again = run(p, cone, x0, config)
    assert [point for point in points if point in reached] == reached
    assert _trace_bytes(again) == _trace_bytes(res) and again.final_t == res.final_t


def _planted_stacks(with_zeros):
    """Seeded row stacks with planted duplicates, n = 1-8, up to 40 rows;
    with zeros, a third of the entries are 0.0 or -0.0."""
    rng = np.random.default_rng(20261018 + with_zeros)
    for case in range(60):
        n, k = 1 + case % 8, int(rng.integers(1, 41))
        rows = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-2.0, 3.0)
        rows = np.vstack([rows, rows[rng.integers(0, k, size=int(rng.integers(0, 2 * k)))]])
        if with_zeros:
            zero = rng.random(rows.shape) < 1 / 3
            rows[zero] = np.where(rng.random(rows.shape) < 0.5, 0.0, -0.0)[zero]
        yield rows[rng.permutation(len(rows))]


def test_distinct_rows_match_unique(monkeypatch):
    for with_zeros in (False, True):
        for rows in _planted_stacks(with_zeros):
            got, ref = _distinct_rows(rows), np.unique(rows, axis=0)
            assert np.array_equal(got, ref)
            if not with_zeros:
                assert got.tobytes() == ref.tobytes()
            v = first_order(rows)
            with monkeypatch.context() as patch:
                patch.setattr(subproblem, "_distinct_rows", lambda r: np.unique(r, axis=0))
                v_ref = first_order(rows)
            if with_zeros:
                assert np.array_equal(v, v_ref)
            else:
                assert v.tobytes() == v_ref.tobytes()
    # a +-0.0 twin is one row; the first of the pair in the stack stays
    twins = np.array([[1.0, -0.0], [1.0, 0.0], [-1.0, 2.0]])
    got = _distinct_rows(twins)
    assert got.tobytes() == np.array([[-1.0, 2.0], [1.0, -0.0]]).tobytes()


# -- the step memo -------------------------------------------------------------

def test_memo_is_bound_to_its_problem_and_box_not_its_cone(monkeypatch):
    p, other = registry("dgo2_n1_m2"), registry("dgo1_n1_m2")
    twin = dataclasses.replace(p)  # equal fields, another problem object
    cone = orthant(2)
    memo = StepMemo(p)
    x0 = np.array([4.0])  # inside both boxes
    assert twin is not p and twin.domain_box[0].tobytes() == p.domain_box[0].tobytes()
    for problem in (twin, other):
        with pytest.raises(ValueError, match="bound to another"):
            run(problem, cone, x0, SolverConfig(), memo=memo)
    # the memo checks only the problem object: the box it relies on cannot change
    with pytest.raises(ValueError, match="read-only"):
        p.domain_box[0][0] -= 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.domain_box = (p.domain_box[0] - 1.0, p.domain_box[1])
    assert _run_bytes(run(p, cone, x0, SolverConfig(), memo=memo)) == \
        _run_bytes(run(p, cone, x0, SolverConfig()))
    # from this start every method takes other steps under the two cones, so
    # a step, partition or search read under the other cone would show; F is
    # read: the run under the second cone evaluates no F at x0
    p = registry("modified_ex53_n2_m2")
    x0 = np.array([-16.355461, -2.454201])
    at_x0 = []
    eval_all = SetValuedProblem.eval_all
    monkeypatch.setattr(SetValuedProblem, "eval_all", lambda self, x: at_x0.append(
        np.asarray(x).tobytes() == x0.tobytes()) or eval_all(self, x))
    for variant in VARIANTS:
        config = SolverConfig(variant=variant, it_max=10)
        memo = StepMemo(p)
        first = run(p, orthant(2), x0, config, memo=memo)
        at_x0.clear()
        again = run(p, k2prime(), x0, config, memo=memo)
        assert not any(at_x0) and at_x0
        assert _run_bytes(again) == _run_bytes(run(p, k2prime(), x0, config))
        assert _run_bytes(again) != _run_bytes(first) and again.shared_steps == 0


def test_memo_keys_hold_the_line_search_parameters():
    # from this start each of the three SD/CG configurations takes other steps,
    # so an Armijo entry read under the wrong nu or rho_armijo would show
    p = registry("rosenbrock_n4_m3")
    cone = orthant(3)
    x0 = sample_points(p.domain_box, 1, _problem_seed(7, p.name))[0]
    for variant in ("sd", "cg"):
        base = SolverConfig(variant=variant, it_max=5)
        configs = (base, dataclasses.replace(base, nu=0.3),
                   dataclasses.replace(base, rho_armijo=0.4))
        memo = StepMemo(p)
        shared = [run(p, cone, x0, config, memo=memo) for config in configs]
        fresh = [run(p, cone, x0, config) for config in configs]
        assert [_run_bytes(r) for r in shared] == [_run_bytes(r) for r in fresh]
        assert len({_run_bytes(r)[0][0][1] for r in fresh}) == 3  # first steps differ
        assert [r.shared_steps for r in shared] == [0, 0, 0]


def test_memo_keys_hold_the_stop_tolerance():
    # with eps 0.1 the run stops at x0, where the bound skips the step
    # problem (t = 0); with eps 1e-3 it goes on from x0, so a step entry
    # read under the other eps would change one of the two runs
    p = registry("dtlz5_n3_m3")
    cone = orthant(3)
    x0 = sample_points(p.domain_box, 2, _problem_seed(5, p.name))[1]
    configs = (SolverConfig(eps=0.1), SolverConfig())
    memo = StepMemo(p)
    shared = [run(p, cone, x0, config, memo=memo) for config in configs]
    fresh = [run(p, cone, x0, config) for config in configs]
    assert [_run_bytes(r) for r in shared] == [_run_bytes(r) for r in fresh]
    assert fresh[0].iterations == 0 and fresh[0].final_t == 0.0
    assert fresh[1].iterations > 0 and abs(fresh[1].trace[0].t) >= 1e-3
    assert fresh[1].trace[0].omega == fresh[0].final_omega


def _entries_cost(memo, wall, cpu):
    """Give every entry of ``memo`` the cost (wall, cpu) seconds."""
    for key, entry in memo._entries.items():
        memo._entries[key] = dataclasses.replace(entry, wall=wall, cpu=cpu)


def test_reading_other_runs_entries_charges_each_once():
    p = registry("hil_n2_m2")
    cone = orthant(2)
    x0 = np.array([2.718, 4.675])  # rejected steps: F(x) is read again
    memo = StepMemo(p)
    first = run(p, cone, x0, SolverConfig(variant="trm"), memo=memo)
    assert any(not r.accepted for r in first.trace) and first.shared_steps == 0
    n_entries = len(memo._entries)
    _entries_cost(memo, 1.0, 2.0)
    for _ in range(2):  # every reader is charged, each for itself
        again = run(p, cone, x0, SolverConfig(variant="trm"), memo=memo)
        assert _run_bytes(again) == _run_bytes(first)
        assert len(memo._entries) == n_entries  # computed nothing
        assert n_entries <= again.wall_time < n_entries + 0.5
        assert 2.0 * n_entries <= again.cpu_time < 2.0 * n_entries + 0.5
        assert again.shared_steps == again.iterations == len(again.trace) > 0


def test_own_entries_are_never_charged():
    # after every iteration the run's own entries claim to have cost 1000 s;
    # the run re-reads them (F(x) after a rejection, the trial point's F as
    # the next F(x)) but its times stay its own
    p = registry("hil_n2_m2")
    cone = orthant(2)
    memo = StepMemo(p)
    res = run(p, cone, np.array([2.718, 4.675]), SolverConfig(variant="trm"),
              observer=lambda event: _entries_cost(memo, 1e3, 1e3), memo=memo)
    assert any(r.accepted for r in res.trace) and any(not r.accepted for r in res.trace)
    assert res.wall_time < 1e3 and res.cpu_time < 1e3
    assert res.shared_steps == 0


def test_derivatives_read_under_another_cone_are_charged_once(monkeypatch):
    # the run under K2' reads F and the derivative bundle that the run under
    # the orthant computed at x0, where its first steps are rejected: it
    # pays for each such entry once, however often it reads it, and is
    # bitwise a run alone
    p = registry("hil_n2_m2")
    x0 = sample_points(p.domain_box, 4, _problem_seed(7, p.name))[3]
    config = SolverConfig(variant="max", it_max=10)
    memo = StepMemo(p)
    run(p, orthant(2), x0, config, memo=memo)
    _entries_cost(memo, 1.0, 2.0)
    before = set(memo._entries)
    keys = []
    get = StepMemo._get
    monkeypatch.setattr(StepMemo, "_get", lambda self, key, *args:
                        keys.append(key) or get(self, key, *args))
    shared = run(p, k2prime(), x0, config, memo=memo)
    read = {key for key in keys if key in before}
    assert keys.count(("bundle", x0.tobytes())) > 1 and ("bundle", x0.tobytes()) in read
    assert {key[0] for key in read} == {"F", "bundle"}
    assert len(read) <= shared.wall_time < len(read) + 0.5
    assert 2.0 * len(read) <= shared.cpu_time < 2.0 * len(read) + 0.5
    assert _run_bytes(shared) == _run_bytes(run(p, k2prime(), x0, config))
    # a third run (the memo's third ledger) reads the second's steps, whose
    # part is the first run's bundle: each entry and part once
    _entries_cost(memo, 1.0, 2.0)
    keys.clear()
    third = run(p, k2prime(), x0, dataclasses.replace(config, variant="avg"), memo=memo)
    read = {key for key in keys for key in (key, *memo._entries[key].parts)
            if memo._entries[key].owner != 2}
    assert any(memo._entries[key].parts for key in keys) and third.shared_steps > 0
    assert len(read) <= third.wall_time < len(read) + 0.5


def test_sd_and_cg_share_directions_and_keep_no_jacobians(monkeypatch):
    # cg's first direction and search at x0 are sd's: cg reads them and
    # differentiates nothing at x0, while the Jacobians live inside the
    # direction entries alone
    p = registry("rosenbrock_n4_m3")
    cone = orthant(3)
    x0 = sample_points(p.domain_box, 1, _problem_seed(7, p.name))[0]
    configs = [SolverConfig(variant=v, it_max=5) for v in ("sd", "cg")]
    fresh = [run(p, cone, x0, config) for config in configs]
    at = []
    fd_jacobian_all = problems.fd_jacobian_all
    monkeypatch.setattr(problems, "fd_jacobian_all",
                        lambda problem, x: at.append(x.tobytes()) or fd_jacobian_all(problem, x))
    memo = StepMemo(p)
    sd = run(p, cone, x0, configs[0], memo=memo)
    assert x0.tobytes() in at
    at.clear()
    cg = run(p, cone, x0, configs[1], memo=memo)
    assert at and x0.tobytes() not in at
    assert not any(key[0] == "jacobians" for key in memo._entries)
    assert sd.shared_steps == 0 and cg.shared_steps >= 1
    assert [_run_bytes(sd), _run_bytes(cg)] == [_run_bytes(r) for r in fresh]
    assert _run_bytes(sd) != _run_bytes(cg)


def _count_predictions(monkeypatch):
    calls = []
    original = solvers.predicted_reductions
    monkeypatch.setattr(solvers, "predicted_reductions",
                        lambda *args: calls.append(1) or original(*args))
    return calls


def test_shared_runs_predict_each_step_once(monkeypatch):
    # trm, max and avg share their first steps; a step whose ratio test
    # several runs reach is predicted once, by the first of them
    p = registry("hil_n2_m2")
    cone = orthant(2)
    x0 = np.array([2.718, 4.675])
    configs = [SolverConfig(variant=v, it_max=10) for v in ("trm", "max", "avg")]
    fresh = [run(p, cone, x0, config) for config in configs]
    calls = _count_predictions(monkeypatch)
    memo = StepMemo(p)
    shared = [run(p, cone, x0, config, memo=memo) for config in configs]
    # all but shared_steps, the last item
    assert [_trace_bytes(r)[:-1] for r in shared] == [_trace_bytes(r)[:-1] for r in fresh]
    # every trace record is one ratio test at its (x, omega)
    tests = [(r.x.tobytes(), r.omega) for res in shared for r in res.trace]
    assert len(calls) == len(set(tests)) < len(tests)
    assert shared[1].shared_steps > 0 and shared[2].shared_steps > 0


def _negated_models(monkeypatch):
    """Make every step's models predict an increase along its step."""
    original = solvers.theta_and_step

    def negated(*args, **kwargs):
        sol = original(*args, **kwargs)
        models = ModelSet(G=-sol.models.G, H=-sol.models.H)
        return dataclasses.replace(sol, models=models)

    monkeypatch.setattr(solvers, "theta_and_step", negated)


def test_nonpositive_prediction_ends_every_run_and_is_not_stored(monkeypatch):
    p = registry("hil_n2_m2")
    cone = orthant(2)
    x0 = np.array([2.718, 4.675])
    variants = ("trm", "max", "avg")
    memo = StepMemo(p)
    with monkeypatch.context() as patch:
        _negated_models(patch)
        calls = _count_predictions(patch)
        runs = [run(p, cone, x0, SolverConfig(variant=v), memo=memo) for v in variants]
        assert all(not r.converged and r.iterations == 0 for r in runs)
        assert runs[0].diagnostic.startswith("SolverInternalError: nonpositive predicted reduction")
        assert len({r.diagnostic for r in runs}) == 1
        # the step whose prediction raised is not stored: each run solved it anew
        assert len(calls) == 3 and not any(key[0] == "step" for key in memo._entries)
    # so with the true models the memo's runs are those without it
    shared = [run(p, cone, x0, SolverConfig(variant=v), memo=memo) for v in variants]
    fresh = [run(p, cone, x0, SolverConfig(variant=v)) for v in variants]
    assert [_run_bytes(r) for r in shared] == [_run_bytes(r) for r in fresh]
    assert shared[0].converged and shared[0].shared_steps == 0


def _accept_looped(rho: tuple, omega: float, config: SolverConfig):
    """``accept_and_update`` as a loop over a tuple of ratios: the reference."""
    accepted = all(r >= config.eta1 for r in rho)
    if accepted and all(r >= config.eta2 for r in rho):
        return accepted, min(2.0 * omega, config.omega_max)
    if accepted:
        return accepted, omega
    return accepted, 0.5 * (config.gamma1 + config.gamma2) * omega


@pytest.mark.parametrize("variant", VARIANTS)
def test_trace_holds_the_runs_read_only_arrays(variant):
    # rosenbrock_n4_m3 start 0: 10 members per tuple, accepted and rejected steps
    p = registry("rosenbrock_n4_m3")
    cone = orthant(p.m)
    x0 = sample_points(p.domain_box, 1, _problem_seed(40, p.name))[0]
    caller = x0.copy()
    config = SolverConfig(variant=variant, it_max=10)
    events = []
    res = run(p, cone, x0, config, observer=events.append)
    assert res.iterations > 1 and x0.tobytes() == caller.tobytes() and x0.flags.writeable
    for x in [r.x for r in res.trace] + [res.final_point]:
        assert not x.flags.writeable and not np.shares_memory(x, x0)
    assert res.trace[0].x.tobytes() == x0.tobytes()
    if variant in ("sd", "cg"):
        empty = res.trace[0].rho
        assert empty.shape == (0,) and empty.dtype == np.float64 and not empty.flags.writeable
        assert all(r.rho is empty for r in res.trace)
        return
    assert any(not r.accepted for r in res.trace) or variant == "max"  # max accepts all 5
    for event in events:
        record, sol = event["record"], event["solution"]
        memory = NonMonotoneMemory(variant, 0, 0.0)
        memory.reference = event["reference_full"]
        rho = reduction_ratios(memory, event["F_new"], record.a,
                               predicted_reductions(sol.s_star, sol.models, cone), cone)
        assert record.rho.dtype == np.float64 and not record.rho.flags.writeable
        assert record.rho.shape == (len(record.a),) == (10,)
        assert record.rho.tobytes() == rho.tobytes()
        decision = accept_and_update(record.rho, record.omega, config)
        assert decision == _accept_looped(tuple(record.rho.tolist()), record.omega, config)
        assert decision[0] == record.accepted
    nan = float("nan")
    for ratios in ([nan], [0.9, nan], [nan, 0.5], [], [-0.2, 0.9], [0.5, 0.9], [0.8, 0.99]):
        rho = np.array(ratios, dtype=float)
        rho.flags.writeable = False
        assert (accept_and_update(rho, 1.0, config)
                == _accept_looped(tuple(rho.tolist()), 1.0, config))


# -- offset families ------------------------------------------------------------

def _member_rows(problem, a):
    """The family's one block taken once per member of a, omega equal
    blocks: the reference for an offset family's one block."""
    return [0] * len(a)


@pytest.mark.parametrize("pid, start", [("dtlz5_n7_m5", 1), ("rosenbrock_n4_m3", 0)])
def test_offset_family_takes_one_derivative_block(monkeypatch, pid, start):
    p = registry(pid)
    cone = orthant(p.m)
    x = sample_points(p.domain_box, 3, _problem_seed(29, pid))[start]
    structure = structure_from_values(p.offsets, cone)
    omega = len(structure.groups)

    def solved():
        memo = StepMemo(p)
        ledger = memo.ledger(p)
        (sol, pred), _ = memo.step(x, structure, cone, 1.0, 1e-3, ledger)
        a, t, v, blocks = memo.direction(x, structure, cone, ledger)
        assert t == -np.linalg.norm(v)
        memory = NonMonotoneMemory("trm", 0, 0.0)
        memory.begin_iteration(p.eval_all(x), a)
        F_new = p.eval_all(np.clip(x + sol.s_star, *p.domain_box))
        rho = reduction_ratios(memory, F_new, a, pred, cone)
        slopes = cone.scalarize_rows(blocks @ v)
        runs = [run(p, cone, x, SolverConfig(variant=variant, it_max=10))
                for variant in ("trm", "sd")]
        return sol, pred, a, v, blocks, rho, slopes, runs

    sol, pred, a, v, blocks, rho, slopes, runs = solved()
    with monkeypatch.context() as patch:
        patch.setattr(subproblem, "derivative_rows", _member_rows)
        ref_sol, ref_pred, ref_a, ref_v, ref_blocks, ref_rho, ref_slopes, ref_runs = solved()
    assert omega > 1 and len(sol.a_star) == len(a) == omega
    assert sol.models.G.shape[0] == sol.models.H.shape[0] == blocks.shape[0] == 1
    assert ref_sol.models.G.shape[0] == ref_blocks.shape[0] == omega
    assert (sol.a_star, a) == (ref_sol.a_star, ref_a)
    assert sol.s_star.tobytes() == ref_sol.s_star.tobytes() and sol.t_star == ref_sol.t_star
    assert sol.t_star <= -1e-3 and v.tobytes() == ref_v.tobytes()
    # one prediction and one slope, each the bits of every member's
    assert pred.shape == slopes.shape == (1,)
    assert np.broadcast_to(pred, (omega,)).tobytes() == ref_pred.tobytes()
    assert np.broadcast_to(slopes, (omega,)).tobytes() == ref_slopes.tobytes()
    assert rho.shape == (omega,) and rho.tobytes() == ref_rho.tobytes()
    for res, ref in zip(runs, ref_runs):
        assert res.iterations > 0 and _trace_bytes(res) == _trace_bytes(ref)


# -- the partition of an offset family -----------------------------------------

def _wall_points(problem, x):
    """x moved onto each box wall in turn and half a finite-difference
    margin inside it (``_fd_center``'s widest), one coordinate at a time."""
    lo, hi = (np.asarray(b, dtype=float) for b in problem.domain_box)
    margin_lo, margin_hi = (_hess_steps(b) + 2.0 * _grad_steps(b) for b in (lo, hi))
    walls = (lo, lo + 0.5 * margin_lo, hi - 0.5 * margin_hi, hi)
    points = []
    for i in range(problem.n):
        for wall in walls:
            point = x.copy()
            point[i] = wall[i]
            points.append(point)
    return points


@pytest.mark.parametrize("pid", [pid for pid in problem_ids() if registry(pid).offsets is not None])
def test_offset_partition_is_the_partition_at_every_point(pid):
    # the groups of F(x) are those of the offsets, at seeded points and at
    # points on and next to every box wall
    problem = registry(pid)
    assert not problem.offsets.flags.writeable  # the kept partition relies on it
    cones = [orthant(problem.m)] + ([k2prime()] if problem.m == 2 else [])
    seeded = sample_points(problem.domain_box, 6, _problem_seed(16, pid))
    points = [*seeded, *(w for x in seeded[:2] for w in _wall_points(problem, x))]
    for cone in cones:
        memo = StepMemo(problem)
        ledger = memo.ledger(problem)
        for x in points:
            F_x = problem.eval_all(x)
            assert memo.partition(x, F_x, cone, ledger).groups == \
                structure_from_values(F_x, cone).groups
    kept = memo.partition(points[0], problem.eval_all(points[0]), cone, ledger)
    assert kept is memo.partition(points[1], problem.eval_all(points[1]), cone, ledger)
    assert kept == structure_from_values(problem.offsets, cone)


def _count_partitions(monkeypatch):
    """Count structure_from_values calls and the (memo, x) pairs whose
    partition the runs asked for."""
    calls, asked = [], set()
    original, partition = solvers.structure_from_values, StepMemo.partition

    def asking(memo, x, F_x, cone, ledger):
        asked.add((memo, x.tobytes()))
        return partition(memo, x, F_x, cone, ledger)

    monkeypatch.setattr(solvers, "structure_from_values",
                        lambda *args: calls.append(1) or original(*args))
    monkeypatch.setattr(StepMemo, "partition", asking)
    return calls, asked


def test_offset_partition_is_computed_once_per_problem_and_cone(monkeypatch, tmp_path):
    registry("zdt1_n2_m2").partitions.clear()  # the registry's problem outlives a test
    calls, asked = _count_partitions(monkeypatch)
    config = ExperimentConfig(problem_ids=("zdt1_n2_m2",), points_per_problem=3, it_max=10)
    records = run_matrix(config, str(tmp_path / "zdt1.jsonl"))
    assert len(records) == 15 and len({memo for memo, _ in asked}) == 3
    assert len(asked) > 3 and len(calls) == 1
    # other normals are grouped anew; a new cone with the same normals is not
    problem, x = registry("zdt1_n2_m2"), np.array([0.5, 0.5])
    for cone in (k2prime(), Cone(np.eye(2)), orthant(2)):
        memo = StepMemo(problem)
        memo.partition(x, problem.eval_all(x), cone, memo.ledger(problem))
    assert len(calls) == 2


def test_whole_family_partition_is_computed_once_per_new_x(monkeypatch, tmp_path):
    calls, asked = _count_partitions(monkeypatch)
    config = ExperimentConfig(problem_ids=("modified_ex53_n2_m2",), points_per_problem=3,
                              it_max=10)
    run_matrix(config, str(tmp_path / "ex53.jsonl"))
    assert not registry("modified_ex53_n2_m2").partitions
    assert len(calls) == len(asked) > 3


# -- the first-order bound on the step problem ---------------------------------

def _full_solves(monkeypatch):
    """Make ``theta_and_step`` ignore ``stop_tol``: every step problem is solved."""
    original = solvers.theta_and_step
    monkeypatch.setattr(solvers, "theta_and_step",
                        lambda *args, stop_tol=None, **kwargs: original(*args, **kwargs))


def _trace_bytes(res):
    """Everything of a run but its final t: the records (the ratios as
    their bytes), the end point and the counts."""
    records = [(r.k, r.x.tobytes(), np.float64(r.omega).tobytes(), np.float64(r.t).tobytes(),
                r.a, r.rho.tobytes(), r.accepted, r.step_norm) for r in res.trace]
    return (records, res.final_point.tobytes(), res.iterations, res.converged,
            res.diagnostic, res.shared_steps)


def test_step_bound_keeps_runs_bitwise(monkeypatch):
    eps = SolverConfig().eps
    cases = [(p, x0) for p in map(registry, problem_ids())
             for x0 in sample_points(p.domain_box, 2, _problem_seed(18, p.name))]

    def trust_region_runs(p, x0):
        memo, cone = StepMemo(p), orthant(p.m)
        return [run(p, cone, x0, SolverConfig(variant=v), memo=memo)
                for v in ("trm", "max", "avg")]

    bounded = [trust_region_runs(p, x0) for p, x0 in cases]
    _full_solves(monkeypatch)
    changed = 0
    for (p, x0), runs in zip(cases, bounded):
        for res, full in zip(runs, trust_region_runs(p, x0)):
            assert _trace_bytes(res) == _trace_bytes(full), (p.name, res.algorithm)
            if res.final_t != full.final_t:
                # only a stop that the bound decided: its t is phi(0) = 0
                assert res.converged and res.final_t == 0.0 and abs(full.final_t) < eps
                changed += 1
    assert changed > 0
