import numpy as np
import pytest
from scipy.optimize import linprog

from setopt.bench import _result_record
from setopt.cone import orthant
from setopt.problems import make_quadratic_plant, registry
from setopt.solvers import (
    NonMonotoneMemory,
    RunResult,
    SolverConfig,
    SolverInternalError,
    _prox_direction,
    accept_and_update,
    reduction_ratios,
    run,
)
from setopt.subproblem import ModelSet


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


def test_accept_and_update_examples():
    cfg = SolverConfig()
    accepted, omega = accept_and_update(np.array([0.9, 0.8]), 1.0, cfg)
    assert accepted and omega == 2.0
    accepted, omega = accept_and_update(np.array([0.5, 0.9]), 1.0, cfg)
    assert accepted and omega == 1.0
    accepted, omega = accept_and_update(np.array([-0.2, 0.9]), 1.0, cfg)
    assert not accepted and omega == pytest.approx(0.65)
    _, omega = accept_and_update(np.array([0.99]), 15.0, cfg)
    assert omega == 20.0  # doubling capped at omega_max


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
    mem.end_iteration(np.array([[3.0]]))
    mem.begin_iteration(np.array([[5.0]]), a)
    mem.end_iteration(np.array([[5.0]]))
    mem.begin_iteration(np.array([[2.0]]), a)
    assert mem.reference[0, 0] == 5.0
    # a different tuple falls back to the current value
    mem2 = NonMonotoneMemory("max", 4, 0.5)
    mem2.begin_iteration(np.array([[3.0], [9.0]]), (1,))
    mem2.end_iteration(np.array([[3.0], [9.0]]))
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
        mem.end_iteration(f)
    assert refs[1:] == [5.0, 5.0, 5.0]


def test_max_window_depth_zero_is_current_value():
    mem = NonMonotoneMemory("max", 0, 0.5)
    mem.begin_iteration(np.array([[9.0]]), (1,))
    mem.end_iteration(np.array([[9.0]]))
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
    rho = reduction_ratios(mem, np.array([[6.0]]), (1,), s, models, cone)
    assert rho[0] == pytest.approx(0.5)  # decrease 1 over prediction 2


def test_reduction_ratio_variants_reduce_to_trm():
    models, s = _ratio_fixture()
    cone = orthant(1)
    f_x, f_new = np.array([[7.0]]), np.array([[6.5]])
    out = {}
    for variant, kwargs in [("trm", {}), ("max", {"n_memory": 0}), ("avg", {"mu": 0.0})]:
        mem = NonMonotoneMemory(variant, kwargs.get("n_memory", 0), kwargs.get("mu", 0.5))
        mem.begin_iteration(f_x, (1,))
        out[variant] = reduction_ratios(mem, f_new, (1,), s, models, cone)[0]
    assert out["trm"] == out["max"] == out["avg"]


def test_reduction_ratio_nonpositive_denominator():
    models = ModelSet(G=np.array([[[2.0, 0.0]]]), H=np.zeros((1, 1, 2, 2)))
    mem = NonMonotoneMemory("trm", 0, 0.5)
    mem.begin_iteration(np.array([[7.0]]), (1,))
    with pytest.raises(SolverInternalError):
        reduction_ratios(mem, np.array([[6.0]]), (1,), np.array([1.0, 0.0]),
                         models, orthant(1))


def test_run_already_critical():
    p = make_quadratic_plant(np.eye(2))
    res = run(p, orthant(1), np.zeros(2), SolverConfig(variant="trm"))
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.final_point, np.zeros(2))


def test_run_x0_outside_box():
    p = registry("dgo2_n1_m2")
    with pytest.raises(ValueError):
        run(p, orthant(2), [15.0], SolverConfig())


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
        v, val = _prox_direction(rows)
        p = -v
        scale = float(np.max(np.sum(rows * rows, axis=1)))
        assert _hull_distance(rows, p) <= 1e-10 * np.sqrt(scale)
        # p is the projection of 0 onto the hull: r . p >= |p|^2 for every row
        assert np.all(rows @ p >= p @ p - 1e-10 * scale)
        assert abs(val + 0.5 * v @ v) <= 1e-12 * scale
        if zero_inside:
            assert np.linalg.norm(v) <= 1e-10 * np.sqrt(scale)
        else:
            assert np.linalg.norm(v) > 0.0
        checked[zero_inside] += 1
        stacked = _prox_direction(np.vstack([rows, rows, rows]))
        assert stacked[0].tobytes() == v.tobytes() and stacked[1] == val
    assert checked[True] == checked[False] == 20


def test_prox_direction_single_row_and_1d():
    rng = np.random.default_rng(7)
    for n in range(1, 11):
        row = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 3.0)
        v, _ = _prox_direction(row[None, :])
        np.testing.assert_array_max_ulp(v, -row, maxulp=4)
    for a, b in [(1.0, 1.0), (1e3, 1e-2), (1e-2, 1e3), (0.37, 52.0)]:
        v, _ = _prox_direction(np.array([[a], [-b]]))
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
    rec = _result_record("plant", "sd", 0, [1.0, 1.0], fake)
    assert rec["cpu_time"] == 0.25


def test_run_dispatches_sd_cg():
    p = make_quadratic_plant(np.eye(2))
    res = run(p, orthant(1), np.array([1.0, 1.0]), SolverConfig(variant="cg"))
    assert res.algorithm == "cg" and res.converged


def test_summary_is_json_ready():
    import json
    p = registry("dgo2_n1_m2")
    res = run(p, orthant(2), np.array([4.0]), SolverConfig(variant="avg"))
    text = json.dumps(res.summary())
    assert json.loads(text)["algorithm"] == "avg"


def test_public_api_resolves():
    import setopt
    missing = [name for name in setopt.__all__ if not hasattr(setopt, name)]
    assert not missing
