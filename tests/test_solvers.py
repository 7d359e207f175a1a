import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

from setopt import solvers, subproblem
from setopt.bench import ExperimentConfig, _problem_seed, _result_record, run_matrix, sample_points
from setopt.cone import Cone, k2prime, orthant
from setopt.partition import structure_from_values
from setopt.problems import (
    DomainError,
    SetValuedProblem,
    _grad_steps,
    _hess_steps,
    from_functions,
    problem_ids,
    registry,
)
from setopt.solvers import (
    NonMonotoneMemory,
    RunResult,
    SolverConfig,
    SolverInternalError,
    StepMemo,
    _armijo_step,
    _backtracking_steps,
    _distinct_rows,
    _prox_direction,
    accept_and_update,
    reduction_ratios,
    run,
)
from setopt.subproblem import ModelSet

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


def test_reduction_ratios_match_the_per_block_loop():
    rng = np.random.default_rng(5)
    G, H = rng.standard_normal((2, 2, 3)), rng.standard_normal((2, 2, 3, 3))
    pattern = [0, 0, 1, 0, 1, 1]
    models = ModelSet(G=G[pattern], H=H[pattern])
    s = np.array([0.3, -0.2, 0.1])
    # blocks descend along s, so every prediction is positive
    models = ModelSet(G=models.G - 2.0 * np.abs(models.G @ s)[..., None] * s / (s @ s),
                      H=models.H)
    a = (3, 1, 6, 2, 2, 5)  # a tuple picks the rows of F; a member may repeat
    F_new, F_x = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    mem = NonMonotoneMemory("trm", 0, 0.5)
    mem.begin_iteration(F_x, a)
    # k2prime: a matmul over the rows would not give scalarize's bits
    for cone in (orthant(2), k2prime()):
        # each block alone: its model decrease -m^j(s), scalarized
        looped = [-cone.scalarize(F_new[ai - 1] - F_x[ai - 1])
                  / cone.scalarize(-(models.G[j] @ s
                                     + 0.5 * np.einsum("rab,a,b->r", models.H[j], s, s)))
                  for j, ai in enumerate(a)]
        rho = reduction_ratios(mem, F_new, a, s, models, cone)
        assert rho.tobytes() == np.array(looped).tobytes()


def test_reduction_ratio_nonpositive_denominator():
    models = ModelSet(G=np.array([[[2.0, 0.0]]]), H=np.zeros((1, 1, 2, 2)))
    mem = NonMonotoneMemory("trm", 0, 0.5)
    mem.begin_iteration(np.array([[7.0]]), (1,))
    with pytest.raises(SolverInternalError):
        reduction_ratios(mem, np.array([[6.0]]), (1,), np.array([1.0, 0.0]),
                         models, orthant(1))
    # the error names the first block whose prediction is not positive
    models = ModelSet(G=np.array([[[-2.0, 0.0]], [[2.0, 0.0]], [[0.0, 0.0]]]),
                      H=np.zeros((3, 1, 2, 2)))
    mem.begin_iteration(np.array([[7.0], [7.0], [7.0]]), (1, 2, 3))
    with pytest.raises(SolverInternalError, match="for block 1$"):
        reduction_ratios(mem, np.full((3, 1), 6.0), (1, 2, 3), np.array([1.0, 0.0]),
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


def _prox_direction_scipy(rows: np.ndarray):
    """``_prox_direction`` through scipy's public ``nnls``: the reference that
    the core loaded on its own must match bit for bit."""
    R = _distinct_rows(rows)
    rhs = np.zeros(R.shape[1] + 1)
    rhs[-1] = 1.0
    u, _ = nnls(np.vstack([R.T, np.ones(R.shape[0])]), rhs, maxiter=30 * R.shape[0])
    v = -R.T @ (u / u.sum())
    return v, float(np.max(R @ v) + 0.5 * v @ v)


def test_prox_direction_is_bitwise_scipy_nnls():
    rng = np.random.default_rng(7)
    cases = [rows for _, rows in _oracle_row_sets()]
    cases += [rng.standard_normal((1, n)) * 10.0 ** rng.uniform(-2.0, 3.0) for n in range(1, 11)]
    cases += [np.array([[a], [-b]]) for a, b in [(1.0, 1.0), (1e3, 1e-2), (1e-2, 1e3),
                                                  (0.37, 52.0)]]
    for rows in cases:
        v, val = _prox_direction(rows)
        v_ref, val_ref = _prox_direction_scipy(rows)
        assert v.tobytes() == v_ref.tobytes() and val == val_ref


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
    kept as the reference: one ``eval_all`` call per candidate step."""
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
                return step, cand
            step *= nu
        return None, x
    return step_rule


def _run_bytes(res):
    """What the batched search must keep bit for bit: iterates, steps
    (``omega``), acceptance, tuples, the end point, t and the counts."""
    records = [(r.x.tobytes(), np.float64(r.omega).tobytes(), r.accepted, r.a, r.t)
               for r in res.trace]
    return (records, res.final_point.tobytes(), res.final_t, res.iterations,
            res.converged, res.diagnostic)


def _batched_and_looped(monkeypatch, problem, cone, x0, config):
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
    for variant in ("sd", "cg"):
        for cone in cones:
            for i, x0 in enumerate(starts):
                for nu in ((0.5, 0.3, 0.9) if i == 0 else (0.5,)):
                    config = SolverConfig(variant=variant, it_max=5, nu=nu)
                    _batched_and_looped(monkeypatch, p, cone, x0, config)


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
        sizes = [shape[0] for shape in calls]
        assert sizes[:-1] == [2 ** i for i in range(len(sizes) - 1)]
        assert sum(sizes) == n_steps and len(sizes) == int(np.ceil(np.log2(n_steps + 1)))


def test_failed_armijo_search_in_a_run(monkeypatch):
    # f(x) = |x|^2 / 2, but 1e3 lower at x0 alone: the derivatives miss the dip,
    # every trial point lies above F(x0), so every search fails and CG keeps
    # restarting
    x0 = np.array([3.0, -2.0])
    p = from_functions("dipped_plant", 2, 1,
                       [lambda x: np.array([0.5 * x @ x - 1e3 * np.array_equal(x, x0)])],
                       (-10.0, 10.0))
    for variant in ("sd", "cg"):
        res = _batched_and_looped(monkeypatch, p, orthant(1), x0,
                                  SolverConfig(variant=variant, it_max=3))
        assert [(r.accepted, r.omega) for r in res.trace] == [(False, 0.0)] * 3


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
            v, val = _prox_direction(rows)
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_distinct_rows", lambda r: np.unique(r, axis=0))
                v_ref, val_ref = _prox_direction(rows)
            if with_zeros:
                assert np.array_equal(v, v_ref) and val == val_ref
            else:
                assert v.tobytes() == v_ref.tobytes() and val == val_ref
    # a +-0.0 twin is one row; the first of the pair in the stack stays
    twins = np.array([[1.0, -0.0], [1.0, 0.0], [-1.0, 2.0]])
    got = _distinct_rows(twins)
    assert got.tobytes() == np.array([[-1.0, 2.0], [1.0, -0.0]]).tobytes()


# -- the step memo -------------------------------------------------------------

def test_memo_is_bound_to_its_problem_cone_and_box():
    p, other = registry("dgo2_n1_m2"), registry("dgo1_n1_m2")
    twin = dataclasses.replace(p)  # equal fields, another problem object
    cone = orthant(2)
    memo = StepMemo(p, cone)
    x0 = np.array([4.0])  # inside both boxes
    assert twin is not p and twin.domain_box[0].tobytes() == p.domain_box[0].tobytes()
    for problem, kone in ((twin, cone), (other, cone), (p, orthant(2)), (p, k2prime())):
        with pytest.raises(ValueError, match="bound to another"):
            run(problem, kone, x0, SolverConfig(), memo=memo)
    lo = p.domain_box[0]
    lo[0] -= 1.0
    try:
        with pytest.raises(ValueError, match="bound to another"):
            run(p, cone, x0, SolverConfig(), memo=memo)
    finally:
        lo[0] += 1.0
    assert _run_bytes(run(p, cone, x0, SolverConfig(), memo=memo)) == \
        _run_bytes(run(p, cone, x0, SolverConfig()))


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
        memo = StepMemo(p, cone)
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
    memo = StepMemo(p, cone)
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
    memo = StepMemo(p, cone)
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
    memo = StepMemo(p, cone)
    res = run(p, cone, np.array([2.718, 4.675]), SolverConfig(variant="trm"),
              observer=lambda event: _entries_cost(memo, 1e3, 1e3), memo=memo)
    assert any(r.accepted for r in res.trace) and any(not r.accepted for r in res.trace)
    assert res.wall_time < 1e3 and res.cpu_time < 1e3
    assert res.shared_steps == 0


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
        memo = StepMemo(problem, cone)
        ledger = memo.ledger(problem, cone)
        for x in points:
            F_x = problem.eval_all(x)
            assert memo.partition(x, F_x, ledger).groups == structure_from_values(F_x, cone).groups
    kept = memo.partition(points[0], problem.eval_all(points[0]), ledger)
    assert kept is memo.partition(points[1], problem.eval_all(points[1]), ledger)
    assert kept == structure_from_values(problem.offsets, cone)


def _count_partitions(monkeypatch):
    """Count structure_from_values calls and the (memo, x) pairs whose
    partition the runs asked for."""
    calls, asked = [], set()
    original, partition = solvers.structure_from_values, StepMemo.partition

    def asking(memo, x, F_x, ledger):
        asked.add((memo, x.tobytes()))
        return partition(memo, x, F_x, ledger)

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
        memo = StepMemo(problem, cone)
        memo.partition(x, problem.eval_all(x), memo.ledger(problem, cone))
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
    """Make ``inner_minimax`` ignore ``stop_tol``: every step problem is solved."""
    original = subproblem.inner_minimax
    monkeypatch.setattr(subproblem, "inner_minimax",
                        lambda models, cone, radius, box_shift=None, *, stop_tol=None:
                        original(models, cone, radius, box_shift))


def _trace_bytes(res):
    """Everything of a run but its final t: the records, the end point and
    the counts."""
    records = [(r.k, r.x.tobytes(), np.float64(r.omega).tobytes(), np.float64(r.t).tobytes(),
                r.a, r.rho, r.accepted, r.step_norm) for r in res.trace]
    return (records, res.final_point.tobytes(), res.iterations, res.converged,
            res.diagnostic, res.shared_steps)


def test_step_bound_keeps_runs_bitwise(monkeypatch):
    eps = SolverConfig().eps
    cases = [(p, x0) for p in map(registry, problem_ids())
             for x0 in sample_points(p.domain_box, 2, _problem_seed(18, p.name))]

    def trust_region_runs(p, x0):
        memo = StepMemo(p, orthant(p.m))
        return [run(p, memo.cone, x0, SolverConfig(variant=v), memo=memo)
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
