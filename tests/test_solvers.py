import numpy as np
import pytest

from setopt.cone import orthant
from setopt.problems import make_quadratic_plant, registry
from setopt.solvers import (
    NonMonotoneMemory,
    SolverConfig,
    SolverInternalError,
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
    x0 = np.full(5, 1.5)
    r_sd = run(p, cone, x0, SolverConfig(variant="sd", it_max=1))
    r_cg = run(p, cone, x0, SolverConfig(variant="cg", it_max=1))
    assert r_sd.final_point.tobytes() == r_cg.final_point.tobytes()


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
