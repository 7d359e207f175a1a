import dataclasses
import itertools

import numpy as np
import pytest

from setopt import problems
from setopt.bench import _problem_seed, sample_points
from setopt.cone import orthant
from setopt.partition import structure_from_values
from setopt.problems import (
    DomainError,
    UnknownProblemError,
    DerivativeTable,
    _fd_center,
    _grad_steps,
    _grid_2pi5,
    _grid_pi5,
    _grid_sphere,
    _hess_steps,
    derivatives_all,
    fd_jacobian_all,
    from_functions,
    problem_ids,
    registry,
)
from setopt.solvers import VARIANTS, SolverConfig, StepMemo, run
from setopt.subproblem import criticality_value

from plants import (
    BAD_BOXES,
    make_linear_plant,
    make_overflow_plant,
    make_quadratic_plant,
    make_sphere_helper_plant,
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
        assert registry(pid).p == (5 if pid == "modified_ex51_n1_m2" else 100)
    # with a plant from the caller's own box arrays, and a twin by replace
    box = (np.full(2, -10.0), np.full(2, 10.0))
    plant = from_functions("box_plant", 2, 1, [lambda x: np.array([x @ x])], box)
    twin = dataclasses.replace(registry("hil_n2_m2"))
    for p in [*map(registry, problem_ids()), plant, twin]:
        lo, hi = p.domain_box
        assert lo.shape == (p.n,) and hi.shape == (p.n,) and np.all(lo < hi)
        # read-only float copies: the step memo relies on the box never changing
        assert lo.dtype == hi.dtype == float and not (lo.flags.writeable or hi.flags.writeable)
        assert p.eval_all(0.5 * (lo + hi)).shape == (p.p, p.m)
    assert all(b.flags.writeable for b in box)
    assert not any(np.shares_memory(b, c) for b, c in zip(twin.domain_box,
                                                          registry("hil_n2_m2").domain_box))
    with pytest.raises(UnknownProblemError):
        registry("nope_n1_m1")


def test_problems_compare_and_hash_by_identity():
    # the evaluator is a closure, and a step memo binds one problem object
    p = registry("dgo1_n1_m2")
    twin = dataclasses.replace(p)
    assert p == registry("dgo1_n1_m2") and p != twin
    assert p in [twin, p] and twin not in [p]
    assert {p: 1, twin: 2}[p] == 1 and hash(p) == hash(p)
    with pytest.raises(ValueError, match="another problem"):
        StepMemo(p).ledger(twin)


@pytest.mark.parametrize("box", BAD_BOXES.values(), ids=BAD_BOXES)
def test_a_problem_needs_a_box(box):
    fns = [lambda x: np.array([x @ x])]
    with pytest.raises(ValueError, match="need a box"):
        from_functions("p", 2, 1, fns, box)
    with pytest.raises(ValueError, match="need a box"):
        problems.SetValuedProblem("p", 2, 1, 1, box, lambda x: x @ x)


def test_a_problem_needs_sizes_of_at_least_one():
    # p = 0 would fail only at the first evaluation, in numpy's np.stack
    with pytest.raises(ValueError, match=r"integer p >= 1, got 0"):
        from_functions("e", 1, 1, [], (0.0, 1.0))
    fns = [lambda x: np.array([x @ x])]
    for n, m, field in [(0, 1, "n"), (-2, 1, "n"), (2, 0, "m"), (2.0, 1, "n"), (True, 1, "n")]:
        with pytest.raises(ValueError, match=rf"integer {field} >= 1"):
            problems.SetValuedProblem("e", n, m, 1, (np.zeros(2), np.ones(2)), lambda x: x)
    assert problems.SetValuedProblem("e", np.int64(2), 1, 1, (np.zeros(2), np.ones(2)),
                                     lambda x: x @ x).n == 2


def test_box_bounds_of_another_dimension_or_of_no_width():
    fns = [lambda x: np.array([x @ x])]
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        from_functions("p", 2, 1, fns, ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    # a box of width 0 in a coordinate is a box
    flat = from_functions("p", 2, 1, fns, ((0.0, 0.5), (1.0, 0.5)))
    assert flat.domain_box[0].tolist() == [0.0, 0.5]
    for pid in problem_ids():
        built = problems._BUILDERS[pid]()  # registry's cache bypassed: every build checks
        assert built.domain_box[0].shape == (built.n,)


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


# the angles of the 10 x 10 (phi_i, psi_i) grids the offset families are built from
PI5 = [np.pi / 5.0 * j for j in range(10)]
PI10 = [np.pi / 10.0 * j for j in range(10)]
TWO_PI5 = [2.0 * np.pi / 5.0 * j for j in range(10)]
OFFS = [0.01 + 0.098 * j for j in range(10)]


def _grid(phis, psis) -> np.ndarray:
    """The (100, 2) grid of (phi, psi) pairs, phi-major."""
    return np.array(list(itertools.product(phis, psis)))


def test_grid_enumerations_have_100_members():
    grids = {_grid_pi5: (PI5, PI5), _grid_2pi5: (TWO_PI5, OFFS), _grid_sphere: (PI10, PI5)}
    for build, (phis, psis) in grids.items():
        grid = build()
        assert grid.shape == (100, 2)
        assert np.allclose(grid, _grid(phis, psis), atol=0.0)
    for pid in ("dtlz1_n6_m4", "dtlz3_n5_m4", "dtlz5_n3_m3", "fdsa_n2_m3", "rosenbrock_n4_m3",
                "brown_dennis_n4_m5", "trigonometric_n4_m4", "sphere_n3_m3"):
        p = registry(pid)
        assert p.p == 100 and p.offsets.shape == (100, p.m)


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


# a warning on the way to the DomainError fails the test
_OVERFLOW = pytest.mark.filterwarnings("error::RuntimeWarning")


@_OVERFLOW
def test_non_finite_derivatives_raise_domain_error():
    # every value is finite, but the difference quotients across 0 overflow
    p, x = make_overflow_plant(), np.zeros(1)
    for derivatives in (derivatives_all, fd_jacobian_all):
        with pytest.raises(DomainError, match=r"non-finite derivative at x=\[0\.0\]"):
            derivatives(p, x)
    with pytest.raises(DomainError):
        criticality_value(p, orthant(1), x, structure_from_values(p.eval_all(x), orthant(1)))


@_OVERFLOW
@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_derivatives_end_a_run_unconverged(variant):
    # no step problem can be posed at x0: a failure at the point, not a critical point
    res = run(make_overflow_plant(), orthant(1), np.zeros(1), SolverConfig(variant=variant))
    assert not res.converged and res.iterations == 0
    assert res.diagnostic.startswith("DomainError: overflow_plant: non-finite derivative")


def test_eval_all_row_is_member():
    # row i - 1 of F(x) is member i: the base plus offset row i - 1
    p = registry("dgo1_n1_m2")
    x = np.array([0.5])
    F = p.eval_all(x)
    assert F.shape == (p.p, p.m) == (100, 2)
    base = p.evaluator(x)
    for i in (1, 100):
        assert F[i - 1].tobytes() == (base + p.offsets[i - 1]).tobytes()


def test_log_tan_clamp_counter():
    # the pi/5 grid contains psi = 0 and psi >= pi where log(tan(psi/2))
    # is non-finite without the clamp
    p = registry("dtlz1_n6_m4")
    phi, psi = _grid(PI5, PI5).T
    clamped = np.clip(psi, 1e-9, np.pi - 1e-9)
    assert np.sum(clamped != psi) > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(np.log(np.tan(psi / 2.0))))
    assert np.array_equal(p.offsets[:, 2],
                          np.cos(psi) + np.log(np.tan(clamped / 2.0)) + 0.2 * phi)
    assert np.all(np.isfinite(p.eval_all(np.full(6, 0.3))))
    phi, psi = _grid(TWO_PI5, OFFS).T
    assert np.array_equal(np.clip(psi, 1e-9, np.pi - 1e-9), psi)  # its psi grid stays inside (0, pi)
    assert np.array_equal(registry("brown_dennis_n4_m5").offsets[:, 2],
                          np.cos(psi) + np.log(np.tan(psi / 2.0)) + 0.5 * phi)


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
    c = np.array([[1.0, -2.0], [3.0, 0.5]])
    a = np.array([[2.0, 1.0], [1.0, 4.0]])
    plants = [
        (make_linear_plant(c), lambda x: c),
        (make_quadratic_plant(a), lambda x: (0.5 * (a + a.T) @ x)[None, :]),
        (make_sphere_helper_plant(), lambda x: np.array([[2.0 * (x[0] - 0.5)]])),
    ]
    for p, jacobian in plants:
        lo, hi = p.domain_box
        span = hi - lo
        for _ in range(100):
            x = rng.uniform(lo + 0.05 * span, hi - 0.05 * span)
            fd = fd_jacobian_all(p, x)
            exact = jacobian(x)
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


def test_derivative_table_caches(monkeypatch):
    # every entry lives as long as the memo: a point that comes back after
    # another is not differentiated again, and the arrays are read-only
    p = registry("dgo1_n1_m2")
    table = StepMemo(p)
    ledger = table.ledger(p)
    assert isinstance(table, DerivativeTable)
    x, y = np.array([0.25]), np.array([0.5])
    calls = []
    original = problems.derivatives_all
    monkeypatch.setattr(problems, "derivatives_all",
                        lambda problem, z: calls.append(z.tobytes()) or original(problem, z))
    j1, h1 = table.bundle_arrays(x, ledger)
    table.bundle_arrays(y, ledger)
    j2, h2 = table.bundle_arrays(x, ledger)
    assert j1 is j2 and h1 is h2
    assert calls == [x.tobytes(), y.tobytes()]
    assert table.jacobians(x, ledger) is table.jacobians(x, ledger)
    assert not (j1.flags.writeable or h1.flags.writeable
                or table.jacobians(y, ledger).flags.writeable)


def test_derivative_table_keeps_the_kinds_apart():
    # at the box corner the bundle's stencil centre is pulled further in,
    # so its Jacobians are not fd_jacobian_all's bits
    p = registry("zdt1_n5_m2")
    x = np.zeros(5)
    bundle, jac = derivatives_all(p, x), fd_jacobian_all(p, x)
    assert bundle[0].tobytes() != jac.tobytes()
    table = StepMemo(p)
    ledger = table.ledger(p)
    first = table.bundle_arrays(x, ledger)
    assert table.jacobians(x, ledger).tobytes() == jac.tobytes()
    # both kinds stay: the bundle is read, not differentiated again
    got = table.bundle_arrays(x, ledger)
    assert got is first
    assert [a.tobytes() for a in got] == [a.tobytes() for a in bundle]


FULL_EVALUATORS = {"modified_ex51_n1_m2", "modified_ex53_n2_m2"}


def _distinct_blocks(arr) -> int:
    return len({block.tobytes() for block in arr})


def test_offset_families_share_bitwise_derivatives():
    for pid in problem_ids():
        p = registry(pid)
        assert (p.offsets is None) == (pid in FULL_EVALUATORS)
        x = sample_points(p.domain_box, 1, _problem_seed(3, pid))[0]
        jac, hess, fd = *derivatives_all(p, x), fd_jacobian_all(p, x)
        # one block for the members of an offset family, one per member otherwise
        b = p.p if p.offsets is None else 1
        assert jac.shape == fd.shape == (b, p.m, p.n) and hess.shape == (b, p.m, p.n, p.n), pid
        if p.offsets is None:
            assert min(map(_distinct_blocks, (jac, hess, fd))) > 1, pid
    ex53 = registry("modified_ex53_n2_m2")
    jac, hess = derivatives_all(ex53, [0.3, -1.2])
    assert _distinct_blocks(jac) == _distinct_blocks(hess) == ex53.p


def test_fdsa_runs_every_method():
    # its offsets pair exactly: 22 groups of 2, 4,194,304 tuples at every start
    p = registry("fdsa_n2_m3")
    for x0 in sample_points(p.domain_box, 3, _problem_seed(1, p.name)):
        for variant in VARIANTS:
            res = run(p, orthant(3), x0, SolverConfig(variant=variant))
            assert res.diagnostic is None or "PartitionCapError" not in res.diagnostic
            assert res.iterations > 0 and res.trace


# -- the batched stencil against one-point-at-a-time differences -----------

def _looped_jac(problem, c):
    """Central differences one evaluator call per point, as before batching."""
    h = _grad_steps(c)
    cols = []
    for j in range(problem.n):
        step = (c[j] + h[j]) - c[j]
        e = np.zeros(problem.n)
        e[j] = step
        cols.append((problem._evaluate(c + e) - problem._evaluate(c - e)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def _looped_hess(problem, c):
    d = _hess_steps(c)
    cols = []
    for j in range(problem.n):
        step = (c[j] + d[j]) - c[j]
        e = np.zeros(problem.n)
        e[j] = step
        cols.append((_looped_jac(problem, c + e) - _looped_jac(problem, c - e)) / (2.0 * step))
    hess = np.stack(cols, axis=-1)
    return 0.5 * (hess + hess.swapaxes(-2, -1))


def _guard_points(p):
    """Seeded interior points, points within 1e-5 of each wall, box corners."""
    lo, hi = p.domain_box
    seeded = sample_points(p.domain_box, 4, _problem_seed(17, p.name))
    points = list(seeded)
    for j in range(p.n):
        for i, wall in enumerate((lo[j] + 1e-5, hi[j] - 1e-5)):
            x = seeded[i].copy()
            x[j] = wall
            points.append(x)
    corners = list(itertools.product(*zip(lo, hi)))
    points += [np.array(corners[i]) for i in range(0, len(corners), max(1, len(corners) // 4))]
    return points


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("pid", sorted(EXPECTED_IDS))
def test_batched_stencil_is_bitwise_looped(pid):
    p = registry(pid)
    points = _guard_points(p)
    # every row of a batch is the point alone, bit for bit; a last-bit
    # difference shows on a few inputs in a thousand, hence the many rows
    many = np.concatenate([points, sample_points(p.domain_box, 1000, _problem_seed(19, pid))])
    for row, x in zip(p._evaluate(many), many):
        assert _same(row, p._evaluate(x)), x
    for x in points:
        single = p._evaluate(x)
        assert _same(p.eval_all(x), single if p.offsets is None else single + p.offsets)
        c = _fd_center(p, x, with_hessian=False)
        assert _same(fd_jacobian_all(p, x), _looped_jac(p, c)), x
        c = _fd_center(p, x, with_hessian=True)
        jac, hess = derivatives_all(p, x)
        # blocks of their own, not views that keep the whole stencil alive
        assert jac.base is None and hess.base is None
        assert _same(jac, _looped_jac(p, c)), x
        assert _same(hess, _looped_hess(p, c)), x


@pytest.mark.parametrize("pid", sorted(EXPECTED_IDS))
def test_eval_all_batch_is_each_point(pid):
    p = registry(pid)
    batch = np.array(_guard_points(p))
    values = p.eval_all(batch)
    assert values.shape == (len(batch), p.p, p.m)
    for row, x in zip(values, batch):
        assert _same(row, p.eval_all(x)), x
    assert _same(p.eval_all(batch[:1]), values[:1])
    if p.n == 1:
        assert _same(p.eval_all([float(batch[0, 0])]), values[0])


def test_eval_all_batch_names_first_bad_point():
    p = _holed_plant(0.0)
    batch = np.array([[1.0, 1.0], [1.0, -1.0], [2.0, -2.0]])
    assert _error_text(lambda: p.eval_all(batch)) == _error_text(lambda: p.eval_all(batch[1]))
    assert _same(p.eval_all(batch[:1])[0], p.eval_all(batch[0]))


def _holed_plant(threshold):
    """f(x) = x0^2 + x0 x1, non-finite where x1 < threshold."""
    return from_functions(
        "holed_plant", 2, 1,
        [lambda x: np.array([np.nan if x[1] < threshold else x[0] ** 2 + x[0] * x[1]])],
        (-10.0, 10.0))


def _error_text(fn) -> str:
    with pytest.raises(DomainError) as info:
        fn()
    return str(info.value)


def test_domain_error_names_first_bad_stencil_point():
    x = np.array([0.5, 0.5])
    h, d = _grad_steps(x), _hess_steps(x)
    # inside the Jacobian stencil: the point x - h e1 is the first one that fails
    p = _holed_plant(0.5 - 0.5 * h[1])
    looped = _error_text(lambda: _looped_jac(p, x))
    step = (x[1] + h[1]) - x[1]
    assert looped == f"holed_plant: non-finite value at x={[0.5, float(x[1] - step)]}"
    assert _error_text(lambda: fd_jacobian_all(p, x)) == looped
    assert _error_text(lambda: derivatives_all(p, x)) == looped
    # only around the Hessian point x - d e1: the Jacobian is finite
    p = _holed_plant(0.5 - 0.5 * d[1])
    assert np.all(np.isfinite(fd_jacobian_all(p, x)))
    looped = _error_text(lambda: (_looped_jac(p, x), _looped_hess(p, x)))
    assert _error_text(lambda: derivatives_all(p, x)) == looped
    # non-finite at the first stencil point x + h e0, raising at the last, x - h e1:
    # the batch stops where the loop did, so the raise is never reached
    p = _raising_plant(0.5 + 0.5 * h[0], 0.5 - 0.5 * h[1])
    looped = _error_text(lambda: _looped_jac(p, x))
    step = (x[0] + h[0]) - x[0]
    assert looped == f"raising_plant: non-finite value at x={[float(x[0] + step), 0.5]}"
    assert _error_text(lambda: fd_jacobian_all(p, x)) == looped
    assert _error_text(lambda: derivatives_all(p, x)) == looped


def _raising_plant(nan_above, raise_below):
    """f(x) = x0 x1, non-finite where x0 > nan_above, raising where x1 < raise_below."""
    def f(x):
        if x[1] < raise_below:
            raise ZeroDivisionError("evaluated past the first non-finite point")
        return np.array([np.nan if x[0] > nan_above else x[0] * x[1]])

    return from_functions("raising_plant", 2, 1, [f], (-10.0, 10.0))
