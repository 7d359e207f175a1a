import json

import numpy as np
import pytest
from scipy.optimize import linprog

from setopt.cone import Cone, ConeError, k2prime, orthant, preset
from setopt.partition import ORDER_SLACK


def leq(cone, y, z):
    """Reference partial order: y <=_K z iff w @ (z - y) >= -tol for every dual normal w."""
    return bool(np.all(cone.dual_normals @ (np.asarray(z, float) - np.asarray(y, float))
                       >= -ORDER_SLACK))


def lt(cone, y, z):
    """Reference strict order: y <_K z iff w @ (z - y) > tol for every dual normal w."""
    return bool(np.all(cone.dual_normals @ (np.asarray(z, float) - np.asarray(y, float))
                       > ORDER_SLACK))


def classify(cone, y, tol=1e-10):
    """Reference position of y relative to -K from the sign of ``scalarize``:
    "interior", "boundary" (within tol of it) or "exterior"."""
    v = cone.scalarize(y)
    return "interior" if v < -tol else "boundary" if v <= tol else "exterior"


def test_scalarize_orthant_examples():
    k2 = orthant(2)
    assert k2.scalarize([-1.0, -2.0]) == -1.0
    assert k2.scalarize([0.0, -3.0]) == 0.0
    assert orthant(3).scalarize([3.0, -2.0, 1.0]) == 3.0


def test_classify_examples():
    k2 = orthant(2)
    assert classify(k2, [0.0, 0.0]) == "boundary"
    assert classify(k2, [-1.0, -1.0]) == "interior"
    assert classify(k2, [1.0, -1.0]) == "exterior"


def test_order_examples():
    k2 = orthant(2)
    assert leq(k2, [1.0, 1.0], [2.0, 3.0]) and lt(k2, [1.0, 1.0], [2.0, 3.0])
    y = np.array([0.3, -0.7])
    assert leq(k2, y, y) and not lt(k2, y, y)
    assert not leq(k2, [0.0, 2.0], [1.0, 1.0])


def test_normalization_fixes_scale():
    cone = Cone([[2.0, 0.0], [0.0, 5.0]])
    assert np.allclose(np.abs(cone.dual_normals).sum(axis=1), 1.0)
    assert cone.scalarize([-1.0, -2.0]) == -1.0


def test_degenerate_cone_rejected():
    # the halfspaces y1 >= 3 y2 and y2 >= 3 y1 meet R^2_+ only at 0
    with pytest.raises(ConeError):
        Cone([[1.0, -3.0], [-3.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


def test_not_pointed_rejected():
    with pytest.raises(ConeError):
        Cone([[1.0, 0.0]])  # a halfspace in R^2 is not pointed


def test_k2prime_wedge_membership():
    cone = k2prime()
    assert leq(cone, [0.0, 0.0], [1.0, 1.0])       # diagonal inside
    assert not leq(cone, [0.0, 0.0], [1.0, 0.1])   # below slope 1/3
    assert not leq(cone, [0.0, 0.0], [0.1, 1.0])   # above slope 3


def test_json_roundtrip_and_presets():
    cone = k2prime()
    again = Cone.from_json(cone.to_json())
    assert np.array_equal(cone.dual_normals, again.dual_normals)
    assert np.array_equal(preset("orthant:3").dual_normals, np.eye(3))
    assert np.array_equal(preset("k2prime").dual_normals, cone.dual_normals)
    data = json.loads(cone.to_json())
    assert set(data) == {"dual_normals"}
    with pytest.raises(ConeError):
        preset("nope")


def _solid_by_lp(w: np.ndarray) -> bool:
    """The solidity test as a HiGHS LP: max t s.t. w_j^T y >= t, |y| <= 1,
    t <= 1; solid when t > 1e-9."""
    q, m = w.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-w, np.ones((q, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(q), bounds=[(-1.0, 1.0)] * m + [(None, 1.0)],
                  method="highs")
    return bool(res.success) and res.x[-1] > 1e-9


def test_solidity_agrees_with_the_lp():
    # 600 seeded cones, m = 2-5 and q = m to 3m normals: orthant-like (e_1..e_m
    # and rows of mostly positive entries) and mixed-sign (Gaussian rows)
    rng = np.random.default_rng(20261018)
    outcomes = {(kind, solid): 0 for kind in ("orthant", "mixed") for solid in (True, False)}
    for k in range(600):
        m = 2 + k % 4
        q = int(rng.integers(m, 3 * m + 1))
        kind = ("orthant", "mixed")[k // 4 % 2]
        if kind == "orthant":
            w = np.vstack([np.eye(m), rng.uniform(-1.0, 1.0, (q - m, m)) + 0.3])
        else:
            w = rng.standard_normal((q, m))
        try:
            Cone(w)
            solid = True
        except ConeError as exc:
            assert "empty interior" in str(exc)
            solid = False
        assert solid == _solid_by_lp(w / np.abs(w).sum(axis=1, keepdims=True)), (k, w)
        outcomes[kind, solid] += 1
    assert min(outcomes.values()) >= 40, outcomes


@pytest.fixture(params=["orthant2", "orthant3", "k2prime"])
def any_cone(request):
    return {"orthant2": orthant(2), "orthant3": orthant(3), "k2prime": k2prime()}[request.param]


def _member_interior(cone, y, tol):
    # direct halfspace test for int(-K): every normal strictly negative
    return all(float(w @ y) < -tol for w in cone.dual_normals)


def _member_closed(cone, y, tol):
    return all(float(w @ y) <= tol for w in cone.dual_normals)


def test_sign_membership_equivalence(any_cone):
    rng = np.random.default_rng(3)
    tol = 1e-10
    ys = rng.normal(scale=2.0, size=(2000, any_cone.m))
    for y in ys:
        region = classify(any_cone, y, tol)
        if region == "interior":
            assert _member_interior(any_cone, y, tol)
        elif region == "exterior":
            assert not _member_closed(any_cone, y, -tol)


def test_subadditivity_homogeneity_monotonicity(any_cone):
    rng = np.random.default_rng(4)
    m = any_cone.m
    for _ in range(500):
        y, z = rng.normal(size=m), rng.normal(size=m)
        assert any_cone.scalarize(y + z) <= any_cone.scalarize(y) + any_cone.scalarize(z) + 1e-12
        lam = float(rng.uniform(0.1, 10.0))
        lhs, rhs = any_cone.scalarize(lam * y), lam * any_cone.scalarize(y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        assert any_cone.scalarize(2.0 * y) == 2.0 * any_cone.scalarize(y)  # exact scaling
        if lt(any_cone, y, z):
            assert any_cone.scalarize(y) < any_cone.scalarize(z)
        if leq(any_cone, y, z):
            assert any_cone.scalarize(y) <= any_cone.scalarize(z) + 1e-12


def test_sup_norm_lipschitz(any_cone):
    rng = np.random.default_rng(5)
    m = any_cone.m
    for _ in range(500):
        y, z = rng.normal(size=m), rng.normal(size=m)
        gap = abs(any_cone.scalarize(y) - any_cone.scalarize(z))
        assert gap <= np.max(np.abs(y - z)) + 1e-12


def test_scalarize_rows_is_bitwise_scalarize():
    # each row of a batch gets the bits of scalarize on that row alone; for
    # k2prime, ys @ W.T differs from scalarize on many such rows
    rng = np.random.default_rng(6)
    cones = [orthant(m) for m in range(2, 6)] + [k2prime()]
    cones.append(Cone(np.eye(3) + 0.3 * rng.uniform(size=(3, 3))))  # 3 random normals
    for cone in cones:
        scale = 10.0 ** rng.integers(-8, 7, size=(2000, 1))
        ys = rng.normal(size=(2000, cone.m)) * scale
        rows = cone.scalarize_rows(ys)
        assert rows.shape == (2000,)
        for y, value in zip(ys, rows):
            assert value.tobytes() == np.float64(cone.scalarize(y)).tobytes()
