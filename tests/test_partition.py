import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from setopt import partition
from setopt.cone import k2prime, orthant, preset
from setopt.partition import (
    ORDER_SLACK,
    MinimalStructure,
    PartitionCapError,
    best_tuple,
    partition_iter,
    structure_from_values,
)
from setopt.bench import _problem_seed, sample_points
from setopt.problems import DomainError, from_functions, problem_ids, registry


def oracle_weakly_minimal(values, cone):
    """Brute-force double-loop dominance test, kept independent of the library path."""
    vals = [np.asarray(v, dtype=float) for v in values]
    n = len(vals)
    wmin_idx = []
    for i in range(n):
        strictly = False
        for j in range(n):
            if j == i:
                continue
            margins = cone.dual_normals @ (vals[i] - vals[j])
            if np.all(margins > ORDER_SLACK):
                strictly = True
        if not strictly:
            wmin_idx.append(i)
    return wmin_idx


def weakly_minimal(values, cone):
    """The 0-based weakly minimal rows, read from the partition's groups."""
    return sorted(i - 1 for g in structure_from_values(values, cone).groups for i in g)


def test_examples():
    cone = orthant(2)
    assert weakly_minimal([[1, 2], [2, 1], [3, 3]], cone) == [0, 1]
    assert weakly_minimal([[5.0, -1.0]], cone) == [0]
    assert weakly_minimal([[0, 0], [0, 0], [1, 1]], cone) == [0, 1]


def test_oracle_equivalence_random():
    rng = np.random.default_rng(1)
    cones = [orthant(2), orthant(3), orthant(4), k2prime()]
    for trial in range(500):
        cone = cones[trial % len(cones)]
        n = int(rng.integers(1, 11))
        vals = np.round(rng.normal(size=(n, cone.m)), 3)  # rounding provokes ties
        assert weakly_minimal(vals, cone) == oracle_weakly_minimal(vals, cone)


def _const_problem(rows):
    rows = [np.asarray(r, dtype=float) for r in rows]
    fns = [lambda x, r=r: r for r in rows]
    return from_functions("const", 1, len(rows[0]), fns, (-1.0, 1.0))


def test_structure_single_function():
    problem = _const_problem([[2.0, 3.0]])
    st = structure_from_values(problem.eval_all([0.0]), orthant(2))
    assert st.groups == ((1,),)


def test_structure_grouping_by_equality():
    problem = _const_problem([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    st = structure_from_values(problem.eval_all([0.0]), orthant(2))
    assert st.groups == ((1, 2),)


def test_structure_matches_oracle_random_points():
    rng = np.random.default_rng(2)
    cone = orthant(3)
    for _ in range(50):
        vals = rng.normal(size=(8, 3))
        st = structure_from_values(vals, cone)
        wmi = oracle_weakly_minimal(vals, cone)
        assert sorted(i for g in st.groups for i in g) == [i + 1 for i in wmi]
        # every group member agrees with its representative, its first member
        for grp in st.groups:
            rep = vals[grp[0] - 1]
            for i in grp:
                assert np.max(np.abs(vals[i - 1] - rep)) <= 1e-8 * (1 + np.max(np.abs(rep)))


def test_structure_idempotent():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(10, 2))
    cone = orthant(2)
    a = structure_from_values(vals, cone)
    b = structure_from_values(vals, cone)
    assert a == b


def test_partition_iter_examples():
    st = structure_from_values(np.array([[0.0, 0.0], [0.0, 1e-12], [0.5, -0.5]]), orthant(2))
    tuples = list(partition_iter(st))
    assert len(tuples) == st.partition_count()

    class Fake:
        groups = ((1, 2), (3,))

        def partition_count(self):
            return 2

    assert list(partition_iter(Fake())) == [(1, 3), (2, 3)]

    class Fake3:
        groups = ((1, 2), (3, 4), (5,))

        def partition_count(self):
            return 4

    assert len(list(partition_iter(Fake3()))) == 4


def test_partition_cardinality_is_group_product():
    rng = np.random.default_rng(4)
    for _ in range(20):
        sizes = rng.integers(1, 4, size=rng.integers(1, 4))
        start = 1
        groups = []
        for s in sizes:
            groups.append(tuple(range(start, start + s)))
            start += s

        class St:
            pass

        st = St()
        st.groups = tuple(groups)
        st.partition_count = lambda g=groups: int(np.prod([len(x) for x in g]))
        tuples = list(partition_iter(st))
        assert len(tuples) == st.partition_count()
        assert tuples == list(itertools.product(*groups))


def test_partition_cap_error():
    class Big:
        groups = tuple((i, i + 1) for i in range(1, 27, 2))  # 2^13 combinations

        def partition_count(self):
            return 2 ** 13

    with pytest.raises(PartitionCapError, match=r"8192 elements \(group sizes \(2, 2,"):
        list(partition_iter(Big()))


def test_offset_family_tuple_is_built_once_per_structure():
    # an offset family solves one tuple, each group's first member; the
    # structure keeps it, so every call hands ``solve`` the same object
    class Offsets:
        offsets = np.zeros((5, 2))

    structure = MinimalStructure(groups=((2, 4), (1,), (3, 5)))
    seen = []

    def solve(a):
        seen.append(a)
        return (0.0,)

    for _ in range(3):
        assert best_tuple(Offsets(), structure, solve) == ((2, 1, 3), (0.0,))
    assert len(seen) == 3
    assert all(a is structure.leaders for a in seen)
    # the cached tuple is no field: equality and repr stay those of the groups
    assert structure == MinimalStructure(groups=((2, 4), (1,), (3, 5)))
    assert "leaders" not in repr(structure)


def reference_grouping(values, cone):
    """The pairwise greedy loop that ``structure_from_values`` vectorises:
    each weakly minimal row (no row is strictly below it, all dual normals
    compared at once), in index order, joins the first representative
    within 1e-8 (1 + max |values|) in sup norm, or becomes one."""
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    tol = 1e-8 * (1.0 + float(np.max(np.abs(vals))))
    proj = vals @ cone.dual_normals.T
    below = np.all(proj[:, None, :] - proj[None, :, :] > ORDER_SLACK, axis=2)
    wmin_idx = np.flatnonzero(~below.any(axis=1)).tolist()
    reps, groups = [], []
    for i in wmin_idx:
        for rep, grp in zip(reps, groups):
            if float(np.max(np.abs(vals[i] - rep))) <= tol:
                grp.append(i + 1)
                break
        else:
            reps.append(vals[i].copy())
            groups.append([i + 1])
    return reps, tuple(tuple(g) for g in groups)


def assert_matches_reference(vals, cone):
    st = structure_from_values(vals, cone)
    reps, groups = reference_grouping(vals, cone)
    assert st.groups == groups
    assert len(st.groups) == len(reps)
    # a group's representative is its first member's row
    assert all(vals[g[0] - 1].tobytes() == v.tobytes() for g, v in zip(st.groups, reps))
    return st


def _check_instances(cone_for, pids) -> int:
    """Match the reference at 10 seeded points of each instance."""
    checked = 0
    for pid in pids:
        problem = registry(pid)
        for x in sample_points(problem.domain_box, 10, _problem_seed(3, pid)):
            try:
                vals = problem.eval_all(x)
            except DomainError:
                continue
            assert_matches_reference(vals, cone_for(problem))
            checked += 1
    return checked


def test_grouping_matches_reference_on_all_instances():
    assert _check_instances(lambda problem: orthant(problem.m), problem_ids()) >= 200


def test_grouping_matches_reference_under_k2prime():
    pids = [pid for pid in problem_ids() if registry(pid).m == 2]
    assert _check_instances(lambda problem: k2prime(), pids) >= 100


@st.composite
def planted_values(draw, m):
    """Random finite (p, m) values with exact duplicates and chains of
    near-ties planted.  A chain's rows step by 0.3-1.0 of the grouping
    tolerance along (1, -1, 0, ...), a direction in which no row dominates
    another under the orthant or K2', so whether a row leads depends on the
    rows before it."""
    p = draw(st.integers(1, 24))
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    vals = draw(arrays(float, (p, m), elements=finite | st.sampled_from([0.0, -0.0, 1.0])))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)),
                                  max_size=4)):
        vals[dst] = vals[src]
    direction = np.zeros(m)
    direction[:2] = (1.0, -1.0)
    for start, length, frac in draw(st.lists(st.tuples(st.integers(0, p - 1),
                                                       st.integers(1, 5),
                                                       st.floats(0.3, 1.0)), max_size=3)):
        tol = partition.grouping_tolerance(vals)
        for k in range(1, length + 1):
            vals[(start + k) % p] = vals[start] + k * frac * tol * direction
    return vals


@pytest.mark.parametrize("cone_name", ["orthant:2", "orthant:3", "k2prime"])
def test_grouping_matches_reference_on_planted_ties(cone_name):
    cone = preset(cone_name)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(planted_values(cone.m))
    def check(vals):
        assert_matches_reference(vals, cone)

    check()


def test_values_that_cannot_tie_skip_the_grouping_passes(monkeypatch):
    # no two rows are within the tolerance in the first column, so every
    # weakly minimal row leads a group of its own without a distance matrix
    monkeypatch.setattr(partition, "_sup_distances", None)
    vals = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [2.0, 5.0], [3.0, 0.0]])
    assert assert_matches_reference(vals, orthant(2)).groups == ((1,), (2,), (3,), (5,))
    with pytest.raises(TypeError):  # a near-tie in the first column needs it
        structure_from_values(vals[[0, 1, 2, 4, 4]], orthant(2))


def test_grouping_chained_near_tie():
    # value_tol = 2e-8 and the rows are 1.5e-8 apart: each row is close to
    # its neighbours only, so which rows lead depends on the rows before
    vals = np.array([[0.0, 1.0], [1.5e-8, 1.0], [3e-8, 1.0], [4.5e-8, 1.0]])
    st = assert_matches_reference(vals, orthant(2))
    assert st.groups == ((1, 2), (3, 4))
    st = assert_matches_reference(vals[[1, 0, 2, 3]], orthant(2))
    assert st.groups == ((1, 2, 3), (4,))
    st = assert_matches_reference(vals[:3], orthant(2))
    assert st.groups == ((1, 2), (3,))
