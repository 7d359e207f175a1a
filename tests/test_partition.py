import itertools

import numpy as np
import pytest

from setopt.cone import k2prime, orthant
from setopt.partition import (
    ORDER_SLACK,
    PartitionCapError,
    grouping_tolerance,
    minimal_elements,
    partition_iter,
    structure_from_values,
)
from setopt.bench import _problem_seed, sample_points
from setopt.problems import DomainError, from_functions, problem_ids, registry


def oracle_minimal(values, cone, value_tol=0.0):
    """Brute-force double-loop dominance test, kept independent of the library path."""
    vals = [np.asarray(v, dtype=float) for v in values]
    n = len(vals)
    min_idx, wmin_idx = [], []
    for i in range(n):
        dominated = False
        strictly = False
        for j in range(n):
            if j == i:
                continue
            equal = float(np.max(np.abs(vals[j] - vals[i]))) <= value_tol
            margins = cone.dual_normals @ (vals[i] - vals[j])
            if np.all(margins >= -ORDER_SLACK) and not equal:
                dominated = True
            if np.all(margins > ORDER_SLACK):
                strictly = True
        if not dominated:
            min_idx.append(i)
        if not strictly:
            wmin_idx.append(i)
    return min_idx, wmin_idx


def test_examples():
    cone = orthant(2)
    mi, wmi = minimal_elements([[1, 2], [2, 1], [3, 3]], cone)
    assert mi == [0, 1] and wmi == [0, 1]
    mi, wmi = minimal_elements([[5.0, -1.0]], cone)
    assert mi == [0] and wmi == [0]
    mi, wmi = minimal_elements([[0, 0], [0, 0], [1, 1]], cone)
    assert mi == [0, 1] and wmi == [0, 1]


def test_min_subset_of_wmin_random():
    rng = np.random.default_rng(0)
    cone = orthant(3)
    for _ in range(200):
        vals = rng.normal(size=(rng.integers(1, 9), 3))
        mi, wmi = minimal_elements(vals, cone)
        assert set(mi) <= set(wmi)


def test_oracle_equivalence_random():
    rng = np.random.default_rng(1)
    cones = [orthant(2), orthant(3), orthant(4), k2prime()]
    for trial in range(500):
        cone = cones[trial % len(cones)]
        n = int(rng.integers(1, 11))
        vals = np.round(rng.normal(size=(n, cone.m)), 3)  # rounding provokes ties
        assert minimal_elements(vals, cone) == oracle_minimal(vals, cone)


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
    vals = problem.eval_all([0.0])
    mi, wmi = minimal_elements(vals, orthant(2), grouping_tolerance(vals))
    assert mi == wmi == [0, 1]


def test_structure_matches_oracle_random_points():
    rng = np.random.default_rng(2)
    cone = orthant(3)
    for _ in range(50):
        vals = rng.normal(size=(8, 3))
        st = structure_from_values(vals, cone)
        _, wmi = oracle_minimal(vals, cone)
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


def reference_grouping(values, cone):
    """The pairwise greedy loop that ``structure_from_values`` vectorises:
    each weakly minimal row, in index order, joins the first representative
    within 1e-8 (1 + max |values|) in sup norm, or becomes one."""
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    tol = 1e-8 * (1.0 + float(np.max(np.abs(vals))))
    _, wmin_idx = minimal_elements(vals, cone)
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


def test_grouping_matches_reference_on_all_instances():
    checked = 0
    for pid in problem_ids():
        problem = registry(pid)
        cone = orthant(problem.m)
        for x in sample_points(problem.domain_box, 10, _problem_seed(3, pid)):
            try:
                vals = problem.eval_all(x)
            except DomainError:
                continue
            assert_matches_reference(vals, cone)
            checked += 1
    assert checked >= 200


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
