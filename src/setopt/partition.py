"""Weakly minimal members of a finite vector set and the partition structure.

Given the family values F(x) = {f^1(x), ..., f^p(x)} and an ordering cone,
this module finds the weakly minimal members, groups their indices by
(near-)equal value, and enumerates the Cartesian product of those groups,
one factor per distinct weakly minimal value.  ``best_tuple`` is the one
search over that product that every solver uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cone import Cone

PARTITION_CAP = 4096


class PartitionCapError(RuntimeError):
    """The group-product cardinality exceeds the enumeration cap."""


@dataclass(frozen=True)
class MinimalStructure:
    """The distinct weakly minimal values of F(x), as their active index groups.

    ``groups[j]`` holds the 1-based indices of the members attaining value j,
    in increasing order; ω is ``len(groups)``.  A group's first member leads
    it, so its value is row ``groups[j][0] - 1`` of the values grouped.
    """

    groups: tuple

    def partition_count(self) -> int:
        count = 1
        for g in self.groups:
            count *= len(g)
        return count


def grouping_tolerance(values) -> float:
    """Sup-norm distance within which two rows of ``values`` are one value."""
    return 1e-8 * (1.0 + float(np.max(np.abs(values))))


def _sup_distances(vals: np.ndarray) -> np.ndarray:
    """(k, k) sup-norm distances between the rows of a (k, m) array."""
    cols = vals.T
    dist = np.abs(cols[0][:, None] - cols[0][None, :])
    for col in cols[1:]:
        np.maximum(dist, np.abs(col[:, None] - col[None, :]), out=dist)
    return dist


# absolute slack of the order tests in ``_dominated``
ORDER_SLACK = 1e-10


def _dominated(vals: np.ndarray, cone: Cone, strict: bool) -> np.ndarray:
    """[i, j]: vals[j] <_K vals[i] if ``strict``, else vals[j] <=_K vals[i];
    False for i == j.  One pass per dual normal compares w_l^T (vals[i] -
    vals[j]) with ``ORDER_SLACK``."""
    out = np.ones((vals.shape[0],) * 2, dtype=bool)
    for col in (vals @ cone.dual_normals.T).T:
        diff = col[:, None] - col[None, :]
        out &= diff > ORDER_SLACK if strict else diff >= -ORDER_SLACK
    np.fill_diagonal(out, False)
    return out


def minimal_elements(values, cone: Cone, value_tol: float = 0.0):
    """Indices (0-based) of minimal and weakly minimal rows of ``values``.

    Row i is minimal when no other row is <=_K it with a different value
    (value equality is sup-norm distance <= value_tol); weakly minimal when
    no row is strictly <_K it.  Minimal indices are always a subset of the
    weakly minimal ones.
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    leq = _dominated(vals, cone, strict=False) & ~(_sup_distances(vals) <= value_tol)
    lt = _dominated(vals, cone, strict=True)
    return np.flatnonzero(~leq.any(axis=1)).tolist(), np.flatnonzero(~lt.any(axis=1)).tolist()


def structure_from_values(values: np.ndarray, cone: Cone) -> MinimalStructure:
    """Group the weakly minimal rows of an evaluated (p, m) array by value,
    within ``grouping_tolerance`` in sup norm."""
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    wmin_idx = np.flatnonzero(~_dominated(vals, cone, strict=True).any(axis=1))
    # Greedy grouping: each weakly minimal row, in index order, joins the
    # first group leader within the tolerance, or leads a new group.
    # close[i, r]: rows i and r are within the tolerance.
    wv = vals[wmin_idx]
    close = _sup_distances(wv) <= grouping_tolerance(vals)
    np.fill_diagonal(close, True)
    earlier = np.tril(close, -1)
    # A row close to no earlier row leads; a row close to an earlier such
    # leader follows.  Only the rows left depend on the leaders before them.
    leads = ~earlier.any(axis=1)
    for i in np.flatnonzero(~leads & ~(earlier & leads).any(axis=1)):
        leads[i] = not (earlier[i] & leads).any()
    label = (np.cumsum(leads) - 1)[np.argmax(np.tril(close) & leads, axis=1)]
    groups: list[list[int]] = [[] for _ in range(int(leads.sum()))]
    for i, g in zip(wmin_idx.tolist(), label.tolist()):
        groups[g].append(i + 1)
    return MinimalStructure(tuple(tuple(g) for g in groups))


def partition_iter(structure: MinimalStructure):
    """Yield every index tuple of the group product in lexicographic order."""
    count = structure.partition_count()
    if count > PARTITION_CAP:
        raise PartitionCapError(
            f"partition set has {count} elements (group sizes "
            f"{tuple(len(g) for g in structure.groups)}), cap is {PARTITION_CAP}"
        )
    return itertools.product(*structure.groups)


def best_tuple(problem, structure: MinimalStructure, solve):
    """The index tuple a* whose ``solve(a)`` value is least, and ``solve(a*)``.

    ``solve(a)`` returns a sequence whose first item is the value to
    minimize.  Ties within 1e-12 of the best value resolve to the earliest
    tuple in lexicographic order.  The members of an offset family
    (``problem.offsets`` set) share one Jacobian and Hessian, so every
    tuple of the group product gives the same value and the tie rule keeps
    the first: only that tuple, each group's first member, is solved.
    Otherwise every tuple of ``partition_iter`` is, within its cap.
    """
    if problem.offsets is not None:
        tuples = [tuple(g[0] for g in structure.groups)]
    else:
        tuples = partition_iter(structure)
    a_star = best = None
    for a in tuples:
        res = solve(a)
        if best is None or res[0] < best[0] - 1e-12:
            a_star, best = tuple(a), res
    return a_star, best
