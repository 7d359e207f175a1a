"""Minimal elements of a finite vector set and the partition structure.

Given the family values F(x) = {f^1(x), ..., f^p(x)} and an ordering cone,
this module finds the cone-minimal and weakly minimal members, groups the
weakly minimal indices by (near-)equal value, and enumerates the Cartesian
product of those groups, one factor per distinct minimal value.  ``best_tuple``
is the one search over that product that every solver uses.
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
    """Distinct weakly minimal values of F(x) with their active index groups.

    ``values[j]`` is the representative vector of group j, ``groups[j]`` the
    1-based function indices attaining it, ``omega`` the number of groups.
    ``is_regular_hint`` records whether minimal and weakly minimal index
    sets coincided at this point (a necessary sign of regularity, not a
    proof of it).
    """

    values: tuple
    groups: tuple
    omega: int
    is_regular_hint: bool

    def group_sizes(self) -> tuple:
        return tuple(len(g) for g in self.groups)

    def partition_count(self) -> int:
        count = 1
        for g in self.groups:
            count *= len(g)
        return count


def _sup_distances(vals: np.ndarray) -> np.ndarray:
    """(k, k) sup-norm distances between the rows of a (k, m) array."""
    cols = vals.T
    dist = np.abs(cols[0][:, None] - cols[0][None, :])
    for col in cols[1:]:
        np.maximum(dist, np.abs(col[:, None] - col[None, :]), out=dist)
    return dist


def minimal_elements(values, cone: Cone, value_tol: float = 0.0):
    """Indices (0-based) of minimal and weakly minimal rows of ``values``.

    Row i is minimal when no other row is <=_K it with a different value
    (value equality is sup-norm distance <= value_tol); weakly minimal when
    no row is strictly <_K it.  Minimal indices are always a subset of the
    weakly minimal ones.
    """
    min_idx, wmin_idx, _ = _minimal_and_distances(
        np.atleast_2d(np.asarray(values, dtype=float)), cone, value_tol)
    return min_idx, wmin_idx


def _minimal_and_distances(vals: np.ndarray, cone: Cone, value_tol: float):
    """``minimal_elements`` plus the sup-norm distance matrix of the rows."""
    n = vals.shape[0]
    tol = cone.tolerance
    # [i, j]: vals[j] <=_K vals[i], resp. vals[j] <_K vals[i], one dual
    # normal at a time: w_l^T (vals[i] - vals[j]) against the cone tolerance
    dominates_leq = np.ones((n, n), dtype=bool)
    dominates_lt = np.ones((n, n), dtype=bool)
    for col in (vals @ cone.dual_normals.T).T:
        diff = col[:, None] - col[None, :]
        dominates_leq &= diff >= -tol
        dominates_lt &= diff > tol
    dist = _sup_distances(vals)
    strict_leq = dominates_leq & ~(dist <= value_tol)
    np.fill_diagonal(strict_leq, False)
    np.fill_diagonal(dominates_lt, False)
    min_idx = np.flatnonzero(~strict_leq.any(axis=1)).tolist()
    wmin_idx = np.flatnonzero(~dominates_lt.any(axis=1)).tolist()
    return min_idx, wmin_idx, dist


def structure_from_values(values: np.ndarray, cone: Cone, value_tol: float | None = None) -> MinimalStructure:
    """Build the minimal structure from an already evaluated (p, m) array."""
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    if value_tol is None:
        scale = 1.0 + float(np.max(np.abs(vals)))
        value_tol = 1e-8 * scale
    min_idx, wmin_idx, dist = _minimal_and_distances(vals, cone, value_tol)
    # Greedy grouping: each weakly minimal row, in index order, joins the
    # first group leader within its own tolerance, or leads a new group.
    # close[i, r]: row r lies within row i's tolerance of row i.
    wv = vals[wmin_idx]
    tol = np.maximum(1e-8 * (1.0 + np.max(np.abs(wv), axis=1)), value_tol)
    close = dist[np.ix_(wmin_idx, wmin_idx)] <= tol[:, None]
    np.fill_diagonal(close, True)
    earlier = np.tril(close, -1)
    # A row close to no earlier row leads; a row close to an earlier such
    # leader follows.  Only the rows left depend on the leaders before them.
    leads = ~earlier.any(axis=1)
    for i in np.flatnonzero(~leads & ~(earlier & leads).any(axis=1)):
        leads[i] = not (earlier[i] & leads).any()
    label = (np.cumsum(leads) - 1)[np.argmax(np.tril(close) & leads, axis=1)]
    groups: list[list[int]] = [[] for _ in range(int(leads.sum()))]
    for i, g in zip(wmin_idx, label.tolist()):
        groups[g].append(i + 1)
    return MinimalStructure(
        values=tuple(wv[leads]),
        groups=tuple(tuple(g) for g in groups),
        omega=len(groups),
        is_regular_hint=set(min_idx) == set(wmin_idx),
    )


def minimal_structure(problem, cone: Cone, x, value_tol: float | None = None) -> MinimalStructure:
    """Evaluate F(x) and group its weakly minimal values."""
    return structure_from_values(problem.eval_all(x), cone, value_tol)


def partition_iter(structure: MinimalStructure, cap: int = PARTITION_CAP):
    """Yield every index tuple of the group product in lexicographic order."""
    count = structure.partition_count()
    if count > cap:
        sizes = structure.group_sizes()
        raise PartitionCapError(
            f"partition set has {count} elements (group sizes {sizes}), cap is {cap}"
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
