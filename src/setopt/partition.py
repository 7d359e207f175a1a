"""Weakly minimal members of a finite vector set and the partition structure.

Given the family values F(x) = {f^1(x), ..., f^p(x)} and an ordering cone,
this module finds the weakly minimal members, groups their indices by
(near-)equal value, and enumerates the Cartesian product of those groups,
one factor per distinct weakly minimal value.  ``best_tuple`` is the one
search over that product that every solver uses.
"""

from __future__ import annotations

import functools
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

    @functools.cached_property
    def leaders(self) -> tuple:
        """Each group's first member, in group order: built once, on first use."""
        return tuple(g[0] for g in self.groups)

    def partition_count(self) -> int:
        count = 1
        for g in self.groups:
            count *= len(g)
        return count


def grouping_tolerance(values) -> float:
    """Sup-norm distance within which two rows of ``values`` are one value."""
    return 1e-8 * (1.0 + float(np.abs(values).max()))


def _sup_distances(vals: np.ndarray) -> np.ndarray:
    """(k, k) sup-norm distances between the rows of a (k, m) array."""
    cols = vals.T
    dist = np.abs(cols[0][:, None] - cols[0][None, :])
    for col in cols[1:]:
        np.maximum(dist, np.abs(col[:, None] - col[None, :]), out=dist)
    return dist


# absolute slack of the order test in ``_dominated``
ORDER_SLACK = 1e-10


def _dominated(vals: np.ndarray, cone: Cone) -> np.ndarray:
    """[i, j]: vals[j] <_K vals[i].  One pass per dual normal requires
    w_l^T (vals[i] - vals[j]) > ``ORDER_SLACK``; on the diagonal that
    difference is 0 or NaN, so no row dominates itself."""
    cols = (vals @ cone.dual_normals.T).T
    out = cols[0][:, None] - cols[0] > ORDER_SLACK
    for col in cols[1:]:
        out &= col[:, None] - col > ORDER_SLACK
    return out


def structure_from_values(values: np.ndarray, cone: Cone) -> MinimalStructure:
    """Group the weakly minimal rows of an evaluated (p, m) array by value,
    within ``grouping_tolerance`` in sup norm.

    Greedy grouping: each weakly minimal row, in index order, joins the
    first group leader within the tolerance, or leads a new group.  Only a
    row with a neighbour within the tolerance (or NaN apart) in the sorted
    first column can tie, since rounding a difference is monotone; the
    grouping passes run over those rows alone, if any.
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    wmin_idx = (~_dominated(vals, cone).any(axis=1)).nonzero()[0]
    tol = grouping_tolerance(vals)
    first = vals[wmin_idx, 0]
    order = first.argsort()
    first = first[order]
    near = ~(first[1:] - first[:-1] > tol)
    if not near.any():
        return MinimalStructure(tuple((i,) for i in (wmin_idx + 1).tolist()))
    tied = np.zeros(len(wmin_idx), dtype=bool)
    tied[order[1:][near]] = tied[order[:-1][near]] = True
    rows = tied.nonzero()[0]
    # close[i, r]: rows i and r (of those that can tie) are within the
    # tolerance.  A row close to no earlier row leads; a row close to an
    # earlier such leader follows.  Only the rows left depend on the
    # leaders before them.
    close = _sup_distances(vals[wmin_idx[rows]]) <= tol
    np.fill_diagonal(close, True)
    earlier = np.tril(close, -1)
    leads = ~earlier.any(axis=1)
    for i in np.flatnonzero(~leads & ~(earlier & leads).any(axis=1)):
        leads[i] = not (earlier[i] & leads).any()
    leader = np.arange(len(wmin_idx))
    leader[rows] = rows[np.argmax(np.tril(close) & leads, axis=1)]
    groups: dict = {}
    for i, g in zip((wmin_idx + 1).tolist(), leader.tolist()):
        groups.setdefault(g, []).append(i)
    return MinimalStructure(tuple(tuple(g) for g in groups.values()))


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
    (``problem.offsets`` set) share one derivative block, so every
    tuple of the group product gives the same value and the tie rule keeps
    the first: only that tuple, the structure's ``leaders``, is solved.
    Otherwise every tuple of ``partition_iter`` is, within its cap.
    """
    if problem.offsets is not None:
        tuples = [structure.leaders]
    else:
        tuples = partition_iter(structure)
    a_star = best = None
    for a in tuples:
        res = solve(a)
        if best is None or res[0] < best[0] - 1e-12:
            a_star, best = tuple(a), res
    return a_star, best
