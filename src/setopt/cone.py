"""Polyhedral ordering cones and their scalarization.

A cone is described by the normals of its dual halfspaces,
``K = {y : w_j^T y >= 0 for all j}``.  The scalarization
``scalarize(y) = max_j w_j^T y`` is a signed distance to ``-K``: negative
inside, zero on the boundary, positive outside.  With each ``w_j``
normalized to unit 1-norm it is 1-Lipschitz in the sup norm, and for the
nonnegative orthant (``w_j = e_j``) it reduces to the max-coordinate
function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._scipy_core import min_norm_point


class ConeError(ValueError):
    """The given dual normals do not describe a usable ordering cone."""


@dataclass(frozen=True)
class Cone:
    """Closed convex pointed solid polyhedral cone in R^m.

    Parameters
    ----------
    dual_normals : array_like, shape (q, m)
        Halfspace normals; each row is rescaled to unit 1-norm.

    Construction verifies that the cone is solid (some y has
    ``w_j^T y > 0`` for every j: by Gordan's alternative, when the min-norm
    point of conv(w_j) has norm above 1e-9) and pointed (``w_j^T y = 0``
    for all j only at y = 0, i.e. the normals span R^m).
    """

    dual_normals: np.ndarray

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.dual_normals, dtype=float))
        if w.ndim != 2 or w.size == 0:
            raise ConeError("dual_normals must be a nonempty (q, m) array")
        norms = np.abs(w).sum(axis=1)
        if np.any(norms == 0.0) or not np.all(np.isfinite(w)):
            raise ConeError("each dual normal must be finite and nonzero")
        w = w / norms[:, None]
        w.setflags(write=False)
        object.__setattr__(self, "dual_normals", w)
        if np.linalg.matrix_rank(w) < self.m:
            raise ConeError("cone is not pointed: dual normals do not span R^m")
        if np.linalg.norm(min_norm_point(w)) <= 1e-9:
            raise ConeError("cone has empty interior under the given normals")

    @property
    def m(self) -> int:
        return self.dual_normals.shape[1]

    def scalarize(self, y) -> float:
        """Signed distance of y to -K: ``max_j w_j^T y``."""
        return float(np.max(self.dual_normals @ np.asarray(y, dtype=float)))

    def scalarize_rows(self, ys: np.ndarray) -> np.ndarray:
        """Scalarize each row of a (N, m) array at once.

        ``np.matvec`` gives each row the bits of ``scalarize`` on it alone;
        ``ys @ W.T`` need not, away from the orthant.
        """
        return np.max(np.matvec(self.dual_normals, np.asarray(ys, dtype=float)), axis=-1)

    def to_json(self) -> str:
        return json.dumps({"dual_normals": self.dual_normals.tolist()})

    @staticmethod
    def from_json(text: str) -> "Cone":
        data = json.loads(text)
        return Cone(np.asarray(data["dual_normals"], dtype=float))


def orthant(m: int) -> Cone:
    """The nonnegative orthant of R^m; scalarize is the max coordinate."""
    return Cone(np.eye(m))


def k2prime() -> Cone:
    """Wedge {y in R^2_+ : y2 <= 3 y1 and y1 <= 3 y2}."""
    return Cone(np.array([[3.0, -1.0], [-1.0, 3.0]]))


_PRESETS = {"k2prime": k2prime}


def preset(name: str) -> Cone:
    """Resolve a named cone: ``orthant:m`` or ``k2prime``."""
    if name.startswith("orthant:"):
        return orthant(int(name.split(":", 1)[1]))
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ConeError(f"unknown cone preset {name!r}") from None
