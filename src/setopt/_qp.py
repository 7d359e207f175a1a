"""Small convex quadratic programs in numpy and plain Python floats.

``min_norm_point`` is the min-norm point of the convex hull of a few rows,
by Wolfe's algorithm (Wolfe 1976).  Its corral, the rows whose affine hull
holds the current point, has at most n + 1 members, so the affine solves
are done by hand, in Python floats.  No call here goes through
``numpy.linalg``.  The Gram matrix of at most ``_GRAM_ROWS`` rows is
``np.vecdot`` of the rows: with the BLAS product ``rows @ rows.T`` the peak
RSS of a trust-region perfbench worker read ~0.15 MB higher.  The only
other array product is ``rows @ x``, and a test wants the same bytes from
``subproblem.first_order`` at 1 and 2 BLAS threads.
"""

from __future__ import annotations

import math
from operator import mul, sub

import numpy as np

# at most this many major cycles per row, then RuntimeError: Wolfe's
# algorithm is finite, and the rows that first_order and Cone pass need a
# few cycles in all
_CAP_PER_ROW = 30
# Wolfe's Z1 test: x is optimal when |x|^2 - r_j.x <= _TOL max(|x|^2, |r_j|^2)
_TOL = 1e-14
# a new corral member whose distance to the affine hull of the others is
# below sqrt(_DEPENDENT) times its distance to the base member is dependent
_DEPENDENT = 1e-30
# up to this many rows the oracle reads the Gram matrix as Python floats
_GRAM_ROWS = 8
# rows whose squares sum outside this range are first scaled by a power of 2
_TINY, _HUGE = 2.0 ** -600, 2.0 ** 600


def _affine_weights(P: list) -> list | None:
    """Weights, summing to 1, of the min-norm point of the affine hull of
    the points P (lists of floats), or None when the points are affinely
    dependent to working precision.

    The differences to P[0] are orthogonalised by modified Gram-Schmidt
    without normalising, D = M V with M unit lower triangular, so the
    conditioning is that of D, not of D D^T.  With V's rows orthogonal
    the minimiser is P[0] + sum_j g_j v_j, g_j = -v_j.res_j / |v_j|^2, and
    the weights of the differences solve M^T beta = g."""
    b = P[0]
    if len(P) == 2:
        d = list(map(sub, P[1], b))
        dd = sum(map(mul, d, d))
        if not dd > 0.0:
            return None
        beta = -sum(map(mul, d, b)) / dd
        return [1.0 - beta, beta]
    if len(P) == 3:  # the loop's steps written out, for the most frequent corral above two
        d1, d2 = list(map(sub, P[1], b)), list(map(sub, P[2], b))
        a11 = sum(map(mul, d1, d1))
        if not a11 > 0.0:
            return None
        m = sum(map(mul, d1, d2)) / a11
        v = [y - m * x for x, y in zip(d1, d2)]
        vv = sum(map(mul, v, v))
        if not vv > _DEPENDENT * sum(map(mul, d2, d2)):
            return None
        g1 = -sum(map(mul, d1, b)) / a11
        g2 = -sum(map(mul, v, [u + g1 * w for u, w in zip(b, d1)])) / vv
        return [1.0 - g1 + m * g2 - g2, g1 - m * g2, g2]
    V, M, g = [], [], []
    res = b
    for p in P[1:]:
        v = list(map(sub, p, b))
        size = sum(map(mul, v, v))
        mu = []
        for w, ww in V:
            m = sum(map(mul, w, v)) / ww
            v = [a - m * c for a, c in zip(v, w)]
            mu.append(m)
        vv = sum(map(mul, v, v))
        if not vv > _DEPENDENT * size:
            return None
        gj = -sum(map(mul, v, res)) / vv
        res = [a + gj * c for a, c in zip(res, v)]
        V.append((v, vv))
        M.append(mu)
        g.append(gj)
    beta = g
    for i in reversed(range(len(beta))):
        for m in range(i + 1, len(beta)):
            beta[i] -= M[m][i] * beta[m]
    return [1.0 - sum(beta)] + beta


def _combine(lam: list, P: list) -> list:
    """sum_i lam_i P_i; of two points, P_0 + lam_1 (P_1 - P_0)."""
    if len(P) == 1:
        return P[0]
    if len(P) == 2:
        beta = lam[1]
        return [a + beta * (b - a) for a, b in zip(*P)]
    return [sum(map(mul, lam, c)) for c in zip(*P)]


def _rescaled(R: np.ndarray) -> np.ndarray:
    """``min_norm_point`` of rows whose squares overflow or underflow: non-
    finite rows raise ValueError, else the rows are scaled by the power of
    2 that brings their largest entry into [1/2, 1), which is exact."""
    R = np.asarray_chkfinite(R)
    if not R.any():
        return np.zeros(R.shape[1])
    e = math.frexp(float(np.abs(R).max()))[1]
    return math.ldexp(1.0, e) * min_norm_point(np.ldexp(R, -e))


def min_norm_point(rows) -> np.ndarray:
    """The point of least 2-norm in the convex hull of the rows of a (k, n)
    array (Wolfe 1976).

    One row is the answer, and two rows a segment in closed form.  Wolfe's
    algorithm starts at a row of least norm (at row 0 above ``_GRAM_ROWS``
    rows) and keeps a corral of affinely independent rows whose weights
    are positive.  Each major cycle takes the row r_j that minimises r_j.x
    (``rows @ x``, read from the Gram matrix up to ``_GRAM_ROWS`` rows),
    stops by the Z1 test, and else adds r_j and moves to the least-norm
    point of the corral's affine hull; while a weight of that point is not
    positive, a minor cycle moves toward it only as far as the corral's
    convex hull reaches and drops the row whose weight reaches 0.  A cycle
    that would not lower |x| or meets a dependent corral ends the run at
    the point before it, so round-off cannot make it cycle.  Non-finite
    rows raise ValueError, and needing more than ``_CAP_PER_ROW`` major
    cycles per row RuntimeError.
    """
    R = np.asarray(rows, dtype=np.float64)
    k = len(R)
    if k <= 2:
        if k == 1:
            return np.asarray_chkfinite(R)[0].copy()
        a, b = R.tolist()
        d = list(map(sub, a, b))
        dd = sum(map(mul, d, d))
        # |b| + |d| >= |a|, so after _rescaled one of the two is at least 1/4
        if not _TINY <= dd + sum(map(mul, b, b)) <= _HUGE:
            return _rescaled(R)
        if dd == 0.0:
            return R[1].copy()
        lam = min(max(-sum(map(mul, b, d)) / dd, 0.0), 1.0)
        return np.array([lam * u + (1.0 - lam) * v for u, v in zip(a, b)])
    gram = k <= _GRAM_ROWS
    if gram:
        Rl = R.tolist()
        G = np.vecdot(R[:, None], R).tolist()
        norms = [G[i][i] for i in range(k)]
        total = sum(norms)
        i = norms.index(min(norms))
        vals = G[i]
    else:
        total = float(np.vdot(R, R))
        i = 0
    if not _TINY <= total <= _HUGE:
        return _rescaled(R)
    x = Rl[i] if gram else R[0].tolist()
    xx = sum(map(mul, x, x))
    S, P, lam = [i], [x], [1.0]
    for _ in range(_CAP_PER_ROW * k):
        if gram:
            vj = min(vals)
            j = vals.index(vj)
            r = Rl[j]
            rr = norms[j]
        else:
            vals = R.dot(x)
            j = int(vals.argmin())
            vj = float(vals[j])
            r = R[j].tolist()
            rr = sum(map(mul, r, r))
        if xx - vj <= _TOL * max(xx, rr) or j in S:
            break
        before = S, P, lam
        S, P, lam = S + [j], P + [r], lam + [0.0]
        while True:
            alpha = _affine_weights(P)
            if alpha is None or min(alpha) > 0.0:
                break
            theta, drop = math.inf, 0
            for q, (l, a) in enumerate(zip(lam, alpha)):
                if a <= 0.0 and l / (l - a) < theta:
                    theta, drop = l / (l - a), q
            lam = [l + theta * (a - l) for l, a in zip(lam, alpha)]
            lam[drop] = 0.0
            keep = [q for q, l in enumerate(lam) if l > 0.0]
            S, P, lam = [S[q] for q in keep], [P[q] for q in keep], [lam[q] for q in keep]
        if alpha is None:
            S, P, lam = before
            break
        lam = alpha
        x_new = _combine(lam, P)
        xx_new = sum(map(mul, x_new, x_new))
        if not xx_new < xx:
            S, P, lam = before
            break
        x, xx = x_new, xx_new
        if gram:
            vals = _combine(lam, [G[i] for i in S])
    else:
        raise RuntimeError("min_norm_point reached its iteration cap")
    return np.array(x)
