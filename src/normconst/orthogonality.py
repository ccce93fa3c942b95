"""Isosceles orthogonality: the defect of a pair and the row-wise unit partner search.

Two vectors are isosceles orthogonal when ``||x + y|| == ||x - y||``.
Everything here works relative to a :class:`~normconst.spaces.NormedSpace`;
the relation is symmetric in (x, y) and stable under simultaneous sign
flips, but it is not homogeneous, so rescaling one side of a pair breaks it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .spaces import NormedSpace, _guarded_norms, _validated_rows


def iso_defect(space: NormedSpace, x: Sequence[float], y: Sequence[float]) -> float:
    """Signed defect ``||x + y|| - ||x - y||``; zero means isosceles orthogonal."""
    xr = _validated_rows(space, x)[0]
    yr = _validated_rows(space, y)[0]
    both = np.stack([xr + yr, xr - yr])
    s, d = _guarded_norms(space, both)
    return float(s - d)


# A row's partner search stops once its defect is within this of zero.
_DEFECT_TOL = 4.0 * np.finfo(float).eps

# A row takes a bisection step while its bracket is wider than bisection's
# bracket from this many steps earlier, so it is never wider than
# bisection's from one step more than this earlier.
_BISECTION_SLACK = 8


def _iso_partner_rows(space: NormedSpace, X1: np.ndarray, W: np.ndarray,
                      iters: int = 70) -> np.ndarray:
    """Row-wise unit partners X2 with X1 row isosceles orthogonal to X2 row.

    Walks the arc phi -> normalize(cos(phi) X1 + sin(phi) W) from X1 (defect
    +2) to -X1 (defect -2) and finds the sign change by regula falsi in the
    Anderson-Bjorck form.  A row's bracket is (a, b) with b its newest point;
    each step evaluates the secant root c of the bracket.  If c's defect has
    the sign of b's, a stays and its defect is scaled by 1 - f(c) / f(b) (by
    1/2 where that is not positive), so that a stale end does not hold the
    secant on one side; otherwise b becomes the new a.  A row bisects
    instead when the secant point is not strictly inside its bracket, or
    when its bracket is wider than bisection's was ``_BISECTION_SLACK`` steps
    earlier.  W rows must not be parallel to X1 rows.

    A row stops when its defect is within ``_DEFECT_TOL`` of zero or no
    float lies strictly inside its bracket; ``iters`` caps the steps.  Each
    row returns the evaluated partner with the smallest ``|defect|`` (X1's
    row when ``iters`` is 0).
    """
    out = np.empty_like(X1)
    rows = np.arange(X1.shape[0])
    a = np.full(rows.size, 1e-9)
    b = np.full(rows.size, math.pi - 1e-9)
    fa = np.full(rows.size, 2.0)       # the end defects, known without evaluation
    fb = np.full(rows.size, -2.0)
    width = 2.0 ** _BISECTION_SLACK * math.pi
    best = np.full(rows.size, np.inf)
    Xa, Wa, Cbest = X1, W, X1.copy()
    for _ in range(iters):
        if rows.size == 0:
            break
        phi = b - fb * (b - a) / (fb - fa)
        bisect = ~((phi - a) * (phi - b) < 0.0) | (np.abs(b - a) > width)
        phi[bisect] = 0.5 * (a[bisect] + b[bisect])
        width *= 0.5
        C = np.cos(phi)[:, None] * Xa + np.sin(phi)[:, None] * Wa
        C /= space.norm_rows(C)[:, None]
        g = space.norm_rows(Xa + C) - space.norm_rows(Xa - C)
        ag = np.fmin(np.abs(g), np.inf)     # a NaN defect ranks last
        better = ag <= best
        best[better] = ag[better]
        Cbest[better] = C[better]
        same = (g > 0.0) == (fb > 0.0)
        m = 1.0 - g / fb
        fa = np.where(same, np.where(m > 0.0, m, 0.5) * fa, fb)
        a = np.where(same, a, b)
        b, fb = phi, g
        done = (ag <= _DEFECT_TOL) | (np.nextafter(a, b) == b)
        if done.any():
            out[rows[done]] = Cbest[done]
            keep = ~done
            rows, a, b, fa, fb, best, Xa, Wa, Cbest = (
                v[keep] for v in (rows, a, b, fa, fb, best, Xa, Wa, Cbest))
    out[rows] = Cbest
    return out
