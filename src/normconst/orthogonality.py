"""Isosceles orthogonality predicates, pair construction, and completion.

Two vectors are isosceles orthogonal when ``||x + y|| == ||x - y||``.
Everything here works relative to a :class:`~normconst.spaces.NormedSpace`;
the relation is symmetric in (x, y) and stable under simultaneous sign
flips, but it is not homogeneous, so rescaling one side of a pair breaks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spaces import NormedSpace, SpaceError, Vector, _validated_rows, norm

# Default relative tolerance for declaring a pair isosceles orthogonal.
ISO_TOL = 1e-9

# Pairs whose sum has norm at or below this are treated as degenerate by
# ratio-style objectives built on top of pair_from_sphere.
SUM_NORM_FLOOR = 1e-9


def iso_defect(space: NormedSpace, x: Sequence[float], y: Sequence[float]) -> float:
    """Signed defect ``||x + y|| - ||x - y||``; zero means isosceles orthogonal."""
    xr = _validated_rows(space, x)[0]
    yr = _validated_rows(space, y)[0]
    both = np.stack([xr + yr, xr - yr])
    s, d = space.norm_rows(both)
    return float(s - d)


def is_isosceles(space: NormedSpace, x: Sequence[float], y: Sequence[float],
                 tol: float = ISO_TOL) -> bool:
    """Whether the defect vanishes relative to max(||x||, ||y||, 1)."""
    scale = max(norm(space, x), norm(space, y), 1.0)
    return abs(iso_defect(space, x, y)) <= tol * scale


@dataclass(frozen=True)
class IsoPair:
    """An isosceles orthogonal pair together with its construction data."""

    x1: Vector
    x2: Vector
    defect: float     # residual ||x1+x2|| - ||x1-x2||
    sum_norm: float   # ||x1 + x2||


def pair_from_sphere(space: NormedSpace, u1: Sequence[float], u2: Sequence[float],
                     tol: float = 1e-9) -> IsoPair:
    """Isosceles pair (u1 + u2, u1 - u2) built from two unit vectors.

    For unit u1, u2 the pair is isosceles orthogonal because its sum and
    difference are 2*u1 and 2*u2, which share the norm 2.  Every isosceles
    pair with nonzero sum arises this way up to joint scaling, which makes
    this the canonical sampler for ratio-type suprema over such pairs.
    """
    a = _validated_rows(space, u1)[0]
    b = _validated_rows(space, u2)[0]
    na, nb = space.norm_rows(np.stack([a, b]))
    if abs(na - 1.0) > tol or abs(nb - 1.0) > tol:
        raise SpaceError(f"pair_from_sphere needs unit vectors, got norms {na!r}, {nb!r}")
    x1 = a + b
    x2 = a - b
    s, d = space.norm_rows(np.stack([x1 + x2, x1 - x2]))
    return IsoPair(tuple(float(t) for t in x1), tuple(float(t) for t in x2),
                   float(s - d), float(s))


def iso_complete(space: NormedSpace, x: Sequence[float], d: Sequence[float],
                 s_max: float = 1e6, tol: float = 1e-10, max_iter: int = 200) -> Vector:
    """Shift ``d`` along ``x`` until the result is isosceles orthogonal to ``x``.

    Returns ``y = d + s*x`` with ``iso_defect(space, x, y) ~ 0``.  The defect,
    as a function of s, is non-decreasing (a difference of a convex function
    of s over a sliding window) and changes sign towards +-infinity, so an
    outward bracket expansion from s = 0 followed by bisection always lands
    on a root.  The root need not be unique; the first bracketed one wins.
    """
    xr = _validated_rows(space, x)[0]
    dr = _validated_rows(space, d)[0]
    nx = float(space.norm_rows(xr.reshape(1, -1))[0])
    if nx == 0.0:
        raise SpaceError("x must be nonzero")
    # Reject d parallel to x: the line d + s*x then only meets the isosceles
    # relation at y = 0, which is not a usable completion.
    ex = xr / math.sqrt(float(xr @ xr))
    resid = dr - (dr @ ex) * ex
    if math.sqrt(float(resid @ resid)) <= 1e-12 * math.sqrt(float(dr @ dr)):
        raise SpaceError("direction d is parallel to x; no proper completion exists")

    def defect(s: float) -> float:
        y = dr + s * xr
        both = np.stack([xr + y, xr - y])
        a, b = space.norm_rows(both)
        return float(a - b)

    g0 = defect(0.0)
    if g0 == 0.0:
        return tuple(float(t) for t in dr)
    lo, hi = None, None
    step = 1.0
    if g0 > 0.0:
        hi, ghi = 0.0, g0
        while step <= s_max:
            if defect(-step) <= 0.0:
                lo = -step
                break
            step *= 2.0
    else:
        lo, glo = 0.0, g0
        while step <= s_max:
            if defect(step) >= 0.0:
                hi = step
                break
            step *= 2.0
    if lo is None or hi is None:
        raise SpaceError(f"no sign change of the defect within |s| <= {s_max}")

    scale = max(nx, float(space.norm_rows(dr.reshape(1, -1))[0]), 1.0)
    s_mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        s_mid = 0.5 * (lo + hi)
        g = defect(s_mid)
        if abs(g) <= tol * scale:
            break
        if g > 0.0:
            hi = s_mid
        else:
            lo = s_mid
    y = dr + s_mid * xr
    return tuple(float(t) for t in y)


# ---------------------------------------------------------------------------
# unit-norm isosceles pairs (used by the James/Schaffer style constants)


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


def unit_iso_partner(space: NormedSpace, x1: Sequence[float], w: Sequence[float]) -> Vector:
    """A unit vector isosceles orthogonal to unit ``x1``, reached from direction ``w``."""
    a = _validated_rows(space, x1)
    b = _validated_rows(space, w)
    C = _iso_partner_rows(space, a, b)
    return tuple(float(t) for t in C[0])
