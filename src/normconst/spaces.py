"""Finite-dimensional real normed spaces.

Three families are supported:

* ``lp``     -- classical p-norms with exponent ``q`` in [1, inf].  The
  max norm is selected by the distinguished value ``math.inf``, never by
  a large finite exponent.
* ``wlp``    -- weighted p-norms with strictly positive weights.
* ``poly2d`` -- the Minkowski gauge of a centrally symmetric, strictly
  convex-positioned polygon in the plane.

Scalar helpers (:func:`norm`, :func:`unit_vector`) validate their input
and accept any real coordinate sequence.  The ``norm_rows`` batch form
used by the search engines operates on ``(n, dim)`` float arrays without
per-call validation; the scalar path delegates to it, so both paths give
the same bits wherever the batch form's power sum stays in the normal
range.  A p-norm above ``_SCALED_Q`` is scaled by each row's largest
entry, so it neither overflows nor underflows; below it, only the scalar
helpers scale a row whose power sum leaves the normal range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

Vector = tuple[float, ...]

TWO_PI = 2.0 * math.pi

# Sign-vector enumeration of max-norm extreme points is exponential in the
# dimension; refuse beyond this cap instead of silently exploding.
MAX_SIGN_ENUM_DIM = 16

# p-norms with q above this cut are scaled by each row's largest entry m.
# At q <= 64 a row whose largest entry lies in [2^-15, 2^15] keeps its
# plain power sum in the normal range: the largest power lies in
# [2^-960, 2^960], and dim such powers sum below 2^1024 for dim < 2^64.
# At q = 2000 a row as small as (2, 1) already overflows.
_SCALED_Q = 64.0


class Region(Enum):
    """Domain selector for pair suprema: unit sphere or unit ball."""

    SPHERE = "sphere"
    BALL = "ball"


class SpaceError(ValueError):
    """Invalid space definition, descriptor, or evaluation argument."""


@dataclass(frozen=True, eq=False)
class NormedSpace:
    """A finite-dimensional real normed space.

    Instances are immutable and should be built through :func:`lp_space`,
    :func:`weighted_lp_space`, :func:`make_polyhedral_2d`, or
    :func:`parse_space`.
    """

    kind: str                                   # "lp" | "wlp" | "poly2d"
    dim: int
    q: float | None = None                      # exponent, math.inf for max norm
    weights: tuple[float, ...] | None = None    # wlp only
    vertices: tuple[Vector, ...] | None = None  # poly2d only, canonical order
    # Derived polygon data (sector lookup tables: vertex angles and the two
    # columns of each sector's functional), filled in by the factory.
    _angles: np.ndarray | None = field(default=None, repr=False)
    _fx: np.ndarray | None = field(default=None, repr=False)
    _fy: np.ndarray | None = field(default=None, repr=False)
    _w: np.ndarray | None = field(default=None, repr=False)
    # (m, flips): the rotation by 2 pi / m is an isometry, and so are both
    # sign flips if flips; filled in by the factory, read by isometry_domain
    _symmetry: tuple[int, bool] = field(default=(1, False), repr=False)

    def norm_rows(self, V: np.ndarray) -> np.ndarray:
        """Norms of the rows of a ``(n, dim)`` float array. No validation."""
        if self.kind == "poly2d":
            return _poly_gauge_rows(self, V)
        A = np.abs(V)
        if self.kind == "wlp":
            A = A * self._w
        q = self.q
        # in dimension 2 each reduction is a two-term expression: A is
        # non-negative, so it has the same bits, without a reduction call
        two = self.dim == 2
        if q == math.inf:
            return np.maximum(A[..., 0], A[..., 1]) if two else A.max(axis=-1)
        if q > _SCALED_Q:
            return _scaled_norms(A, q)
        S = A if q == 1.0 else A * A if q == 2.0 else A ** q
        S = S[..., 0] + S[..., 1] if two else S.sum(axis=-1)
        return S if q == 1.0 else np.sqrt(S) if q == 2.0 else S ** (1.0 / q)

    def __str__(self) -> str:
        return descriptor(self)


def _scaled_norms(A: np.ndarray, q: float) -> np.ndarray:
    """p-norms of the rows of the non-negative array ``A`` scaled by each
    row's largest entry m: m (1 + sum_{i != argmax} r_i^q)^(1/q), r_i =
    A_i / m (Blue 1978, the ``dnrm2`` approach; Higham, *Accuracy and
    Stability of Numerical Algorithms*, section 27), computed as m times
    the row sum of r_i^q to the power 1/q, the argmax's term exactly 1.
    In 2-D the two columns are combined without a reduction call, as on
    the plain path, with the reduction's bits.  The d-D form gives the
    same bits at dim = 2, but its row max and count over two columns cost
    384 us per 4096 rows at q = 2000 against 29 us here, and ``gamma_p``
    on ``lp:q=2000,dim=2`` 20.1 ms of CPU against 5.6 ms (interleaved,
    best of 35 and of 7; 2-vCPU Xeon, numpy 2.4.6).

    Only a row with some r_i >= cut = (2^-53 / (dim - 1))^(1/q), i != argmax
    (0.982 at q = 2000 in 2-D), computes its powers.  Every other row is
    m, and at q >= 2 bit for bit what the formula gives it: its other
    terms sum below 2^-53 (up to rounding), so the row sum rounds to 1, or
    to 1 + 2^-52 where rounding tips it, and either to the power 1/q
    rounds to 1.  A zero row (r = 0/0), a row with an infinite entry
    (m = inf) and a row with a NaN (m = NaN) have no r_i >= cut, so they
    are m, as they are on the plain path.
    """
    dim = A.shape[-1]
    cut = (2.0 ** -53 / (dim - 1)) ** (1.0 / q)
    if dim == 2:
        m = np.maximum(A[..., 0], A[..., 1])
        with np.errstate(invalid="ignore"):
            r = np.minimum(A[..., 0], A[..., 1]) / m
        big = r >= cut
        m[big] *= (1.0 + r[big] ** q) ** (1.0 / q)
        return m
    m = A.max(axis=-1)
    with np.errstate(invalid="ignore"):
        R = A / m[..., None]
    big = np.count_nonzero(R >= cut, axis=-1) > 1    # the argmax's r is 1
    m[big] *= (R[big] ** q).sum(axis=-1) ** (1.0 / q)
    return m


def _poly_gauge_rows(space: NormedSpace, V: np.ndarray) -> np.ndarray:
    # Sector lookup: binary search over vertex angles, then the precomputed
    # linear functional of that sector.  For v in the sector spanned by
    # consecutive vertices p, q the gauge is a + b where a*p + b*q = v; the
    # map v -> a + b is linear per sector, so one dot product suffices.
    # (an angle before the first vertex's gets index -1: the last sector)
    # Each column is gathered by a 1-D take: a (n, 2) row gather costs
    # several times as much, for the same bits.
    theta = np.arctan2(V[..., 1], V[..., 0])
    k = space._angles.searchsorted(theta, side="right") - 1
    return space._fx.take(k) * V[..., 0] + space._fy.take(k) * V[..., 1]


# ---------------------------------------------------------------------------
# constructors


def lp_space(q: float, dim: int) -> NormedSpace:
    """The space R^dim under the p-norm with exponent ``q`` (inf for max)."""
    q = float(q)
    _check_exponent(q)
    _check_dim(dim)
    return NormedSpace(kind="lp", dim=int(dim), q=q, _symmetry=(4, True))


def weighted_lp_space(q: float, weights: Sequence[float]) -> NormedSpace:
    """Weighted p-norm (sum_i (w_i |v_i|)^q)^(1/q); max_i w_i |v_i| for q=inf."""
    q = float(q)
    _check_exponent(q)
    w = tuple(float(x) for x in weights)
    _check_dim(len(w))
    if any(not math.isfinite(x) or x <= 0.0 for x in w):
        raise SpaceError("weights must be finite and strictly positive")
    return NormedSpace(kind="wlp", dim=len(w), q=q, weights=w, _w=np.asarray(w, dtype=float),
                       _symmetry=(2, True))


def make_polyhedral_2d(vertices: Iterable[Sequence[float]]) -> NormedSpace:
    """Gauge of a symmetric convex polygon given by its vertex set.

    The input may list vertices in any order but must contain every
    vertex explicitly; no symmetry closure is applied.  Requirements:
    at least 4 vertices, central symmetry (v in V implies -v in V),
    origin strictly inside, strictly convex position (no duplicate or
    collinear vertices).
    """
    pts = [(float(v[0]), float(v[1])) for v in vertices]
    if len(pts) < 4:
        raise SpaceError("polyhedral space needs at least 4 vertices")
    if any(not (math.isfinite(x) and math.isfinite(y)) for x, y in pts):
        raise SpaceError("polygon vertices must be finite")
    scale = max(max(abs(x), abs(y)) for x, y in pts)
    if scale == 0.0:
        raise SpaceError("polygon vertices must be nonzero")
    # tables from the vertices times 2^-e, in [-1, 1): exact in the normal
    # range, so no square overflows and no determinant underflows
    e = math.frexp(scale)[1]
    scale = math.ldexp(scale, -e)
    pairs = [((math.ldexp(x, -e), math.ldexp(y, -e)), (x, y)) for x, y in pts]
    sym_tol = 1e-9 * scale
    for (x, y), raw in pairs:
        if not any(abs(x + u) <= sym_tol and abs(y + v) <= sym_tol for (u, v), _ in pairs):
            raise SpaceError(f"vertex set is not centrally symmetric: missing -{raw}")

    pairs.sort(key=lambda pr: (math.atan2(pr[0][1], pr[0][0]), pr[0][0] ** 2 + pr[0][1] ** 2))
    pts = [unit for unit, _ in pairs]
    n = len(pts)
    cross_tol = 1e-12 * scale * scale
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        if ax * by - ay * bx <= cross_tol:
            raise SpaceError("vertices must surround the origin in strictly convex position")
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        cx, cy = pts[(i + 2) % n]
        if (bx - ax) * (cy - by) - (by - ay) * (cx - bx) <= cross_tol:
            raise SpaceError("polygon has duplicate or collinear vertices")

    angles = np.array([math.atan2(y, x) for x, y in pts])
    funcs = np.empty((2, n))
    for i in range(n):
        px, py = pts[i]
        qx, qy = pts[(i + 1) % n]
        det = px * qy - py * qx
        funcs[0, i] = (qy - py) / det
        funcs[1, i] = (px - qx) / det

    # A candidate map is an isometry when it takes every vertex to within 32
    # ulps of the scale of a vertex: the rounding of a regular polygon's table
    # (at most 26 ulps up to 78 sides, any phase), not sym_tol.
    P = np.array(pts)

    def holds(a: float, b: float, c: float, d: float) -> bool:
        G = P @ np.array([[a, b], [c, d]]).T
        return bool((abs(G[:, None] - P).max(axis=2).min(axis=1) <= 32 * math.ulp(scale)).all())

    cos, sin = math.cos(TWO_PI / n), math.sin(TWO_PI / n)
    flips = holds(1, 0, 0, -1) and holds(-1, 0, 0, 1)
    order = (n if holds(cos, -sin, sin, cos) else 4 if flips and holds(0, 1, 1, 0)
             else 2 if holds(-1, 0, 0, -1) else 1)
    with np.errstate(over="ignore"):
        funcs = np.ldexp(funcs, -e)
    if not np.isfinite(funcs).all():
        raise SpaceError("polygon is too small: its gauge overflows")
    return NormedSpace(kind="poly2d", dim=2, vertices=tuple(raw for _, raw in pairs),
                       _angles=angles, _fx=funcs[0], _fy=funcs[1], _symmetry=(order, flips))


def regular_polygon_space(sides: int, phase: float = 0.0) -> NormedSpace:
    """Gauge of the regular polygon with the given even number of sides."""
    if sides < 4 or sides % 2 != 0:
        raise SpaceError("a symmetric regular polygon needs an even number of sides, at least 4")
    verts = [
        (math.cos(TWO_PI * k / sides + phase), math.sin(TWO_PI * k / sides + phase))
        for k in range(sides)
    ]
    return make_polyhedral_2d(verts)


def _check_exponent(q: float) -> None:
    if math.isnan(q) or q < 1.0:
        raise SpaceError(f"norm exponent must satisfy q >= 1 (or inf), got {q}")


def _check_dim(dim: int) -> None:
    if int(dim) != dim or dim < 2:
        raise SpaceError(f"dimension must be an integer >= 2, got {dim}")


# ---------------------------------------------------------------------------
# evaluation


def _validated_rows(space: NormedSpace, v: Sequence[float]) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != space.dim:
        raise SpaceError(f"expected a vector of dimension {space.dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SpaceError("vector entries must be finite")
    return arr.reshape(1, -1)


def _guarded_norms(space: NormedSpace, rows: np.ndarray) -> np.ndarray:
    """``norm_rows`` of a few validated rows, except that at 1 < q <=
    ``_SCALED_Q`` a nonzero row whose plain power sum S is 0, subnormal or
    inf takes the scaled path (at q = 1 the plain sum is the norm).  S <
    tiny reads off the norm as norm < tiny^(1/q), up to rounding, and S =
    inf as norm = inf.  The batch path keeps no such guard: per call it
    cost the search engines 10-25%, where on a few rows it costs nothing."""
    q = space.q
    if space.kind == "poly2d" or not 1.0 < q <= _SCALED_Q:
        return space.norm_rows(rows)
    with np.errstate(over="ignore", under="ignore"):
        out = space.norm_rows(rows)
    low = (out < np.finfo(float).tiny ** (1.0 / q)) & (rows != 0.0).any(axis=-1)
    off = low | (out == math.inf)
    if off.any():
        A = np.abs(rows[off])
        out[off] = _scaled_norms(A * space._w if space.kind == "wlp" else A, q)
    return out


def norm(space: NormedSpace, v: Sequence[float]) -> float:
    """Norm of one vector, with input validation, at any finite scale."""
    return float(_guarded_norms(space, _validated_rows(space, v))[0])


def unit_vector(space: NormedSpace, v: Sequence[float]) -> Vector:
    """Rescale ``v`` onto the unit sphere of the space."""
    row = _validated_rows(space, v)
    n = float(_guarded_norms(space, row)[0])
    if n == 0.0:
        raise SpaceError("cannot normalize the zero vector")
    return tuple(float(x) for x in row[0] / n)


def isometry_domain(space: NormedSpace, resolution: int) -> np.ndarray:
    """The indices k of one fundamental domain of the angle grid
    k * 2 pi / resolution of a 2-D space under its linear isometries that
    map the grid onto itself: every grid angle is the image of one of them
    under such an isometry.

    ``lp`` with q = 2 has every rotation, so k = 0 alone, at any resolution.
    Every other space records at construction the order m of a rotation by
    2 pi / m that is an isometry, and whether both sign flips are: ``lp``
    m = 4 with the flips, its 8 signed permutations (Lamperti 1958);
    ``wlp`` m = 2 with the flips; ``poly2d`` what -x, the flips, the
    coordinate swap and the rotation by 2 pi / n (n vertices) give where
    they hold on its vertex table to rounding (the regular hexagon with a
    vertex at (1, 0): m = 6 with the flips, its dihedral group of order
    12).  One rule table then applies, first match:

    * the sign flips with the rotation by 2 pi / m, the dihedral group of
      order 2m: 0 <= k <= resolution / 2m when 2m divides resolution;
    * the sign flips: 0 <= k <= resolution / 4 when 4 divides resolution;
    * the rotations by 2 pi / m alone: k < resolution / m when m divides
      resolution (a polygon rotated off its axes has no flips);
    * -x: k < resolution / 2 when resolution is even;
    * otherwise the whole grid.

    Sign flips and coordinate swaps leave an ``lp`` or ``wlp`` norm the same
    bit for bit; a rotated or reflected grid point, or a polygon's map,
    matches its grid point to rounding.
    """
    if space.kind == "lp" and space.q == 2.0:
        return np.arange(1)
    order, flips = space._symmetry
    if flips and resolution % (2 * order) == 0:
        return np.arange(resolution // (2 * order) + 1)
    if flips and resolution % 4 == 0:
        return np.arange(resolution // 4 + 1)
    if resolution % order == 0:
        return np.arange(resolution // order)
    if order % 2 == 0 and resolution % 2 == 0:
        return np.arange(resolution // 2)
    return np.arange(resolution)


def supports_extreme_points(space: NormedSpace) -> bool:
    """True when the unit ball has a finite, enumerable extreme-point set."""
    if space.kind == "poly2d":
        return True
    if space.q in (1.0, math.inf):
        return space.q == 1.0 or space.dim <= MAX_SIGN_ENUM_DIM
    return False


def extreme_points(space: NormedSpace) -> list[Vector]:
    """Extreme points of the unit ball, in a fixed canonical order.

    Available for polygonal spaces and for (possibly weighted) p-norms with
    q = 1 or q = inf.  Smooth p-norms have no finite extreme set and raise.
    """
    if space.kind == "poly2d":
        return [tuple(v) for v in space.vertices]
    w = space.weights if space.kind == "wlp" else (1.0,) * space.dim
    if space.q == 1.0:
        pts: list[Vector] = []
        for i in range(space.dim):
            e = [0.0] * space.dim
            e[i] = 1.0 / w[i]
            pts.append(tuple(e))
            e2 = list(e)
            e2[i] = -e2[i]
            pts.append(tuple(e2))
        return pts
    if space.q == math.inf:
        if space.dim > MAX_SIGN_ENUM_DIM:
            raise SpaceError(
                f"refusing to enumerate 2^{space.dim} extreme points (cap is dim <= {MAX_SIGN_ENUM_DIM})"
            )
        pts = []
        for mask in range(1 << space.dim):
            pts.append(tuple(
                (1.0 if not (mask >> (space.dim - 1 - i)) & 1 else -1.0) / w[i]
                for i in range(space.dim)
            ))
        return pts
    raise SpaceError(f"no finite extreme set for a smooth p-norm (q={_fmt_num(space.q)})")


# ---------------------------------------------------------------------------
# descriptors


def _fmt_num(x: float) -> str:
    if x == math.inf:
        return "inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def descriptor(space: NormedSpace) -> str:
    """Canonical one-line descriptor, parseable by :func:`parse_space`."""
    if space.kind == "lp":
        return f"lp:q={_fmt_num(space.q)},dim={space.dim}"
    if space.kind == "wlp":
        ws = ";".join(_fmt_num(w) for w in space.weights)
        return f"wlp:q={_fmt_num(space.q)},dim={space.dim},w={ws}"
    vs = ";".join(f"({_fmt_num(x)},{_fmt_num(y)})" for x, y in space.vertices)
    return f"poly2d:v={vs}"


def _parse_float(token: str, what: str) -> float:
    t = token.strip().lower()
    if t in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        return float(t)
    except ValueError:
        raise SpaceError(f"invalid {what}: {token!r}") from None


def _key_values(text: str, items: str, allowed, what: str,
                error: type[ValueError] = SpaceError) -> dict[str, str]:
    """The comma-separated ``key=value`` ``items`` of descriptor ``text``,
    stripped.  An item without ``=``, a repeated key and a key not in
    ``allowed`` are refused with ``error``, as ``what`` parameters."""
    params: dict[str, str] = {}
    for item in items.split(","):
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq:
            raise error(f"invalid {what} parameter: {item!r}")
        if key in params:
            raise error(f"repeated {what} parameter {key!r} in {text!r}")
        params[key] = val.strip()
    unknown = set(params) - set(allowed)
    if unknown:
        raise error(f"unknown {what} parameter(s): {sorted(unknown)}")
    return params


def parse_space(text: str) -> NormedSpace:
    """Build a space from a descriptor like ``lp:q=2,dim=3``.

    Accepted forms::

        lp:q=<exponent|inf>,dim=<n>
        wlp:q=<exponent|inf>,dim=<n>,w=<w1>;<w2>;...
        poly2d:v=(x1,y1);(x2,y2);...
    """
    kind, sep, rest = text.partition(":")
    kind = kind.strip()
    if not sep or kind not in ("lp", "wlp", "poly2d"):
        raise SpaceError(f"unknown space descriptor: {text!r}")
    if kind == "poly2d":
        if not rest.startswith("v="):
            raise SpaceError(f"poly2d descriptor must be poly2d:v=(x,y);... , got {text!r}")
        verts = []
        for chunk in rest[2:].split(";"):
            c = chunk.strip()
            if not (c.startswith("(") and c.endswith(")")):
                raise SpaceError(f"invalid vertex token: {chunk!r}")
            parts = c[1:-1].split(",")
            if len(parts) != 2:
                raise SpaceError(f"invalid vertex token: {chunk!r}")
            verts.append((_parse_float(parts[0], "vertex coordinate"),
                          _parse_float(parts[1], "vertex coordinate")))
        return make_polyhedral_2d(verts)

    params = _key_values(text, rest, {"lp": ("q", "dim"), "wlp": ("q", "dim", "w")}[kind],
                         "space")
    if "q" not in params or "dim" not in params:
        raise SpaceError(f"descriptor {text!r} must set q and dim")
    q = _parse_float(params["q"], "exponent q")
    try:
        dim = int(params["dim"])
    except ValueError:
        raise SpaceError(f"invalid dimension: {params['dim']!r}") from None
    if kind == "lp":
        return lp_space(q, dim)
    if "w" not in params:
        raise SpaceError("wlp descriptor must set w=<w1>;<w2>;...")
    weights = [_parse_float(t, "weight") for t in params["w"].split(";")]
    if len(weights) != dim:
        raise SpaceError(f"dim={dim} but {len(weights)} weights given")
    return weighted_lp_space(q, weights)
