"""Norm construction, gauge evaluation, extreme points, descriptors."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normconst.orthogonality import iso_defect
from normconst.search import parse_strategy
from normconst.spaces import (
    _SCALED_Q,
    MAX_SIGN_ENUM_DIM,
    TWO_PI,
    SpaceError,
    descriptor,
    extreme_points,
    isometry_domain,
    lp_space,
    make_polyhedral_2d,
    norm,
    parse_space,
    regular_polygon_space,
    supports_extreme_points,
    unit_vector,
    weighted_lp_space,
)

HEX = regular_polygon_space(6)
SQUARE = make_polyhedral_2d([(1, 1), (-1, 1), (-1, -1), (1, -1)])

finite_coord = st.floats(min_value=-50.0, max_value=50.0,
                         allow_nan=False, allow_infinity=False)
_MODERATE_COORD = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


def _vec(dim):
    return st.lists(finite_coord, min_size=dim, max_size=dim).map(tuple)


# independent oracle: gauge of a convex polygon by bisection on the scale
# factor, using only a point-in-polygon test
def _inside(verts, pt):
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        cross = (bx - ax) * (pt[1] - ay) - (by - ay) * (pt[0] - ax)
        if cross < -1e-12:
            return False
    return True


def _gauge_oracle(verts, pt):
    if pt == (0.0, 0.0):
        return 0.0
    lo, hi = 0.0, 1e-9
    while not _inside(verts, (pt[0] / hi, pt[1] / hi)):
        hi *= 2.0
        if hi > 1e12:
            raise AssertionError("unbounded gauge")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == 0.0 or not _inside(verts, (pt[0] / mid, pt[1] / mid)):
            lo = mid
        else:
            hi = mid
    return hi


def test_lp_norms_match_numpy():
    sp = lp_space(3, 4)
    v = (0.3, -1.2, 0.0, 2.5)
    assert norm(sp, v) == pytest.approx(np.linalg.norm(v, 3), rel=1e-14)
    assert norm(lp_space(1, 4), v) == pytest.approx(sum(abs(c) for c in v))
    assert norm(lp_space(math.inf, 4), v) == 2.5


def test_weighted_lp():
    sp = weighted_lp_space(2, (2.0, 0.5))
    assert norm(sp, (1.0, 0.0)) == pytest.approx(2.0)
    assert norm(sp, (0.0, 1.0)) == pytest.approx(0.5)
    assert sp.dim == 2


def test_hexagon_known_values():
    # vertex directions have gauge = euclidean radius; edge midpoints sit
    # closer to the origin
    assert norm(HEX, (1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert norm(HEX, (0.5, math.sqrt(3) / 2)) == pytest.approx(1.0, abs=1e-12)
    assert norm(HEX, (0.0, 1.0)) == pytest.approx(2.0 / math.sqrt(3), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(_vec(2))
def test_hexagon_gauge_matches_bisection_oracle(v):
    want = _gauge_oracle(HEX.vertices, (float(v[0]), float(v[1])))
    assert norm(HEX, v) == pytest.approx(want, abs=1e-9, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(_vec(3), _vec(3), st.floats(min_value=-8, max_value=8,
                                   allow_nan=False))
def test_norm_axioms_l3(x, y, lam):
    sp = lp_space(3, 3)
    nx, ny = norm(sp, x), norm(sp, y)
    xy = tuple(a + b for a, b in zip(x, y))
    assert norm(sp, xy) <= nx + ny + 1e-9 * (1 + nx + ny)
    lx = tuple(lam * a for a in x)
    assert norm(sp, lx) == pytest.approx(abs(lam) * nx, rel=1e-12, abs=1e-12)
    assert nx >= 0.0


@settings(max_examples=60, deadline=None)
@given(_vec(2), st.floats(min_value=-8, max_value=8, allow_nan=False))
def test_norm_axioms_polygon(x, lam):
    nx = norm(HEX, x)
    lx = (lam * x[0], lam * x[1])
    assert norm(HEX, lx) == pytest.approx(abs(lam) * nx, rel=1e-9, abs=1e-12)


def test_unit_vector():
    sp = lp_space(1, 2)
    u = unit_vector(sp, (3.0, -4.0))
    assert norm(sp, u) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(SpaceError):
        unit_vector(sp, (0.0, 0.0))


def test_extreme_points_square_and_cross():
    pts = extreme_points(lp_space(math.inf, 2))
    assert len(pts) == 4
    assert all(abs(a) == 1.0 and abs(b) == 1.0 for a, b in pts)
    pts1 = extreme_points(lp_space(1, 2))
    assert sorted(pts1) == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
    assert len(extreme_points(HEX)) == 6
    assert supports_extreme_points(SQUARE)
    assert not supports_extreme_points(lp_space(2, 2))
    with pytest.raises(SpaceError):
        extreme_points(lp_space(2, 2))


def test_extreme_points_dim_cap():
    with pytest.raises(SpaceError):
        extreme_points(lp_space(math.inf, MAX_SIGN_ENUM_DIM + 1))


def test_polygon_validation():
    with pytest.raises(SpaceError):
        make_polyhedral_2d([(1, 0), (0, 1), (-1, 0)])  # odd count
    with pytest.raises(SpaceError):
        make_polyhedral_2d([(1, 0), (0, 1), (-1, 0), (0, -2)])  # asymmetric
    with pytest.raises(SpaceError):
        # collinear midpoint breaks strict convexity of the vertex set
        make_polyhedral_2d([(1, 0), (1, 1), (-1, 0), (-1, -1), (0, -0.5),
                            (0, 0.5)])
    with pytest.raises(SpaceError, match="too small"):
        # subnormal vertices: the gauge of a unit vector is not finite
        make_polyhedral_2d([(x * 1e-310, y * 1e-310) for x, y in HEX.vertices])
    with pytest.raises(SpaceError):
        regular_polygon_space(5)
    with pytest.raises(SpaceError):
        lp_space(0.5, 2)
    with pytest.raises(SpaceError):
        lp_space(2, 1)
    with pytest.raises(SpaceError):
        weighted_lp_space(2, (1.0, -1.0))


def test_square_polygon_equals_linf():
    rng = np.random.default_rng(0)
    sp = lp_space(math.inf, 2)
    for v in rng.standard_normal((50, 2)):
        assert norm(SQUARE, v) == pytest.approx(norm(sp, v), rel=1e-12,
                                                abs=1e-12)


@pytest.mark.parametrize("sp", [lp_space(1, 2), lp_space(2, 3),
                                lp_space(math.inf, 2),
                                weighted_lp_space(3, (1.0, 2.0)), HEX])
def test_descriptor_roundtrip(sp):
    back = parse_space(descriptor(sp))
    rng = np.random.default_rng(1)
    for v in rng.standard_normal((25, sp.dim)):
        assert norm(back, v) == pytest.approx(norm(sp, v), rel=1e-12,
                                              abs=1e-12)


def test_parse_space_errors():
    for bad in ("nope:q=2", "lp:q=2", "lp:q=2,dim=2,extra=1",
                "lp:q=abc,dim=2", "poly2d:v=(1,0)", "",
                "lp:q=2,dim=2,dim=3", "lp:q=2,q=3,dim=2", "wlp:q=2,dim=2,w=1;2,w=1;3"):
        with pytest.raises((SpaceError, ValueError)):
            parse_space(bad)


@pytest.mark.parametrize("parse,error,text,what,other", [
    (parse_space, SpaceError, "lp:q=2,dim=2", "space", "res"),
    (parse_strategy, ValueError, "grid2d:res=64,refine=6", "grid2d", "dim"),
    (parse_strategy, ValueError, "multistart:starts=4,steps=9", "multistart", "res")])
def test_descriptor_items_refuse_no_equals_a_repeated_or_an_unknown_key(parse, error, text,
                                                                       what, other):
    # space and strategy descriptors share one key=value grammar
    head, key = text.split(":")[0], text.split(":")[1].split("=")[0]
    for bad, message in ((f"{head}:", f"invalid {what} parameter: ''"),
                         (f"{text},{key}", f"invalid {what} parameter: {key!r}"),
                         (f"{text},{key}=3",
                          f"repeated {what} parameter {key!r} in {text + f',{key}=3'!r}"),
                         (f"{text},{other}=3", f"unknown {what} parameter(s): [{other!r}]")):
        with pytest.raises(ValueError) as err:
            parse(bad)
        assert type(err.value) is error and str(err.value) == message


def test_norm_rows_batch_agrees_with_scalar():
    rng = np.random.default_rng(2)
    for sp in (lp_space(1, 2), lp_space(2.5, 2), HEX):
        V = rng.standard_normal((40, 2))
        rows = sp.norm_rows(V)
        for i in range(40):
            assert rows[i] == pytest.approx(norm(sp, V[i]), rel=1e-12)


def _axis_reduction_norms(space, V):
    # norm_rows as one numpy reduction over the last axis, in every dimension
    A = np.abs(V)
    if space.kind == "wlp":
        A = A * np.asarray(space.weights)
    q = space.q
    if q == math.inf:
        return A.max(axis=-1)
    if q > _SCALED_Q:
        return _full_scaled_norms(A, q)
    if q == 1.0:
        return A.sum(axis=-1)
    if q == 2.0:
        return np.sqrt((A * A).sum(axis=-1))
    return (A ** q).sum(axis=-1) ** (1.0 / q)


def _full_scaled_norms(A, q):
    # the scaled formula with every power computed: m (sum_i (A_i / m)^q)^(1/q),
    # m the row max, the argmax's term 1; a zero or infinite row is m
    m = A.max(axis=-1)
    with np.errstate(invalid="ignore"):
        S = ((A / m[..., None]) ** q).sum(axis=-1)
    return np.where((m == 0.0) | (m == math.inf), m, m * S ** (1.0 / q))


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 50.0, _SCALED_Q, 65.0, 2000.0, math.inf])
def test_dimension_2_norm_rows_match_the_axis_reduction(q):
    # dimension 2 sums and maxes two columns without a reduction call; the
    # bits must be the reduction's, over- and underflow included, and above
    # the scaled cut the bits of the scaled formula with every power computed
    rng = np.random.default_rng(int(q) if q < 1e9 else 9)
    special = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 1.0,
                        -1.5, 1e150, 1e200, -1.7976931348623157e308])
    pairs = np.array([(a, b) for a in special for b in special])
    scales = [1e-310, 1e-160, 1e-30, 1.0, 1e30, 1e160, 1e300]
    rows = [pairs] + [rng.standard_normal((n, 2)) * s for n in (1, 15, 4096) for s in scales]
    with np.errstate(over="ignore", under="ignore"):
        for space in (lp_space(q, 2), weighted_lp_space(q, (1.0, 2.0)),
                      weighted_lp_space(q, (3e-5, 7.0))):
            for V in rows:
                got = space.norm_rows(V)
                assert got.tobytes() == _axis_reduction_norms(space, V).tobytes()


# ------------------------------------------------ the scaled norms above the cut

_LARGE_Q = st.one_of(st.sampled_from([65.0, 100.0, 2000.0, 1e4]),
                     st.floats(_SCALED_Q, 1e5, exclude_min=True))
# moderate entries, zero included: s v stays in the normal range for s in
# [1e-300, 1e300]
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


def _rows(dim):
    return st.lists(st.lists(_ENTRY, min_size=dim, max_size=dim), min_size=1,
                    max_size=6).map(np.array)


def _large_q_space(q, dim, weighted):
    return weighted_lp_space(q, np.linspace(0.25, 4.0, dim)) if weighted else lp_space(q, dim)


@settings(max_examples=300, deadline=None)
@given(_LARGE_Q, st.integers(2, 8).flatmap(lambda d: st.tuples(st.just(d), _rows(d))),
       st.booleans(), st.floats(1e-300, 1e300))
@example(2000.0, (2, np.array([[2.0, 1.0], [1.0, 1.0]])), False, 1e300)
@example(2000.0, (2, np.array([[1.0, 1.0]])), False, 1e-300)
def test_large_q_norms_are_homogeneous_from_1e_300_to_1e300(q, dim_V, weighted, s):
    _, V = dim_V
    space = _large_q_space(q, V.shape[1], weighted)
    want = s * space.norm_rows(V)
    got = space.norm_rows(s * V)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 8 * np.spacing(want))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8).flatmap(lambda d: st.tuples(st.just(d), _rows(d))), st.booleans(),
       st.lists(st.one_of(st.floats(1.0, 1e5), st.sampled_from([_SCALED_Q, 65.0])),
                min_size=2, max_size=6))
def test_norms_are_non_increasing_in_q_and_at_least_the_max_norm(dim_V, weighted, qs):
    _, V = dim_V
    qs = sorted(qs)
    norms = [_large_q_space(q, V.shape[1], weighted).norm_rows(V) for q in qs]
    top = _large_q_space(math.inf, V.shape[1], weighted).norm_rows(V)

    def slack(q, n):
        # relative: 4 ulps, and on the plain path the rounding of 1/q, which
        # costs up to |ln S| 2^-53 for the power sum S = n^q
        eps = np.finfo(float).eps
        return 4 * eps + (q * np.abs(np.log(np.maximum(n, 1e-300))) * eps if q <= _SCALED_Q else 0)

    for q0, q, hi, lo in zip(qs, qs[1:], norms, norms[1:]):
        assert np.all(lo <= hi * (1 + slack(q0, hi) + slack(q, lo)))
        # m (1 + sum)^(1/q) >= m exactly above the cut; the plain path's
        # (m^q)^(1/q) may round below m
        assert np.all(lo >= top) if q > _SCALED_Q else np.all(lo >= top * (1 - slack(q, lo)))


@settings(max_examples=300, deadline=None)
@given(_LARGE_Q, st.integers(2, 8), st.booleans(), st.floats(1e-300, 1e300),
       st.lists(st.tuples(st.integers(0, 7), st.floats(-0.05, 0.05), st.integers(-8, 8)),
                min_size=1, max_size=24),
       st.integers(0, 2 ** 32 - 1))
def test_the_power_skip_is_exact_on_ratios_that_straddle_the_cut(q, dim, weighted, m, picks,
                                                                 seed):
    # entries m r with r within 5% (and 8 ulps) of 2^(-53/q) or of the
    # dimension's cut (2^-53 / (dim - 1))^(1/q): bitwise the formula with
    # every power computed
    space = _large_q_space(q, dim, weighted)
    cuts = (2.0 ** (-53.0 / q), (2.0 ** -53 / (dim - 1)) ** (1.0 / q))
    rng = np.random.default_rng(seed)
    V = np.full((len(picks), dim), m)
    for row, (col, rel, ulps) in zip(V, picks):
        r = cuts[col % 2] * (1.0 + rel) + ulps * math.ulp(cuts[col % 2])
        row[col % dim:] *= min(r, 1.0)
        row *= rng.choice([-1.0, 1.0], dim)
        rng.shuffle(row)
    A = np.abs(V) * (space._w if weighted else 1.0)
    assert space.norm_rows(V).tobytes() == _full_scaled_norms(A, q).tobytes()


def test_the_power_skip_counts_every_term_in_high_dimension():
    # 199 ratios just below 2^(-53/q) sum to about 93 ulps of 1, which the
    # power 1/q does not round away: the dimension's cut computes them
    q = 65.0
    V = np.full((1, 200), 0.999 * 2.0 ** (-53.0 / q))
    V[0, 0] = 1.0
    full = _full_scaled_norms(V, q)
    assert full[0] > 1.0
    assert lp_space(q, 200).norm_rows(V).tobytes() == full.tobytes()


@pytest.mark.parametrize("dim", range(2, 9))
def test_large_q_norms_keep_the_plain_paths_zero_inf_and_nan_rows(dim):
    # a row of zeros, ones, infinities and NaNs has the plain path's norm:
    # 0, (count of ones)^(1/q), inf or NaN
    specials = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(dim)
    V = specials[rng.integers(0, specials.size, (400, dim))]
    V[:specials.size] = specials[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        plain = (np.abs(V) ** 2000.0).sum(axis=-1) ** (1.0 / 2000.0)
    assert lp_space(2000, dim).norm_rows(V).tobytes() == plain.tobytes()


@pytest.mark.parametrize("space", [lp_space(1.5, 2), lp_space(2, 2), lp_space(3, 3),
                                   lp_space(50, 4), weighted_lp_space(2, (0.5, 3.0))],
                         ids=descriptor)
@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300])
def test_scalar_entry_points_take_the_scaled_path_at_extreme_scales(space, s):
    # where the plain power sum S stays normal, the rounding of 1/q costs
    # up to |ln S| 2^-53 relative: 2.6e-14 at q = 1.5, s = 1e200
    v = np.linspace(1.0, 2.0, space.dim)
    assert norm(space, s * v) == pytest.approx(s * norm(space, v), rel=1e-13)
    assert unit_vector(space, s * v) == pytest.approx(unit_vector(space, v), rel=1e-15)
    w = np.roll(v, 1) * -0.5
    assert iso_defect(space, s * v, s * w) == pytest.approx(s * iso_defect(space, v, w), rel=1e-13)


def test_scalar_norms_that_the_batch_path_under_or_overflows():
    assert norm(lp_space(2, 2), (1e-200,) * 2) == pytest.approx(math.sqrt(2) * 1e-200, rel=1e-15)
    assert norm(lp_space(3, 2), (1e200,) * 2) == pytest.approx(2 ** (1 / 3) * 1e200, rel=1e-15)
    with np.errstate(over="ignore", under="ignore"):
        assert lp_space(2, 2).norm_rows(np.full((1, 2), 1e-200))[0] == 0.0
        assert lp_space(3, 2).norm_rows(np.full((1, 2), 1e200))[0] == math.inf
    assert norm(lp_space(2000, 2), (2.0, 1.0)) == 2.0


def test_scalar_entry_points_scale_only_the_rows_out_of_range(monkeypatch):
    # rows whose power sum stays normal keep the batch path's bits and never
    # reach the scaled path; of two rows only the one out of range is scaled
    import normconst.spaces as spaces

    space = weighted_lp_space(3, (0.5, 2.0, 1.0))
    v = (1.0, -2.0, 3.0)
    want = space.norm_rows(np.array([v]))[0]
    scaled = spaces._scaled_norms
    seen = []

    def recording(A, q):
        seen.append(A.copy())
        return scaled(A, q)

    monkeypatch.setattr(spaces, "_scaled_norms", recording)
    assert norm(space, v) == want
    assert norm(space, (0.0, 0.0, 0.0)) == 0.0
    assert seen == []
    got = spaces._guarded_norms(space, np.array([v, (1e-200, 0.0, -1e-200)]))
    assert got[0] == want
    assert got[1] == pytest.approx(1.125 ** (1 / 3) * 1e-200, rel=1e-15)
    assert len(seen) == 1 and seen[0].tolist() == [[0.5e-200, 0.0, 1e-200]]


# ------------------------------------------------ the polygon gauge's gather

_GAUGE_SPACES = {
    "hexagon": HEX,
    "square": SQUARE,
    "octagon-0.3": regular_polygon_space(8, 0.3),
    "irregular-hexagon": make_polyhedral_2d([(1, 0), (-1, 0), (0.3, 1), (-0.3, -1),
                                             (-0.8, 0.6), (0.8, -0.6)]),
}


def _row_gather_gauge(space, V):
    # the gauge as a (n, 2) row gather of each sector's functional, its table
    # built from the canonical vertex list
    pts = space.vertices
    n = len(pts)
    table = np.empty((n, 2))
    for i in range(n):
        (px, py), (qx, qy) = pts[i], pts[(i + 1) % n]
        det = px * qy - py * qx
        table[i] = ((qy - py) / det, (px - qx) / det)
    angles = np.array([math.atan2(y, x) for x, y in pts])
    G = table[angles.searchsorted(np.arctan2(V[..., 1], V[..., 0]), side="right") - 1]
    return G[..., 0] * V[..., 0] + G[..., 1] * V[..., 1]




@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_GAUGE_SPACES)), st.integers(1, 5000), st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(_MODERATE_COORD, _MODERATE_COORD), max_size=6))
@example("hexagon", 1, 0, [(0.0, 0.0)])
@example("square", 1, 0, [(-0.0, -0.0)])
@example("hexagon", 2, 0, [(-1.0, 0.0), (-1.0, -0.0)])
@example("irregular-hexagon", 1, 0, [(-0.8, 0.6)])
def test_gauge_take_matches_the_row_gather(name, n, seed, head):
    space = _GAUGE_SPACES[name]
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 1)).astype(float)
    kind = rng.integers(0, 5, n)
    verts = np.array(space.vertices)
    scale = 10.0 ** rng.integers(-100, 100, (n, 1)).astype(float)
    V = np.where((kind == 1)[:, None], verts[rng.integers(0, len(verts), n)] * scale, V)
    V = np.where((kind == 2)[:, None], rng.choice([0.0, -0.0], (n, 2)), V)
    cut = np.stack([-np.abs(V[:, 0]), rng.choice([0.0, -0.0, 5e-324, -5e-324], n)], axis=1)
    V = np.where((kind == 3)[:, None], cut, V)
    V[:min(len(head), n)] = np.array(head, dtype=float).reshape(-1, 2)[:n]
    assert space.norm_rows(V).tobytes() == _row_gather_gauge(space, V).tobytes()


def _scaled(space, s):
    return make_polyhedral_2d([(x * s, y * s) for x, y in space.vertices])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_GAUGE_SPACES)), st.integers(-300, 300))
@example("hexagon", 160)
@example("hexagon", -200)
@example("square", -160)
def test_polygon_gauge_is_1_at_its_vertices_at_any_scale(name, k):
    # the tables are built from the vertices scaled into [1/2, 1), so a
    # square cannot overflow and a determinant cannot underflow
    unit = _GAUGE_SPACES[name]
    space = _scaled(unit, 10.0 ** k)
    gauge = space.norm_rows(np.array(space.vertices))
    assert np.abs(gauge - 1.0).max() <= 4 * math.ulp(1.0)
    assert space._symmetry == unit._symmetry


@pytest.mark.parametrize("k", [-1000, -531, -1, 3, 531, 1000])
@pytest.mark.parametrize("name", sorted(_GAUGE_SPACES))
def test_polygon_tables_at_a_power_of_two_scale_are_the_unit_tables_scaled(name, k):
    unit = _GAUGE_SPACES[name]
    space = _scaled(unit, math.ldexp(1.0, k))
    assert space.vertices == tuple((math.ldexp(x, k), math.ldexp(y, k))
                                   for x, y in unit.vertices)
    assert space._angles.tobytes() == unit._angles.tobytes()
    assert space._fx.tobytes() == np.ldexp(unit._fx, -k).tobytes()
    assert space._fy.tobytes() == np.ldexp(unit._fy, -k).tobytes()
    assert space._symmetry == unit._symmetry


# ------------------------------------------------ isometries of the angle grid

# moderate magnitudes: no power of a coordinate over- or underflows
_MODERATE = st.one_of(st.just(0.0), st.floats(1e-50, 1e50), st.floats(-1e50, -1e-50))
_ROWS = st.lists(st.tuples(_MODERATE, _MODERATE), min_size=1, max_size=20).map(np.array)
_FLIPS = ((1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]), _ROWS)
def test_sign_flips_and_lp_swaps_keep_the_norm_bitwise(q, V):
    lp = lp_space(q, 2)
    for space in (lp, weighted_lp_space(q, (1.0, 2.0)), weighted_lp_space(q, (0.3, 5.0))):
        want = space.norm_rows(V).tobytes()
        for flip in _FLIPS:
            assert space.norm_rows(V * flip).tobytes() == want
    want = lp.norm_rows(V).tobytes()
    for flip in ((1.0, 1.0), *_FLIPS):
        assert lp.norm_rows((V * flip)[:, ::-1]).tobytes() == want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4096).flatmap(lambda res: st.tuples(st.just(res), st.integers(0, res - 1))),
       _ROWS)
def test_l2_rotations_by_grid_angles_keep_the_norm(res_k, V):
    res, k = res_k
    theta = k * (TWO_PI / res)
    c, s = math.cos(theta), math.sin(theta)
    R = np.stack([c * V[:, 0] - s * V[:, 1], s * V[:, 0] + c * V[:, 1]], axis=1)
    l2 = lp_space(2, 2)
    n = l2.norm_rows(V)
    assert np.all(np.abs(l2.norm_rows(R) - n) <= 1e-15 * n)


def _rotation(a):
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def _isometries(space, res):
    """The space's linear isometries that isometry_domain may use, as 2 x 2
    matrices: the rotations by grid angles on l2, the signed permutations
    on any other lp, the sign flips on wlp, and on the regular hexagon the
    rotations taking its first vertex to each vertex (by multiples of 60
    degrees), each also after the flip of y."""
    if space.kind == "lp" and space.q == 2.0:
        return [_rotation(a) for a in np.arange(res) * (TWO_PI / res)]
    flips = [np.diag(f) for f in ((1.0, 1.0), *_FLIPS)]
    if space.kind == "poly2d":
        V = np.array(space.vertices)
        turns = np.arctan2(V[:, 1], V[:, 0]) - np.arctan2(V[0, 1], V[0, 0])
        rotations = [_rotation(a) for a in turns]
        return rotations + [r @ flips[1] for r in rotations]
    if space.kind == "wlp":
        return flips
    return flips + [f @ np.array([[0.0, 1.0], [1.0, 0.0]]) for f in flips]


@pytest.mark.parametrize("space", [lp_space(1, 2), lp_space(1.5, 2), lp_space(2, 2),
                                   lp_space(3, 2), lp_space(math.inf, 2),
                                   parse_space("wlp:q=3,dim=2,w=1;2"), HEX], ids=str)
@pytest.mark.parametrize("res", [8, 9, 12, 30, 33, 36, 48])
def test_isometry_domain_covers_the_grid(space, res):
    # every grid point is the image of a domain point under an isometry that
    # maps the whole grid onto itself (to rounding), so the pairs (domain
    # point, grid point) reach every grid pair's value
    theta = np.arange(res) * (TWO_PI / res)
    P = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    P /= space.norm_rows(P)[:, None]
    domain = isometry_domain(space, res)
    covered = set(domain.tolist())
    X = np.random.default_rng(res).standard_normal((64, 2))
    for g in _isometries(space, res):
        # each map is an isometry of the space, to rounding
        n = space.norm_rows(X)
        assert np.all(np.abs(space.norm_rows(X @ g.T) - n) <= 1e-14 * n)
        G = P @ g.T
        dist = np.abs(G[:, None, :] - P[None, :, :]).max(axis=2)
        if (dist.min(axis=1) > 1e-12).any():
            continue        # g does not map this grid onto itself
        covered |= set(dist[domain].argmin(axis=1).tolist())
    assert covered == set(range(res))


@pytest.mark.parametrize("space, sizes", [
    (lp_space(3, 2), {48: 7, 36: 10, 30: 15, 33: 33}),
    (lp_space(math.inf, 2), {48: 7, 36: 10, 30: 15, 33: 33}),
    (lp_space(2, 2), {48: 1, 36: 1, 30: 1, 33: 1}),
    (parse_space("wlp:q=3,dim=2,w=1;2"), {48: 13, 36: 10, 30: 15, 33: 33}),
    (HEX, {96: 9, 48: 5, 36: 4, 40: 11, 30: 5, 33: 33}),
], ids=lambda x: str(x) if not isinstance(x, dict) else "")
def test_isometry_domain_sizes(space, sizes):
    # the 8 signed permutations need 8 | res, the hexagon's dihedral group of
    # order 12 needs 12 | res, the 4 sign flips 4 | res, its 6 rotations alone
    # 6 | res, -x an even res; rotations fix x1 on l2 at any res
    for res, size in sizes.items():
        assert isometry_domain(space, res).tolist() == list(range(size))
