"""Isosceles-orthogonality predicates, pair construction, completion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normconst.orthogonality import (
    _iso_partner_rows,
    is_isosceles,
    iso_complete,
    iso_defect,
    pair_from_sphere,
    unit_iso_partner,
)
from normconst.spaces import (lp_space, norm, parse_space, regular_polygon_space,
                              unit_vector)

L1 = lp_space(1, 2)
L2 = lp_space(2, 2)
HEX = regular_polygon_space(6)

coord = st.floats(min_value=-10, max_value=10, allow_nan=False,
                  allow_infinity=False)
vec2 = st.tuples(coord, coord)


def test_defect_zero_on_euclidean_orthogonal():
    assert iso_defect(L2, (1.0, 0.0), (0.0, 1.0)) == 0.0
    assert is_isosceles(L2, (3.0, 0.0), (0.0, -5.0))


def test_defect_sign():
    # aligned pair: sum longer than difference
    assert iso_defect(L2, (1.0, 0.0), (0.9, 0.0)) > 0
    assert iso_defect(L2, (1.0, 0.0), (-0.9, 0.0)) < 0


@settings(max_examples=80, deadline=None)
@given(vec2, vec2)
def test_defect_antisymmetric_in_y(x, y):
    # flipping y swaps the two norms, so the defect flips sign exactly
    d1 = iso_defect(HEX, x, y)
    d2 = iso_defect(HEX, x, (-y[0], -y[1]))
    assert d1 == -d2


@settings(max_examples=80, deadline=None)
@given(vec2, vec2)
def test_defect_symmetric_in_swap_l1(x, y):
    assert iso_defect(L1, x, y) == iso_defect(L1, y, x)


def test_pair_from_sphere():
    # the unit pair (u1, u2) maps to (u1+u2, u1-u2), which is isosceles
    # orthogonal with sum norm exactly 2
    pr = pair_from_sphere(L2, (1.0, 0.0), (0.0, 1.0))
    assert pr.x1 == (1.0, 1.0) and pr.x2 == (1.0, -1.0)
    assert pr.defect == 0.0
    assert pr.sum_norm == pytest.approx(2.0, abs=1e-15)
    pr2 = pair_from_sphere(HEX, (1.0, 0.0), (0.5, math.sqrt(3) / 2))
    assert abs(pr2.defect) < 1e-9
    assert pr2.sum_norm == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValueError):
        pair_from_sphere(L2, (2.0, 0.0), (0.0, 1.0))  # not unit


def test_iso_complete_euclidean():
    # scaling (0,1) to balance x = (1,0): any s works in l2 only at s where
    # |x+sd| = |x-sd|, which holds for all s; completion must return some
    # root with zero defect
    y = iso_complete(L2, (1.0, 0.0), (0.0, 1.0))
    assert abs(iso_defect(L2, (1.0, 0.0), y)) < 1e-9


def test_iso_complete_l1():
    # completion shifts d along x: the result is d + s*x for some s
    x = (1.0, 0.0)
    d = (1.0, 1.0)
    y = iso_complete(L1, x, d)
    assert abs(iso_defect(L1, x, y)) < 1e-8
    shift = (y[0] - d[0], y[1] - d[1])
    assert shift[0] * x[1] == pytest.approx(shift[1] * x[0], abs=1e-12)


def test_iso_complete_rejects_parallel():
    with pytest.raises(ValueError):
        iso_complete(L2, (1.0, 0.0), (2.0, 0.0))
    with pytest.raises(ValueError):
        iso_complete(L2, (1.0, 0.0), (0.0, 0.0))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=359),
       st.integers(min_value=0, max_value=359))
def test_unit_iso_partner_properties(a_deg, b_deg):
    th1, th2 = math.radians(a_deg), math.radians(b_deg)
    x1 = unit_vector(HEX, (math.cos(th1), math.sin(th1)))
    w = (math.cos(th2), math.sin(th2))
    # partner search needs a direction component off the x1 axis
    if abs(x1[0] * w[1] - x1[1] * w[0]) < 1e-6:
        return
    y = unit_iso_partner(HEX, x1, w)
    assert norm(HEX, y) == pytest.approx(1.0, abs=1e-9)
    assert abs(iso_defect(HEX, x1, y)) < 1e-7


def test_random_iso_pairs_stay_iso_under_negation():
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = rng.standard_normal(2)
        w = rng.standard_normal(2)
        x1 = unit_vector(L1, z)
        if abs(x1[0] * w[1] - x1[1] * w[0]) < 1e-6:
            continue
        y = unit_iso_partner(L1, x1, w)
        assert is_isosceles(L1, x1, y, tol=1e-7)
        assert is_isosceles(L1, tuple(-c for c in x1),
                            tuple(-c for c in y), tol=1e-7)


def _bisection_partner_rows(space, X1, W, iters=70):
    # the reference: bisection along the same arc, all iters run
    n = X1.shape[0]
    lo = np.full(n, 1e-9)
    hi = np.full(n, math.pi - 1e-9)
    C = X1
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        C = np.cos(mid)[:, None] * X1 + np.sin(mid)[:, None] * W
        C = C / space.norm_rows(C)[:, None]
        g = space.norm_rows(X1 + C) - space.norm_rows(X1 - C)
        take = g > 0.0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    return C


class _CountingSpace:
    def __init__(self, space):
        self.space = space
        self.calls = 0

    def norm_rows(self, V):
        self.calls += 1
        return self.space.norm_rows(V)


PARTNER_CASES = [lp_space(q, dim) for dim in range(2, 9) for q in (1, 2, 3, math.inf)] + [
    parse_space("wlp:q=3,dim=2,w=1;2"), HEX]
EPS = np.finfo(float).eps


def _defects(space, X1, C):
    return space.norm_rows(X1 + C) - space.norm_rows(X1 - C)


def _arc_rows(space, rng, n, lifted):
    """n unit rows X1 and arc directions W: raw normal draws, or the
    normalized Euclidean-orthogonal directions the multistart lift makes."""
    Z = rng.standard_normal((n, space.dim))
    X1 = Z / space.norm_rows(Z)[:, None]
    W = rng.standard_normal((n, space.dim))
    if lifted:
        E = Z / np.sqrt((Z * Z).sum(axis=1))[:, None]
        W = W - (W * E).sum(axis=1)[:, None] * E
        W = W / space.norm_rows(W)[:, None]
    return X1, W


def _assert_on_arc(X1, W, C):
    # C = a X1 + b W with b > 0: a point of the arc strictly between X1 and
    # -X1 (checked on rows where W is well away from X1's direction)
    xx, ww, xw = (X1 * X1).sum(1), (W * W).sum(1), (X1 * W).sum(1)
    xc, wc = (X1 * C).sum(1), (W * C).sum(1)
    det = xx * ww - xw * xw
    ok = det > 1e-6 * xx * ww
    a = (ww * xc - xw * wc)[ok] / det[ok]
    b = (xx * wc - xw * xc)[ok] / det[ok]
    assert np.all(b > 0.0)
    resid = C[ok] - a[:, None] * X1[ok] - b[:, None] * W[ok]
    assert np.all(np.abs(resid) <= 1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=len(PARTNER_CASES) - 1),
       st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_iso_partner_rows_no_worse_than_bisection(case, seed, lifted):
    space = PARTNER_CASES[case]
    X1, W = _arc_rows(space, np.random.default_rng(seed), 32, lifted)
    C = _iso_partner_rows(space, X1, W)
    # unit rows, as close to 1 as normalizing a row gets (bisection's
    # partners reach 4.4e-16 from 1 on lp:q=3,dim=2)
    assert np.all(np.abs(space.norm_rows(C) - 1.0) <= 4.0 * EPS), str(space)
    got = np.abs(_defects(space, X1, C))
    want = np.abs(_defects(space, X1, _bisection_partner_rows(space, X1, W)))
    assert np.all(got <= np.maximum(4.0 * EPS, want)), str(space)
    _assert_on_arc(X1, W, C)
    assert _iso_partner_rows(space, X1, W, 0).tobytes() == X1.tobytes()


@pytest.mark.parametrize("iters", [0, 10, 40, 70, 100])
def test_iso_partner_rows_cap_and_stop(iters):
    rng = np.random.default_rng(11)
    for space in PARTNER_CASES:
        X1, W = _arc_rows(space, rng, 64, False)
        counting = _CountingSpace(space)
        got = _iso_partner_rows(counting, X1, W, iters)
        assert counting.calls <= 3 * iters, (str(space), iters)
        if iters == 0:
            assert got.tobytes() == X1.tobytes()
            continue
        assert np.all(np.abs(space.norm_rows(got) - 1.0) <= 4.0 * EPS), (str(space), iters)
        _assert_on_arc(X1, W, got)
        if iters >= 70:
            # every row stops before the default cap, so a higher cap
            # changes no bit
            assert counting.calls < 3 * 70, (str(space), iters)
            assert got.tobytes() == _iso_partner_rows(space, X1, W).tobytes()


def test_iso_partner_rows_steps_on_lifted_rows():
    # 384 rows on the arcs the multistart lift builds: regula falsi stops
    # within 15 steps of three norm_rows calls; bisection took 55 (165 calls)
    space = lp_space(3, 3)
    X1, W = _arc_rows(space, np.random.default_rng(5), 384, True)
    counting = _CountingSpace(space)
    C = _iso_partner_rows(counting, X1, W)
    assert counting.calls <= 3 * 15
    assert np.all(np.abs(_defects(space, X1, C)) <= 4.0 * EPS)


class _JumpSpace:
    """Euclidean for the normalization of the partner; on the arc from (1, 0)
    towards (0, 1) the defect is 2 before the angle r and -1e-3 from r on, a
    jump that secant points approach from the flat side only."""

    def __init__(self, r):
        self.r = r
        self.calls = 0
        self.phi = None

    def norm_rows(self, V):
        self.calls += 1
        if self.calls % 3 == 1:       # the partner rows, before normalization
            self.phi = np.arctan2(V[:, 1], V[:, 0])
            return np.sqrt((V * V).sum(axis=1))
        g = np.where(self.phi < self.r, 2.0, -1e-3)
        return 1.0 + g / 2.0 if self.calls % 3 == 2 else 1.0 - g / 2.0


@pytest.mark.parametrize("r", [0.2, 1.0, 2.9])
def test_iso_partner_rows_bisects_where_secants_stall(r):
    # bisection closes in on the jump in at most 57 steps; the safeguard
    # lets regula falsi take at most 9 more, where alone it would hit the cap
    space = _JumpSpace(r)
    C = _iso_partner_rows(space, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert space.calls <= 3 * 66
    assert abs(math.atan2(C[0, 1], C[0, 0]) - r) <= 1e-15


class _FirstDefectNaN(_CountingSpace):
    """A space whose first step reads a NaN defect on every row."""

    def norm_rows(self, V):
        out = super().norm_rows(V)
        return np.full_like(out, np.nan) if self.calls == 2 else out


def test_iso_partner_rows_bisect_after_a_nan_defect():
    # a NaN defect counts as one at or below zero, as in bisection, and the
    # NaN secant point that follows is replaced by the bracket's midpoint
    space = lp_space(3, 3)
    X1, W = _arc_rows(space, np.random.default_rng(2), 16, True)
    C = _iso_partner_rows(_FirstDefectNaN(space), X1, W)
    assert np.all(np.abs(space.norm_rows(C) - 1.0) <= 4.0 * EPS)
    _assert_on_arc(X1, W, C)
