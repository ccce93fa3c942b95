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


def _partner_rows_full(space, X1, W, iters=70):
    # the partner bisection without the fixed-point stop: all iters run
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


def _partner_cases():
    for dim in range(2, 9):
        for q in (1, 2, 3, math.inf):
            yield lp_space(q, dim)
    yield parse_space("wlp:q=3,dim=2,w=1;2")
    yield HEX


@pytest.mark.parametrize("iters", [0, 10, 40, 70, 100])
def test_iso_partner_fixed_point_stop_is_bit_identical(iters):
    rng = np.random.default_rng(11)
    for space in _partner_cases():
        Z = rng.standard_normal((64, space.dim))
        X1 = Z / space.norm_rows(Z)[:, None]
        W = rng.standard_normal((64, space.dim))
        counting = _CountingSpace(space)
        got = _iso_partner_rows(counting, X1, W, iters)
        want = _partner_rows_full(space, X1, W, iters)
        assert got.tobytes() == want.tobytes(), (str(space), iters)
        # three norm_rows calls per bisection step: the stop never fires
        # below the fixed point and always fires before 70
        if iters <= 40:
            assert counting.calls == 3 * iters, (str(space), iters)
        else:
            assert counting.calls < 3 * 70, (str(space), iters)
