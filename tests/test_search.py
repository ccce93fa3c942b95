"""Search engines against brute-force oracles, plus strategy plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normconst.search import (
    _INV_PHI,
    Estimate,
    ExactStrategy,
    Grid2DStrategy,
    MultiStartStrategy,
    Objective,
    batch_objective,
    parse_strategy,
    scalar_objective,
    strategy_descriptor,
    sup_pairs_2d,
    sup_pairs_nd,
    sup_vertex_pairs,
    t_sweep,
    _as_witness,
    _golden_max,
    _grid_axes_2d,
    _improves,
    _lex_first,
)
from normconst.spaces import Region, lp_space, regular_polygon_space

L1 = lp_space(1, 2)
L2 = lp_space(2, 2)
LINF = lp_space(math.inf, 2)
HEX = regular_polygon_space(6)


def _sum_sq():
    # ||x1 + x2||_2^2: max over the euclidean sphere pair is 4 at x1 = x2
    def evb(X1, X2):
        s = X1 + X2
        return np.einsum("ij,ij->i", s, s)
    return batch_objective(evb, convex_flag=True)


def test_grid_engine_matches_known_max():
    est = sup_pairs_2d(L2, _sum_sq(), Region.SPHERE, resolution=64,
                       refine_iters=8)
    assert est.value == pytest.approx(4.0, abs=1e-9)
    assert isinstance(est, Estimate)
    assert est.strategy == "Grid2D"
    assert not est.exact
    assert est.evaluations > 0


def test_grid_engine_ball_region():
    # over the ball the same max is attained on the sphere
    est = sup_pairs_2d(L2, _sum_sq(), (Region.BALL, Region.BALL),
                       resolution=32, refine_iters=6, radial=5)
    assert est.value == pytest.approx(4.0, abs=1e-6)


def test_grid_doubling_is_monotone():
    # doubling the angular resolution keeps every old node, so the raw scan
    # value cannot decrease
    def evb(X1, X2):
        return np.abs(X1[:, 0] + 2 * X2[:, 1]) + 0.3 * np.sin(
            3 * X1[:, 1] - X2[:, 0])
    obj = batch_objective(evb)
    prev = -math.inf
    for res in (16, 32, 64, 128):
        est = sup_pairs_2d(HEX, obj, Region.SPHERE, resolution=res,
                           refine_iters=0)
        assert est.value >= prev - 1e-15
        prev = est.value


def test_grid_lower_bound_semantics():
    # scan values are evaluations at feasible points: never above the true
    # sup, here computed in closed form on the euclidean sphere
    def evb(X1, X2):
        return X1[:, 0] + X2[:, 1]
    est = sup_pairs_2d(L2, batch_objective(evb), Region.SPHERE,
                       resolution=16, refine_iters=0)
    assert est.value <= 2.0 + 1e-12
    assert est.value == pytest.approx(2.0, abs=1e-2)


def test_vertex_engine_exact():
    est = sup_vertex_pairs(L1, _sum_sq())
    assert est.exact
    assert est.strategy == "VertexExact"
    assert est.value == pytest.approx(4.0, abs=0)
    assert est.evaluations == 16
    with pytest.raises(ValueError):
        sup_vertex_pairs(L1, batch_objective(lambda a, b: a[:, 0]))


def test_multistart_matches_grid():
    obj = _sum_sq()
    nd = sup_pairs_nd(L2, obj, Region.SPHERE, starts=32, steps=200, seed=7)
    assert nd.value == pytest.approx(4.0, abs=1e-6)
    assert nd.strategy == "MultiStart"


def test_multistart_seed_determinism():
    def evb(X1, X2):
        return X1[:, 0] * X2[:, 1] - 0.5 * X1[:, 1] ** 2
    obj = batch_objective(evb)
    a = sup_pairs_nd(HEX, obj, Region.SPHERE, starts=16, steps=120, seed=42)
    b = sup_pairs_nd(HEX, obj, Region.SPHERE, starts=16, steps=120, seed=42)
    assert a.value == b.value
    assert a.witness == b.witness
    c = sup_pairs_nd(HEX, obj, Region.SPHERE, starts=16, steps=120, seed=43)
    assert c.value == pytest.approx(a.value, abs=1e-4)


def test_multistart_dim3():
    sp = lp_space(math.inf, 3)
    est = sup_pairs_nd(sp, _sum_sq(), Region.SPHERE, starts=48, steps=300,
                       seed=7)
    # max of ||x1+x2||_2^2 over the linf sphere pair: x1 = x2 = (+-1,..) so 12
    assert est.value == pytest.approx(12.0, abs=1e-3)


def test_scalar_objective_wrapper():
    def fn(a, b):
        return -abs(a[0] - b[0])
    obj = scalar_objective(fn)
    est = sup_pairs_2d(L2, obj, Region.SPHERE, resolution=16, refine_iters=2)
    assert est.value <= 0.0
    assert est.value == pytest.approx(0.0, abs=1e-6)
    # an Objective without eval_batch runs through the same row loop
    bare = Objective(eval=fn)
    assert sup_pairs_2d(L2, bare, Region.SPHERE, resolution=16,
                        refine_iters=2) == est
    assert (sup_pairs_nd(HEX, bare, Region.SPHERE, starts=4, steps=20, seed=3)
            == sup_pairs_nd(HEX, obj, Region.SPHERE, starts=4, steps=20, seed=3))


def test_nan_objective_values_are_skipped():
    def evb(X1, X2):
        out = X1[:, 0] + X2[:, 0]
        return np.where(out > 0, out, np.nan)  # mask half the domain
    est = sup_pairs_2d(L2, batch_objective(evb), Region.SPHERE,
                       resolution=32, refine_iters=4)
    assert est.value == pytest.approx(2.0, abs=1e-6)


def test_all_nan_raises():
    def evb(X1, X2):
        return np.full(X1.shape[0], np.nan)
    with pytest.raises(ValueError):
        sup_pairs_2d(L2, batch_objective(evb), Region.SPHERE,
                     resolution=16, refine_iters=0)


def test_t_sweep_unimodal():
    t_star, val = t_sweep(lambda t: -(t - 0.3) ** 2 + 1.0, 0.0, 1.0,
                          grid=17, refine_iters=25)
    assert t_star == pytest.approx(0.3, abs=1e-6)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_t_sweep_tie_breaks_to_smallest_t():
    t_star, val = t_sweep(lambda t: 5.0, 0.0, 1.0, grid=9, refine_iters=3)
    assert t_star == 0.0 and val == 5.0


def test_t_sweep_rejects_nonfinite():
    with pytest.raises(ValueError):
        t_sweep(lambda t: math.nan, 0.0, 1.0, grid=5, refine_iters=0)


@pytest.mark.parametrize("strat", [
    ExactStrategy(),
    Grid2DStrategy(resolution=128, refine=7, radial=3),
    MultiStartStrategy(starts=9, steps=50, seed=13),
])
def test_strategy_descriptor_roundtrip(strat):
    assert parse_strategy(strategy_descriptor(strat)) == strat


def test_parse_strategy_errors():
    for bad in ("warp", "grid2d:res=abc", "grid2d:bogus=3",
                "multistart:starts=0", "exact:x=1", "",
                "multistart:seed=-1", "multistart:seed=3,seed=4",
                "grid2d:res=64,res=128"):
        with pytest.raises(ValueError):
            parse_strategy(bad)


def test_engine_validation():
    obj = _sum_sq()
    with pytest.raises(ValueError):
        sup_pairs_2d(lp_space(2, 3), obj, Region.SPHERE)  # dim != 2
    with pytest.raises(ValueError):
        sup_pairs_2d(L2, obj, Region.SPHERE, resolution=4)
    with pytest.raises(ValueError):
        sup_pairs_nd(L2, obj, Region.SPHERE, starts=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_multistart_always_within_bound(seed):
    # cheap property: for a linear objective the sphere max is the dual norm
    def evb(X1, X2):
        return X1[:, 0] + X1[:, 1]
    est = sup_pairs_nd(L1, batch_objective(evb), Region.SPHERE,
                       starts=4, steps=60, seed=seed)
    assert est.value <= 1.0 + 1e-12


# ------------------------------------------------- golden section with lookahead

def _golden_reference(fun, lo, hi, iters):
    """The one-probe-at-a-time golden loop; ``fun(x) -> (value, payload)``."""
    best_v, best_x, best_p = None, None, None
    probes = []

    def probe(x):
        nonlocal best_v, best_x, best_p
        probes.append(x)
        v, payload = fun(x)
        if not math.isfinite(v):
            return -math.inf
        if best_v is None or v > best_v or (v == best_v and x < best_x):
            best_v, best_x, best_p = v, x, payload
        return v

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = probe(c), probe(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = probe(d)
    return (best_v, best_x, best_p), probes


@st.composite
def _probe_functions(draw):
    """Bumpy functions with NaN gaps and quantized plateaus, plus a bracket."""
    bumps = draw(st.lists(st.tuples(st.floats(-2, 2), st.floats(0.05, 2),
                                    st.floats(-1, 3)), min_size=1, max_size=5))
    gaps = draw(st.lists(st.tuples(st.floats(-2, 2), st.floats(0, 0.8)), max_size=3))
    step = draw(st.sampled_from([0.0, 0.05, 0.5, 4.0]))

    def f(x):
        if any(g <= x <= g + w for g, w in gaps):
            return math.nan
        v = sum(h * math.exp(-((x - m) / s) ** 2) for m, s, h in bumps)
        return math.floor(v / step) * step if step else v

    lo = draw(st.floats(-2, 1.5))
    hi = lo + draw(st.floats(1e-3, 2.5))
    return f, lo, hi


@settings(max_examples=150, deadline=None)
@given(_probe_functions(), st.integers(1, 6), st.integers(0, 14))
def test_golden_lookahead_matches_sequential(case, lookahead, iters):
    f, lo, hi = case
    want, path = _golden_reference(lambda x: (f(x), ("at", x)), lo, hi, iters)
    batches = []

    def fun(xs):
        batches.append(list(xs))
        return [f(x) for x in xs], [("at", x) for x in xs]

    assert _golden_max(fun, lo, hi, iters, lookahead=lookahead) == want
    # the first batch holds the interior pair and the next lookahead - 1
    # sequential probes, each later batch the next lookahead probes, in order
    assert len(path) == iters + 2
    cuts = list(range(lookahead + 1, len(path), lookahead)) + [len(path)]
    assert len(batches) == len(cuts)
    start = 0
    for i, (xs, end) in enumerate(zip(batches, cuts)):
        assert len(xs) <= (2 ** lookahead if i == 0 else 2 ** lookahead - 1)
        pos = 0
        for x in path[start:end]:
            pos += xs[pos:].index(x) + 1
        start = end
    if lookahead == 1:
        assert [x for xs in batches for x in xs] == path


def test_golden_lookahead_batch_counts():
    # 12 iterations: the first call holds the interior pair and the first
    # lookahead - 1 iterations, each later call the next lookahead iterations
    calls = []

    def fun(xs):
        calls.append(len(xs))
        return [-abs(x - 0.3) for x in xs], list(xs)

    for lookahead, sizes in ((1, [2] + [1] * 12), (4, [16, 15, 15, 1]), (5, [32, 31, 7])):
        calls.clear()
        _golden_max(fun, 0.0, 1.0, 12, lookahead=lookahead)
        assert calls == sizes
    with pytest.raises(ValueError):
        _golden_max(fun, 0.0, 1.0, 12, lookahead=0)


# ------------------------------------------------------ grid-scan tie-break


def _tie_objectives():
    # piecewise-linear norms and quantized values tie on many grid rows
    def min_form(space):
        return lambda X1, X2: np.minimum(space.norm_rows(X1 + X2),
                                         space.norm_rows(X1 - X2))

    def quantized(space):
        return lambda X1, X2: np.round(space.norm_rows(X1 + X2), 2)

    def shortest(space):
        # maximal on the radius-0 ring, whose rows are all zero
        return lambda X1, X2: -space.norm_rows(X2)

    for space in (L1, LINF, HEX):
        for make in (min_form, quantized):
            yield space, make(space), Region.SPHERE
        yield space, quantized(space), (Region.SPHERE, Region.BALL)
        yield space, shortest(space), (Region.SPHERE, Region.BALL)


def _scan_old_rule(space, evb, region, resolution, radial):
    # the grid scan with the per-row tie-break as a python min over tuples;
    # also checks _lex_first against that rule on every tied row
    r1, r2 = (region, region) if isinstance(region, Region) else region
    P1, _ = _grid_axes_2d(space, r1, resolution, radial)
    P2, _ = _grid_axes_2d(space, r2, resolution, radial)
    best_v = best_w = None
    ties = 0
    for i in range(P1.shape[0]):
        vals = evb(np.broadcast_to(P1[i], P2.shape), P2)
        vmax = vals.max()
        idxs = np.flatnonzero(vals == vmax)
        j = min(idxs, key=lambda k: tuple(P2[k]))
        if idxs.size > 1:
            ties += 1
            assert _lex_first(P2, idxs) == j
        w = _as_witness(P1[i], P2[j])
        if _improves(float(vmax), w, best_v, best_w):
            best_v, best_w = float(vmax), w
    return best_v, best_w, ties


def test_grid_tie_break_matches_tuple_min():
    for space, evb, region in _tie_objectives():
        want_v, want_w, ties = _scan_old_rule(space, evb, region, 96, 5)
        assert ties > 0
        est = sup_pairs_2d(space, batch_objective(evb), region, resolution=96,
                           refine_iters=0, radial=5)
        assert (est.value, est.witness) == (want_v, want_w)


def test_lex_first_keeps_first_of_equal_rows():
    P = np.array([[0.0, 1.0], [-0.0, 0.0], [0.0, 0.0], [0.0, -0.0], [-1.0, 5.0]])
    assert _lex_first(P, np.array([0, 1, 2, 3])) == 1
    assert _lex_first(P, np.array([2, 3, 0])) == 2
    assert _lex_first(P, np.arange(5)) == 4
