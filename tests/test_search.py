"""Search engines against brute-force oracles, plus strategy plumbing."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normconst.search import (
    _GOLDEN_ITERS,
    _IDLE_ROUNDS,
    _INV_PHI,
    _MOST,
    _RISE,
    _SCAN_BLOCK,
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
    _best_row,
    _golden,
    _golden_max,
    _grid_axes_2d,
    _lex_first,
    _points_2d,
    _sup_pairs_2d_stack,
    _unit_rows,
)
from normconst import constants as cns, search
from normconst.constants import _arc_directions, _family
from normconst.spaces import (Region, extreme_points, isometry_domain, lp_space,
                              make_polyhedral_2d, parse_space, regular_polygon_space)

L1 = lp_space(1, 2)
L2 = lp_space(2, 2)
LINF = lp_space(math.inf, 2)
HEX = regular_polygon_space(6)


def _improves(value, witness, best_value, best_witness):
    # the reduction rule as a one-candidate-at-a-time comparison: a larger
    # value wins, an equal one (zeros of either sign compare equal) only
    # with a smaller witness
    if best_value is None:
        return True
    if value != best_value:
        return value > best_value
    return witness < best_witness


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


_VERTEX_SPACES = ([lp_space(q, d) for q in (1, math.inf) for d in range(2, 8)]
                  + [HEX, regular_polygon_space(8, 0.3), parse_space("wlp:q=inf,dim=3,w=1;2;0.5")])


def _vertex_tie_objective(kind, space):
    if kind == "quantized":
        return lambda X1, X2: np.round(space.norm_rows(X1 + 0.5 * X2), 1)
    if kind == "constant":
        return lambda X1, X2: np.ones(X1.shape[0])
    if kind == "nan_gapped":
        return lambda X1, X2: np.where(X1[:, 0] > X2[:, -1], np.nan,
                                       np.round(space.norm_rows(X1 - X2), 0))
    # zero at every pair, +0.0 or -0.0 by the pair
    return lambda X1, X2: 0.0 * (X1[:, 0] - X2[:, -1])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_VERTEX_SPACES),
       st.sampled_from(["quantized", "constant", "nan_gapped", "signed_zero"]))
# the witness's value is -0.0, and the maximum of its row +0.0
@example(lp_space(1, 3), "signed_zero")
def test_vertex_scan_matches_one_all_pairs_reduction(space, kind):
    # sup_vertex_pairs scans the extreme points in blocks (linf from dim 7 on
    # has more than _SCAN_BLOCK pairs); the plain reduction over every
    # ordered pair at once picks the same witness and value
    evb = _vertex_tie_objective(kind, space)
    E = np.array(extreme_points(space))
    n = E.shape[0]
    X1, X2 = np.repeat(E, n, axis=0), np.tile(E, (n, 1))
    value, witness, _ = _best_row(evb(X1, X2), X1, X2)
    got = sup_vertex_pairs(space, batch_objective(evb, convex_flag=True))
    # repr keeps the sign of zero: the value is the objective's at the witness
    assert repr((got.value, got.witness, got.evaluations)) == repr((value, witness, n * n))
    at_witness = evb(np.array(witness[:1]), np.array(witness[1:]))[0]
    assert repr(got.value) == repr(float(at_witness))


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


def test_t_sweep_rejects_negative_refine_iters():
    def never(t):
        raise AssertionError("the arguments are checked before any probe")

    with pytest.raises(ValueError, match="refine_iters must be >= 0"):
        t_sweep(never, 0.0, 1.0, refine_iters=-1)


@pytest.mark.parametrize("g", [lambda t: -(t - 0.3) ** 2, lambda t: 1.0, lambda t: abs(t - 0.6)])
def test_t_sweep_stops_once_its_bracket_collapses(g):
    # past the collapse every golden probe repeats one period of probed
    # points: a huge refine_iters returns what 10**5 returns, at once
    calls = []

    def counted(t):
        calls.append(t)
        return g(t)

    want = t_sweep(counted, 0.0, 1.0, grid=17, refine_iters=10 ** 5)
    n = len(calls)
    assert repr(t_sweep(counted, 0.0, 1.0, grid=17, refine_iters=10 ** 18)) == repr(want)
    assert len(calls) == 2 * n


@pytest.mark.parametrize("kind", ["lp", "wlp"])
@pytest.mark.parametrize("q", ["1", "1.5", "2", "3", "4", "inf"])
@pytest.mark.parametrize("d", [3, 5, 8])
def test_unit_rows_batch_matches_single_rows(kind, q, d):
    # sup_pairs_nd normalizes all its starts in one call: each row has the
    # bits it has on its own, and a zero row becomes the unit first basis vector
    weights = ",w=" + ";".join(str(0.5 + i) for i in range(d)) if kind == "wlp" else ""
    space = parse_space(f"{kind}:q={q},dim={d}{weights}")
    Z = np.random.default_rng(3).standard_normal((40, space.dim))
    Z[7] = 0.0
    U = _unit_rows(space, Z.copy())
    rows = [_unit_rows(space, Z[i:i + 1].copy())[0] for i in range(len(Z))]
    assert U.tobytes() == np.array(rows).tobytes()
    e1 = np.zeros(space.dim)
    e1[0] = 1.0
    assert U[7].tobytes() == (e1 / space.norm_rows(e1[None])[0]).tobytes()


# each strategy's fields with their least values, as the selector syntax
# documents them
BOUNDS = {
    ExactStrategy: {},
    Grid2DStrategy: {"resolution": 8, "refine": 0, "radial": 2},
    MultiStartStrategy: {"starts": 1, "steps": 1, "seed": 0},
}


def _at_or_above(least):
    return st.one_of(st.just(least), st.integers(min_value=least, max_value=2 ** 40))


@pytest.mark.parametrize("strat", [cls() for cls in BOUNDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_strategy_descriptor_roundtrip(strat, data):
    fields = {name: data.draw(_at_or_above(least), label=name)
              for name, least in BOUNDS[type(strat)].items()}
    strat = dataclasses.replace(strat, **fields)
    assert parse_strategy(strategy_descriptor(strat)) == strat


def test_parse_strategy_errors():
    for bad in ("warp", "grid2d:res=abc", "grid2d:bogus=3",
                "multistart:starts=0", "exact:x=1", "",
                "multistart:seed=-1", "multistart:seed=3,seed=4",
                "grid2d:res=64,res=128",
                # one below each field's least value
                "grid2d:res=7", "grid2d:refine=-1", "grid2d:radial=1",
                "multistart:steps=0"):
        with pytest.raises(ValueError):
            parse_strategy(bad)
    # a strategy built by hand is refused with the message parsing gives
    for text, built in (("grid2d:res=7", lambda: Grid2DStrategy(resolution=7)),
                        ("multistart:seed=-1", lambda: MultiStartStrategy(seed=-1))):
        with pytest.raises(ValueError) as parsed:
            parse_strategy(text)
        with pytest.raises(ValueError) as by_hand:
            built()
        assert str(by_hand.value) == str(parsed.value)
        key, value = text.split(":")[1].split("=")
        assert str(parsed.value) == (f"{text.split(':')[0]} parameter out of range: "
                                     f"need {key} >= {int(value) + 1}, got {key}={value}")


def test_oversized_strategy_fields_are_refused_by_key():
    # a count beyond numpy's index type is refused where the strategy is
    # built, parsed or by hand, by its selector key; the bound itself is
    # accepted (built only, never run), and a seed has no upper bound
    huge = 10 ** 20
    for cls in BOUNDS:
        for key, name, _, _ in cls.FIELDS:
            if name == "seed":
                assert parse_strategy(f"{cls.HEAD}:seed={huge}").seed == huge
                continue
            refusal = (rf"^{cls.HEAD} parameter out of range: "
                       rf"need {key} <= {_MOST}, got {key}={huge}$")
            with pytest.raises(ValueError, match=refusal):
                parse_strategy(f"{cls.HEAD}:{key}={huge}")
            with pytest.raises(ValueError, match=refusal):
                cls(**{name: huge})
            assert getattr(parse_strategy(f"{cls.HEAD}:{key}={_MOST}"), name) == _MOST


def test_engine_validation():
    obj = _sum_sq()
    with pytest.raises(ValueError):
        sup_pairs_2d(lp_space(2, 3), obj, Region.SPHERE)  # dim != 2
    with pytest.raises(ValueError, match="need res >= 8, got res=4"):
        sup_pairs_2d(L2, obj, Region.SPHERE, resolution=4)
    with pytest.raises(ValueError, match="need radial >= 2, got radial=1"):
        sup_pairs_2d(L2, obj, Region.BALL, radial=1)
    with pytest.raises(ValueError, match="need starts >= 1, got starts=0"):
        sup_pairs_nd(L2, obj, Region.SPHERE, starts=0)
    with pytest.raises(ValueError, match="need seed >= 0, got seed=-1"):
        sup_pairs_nd(L2, obj, Region.SPHERE, seed=-1)


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

def _sequential_golden(lo, hi, iters, lookahead=1, probes=None):
    """The one-probe-at-a-time golden loop as a generator with ``_golden``'s
    protocol: it yields one-point batches ``[x]``, is sent
    ``(values, payloads)`` for each and returns (value, x, payload) of the
    best sample.  ``lookahead`` is ignored; ``probes`` collects every x."""
    best = [None, None, None]

    def keep(x, reply):
        values, payloads = reply
        v = float(values[0])
        if probes is not None:
            probes.append(x)
        if not math.isfinite(v):
            return -math.inf
        if best[0] is None or v > best[0] or (v == best[0] and x < best[1]):
            best[:] = [v, x, payloads[0]]
        return v

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = keep(c, (yield [c]))
    fd = keep(d, (yield [d]))
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = keep(c, (yield [c]))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = keep(d, (yield [d]))
    return tuple(best)


def _golden_reference(fun, lo, hi, iters):
    """The one-probe-at-a-time golden loop; ``fun(x) -> (value, payload)``.
    Returns the best sample and the probed points in order."""
    probes = []
    run = _sequential_golden(lo, hi, iters, probes=probes)
    try:
        xs = next(run)
        while True:
            v, payload = fun(xs[0])
            xs = run.send(([v], [payload]))
    except StopIteration as stop:
        return stop.value, probes


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


def _bump(x):
    return -abs(x - 0.9)


@settings(max_examples=150, deadline=None)
@given(_probe_functions(), st.integers(1, 6), st.integers(0, 14))
# the third iteration's probe equals an off-path candidate of the first batch
@example((_bump, 0.5625, 1.1875), 3, 3)
@example((_bump, 0.5625, 1.1875), 3, 12)
def test_golden_lookahead_matches_sequential(case, lookahead, iters):
    f, lo, hi = case
    want, path = _golden_reference(lambda x: (f(x), ("at", x)), lo, hi, iters)
    batches = []

    def fun(xs):
        batches.append(list(xs))
        return [f(x) for x in xs], [("at", x) for x in xs]

    assert _golden_max(fun, lo, hi, iters, lookahead=lookahead) == want
    sent = [x for xs in batches for x in xs]
    assert len(sent) == len(set(sent))  # no point is evaluated twice
    # the first batch holds the interior pair and the next lookahead - 1
    # sequential probes, each later batch the next lookahead probes, less
    # those an earlier batch already evaluated; a stretch that needs no new
    # point makes no call.  (A point that two branches of one batch reach is
    # sent once, at the first branch's place, so the order within a batch
    # need not follow the path.)
    assert len(path) == iters + 2
    cuts = list(range(lookahead + 1, len(path), lookahead)) + [len(path)]
    calls = iter(enumerate(batches))
    done = set()
    start = 0
    for end in cuts:
        stretch = set(path[start:end]) - done
        start = end
        if not stretch:
            continue
        i, xs = next(calls)
        assert len(xs) <= (2 ** lookahead if i == 0 else 2 ** lookahead - 1)
        assert stretch <= set(xs)
        done.update(xs)
    assert next(calls, None) is None
    if lookahead == 1:
        assert sent == list(dict.fromkeys(path))


def test_golden_reuses_a_point_reached_twice():
    # at lookahead 3 the third iteration's probe (the one-probe loop's fifth
    # point) is an off-path candidate of the first call, so no second call
    # is made
    want, path = _golden_reference(lambda x: (_bump(x), x), 0.5625, 1.1875, 3)
    calls = []

    def fun(xs):
        calls.append(list(xs))
        return [_bump(x) for x in xs], list(xs)

    assert _golden_max(fun, 0.5625, 1.1875, 3, lookahead=3) == want
    assert [len(xs) for xs in calls] == [8]
    assert path[-1] in calls[0] and path[-1] not in path[:-1]


def test_golden_lookahead_batch_counts():
    # 12 iterations: the first call holds the interior pair and the first
    # lookahead - 1 iterations, each later call the next lookahead iterations.
    # Golden brackets reach some floats by two routes; each is sent once, so
    # the candidate trees of 16, 15, 15, 1 (lookahead 4) and 32, 31, 7
    # (lookahead 5) points need fewer rows.
    calls = []

    def fun(xs):
        calls.append(len(xs))
        return [-abs(x - 0.3) for x in xs], list(xs)

    for lookahead, sizes in ((1, [2] + [1] * 12), (4, [15, 12, 13, 1]), (5, [26, 25, 7])):
        calls.clear()
        _golden_max(fun, 0.0, 1.0, 12, lookahead=lookahead)
        assert calls == sizes
    with pytest.raises(ValueError):
        _golden_max(fun, 0.0, 1.0, 12, lookahead=0)


def _golden_recursive(lo, hi, iters, lookahead=1):
    """``_golden`` with its candidate tree built by one recursive call per
    node and a dict per level, as the engine built it before the flat heap
    list; the batches it yields are the reference point sets."""
    best_v, best_x, best_at = None, None, None
    seen = {}

    def probe(x):
        nonlocal best_v, best_x, best_at
        values, payloads, i = seen[x]
        v = float(values[i])
        if not math.isfinite(v):
            return -math.inf
        if best_v is None or v > best_v or (v == best_v and x < best_x):
            best_v, best_x, best_at = v, x, (payloads, i)
        return v

    def branches(a, b, c, d, fc, fd, it, undecided, new):
        if it == iters:
            return {}
        if fc is None or fd is None:
            if undecided == lookahead - 1:
                return {}
            outcomes, undecided = (True, False), undecided + 1
        else:
            outcomes = (fc >= fd,)
        tree = {}
        for left in outcomes:
            if left:
                x = d - _INV_PHI * (d - a)
                nxt, known = (a, d, x, c), (None, fc)
            else:
                x = c + _INV_PHI * (b - c)
                nxt, known = (c, b, d, x), (fd, None)
            if x not in seen:
                new[x] = None
            deeper = it + 1 < iters and undecided < lookahead - 1
            tree[left] = (x, nxt,
                          branches(*nxt, *known, it + 1, undecided, new) if deeper else {})
        return tree

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = fd = None
    it = 0
    while fc is None or it < iters:
        new = dict.fromkeys([c, d]) if fc is None else {}
        tree = branches(a, b, c, d, fc, fd, it, 0, new)
        if new:
            xs = list(new)
            values, payloads = yield xs
            for i, x in enumerate(xs):
                seen[x] = (values, payloads, i)
        if fc is None:
            fc, fd = probe(c), probe(d)
        while tree:
            left = fc >= fd
            x, (a, b, c, d), tree = tree[left]
            v = probe(x)
            fc, fd = (v, fc) if left else (fd, v)
            it += 1
    if best_at is None:
        return None, None, None
    payloads, i = best_at
    return best_v, best_x, payloads[i]


def _batches(run, f):
    """Drive a ``_golden``-protocol generator with ``f``: (result, batches)."""
    batches = []
    try:
        xs = next(run)
        while True:
            batches.append(list(xs))
            xs = run.send(([f(x) for x in xs], [("at", x) for x in xs]))
    except StopIteration as stop:
        return stop.value, batches


@settings(max_examples=200, deadline=None)
@given(_probe_functions(), st.integers(1, 6), st.integers(0, 14))
@example((_bump, 0.5625, 1.1875), 3, 3)
@example((_bump, 0.5625, 1.1875), 5, 12)
def test_flat_golden_tree_yields_the_recursive_batches(case, lookahead, iters):
    # the same point set in every batch, so the same norm_rows row counts
    f, lo, hi = case
    want, want_batches = _batches(_golden_recursive(lo, hi, iters, lookahead), f)
    got, got_batches = _batches(_golden(lo, hi, iters, lookahead), f)
    assert repr(got) == repr(want)
    assert [sorted(xs) for xs in got_batches] == [sorted(xs) for xs in want_batches]
    assert all(len(xs) == len(set(xs)) for xs in got_batches)


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
            assert _lex_first(P2.T, idxs) == j
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
    assert _lex_first(P.T, np.array([0, 1, 2, 3])) == 1
    assert _lex_first(P.T, np.array([2, 3, 0])) == 2
    assert _lex_first(P.T, np.arange(5)) == 4
    # four key columns: the first pair decides, then the second
    K = np.hstack([P[[1, 2, 3, 0]], P[[0, 3, 1, 2]]])
    assert _lex_first(K.T, np.arange(4)) == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_lex_first_matches_a_stable_lexsort(n, m, seed):
    # few distinct keys, signed zeros and NaN among them, so rows tie
    rng = np.random.default_rng(seed)
    keys = np.array([-1.0, -0.0, 0.0, 1.0, math.nan])
    K = keys[rng.integers(0, 5, (n, m))]
    rows = rng.permutation(n)[:rng.integers(1, n + 1)]
    assert _lex_first(K.T, rows) == rows[np.lexsort(K[rows].T[::-1])[0]]


def _best_row_loop(vals, X1, X2):
    best = None
    for k, v in enumerate(vals):
        if not math.isfinite(v):
            continue
        w = _as_witness(X1[k], X2[k])
        if best is None or _improves(float(v), w, best[0], best[1]):
            best = (float(v), w, k)
    return best


def test_best_row_matches_improves_loop():
    z, inf, nan = 0.0, math.inf, math.nan
    P = np.array([[0.0, 1.0], [-0.0, 0.0], [0.0, 0.0], [0.0, -0.0], [-1.0, 5.0], [0.0, 1.0]])
    cases = [
        ([1.0, 2.0, 2.0, 1.0, nan, 2.0], P, P[::-1]),
        # zeros of either sign tie; the witness decides and the row keeps its sign
        ([-z, z, -z, z, -inf, nan], P, P),
        ([z, -z, z, -z, z, -z], P[::-1], P),
        # equal witnesses: the first row wins
        ([3.0, 3.0, 1.0, 3.0, 3.0, inf], P[[1, 2, 3, 1, 2, 3]], P[[2, 1, 3, 3, 2, 1]]),
        ([nan, -inf, 7.0, nan, inf, -inf], P, P),
        ([-inf, -inf, -2.0, -2.0, -2.0, -2.0], P, P[[5, 4, 3, 2, 1, 0]]),
        # integer values, as an objective may return
        ([1, 3, 3, 0, 3, 2], P, P[::-1]),
    ]
    for vals, X1, X2 in cases:
        vals = np.array(vals)
        got = _best_row(vals, X1, X2)
        assert repr(got) == repr(_best_row_loop(vals, X1, X2))
    for vals in ([nan, inf, -inf], [inf], [nan]):
        vals = np.array(vals)
        assert _best_row(vals, P[:len(vals)], P[:len(vals)]) is None
        assert _best_row_loop(vals, P[:len(vals)], P[:len(vals)]) is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
                min_size=1, max_size=12),
       st.integers(0, 2 ** 32 - 1))
def test_best_row_matches_improves_loop_on_random_ties(vals, seed):
    rng = np.random.default_rng(seed)
    # few distinct coordinates, signed zeros among them, so witnesses tie too
    coords = np.array([-1.0, -0.0, 0.0, 1.0])
    X1 = coords[rng.integers(0, 4, (len(vals), 2))]
    X2 = coords[rng.integers(0, 4, (len(vals), 2))]
    vals = np.array(vals)
    assert repr(_best_row(vals, X1, X2)) == repr(_best_row_loop(vals, X1, X2))


# ------------------------------------------ block scan and batched refinement


def _point_2d(space, region, params):
    theta = params[0]
    row = np.array([[math.cos(theta), math.sin(theta)]])
    row = row / space.norm_rows(row)[:, None]
    if region is Region.BALL:
        row = row * min(max(params[1], 0.0), 1.0)
    return row[0]


def _sup_pairs_2d_reference(space, evb, region, resolution, refine_iters, radial):
    """The grid engine one P1 row and one golden probe at a time."""
    r1, r2 = (region, region) if isinstance(region, Region) else region
    P1, par1 = _grid_axes_2d(space, r1, resolution, radial)
    P2, par2 = _grid_axes_2d(space, r2, resolution, radial)
    best_v = best_w = best_par = None
    for i in range(P1.shape[0]):
        vals = evb(np.broadcast_to(P1[i], P2.shape), P2)
        finite = np.isfinite(vals)
        if not finite.any():
            continue
        vmax = vals[finite].max()
        idxs = np.flatnonzero(finite & (vals == vmax))
        j = min(idxs, key=lambda k: tuple(P2[k]))
        w = _as_witness(P1[i], P2[j])
        # the value is the objective's at the witness: a zero keeps its sign
        if _improves(float(vals[j]), w, best_v, best_w):
            best_v, best_w = float(vals[j]), w
            best_par = np.concatenate([par1[i], par2[j]])
    evaluations = P1.shape[0] * P2.shape[0]
    k1 = par1.shape[1]
    widths = []
    for reg in (r1, r2):
        widths.append(2.0 * math.pi / resolution)
        if reg is Region.BALL:
            widths.append(1.0 / (radial - 1))
    params = best_par.astype(float).copy()

    def at(ci, x):
        trial = params.copy()
        trial[ci] = x
        x1 = _point_2d(space, r1, trial[:k1])
        x2 = _point_2d(space, r2, trial[k1:])
        return float(evb(x1[None, :], x2[None, :])[0]), _as_witness(x1, x2)

    idle = 0
    for rnd in range(refine_iters):
        moved = False
        for ci in range(len(params)):
            h = widths[ci] * 0.6 ** rnd
            (v, x, payload), _ = _golden_reference(lambda x: at(ci, x), params[ci] - h,
                                                   params[ci] + h, _GOLDEN_ITERS)
            evaluations += _GOLDEN_ITERS + 2
            if v is not None and _improves(v, payload, best_v, best_w):
                # only a gain above rounding moves the search
                moved = moved or v - best_v > _RISE * abs(best_v)
                best_v, best_w = v, payload
                params[ci] = x
        # the search stops after _IDLE_ROUNDS rounds in a row that moved nothing
        idle = 0 if moved else idle + 1
        if idle == _IDLE_ROUNDS:
            break
    return Estimate(value=best_v, witness=best_w, strategy="Grid2D", exact=False,
                    evaluations=evaluations)


_ENGINE_SPACES = (L1, LINF, L2, lp_space(3, 2), parse_space("wlp:q=3,dim=2,w=1;2"), HEX)


_ANGLES = st.one_of(st.floats(-60.0, 60.0),
                    st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2 * math.pi,
                                     -2 * math.pi, 4 * math.pi + 1e-9, 1e6, -1e6]))
_RADII = st.one_of(st.floats(-2.0, 3.0),
                   st.sampled_from([0.0, -0.0, 1.0, -1e-300, 1.0 + 2 ** -52, math.nan]))


def _laid_out(P, layout):
    """``P`` as a contiguous array, as a view whose columns step over every
    other element, or as a view with negative strides."""
    if layout == "strided":
        return np.repeat(P, 2, axis=1)[:, ::2]
    if layout == "reversed":
        return np.ascontiguousarray(P[::-1])[::-1]
    return np.ascontiguousarray(P)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_ENGINE_SPACES),
       st.lists(st.tuples(_ANGLES, _RADII), min_size=1, max_size=70),
       st.sampled_from(["contiguous", "strided", "reversed"]))
def test_array_rows_match_per_row_math(space, rows, layout):
    # _points_2d and the unit-isosceles arc directions build their rows with
    # array cos / sin; each must have the bits of a per-row math.cos /
    # math.sin row, whatever the batch length and the column's stride
    P = np.array(rows)
    for region, params in ((Region.SPHERE, P[:, :1]), (Region.BALL, P)):
        params = _laid_out(params, layout)
        want = np.array([_point_2d(space, region, row) for row in params])
        assert _points_2d(space, region, params).tobytes() == want.tobytes()
    t = _laid_out(P[:, :1], layout)[:, 0]
    w = np.array([[-math.sin(x), math.cos(x)] for x in t])
    want = np.concatenate([w[k:k + 1] / space.norm_rows(w[k:k + 1])[:, None]
                           for k in range(len(w))])
    assert _arc_directions(space, t).tobytes() == want.tobytes()


def _engine_objective(kind, space):
    if kind == "min_form":
        return lambda X1, X2: np.minimum(space.norm_rows(X1 + X2),
                                         space.norm_rows(X1 - X2))
    if kind == "quantized":
        return lambda X1, X2: np.round(space.norm_rows(X1 + 0.5 * X2), 1)
    if kind == "nan_gapped":
        def evb(X1, X2):
            out = space.norm_rows(X1 - 2.0 * X2)
            return np.where(X1[:, 1] * X2[:, 0] > 0.1, np.nan, out)
        return evb
    # maximal where x2 = 0, the radius-0 ring of a ball grid, at +0.0 or
    # -0.0 with the sign of x2's first coordinate
    return lambda X1, X2: 0.0 * X2[:, 0] - space.norm_rows(X2)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_ENGINE_SPACES),
       st.sampled_from([Region.SPHERE, (Region.SPHERE, Region.BALL), Region.BALL]),
       st.sampled_from(["min_form", "quantized", "nan_gapped", "radius_0"]),
       st.integers(8, 64), st.sampled_from([0, 1, 2, 3, 10]), st.integers(2, 5))
def test_block_scan_and_batched_refine_are_bit_identical(space, region, kind, res,
                                                         refine, radial):
    evb = _engine_objective(kind, space)
    want = _sup_pairs_2d_reference(space, evb, region, res, refine, radial)
    got = sup_pairs_2d(space, batch_objective(evb), region, resolution=res,
                       refine_iters=refine, radial=radial)
    # repr keeps the sign of zero, which == does not
    assert repr(got) == repr(want)


def test_refine_stops_after_idle_rounds():
    # a constant objective never replaces the scan's witness, so every search
    # runs _IDLE_ROUNDS rounds, however large the cap: the probe calls of a
    # run capped there, and _IDLE_ROUNDS passes per coordinate counted
    calls = []

    def constant(X1, X2):
        calls.append(X1.shape[0])
        return np.ones(X1.shape[0])

    for space, region, coords in ((L2, Region.SPHERE, 2), (HEX, (Region.SPHERE, Region.BALL), 3),
                                  (lp_space(3, 2), Region.BALL, 4)):
        counts, evaluations = {}, {}
        for refine in (0, 1, _IDLE_ROUNDS, 40, 10 ** 9):
            calls.clear()
            est = sup_pairs_2d(space, batch_objective(constant), region, resolution=16,
                               refine_iters=refine, radial=3)
            counts[refine], evaluations[refine] = len(calls), est.evaluations
        per_round = counts[1] - counts[0]
        assert per_round > 0
        assert counts[40] == counts[10 ** 9] == counts[0] + _IDLE_ROUNDS * per_round
        assert counts[_IDLE_ROUNDS] == counts[40]
        for refine, n in evaluations.items():
            # evaluations[0] is the scanned pairs
            rounds = min(refine, _IDLE_ROUNDS)
            assert n == evaluations[0] + rounds * coords * (_GOLDEN_ITERS + 2)

    def refined(gain, shift, cap):
        # one search on one coordinate, from value 1.0 and witness 0.0, whose
        # every probe reads its best value plus gain and its best witness plus
        # shift: (rounds run, final value, final witness)
        best_v, best_w = [1.0], [0.0]

        def probe(ci):
            return lambda ks, batches: [([best_v[k] + gain] * len(xs),
                                         [best_w[k] + shift] * len(xs))
                                        for k, xs in zip(ks, batches)]

        [n] = search._refine(best_v, best_w, np.zeros((1, 1)), [1.0], probe, cap, 1)
        return n // (_GOLDEN_ITERS + 2), best_v[0], best_w[0]

    eps = np.finfo(float).eps
    # gains of 4 ulps are accepted but are rounding, so the search stops
    for cap in (40, 10 ** 9):
        assert refined(4 * eps, 0.0, cap) == (_IDLE_ROUNDS, 1.0 + _IDLE_ROUNDS * 4 * eps, 0.0)
    # gains of 5 ulps move the search in every round up to the cap
    assert refined(5 * eps, 0.0, 40) == (40, 1.0 + 40 * 5 * eps, 0.0)
    # an equal value with a smaller witness replaces the witness in every
    # round but does not move the search
    assert refined(0.0, -1.0, 40) == (_IDLE_ROUNDS, 1.0, -float(_IDLE_ROUNDS))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_ENGINE_SPACES),
       st.sampled_from([Region.SPHERE, (Region.SPHERE, Region.BALL), Region.BALL]),
       st.sampled_from(["min_form", "quantized", "nan_gapped", "radius_0"]),
       st.integers(8, 48), st.integers(0, _IDLE_ROUNDS), st.integers(2, 4))
def test_caps_of_at_most_idle_rounds_keep_the_unstopped_bits(space, region, kind, res, refine,
                                                            radial):
    # a search stops only after _IDLE_ROUNDS idle rounds, so a cap of at most
    # that many rounds runs every round, as the engine did before the stop
    obj = batch_objective(_engine_objective(kind, space))
    got = sup_pairs_2d(space, obj, region, resolution=res, refine_iters=refine, radial=radial)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_IDLE_ROUNDS", math.inf)
        want = sup_pairs_2d(space, obj, region, resolution=res, refine_iters=refine,
                            radial=radial)
    assert repr(got) == repr(want)


def test_scan_calls_stay_within_the_block():
    # sphere x ball at the default resolution: 1024 x 9216 pairs, in calls of
    # at most _SCAN_BLOCK rows that cover every pair once
    sizes = []
    nu = batch_objective(lambda X1, X2: (L1.norm_rows(X1 + X2) ** 2 + L1.norm_rows(X1 - X2) ** 2)
                         / (L1.norm_rows(X1) ** 2 + L1.norm_rows(X2) ** 2))

    def counted(X1, X2):
        sizes.append(X1.shape[0])
        return nu.eval_batch(X1, X2)

    sup_pairs_2d(L1, batch_objective(counted), (Region.SPHERE, Region.BALL),
                 resolution=1024, refine_iters=0, radial=9)
    assert max(sizes) <= _SCAN_BLOCK
    assert sum(sizes) == 1024 * 1024 * 9


# ------------------------------------- x1 on one fundamental domain of the grid


def _catalog_objectives(space):
    # every objective builder of the constants catalog, each declared invariant
    return [cns.gamma_objective(space, 2.0, 0.3), _family("cinj_iso", space, 3.0)(0.2),
            cns._min_form_objective(space),
            cns._rho_objective(space, 0.7), cns._cnj_modified_objective(space, 2.0),
            cns._jxp_objective(space, 3.0, 0.5), cns._nu_objective(space, 2.0),
            cns._omega_objective(space)]


@pytest.mark.parametrize("space", [L1, lp_space(1.5, 2), L2, lp_space(3, 2), LINF,
                                   parse_space("wlp:q=3,dim=2,w=1;2"), HEX], ids=str)
@pytest.mark.parametrize("res", [48, 36, 30, 33])
def test_reduced_scan_matches_the_full_scan(space, res):
    # 8 | 48; 36 and 30 fall back to the sign flips and to -x, and 33 to the
    # whole grid (l2 fixes x1 at angle 0 at every res; the hexagon's group of
    # order 12 takes 48 and 36, its rotations alone 30); x2 scans half its
    # circle at even res, where -x holds on every one of these spaces: the
    # raw grid maximum over the scanned pairs is the full grid's to rounding
    angles2 = res // 2 if res % 2 == 0 else res
    for obj in _catalog_objectives(space):
        assert obj.isometry_invariant
        for region in (Region.SPHERE, Region.BALL, (Region.SPHERE, Region.BALL)):
            got = sup_pairs_2d(space, obj, region, resolution=res, refine_iters=0, radial=3)
            want = sup_pairs_2d(space, dataclasses.replace(obj, isometry_invariant=False),
                                region, resolution=res, refine_iters=0, radial=3)
            assert abs(got.value - want.value) <= 1e-12 * abs(want.value), (obj.name, region)
            rows1 = 1 if region is Region.SPHERE or isinstance(region, tuple) else 3
            rows2 = 1 if region is Region.SPHERE else 3
            n1 = rows1 * isometry_domain(space, res).size
            assert (got.evaluations, want.evaluations) == (n1 * rows2 * angles2,
                                                           rows1 * rows2 * res * res)


def test_declared_scan_covers_the_domain_within_the_block():
    # nu_p's sphere x ball scan at the default resolution on l1: the 129
    # angles of x1's domain against the 512 x 9 ball points of x2's half
    # circle, in calls of at most _SCAN_BLOCK rows that cover every scanned
    # pair once
    sizes = []
    nu = cns._nu_objective(L1, 2.0)

    def counted(X1, X2):
        sizes.append(X1.shape[0])
        return nu.eval_batch(X1, X2)

    est = sup_pairs_2d(L1, dataclasses.replace(nu, eval_batch=counted),
                       (Region.SPHERE, Region.BALL), resolution=1024, refine_iters=0, radial=9)
    assert isometry_domain(L1, 1024).size == 1024 // 8 + 1
    assert max(sizes) <= _SCAN_BLOCK
    assert sum(sizes) == est.evaluations == (1024 // 8 + 1) * 512 * 9


def test_polygons_scan_one_domain_and_undeclared_objectives_the_full_grid():
    # the hexagon's dihedral group of order 12 puts x1 on 0 <= k <= 48 / 12
    # and x2 on half its circle; an objective that does not declare
    # invariance scans the whole grid
    hexagon = cns._min_form_objective(HEX)
    assert hexagon.isometry_invariant
    assert sup_pairs_2d(HEX, hexagon, Region.SPHERE, resolution=48,
                        refine_iters=0).evaluations == (48 // 12 + 1) * 24
    for space in (L1, HEX):
        for obj in (batch_objective(lambda X1, X2: space.norm_rows(X1 + X2)),
                    scalar_objective(lambda x1, x2: abs(x1[0] - x2[1]))):
            assert not obj.isometry_invariant
            assert sup_pairs_2d(space, obj, Region.SPHERE, resolution=16,
                                refine_iters=0).evaluations == 16 * 16


_SQRT3_2 = math.sqrt(3.0) / 2.0
_HEX_TABLE = [(1.0, 0.0), (0.5, _SQRT3_2), (-0.5, _SQRT3_2), (-1.0, 0.0), (-0.5, -_SQRT3_2),
              (0.5, -_SQRT3_2)]


def _moved_hexagon(moves):
    # the hexagon with vertex i moved by dx along x for each (i, dx) of moves
    table = list(_HEX_TABLE)
    for i, dx in moves:
        table[i] = (table[i][0] + dx, table[i][1])
    return make_polyhedral_2d(table)


# polygons whose maps hold only in part, with x1's domain size per res: a
# vertex pair of the hexagon moved by 1e-10 keeps -x to rounding and loses the
# rest; one vertex moved keeps none, though the constructor's 1e-9 tolerance
# accepts it; the regular octagon turned by 0.3 keeps its rotations and no
# flip; an octagon with the square's symmetry but not regular keeps the sign
# flips and the swap, the 8 signed permutations, but not the rotation by 45
# degrees
_HALF = {96: 48, 48: 24, 36: 18, 30: 15}
_PARTLY_SYMMETRIC = {
    "hexagon-pair-moved": (_moved_hexagon([(1, 1e-10), (4, -1e-10)]), _HALF),
    "hexagon-vertex-moved": (_moved_hexagon([(1, 1e-10)]), {96: 96, 48: 48, 36: 36, 30: 30}),
    "octagon-0.3": (regular_polygon_space(8, 0.3), {96: 12, 48: 6, 36: 18, 30: 15}),
    "irregular-hexagon": (make_polyhedral_2d([(1, 0), (-1, 0), (0.3, 1), (-0.3, -1),
                                              (-0.8, 0.6), (0.8, -0.6)]), _HALF),
    "octagon-2-1": (make_polyhedral_2d([(2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2),
                                        (1, -2), (2, -1)]), {96: 13, 48: 7, 36: 10, 30: 15}),
}


@pytest.mark.parametrize("name", sorted(_PARTLY_SYMMETRIC))
@pytest.mark.parametrize("res", [96, 48, 36, 30])
def test_polygon_domains_use_only_the_maps_that_hold_to_rounding(name, res):
    # the domain scan's raw grid maximum is the full scan's to 8 ulps of the
    # value or of 1, whichever is larger, on every catalog objective (the
    # grid's own rounding: the point at k + res / 2 is minus the point at k
    # to rounding only; rho's value is a difference of norms near 1), and
    # the unit-isosceles scan's extremum to 4 ulps
    space, sizes = _PARTLY_SYMMETRIC[name]
    size = sizes[res]
    assert isometry_domain(space, res).tolist() == list(range(size))
    for obj in _catalog_objectives(space):
        for region in (Region.SPHERE, Region.BALL, (Region.SPHERE, Region.BALL)):
            got = sup_pairs_2d(space, obj, region, resolution=res, refine_iters=0, radial=3)
            want = sup_pairs_2d(space, dataclasses.replace(obj, isometry_invariant=False),
                                region, resolution=res, refine_iters=0, radial=3)
            assert abs(got.value - want.value) <= 8 * math.ulp(max(abs(want.value), 1.0)), \
                (obj.name, region)
    strat = Grid2DStrategy(resolution=res, refine=0)
    for sense in ("sup", "inf"):
        got = cns._unit_iso_extremum(space, sense, strat)
        with mock.patch.object(cns, "isometry_domain", lambda space, res: np.arange(res)):
            want = cns._unit_iso_extremum(space, sense, strat)
        assert abs(got[0] - want[0]) <= 4 * math.ulp(want[0])
        assert (got[2], want[2]) == (size, res)


@pytest.mark.parametrize("sides, phase, res", [(8, 0.3, 96), (8, 0.3, 120), (10, 0.1, 60),
                                               (12, 0.05, 96)])
def test_rotations_alone_reduce_the_scan(sides, phase, res):
    # a regular polygon turned off its axes has its rotations by 2 pi / sides
    # and no flip: x1 scans k < res / sides; the unit-isosceles scan's
    # extremum is the full scan's to 4 ulps, and every catalog objective's
    # raw grid maximum to 8 ulps of the value or of 1
    space = regular_polygon_space(sides, phase)
    assert space._symmetry == (sides, False)
    assert isometry_domain(space, res).tolist() == list(range(res // sides))
    strat = Grid2DStrategy(resolution=res, refine=0)
    for sense in ("sup", "inf"):
        got = cns._unit_iso_extremum(space, sense, strat)
        with mock.patch.object(cns, "isometry_domain", lambda space, res: np.arange(res)):
            want = cns._unit_iso_extremum(space, sense, strat)
        assert abs(got[0] - want[0]) <= 4 * math.ulp(want[0])
        assert (got[2], want[2]) == (res // sides, res)
    for obj in _catalog_objectives(space):
        for region in (Region.SPHERE, Region.BALL, (Region.SPHERE, Region.BALL)):
            got = sup_pairs_2d(space, obj, region, resolution=res, refine_iters=0, radial=3)
            want = sup_pairs_2d(space, dataclasses.replace(obj, isometry_invariant=False),
                                region, resolution=res, refine_iters=0, radial=3)
            assert abs(got.value - want.value) <= 8 * math.ulp(max(abs(want.value), 1.0)), \
                (obj.name, region)


_EVEN_SPACES = (L1, lp_space(1.5, 2), L2, lp_space(3, 2), LINF,
                parse_space("wlp:q=3,dim=2,w=1;2"), parse_space("wlp:q=1.5,dim=2,w=0.5;3"),
                parse_space("wlp:q=inf,dim=2,w=2;1"))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_EVEN_SPACES),
       st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 4), min_size=1, max_size=8))
def test_catalog_objectives_are_even_in_x2_bit_for_bit(space, rows):
    # the contract behind x2's half-circle scan: on lp and wlp, where
    # |-v| = |v| exactly, f(x1, -x2) has the bits of f(x1, x2)
    R = np.array(rows)
    X1, X2 = R[:, :2], R[:, 2:]
    for obj in _catalog_objectives(space):
        assert obj.eval_batch(X1, -X2).tobytes() == obj.eval_batch(X1, X2).tobytes(), obj.name


@pytest.mark.parametrize("space, res", [(L1, 33), (lp_space(3, 2), 31), (HEX, 33),
                                        (_moved_hexagon([(1, 1e-10)]), 48),
                                        (_moved_hexagon([(1, 1e-10)]), 30)], ids=str)
def test_x2_scans_its_whole_grid_at_odd_res_or_without_minus_x(space, res):
    # an odd res has no half circle, and the hexagon with one vertex moved
    # keeps no isometry, -x included (order 1): both scan x1 and x2 over the
    # whole grid, so the declared scan is the undeclared one bit for bit
    assert isometry_domain(space, res).size == res
    for obj in _catalog_objectives(space):
        for region in (Region.SPHERE, (Region.SPHERE, Region.BALL)):
            got = sup_pairs_2d(space, obj, region, resolution=res, refine_iters=0, radial=3)
            want = sup_pairs_2d(space, dataclasses.replace(obj, isometry_invariant=False),
                                region, resolution=res, refine_iters=0, radial=3)
            assert repr(got) == repr(want), (obj.name, region)
            assert got.evaluations == res * (1 if region is Region.SPHERE else 3) * res


@pytest.mark.parametrize("res", [96, 120])
def test_rotated_octagon_scans_half_of_x2(res):
    # rotations by 2 pi / 8 and no flip: -x is the rotation by pi, so x2
    # scans res / 2 angles against x1's res / 8
    space = regular_polygon_space(8, 0.3)
    assert space._symmetry == (8, False)
    for obj in _catalog_objectives(space):
        for region, rows1, rows2 in ((Region.SPHERE, 1, 1), (Region.BALL, 3, 3),
                                     ((Region.SPHERE, Region.BALL), 1, 3)):
            got = sup_pairs_2d(space, obj, region, resolution=res, refine_iters=0, radial=3)
            assert got.evaluations == rows1 * (res // 8) * rows2 * (res // 2), (obj.name, region)


# ----------------------------------------- K objectives in one lockstep run


def _stack_family(kind, space, p):
    if kind != "nan_gapped":
        return _family(kind, space, p)

    def family(theta):
        # NaN where the pair's cross term exceeds a theta-dependent level;
        # theta is a float or an (n, 1) column
        th = np.ravel(theta)

        def evb(X1, X2):
            out = space.norm_rows(X1 - th[:, None] * X2) ** p
            return np.where(X1[:, 1] * X2[:, 0] > 0.2 * th - 0.05, np.nan, out)

        return batch_objective(evb)

    return family


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ENGINE_SPACES),
       st.sampled_from([Region.SPHERE, (Region.SPHERE, Region.BALL),
                        (Region.BALL, Region.BALL)]),
       st.sampled_from(["gamma_p", "cinj_iso", "nan_gapped"]),
       st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5]), min_size=1, max_size=6),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       st.integers(8, 64), st.sampled_from([0, 1, 2, 3, 12]), st.integers(2, 5))
# under a cap of 12 rounds these four searches run 10, 12, 12 and 3
@example(HEX, Region.SPHERE, "cinj_iso", [0.1, 0.25, 0.3, 0.5], 3.0, 32, 12, 2)
def test_stacked_engine_matches_single_runs(space, region, kind, thetas, p, res, refine,
                                            radial):
    family = _stack_family(kind, space, p)
    got, _ = _sup_pairs_2d_stack(space, family, thetas, region,
                                 Grid2DStrategy(res, refine, radial))
    want = [sup_pairs_2d(space, family(theta), region, resolution=res, refine_iters=refine,
                         radial=radial) for theta in thetas]
    # repr keeps the sign of zero, which == does not, and holds evaluations,
    # which count the rounds each search ran
    assert [repr(e) for e in got] == [repr(e) for e in want]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_ENGINE_SPACES),
       st.sampled_from([Region.SPHERE, (Region.SPHERE, Region.BALL),
                        (Region.BALL, Region.BALL)]),
       st.sampled_from(["gamma_p", "cinj_iso", "nan_gapped"]),
       st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5]), min_size=1, max_size=4),
       st.integers(8, 48), st.integers(0, 3), st.integers(2, 5))
def test_stacked_engine_end_params_rebuild_each_witness(space, region, kind, thetas, res,
                                                        refine, radial):
    # params[k] holds the grid parameters search k ended at: x1's (angle, and
    # in the ball radius) then x2's, which rebuild its witness bit for bit
    ests, params = _sup_pairs_2d_stack(space, _stack_family(kind, space, 2.0), thetas, region,
                                       Grid2DStrategy(res, refine, radial))
    reg1, reg2 = (region, region) if isinstance(region, Region) else region
    k1 = 1 if reg1 is Region.SPHERE else 2
    assert params.shape == (len(thetas), k1 + (1 if reg2 is Region.SPHERE else 2))
    for est, row in zip(ests, params):
        x1 = _points_2d(space, reg1, row[None, :k1])
        x2 = _points_2d(space, reg2, row[None, k1:])
        assert np.concatenate([x1, x2]).tobytes() == np.array(est.witness).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_ENGINE_SPACES),
       st.sampled_from([Region.SPHERE, (Region.BALL, Region.BALL)]),
       st.sampled_from(["gamma_p", "cinj_iso", "nan_gapped"]),
       st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5]), min_size=1, max_size=5),
       st.integers(8, 48), st.integers(1, 4), st.data())
def test_stacked_engine_refines_only_what_pick_returns(space, region, kind, thetas, res,
                                                       refine, data):
    # a picked search is the one a stack that refines all gives; the others
    # are the raw grid maxima, which pick is handed
    family = _stack_family(kind, space, 2.0)
    raw, raw_params = _sup_pairs_2d_stack(space, family, thetas, region, Grid2DStrategy(res, 0, 3))
    full, full_params = _sup_pairs_2d_stack(space, family, thetas, region,
                                            Grid2DStrategy(res, refine, 3))
    chosen = data.draw(st.sets(st.sampled_from(range(len(thetas)))))
    handed = []

    def pick(values):
        handed.append(list(values))
        return list(chosen)[::-1]

    got, params = _sup_pairs_2d_stack(space, family, thetas, region,
                                      Grid2DStrategy(res, refine, 3), pick)
    assert handed == [[e.value for e in raw]]
    for k, est in enumerate(got):
        want, want_params = (full, full_params) if k in chosen else (raw, raw_params)
        assert repr(est) == repr(want[k])
        assert params[k].tobytes() == want_params[k].tobytes()


def test_stacked_engine_edge_cases():
    family = _stack_family("gamma_p", L2, 2.0)
    strat = Grid2DStrategy(16, 1, 2)
    assert _sup_pairs_2d_stack(L2, family, [], Region.SPHERE, strat)[0] == []
    with pytest.raises(ValueError):
        _sup_pairs_2d_stack(lp_space(2, 3), family, [0.5], Region.SPHERE, strat)
    # one objective with no finite value fails the run, as its own run would
    nowhere = batch_objective(lambda X1, X2: np.full(X1.shape[0], np.nan))
    with pytest.raises(ValueError, match="no finite value"):
        _sup_pairs_2d_stack(L2, lambda th: nowhere if th == 1.0 else family(th),
                            [0.5, 1.0], Region.SPHERE, strat)


@pytest.mark.parametrize("space", [lp_space(3, 2), parse_space("wlp:q=3,dim=2,w=1;2"),
                                   regular_polygon_space(6)], ids=str)
@pytest.mark.parametrize("resolution, radial", [(1024, 9), (96, 5), (7, 1)])
def test_ball_axes_match_points_2d(space, resolution, radial):
    # the ball axis normalizes each angle once and scales it by every radius:
    # the rows of _points_2d on the same parameters, bit for bit
    P, params = _grid_axes_2d(space, Region.BALL, resolution, radial)
    assert params.shape == (resolution * radial, 2)
    assert P.tobytes() == _points_2d(space, Region.BALL, params).tobytes()
