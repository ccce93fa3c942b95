"""The unit-isosceles extremum and the multi-start engine on the shared loops.

``_unit_iso_extremum`` and ``sup_pairs_nd`` run on ``search``'s one copy of
the reduction (``_best_row``), the golden refinement (``_refine``) and the
multi-start ascent (``_ascend``).  The references below are those functions
as they were written before that fold, each with its own copy of the loops
(the grid reference also stops its refinement after ``_IDLE_ROUNDS`` idle
rounds, as ``_refine`` does, and scans x1 over ``isometry_domain`` only);
the ``repr`` of value, witness and evaluations must match bit for bit.
"""

import collections
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normconst import constants, search
from normconst.constants import (_ISO_LOOKAHEAD, _iso_partner_rows, _min_form_objective,
                                 _nu_objective, _unit_iso_extremum, _unit_iso_pairs,
                                 gamma_objective)
from normconst.search import (_GOLDEN_ITERS, _IDLE_ROUNDS, Grid2DStrategy, MultiStartStrategy,
                              _WitnessRows, _as_witness, _ascend, _batch, _golden_max,
                              _region_pair, _start_draws, batch_objective, sup_pairs_nd)
from normconst.spaces import (TWO_PI, Region, isometry_domain, lp_space, parse_space,
                              regular_polygon_space)
from test_search import _improves


def _unit_iso_eval_rows(space, Zraw):
    X1raw = Zraw[:, 0, :]
    Wraw = Zraw[:, 1, :]
    n1 = space.norm_rows(X1raw)
    e1 = np.sqrt((X1raw * X1raw).sum(axis=-1))
    ok = (n1 > 0.0) & (e1 > 0.0)
    safe_n1 = np.where(ok, n1, 1.0)
    X1 = X1raw / safe_n1[:, None]
    E = X1raw / np.where(ok, e1, 1.0)[:, None]
    Wc = Wraw - ((Wraw * E).sum(axis=-1))[:, None] * E
    wres = np.sqrt((Wc * Wc).sum(axis=-1))
    wref = np.sqrt((Wraw * Wraw).sum(axis=-1))
    ok = ok & (wres > 1e-12 * np.maximum(wref, 1.0))
    nw = space.norm_rows(Wc)
    W = Wc / np.where(ok & (nw > 0.0), nw, 1.0)[:, None]
    C = _iso_partner_rows(space, X1, W)
    vals = space.norm_rows(X1 + C)
    vals = np.where(ok, vals, np.nan)
    return vals, X1, C


def _unit_iso_extremum_reference(space, sense, strat, edit=None):
    """The extremum as written before the fold; ``edit`` may rewrite the
    multi-start draws in place before the ascent."""
    sign = 1.0 if sense == "sup" else -1.0
    if isinstance(strat, Grid2DStrategy):
        res, refine = strat.resolution, strat.refine
        # x1 on one fundamental domain of the grid under the isometries
        thetas = isometry_domain(space, res) * (TWO_PI / res)
        D = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        X1 = D / space.norm_rows(D)[:, None]
        DW = np.stack([-np.sin(thetas), np.cos(thetas)], axis=1)
        W = DW / space.norm_rows(DW)[:, None]
        C = _iso_partner_rows(space, X1, W)
        vals = sign * space.norm_rows(X1 + C)
        evaluations = thetas.size
        best_v = None
        best_w = None
        best_theta = None
        for i in range(thetas.size):
            if not math.isfinite(vals[i]):
                continue
            w = (tuple(float(x) for x in X1[i]), tuple(float(x) for x in C[i]))
            if _improves(float(vals[i]), w, best_v, best_w):
                best_v, best_w, best_theta = float(vals[i]), w, float(thetas[i])

        def fun(thetas):
            rows = np.array([[math.cos(t), math.sin(t)] for t in thetas])
            x1 = rows / space.norm_rows(rows)[:, None]
            wrows = np.array([[-math.sin(t), math.cos(t)] for t in thetas])
            wrows = wrows / space.norm_rows(wrows)[:, None]
            c = _iso_partner_rows(space, x1, wrows)
            return sign * space.norm_rows(x1 + c), _WitnessRows(x1, c)

        cell = TWO_PI / res
        idle = 0
        for rnd in range(refine):
            h = cell * (0.6 ** rnd)
            v, x, payload = _golden_max(fun, best_theta - h, best_theta + h, _GOLDEN_ITERS,
                                        lookahead=_ISO_LOOKAHEAD)
            evaluations += _GOLDEN_ITERS + 2
            if v is not None and _improves(v, payload, best_v, best_w):
                best_v, best_w, best_theta = v, payload, x
                idle = 0
            else:
                # refinement stops after _IDLE_ROUNDS rounds in a row that moved nothing
                idle += 1
                if idle == _IDLE_ROUNDS:
                    break
        return sign * best_v, best_w, evaluations

    starts, steps, seed = strat.starts, strat.steps, strat.seed
    d = space.dim
    children = np.random.SeedSequence(seed).spawn(starts)
    Z = np.empty((starts, 2, d))
    for i, ss in enumerate(children):
        rng = np.random.default_rng(ss)
        Z[i] = rng.standard_normal((2, d))
    if edit is not None:
        edit(Z)
    vals, X1, C = _unit_iso_eval_rows(space, Z)
    vals = np.where(np.isfinite(vals), sign * vals, -np.inf)
    evaluations = starts
    h = np.full(starts, 0.5)
    stall = np.zeros(starts, dtype=int)
    ncoord = 2 * d
    bestX1, bestC = X1.copy(), C.copy()
    for it in range(steps):
        v, c = divmod(it % ncoord, d)
        improved = np.zeros(starts, dtype=bool)
        for sgn in (1.0, -1.0):
            cand = Z.copy()
            cand[:, v, c] += sgn * h
            cv, cX1, cC = _unit_iso_eval_rows(space, cand)
            evaluations += starts
            cv = np.where(np.isfinite(cv), sign * cv, -np.inf)
            adv = cv > vals
            if adv.any():
                Z[adv] = cand[adv]
                vals[adv] = cv[adv]
                bestX1[adv] = cX1[adv]
                bestC[adv] = cC[adv]
                improved |= adv
        stall = np.where(improved, 0, stall + 1)
        shrink = stall >= ncoord
        h = np.where(shrink, h * 0.6, h)
        stall = np.where(shrink, 0, stall)
    best_v = None
    best_w = None
    for i in range(starts):
        if not math.isfinite(vals[i]):
            continue
        w = (tuple(float(x) for x in bestX1[i]), tuple(float(x) for x in bestC[i]))
        if _improves(float(vals[i]), w, best_v, best_w):
            best_v, best_w = float(vals[i]), w
    return sign * best_v, best_w, evaluations


def _sup_pairs_nd_reference(space, f, region, starts, steps, seed):
    d = space.dim
    reg1, reg2 = _region_pair(region)
    regs = (reg1, reg2)
    fb = _batch(f)

    children = np.random.SeedSequence(seed).spawn(starts)
    Z = np.empty((starts, 2, d))
    for i, ss in enumerate(children):
        rng = np.random.default_rng(ss)
        zi = rng.standard_normal((2, d))
        radii = rng.random(2)
        for v in range(2):
            nv = float(space.norm_rows(zi[v].reshape(1, -1))[0])
            if nv == 0.0:
                zi[v] = 0.0
                zi[v][0] = 1.0
                nv = float(space.norm_rows(zi[v].reshape(1, -1))[0])
            zi[v] /= nv
            if regs[v] is Region.BALL:
                zi[v] *= radii[v] ** (1.0 / d)
        Z[i] = zi

    vals = fb(Z[:, 0, :], Z[:, 1, :])
    evaluations = starts
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    h = np.full(starts, 0.5)
    stall = np.zeros(starts, dtype=int)
    ncoord = 2 * d

    for it in range(steps):
        v, c = divmod(it % ncoord, d)
        improved = np.zeros(starts, dtype=bool)
        for sgn in (1.0, -1.0):
            cand = Z.copy()
            cand[:, v, c] += sgn * h
            Vv = cand[:, v, :]
            nv = space.norm_rows(Vv)
            if regs[v] is Region.SPHERE:
                ok = nv > 0.0
                safe = np.where(ok, nv, 1.0)
                cand[:, v, :] = Vv / safe[:, None]
            else:
                ok = np.ones(starts, dtype=bool)
                scale = np.maximum(nv, 1.0)
                cand[:, v, :] = Vv / scale[:, None]
            cv = fb(cand[:, 0, :], cand[:, 1, :])
            evaluations += starts
            cv = np.where(ok & np.isfinite(cv), cv, -np.inf)
            adv = cv > vals
            if adv.any():
                Z[adv] = cand[adv]
                vals[adv] = cv[adv]
                improved |= adv
        stall = np.where(improved, 0, stall + 1)
        shrink = stall >= ncoord
        h = np.where(shrink, h * 0.6, h)
        stall = np.where(shrink, 0, stall)

    best_v = None
    best_w = None
    for i in range(starts):
        if not math.isfinite(vals[i]):
            continue
        w = _as_witness(Z[i, 0], Z[i, 1])
        if _improves(float(vals[i]), w, best_v, best_w):
            best_v, best_w = float(vals[i]), w
    return best_v, best_w, evaluations


_GRID_SPACES = {
    "l1": lp_space(1, 2),
    "l2": lp_space(2, 2),
    "l3": lp_space(3, 2),
    "hex": regular_polygon_space(6),
    "wl3": parse_space("wlp:q=3,dim=2,w=1;2"),
}


@pytest.mark.parametrize("sense", ["sup", "inf"])
@pytest.mark.parametrize("name", sorted(_GRID_SPACES))
@pytest.mark.parametrize("res, refine", [(96, 4), (40, 2)])
def test_unit_iso_grid_matches_reference(name, sense, res, refine):
    space = _GRID_SPACES[name]
    strat = Grid2DStrategy(resolution=res, refine=refine)
    got = _unit_iso_extremum(space, sense, strat)
    assert repr(got) == repr(_unit_iso_extremum_reference(space, sense, strat))


_ISO_ND_SPACES = [f"lp:q={q},dim={dim}" for q in ("1", "1.5", "3", "4", "inf")
                  for dim in range(3, 7)] + ["wlp:q=3,dim=3,w=1;2;3"]


def _degenerate(Z):
    # start 0: zero x1 direction; start 1: arc direction parallel to x1
    Z[0, 0] = 0.0
    if len(Z) > 1:
        Z[1, 1] = 2.5 * Z[1, 0]


def _counting_paired_step(paths):
    """``search._paired_step``, counting the starts that move at +h with
    ``(a + h) - h`` not a bit for bit ("redo") or a bit for bit ("equal"),
    and the infeasible candidate rows ("degenerate")."""
    real = search._paired_step

    def step(Z, vals, h, v, c, lifted, keep):
        a = Z[:, v, c].copy()
        same = ((a + h) - h).view(np.int64) == a.view(np.int64)
        before = vals.copy()

        def counted(cand, v):
            out = lifted(cand, v)
            cv = out[3]
            up = cv[:len(a)] > before
            paths["redo"] += int((up & ~same).sum())
            paths["equal"] += int((up & same).sum())
            paths["degenerate"] += int(np.isneginf(cv).sum())
            return out

        return real(Z, vals, h, v, c, counted, keep)

    return step


def _check_unit_iso_multistart(name, sense, starts, steps, seed, degenerate=False):
    """Assert that the multi-start extremum is the reference's; returns the
    paths its paired steps took (``_counting_paired_step``)."""
    space = parse_space(name)
    strat = MultiStartStrategy(starts=starts, steps=steps, seed=seed)
    edit = _degenerate if degenerate else None
    paths = collections.Counter()

    def draws(seed, starts, d):
        Z, rngs = _start_draws(seed, starts, d)
        if edit is not None:
            edit(Z)
        return Z, rngs

    with mock.patch.object(constants, "_start_draws", draws), \
            mock.patch.object(search, "_paired_step", _counting_paired_step(paths)):
        got = _unit_iso_extremum(space, sense, strat)
    assert repr(got) == repr(_unit_iso_extremum_reference(space, sense, strat, edit))
    return paths


@pytest.mark.parametrize("sense", ["sup", "inf"])
@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("seed", [0, 11])
def test_unit_iso_multistart_matches_reference(dim, sense, seed):
    _check_unit_iso_multistart(f"lp:q=3,dim={dim}", sense, 6, 3 * 2 * dim, seed)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ISO_ND_SPACES), st.sampled_from(["sup", "inf"]), st.integers(1, 12),
       st.integers(1, 50), st.integers(0, 2 ** 32 - 1), st.booleans(), st.none())
@example("lp:q=3,dim=3", "sup", 6, 12, 0, False, "redo")
@example("lp:q=3,dim=4", "inf", 6, 24, 11, False, "equal")
@example("lp:q=1.5,dim=4", "sup", 5, 16, 3, True, "degenerate")
def test_unit_iso_multistart_property(name, sense, starts, steps, seed, degenerate, path):
    paths = _check_unit_iso_multistart(name, sense, starts, steps, seed, degenerate)
    assert path is None or paths[path] > 0


def test_multistart_lifts_per_step():
    # the unit-isosceles lift runs once per step, sup_pairs_nd's twice
    space = lp_space(3, 3)
    steps = 9
    rows = []

    def partner(space, X1, W, *args):
        rows.append(len(X1))
        return _iso_partner_rows(space, X1, W, *args)

    with mock.patch.object(constants, "_iso_partner_rows", partner):
        _unit_iso_extremum(space, "sup", MultiStartStrategy(starts=5, steps=steps, seed=3))
    assert len(rows) == steps + 1
    assert rows[0] == 5 and all(10 <= n <= 15 for n in rows[1:])

    lifts = []

    def ascend(fb, Z, lift, steps, **kw):
        def counted(Z, v):
            lifts.append(v)
            return lift(Z, v)
        return _ascend(fb, Z, counted, steps, **kw)

    with mock.patch.object(search, "_ascend", ascend):
        sup_pairs_nd(space, gamma_objective(space, 2.0, 0.5), Region.SPHERE, starts=5,
                     steps=steps, seed=3)
    assert len(lifts) == 2 * steps + 1


def _nan_gapped(space):
    obj = gamma_objective(space, 2.0, 0.5)

    def evb(X1, X2):
        return np.where(X1[:, 0] * X2[:, 1] > 0.2, np.nan, obj.eval_batch(X1, X2))
    return batch_objective(evb)


@pytest.mark.parametrize("space", [lp_space(3, 3), lp_space(1, 3), lp_space(math.inf, 4)],
                         ids=["l3d3", "l1d3", "linfd4"])
@pytest.mark.parametrize("kind, region", [
    ("gamma", Region.SPHERE),
    ("gamma", Region.BALL),
    ("nu", (Region.SPHERE, Region.BALL)),
    ("min_form", Region.SPHERE),
    ("nan_gapped", (Region.BALL, Region.SPHERE)),
])
def test_sup_pairs_nd_matches_reference(space, kind, region):
    obj = {"gamma": lambda: gamma_objective(space, 3.0, 0.7),
           "nu": lambda: _nu_objective(space, 2.0),
           "min_form": lambda: _min_form_objective(space),
           "nan_gapped": lambda: _nan_gapped(space)}[kind]()
    got = sup_pairs_nd(space, obj, region, starts=8, steps=40, seed=5)
    want = _sup_pairs_nd_reference(space, obj, region, 8, 40, 5)
    assert repr((got.value, got.witness, got.evaluations)) == repr(want)


def test_unit_iso_pairs_marks_the_rows_the_reference_left_nan():
    space = lp_space(3, 3)
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((12, 2, 3))
    Z[1, 0] = 0.0                       # x1 direction zero
    Z[2, 1] = 2.5 * Z[2, 0]             # arc direction parallel to x1
    Z[3, 1] = 0.0                       # arc direction zero
    Z[4, 1] = -Z[4, 0]
    vals, X1, C = _unit_iso_eval_rows(space, Z)
    kept, got1, gotC, ok = _unit_iso_pairs(space, Z)
    assert kept is Z
    assert list(~ok) == list(np.isnan(vals)) == [False] + [True] * 4 + [False] * 7
    np.testing.assert_array_equal(got1, X1)
    np.testing.assert_array_equal(gotC, C)


def test_ascend_never_keeps_an_infeasible_move():
    # fb rewards x1's first coordinate, which the lift caps at 0.3 by marking
    # every move past it infeasible, row by row; on both steps
    for keeps_params in (False, True):
        Z = np.zeros((5, 2, 2))
        Z[:, 1, 1] = np.arange(5.0)
        rows = []

        def lift(Z, v):
            rows.append(len(Z))
            return Z, Z[:, 0, :], Z[:, 1, :], Z[:, 0, 0] < 0.3

        (value, witness, _), evaluations = _ascend(lambda X1, X2: X1[:, 0], Z, lift, 40,
                                                   keeps_params=keeps_params)
        assert 0.0 < value < 0.3 and witness[0][0] == value
        assert evaluations == 5 * (1 + 2 * 40)
        # the paired step lifts P, M and some R rows in one call
        assert len(rows) == (41 if keeps_params else 81)
        assert keeps_params == any(n > 5 for n in rows)


def _bit_hash_ascent(Z, steps, keeps_params):
    # an objective of x1's bits: a point one ulp off another scores anything,
    # so the -h move back from a moved start decides as often as any move;
    # the lift marks rows infeasible by their bits too
    def bits(X):
        return np.ascontiguousarray(X).view(np.int64) % 1009

    def lift(Z, v):
        return Z, Z[:, 0, :], Z[:, 1, :], bits(Z[:, 1, :]).sum(axis=1) % 5 != 0

    return _ascend(lambda X1, X2: bits(X1).sum(axis=1).astype(float), Z, lift, steps,
                   keeps_params=keeps_params)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(1, 4), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
@example(6, 2, 30, 5)
def test_paired_step_matches_sequential_on_a_bit_hash(starts, d, steps, seed):
    Z = np.random.default_rng(seed).standard_normal((starts, 2, d))
    want = _bit_hash_ascent(Z.copy(), steps, False)
    assert repr(_bit_hash_ascent(Z, steps, True)) == repr(want)


@pytest.mark.parametrize("a", [0.1, -0.0])
def test_paired_step_keeps_the_move_back_from_a_moved_start(a):
    # at h = 0.5 the +h move reaches a + 0.5 and the -h move from there
    # reaches 0.09999999999999998 from 0.1, and 0.0 from -0.0: not a bit for
    # bit, and the best point of the three
    back = (a + 0.5) - 0.5
    assert repr(back) != repr(a)
    Z = np.full((1, 2, 1), a)

    def lift(Z, v):
        return Z, Z[:, 0, :], Z[:, 1, :], np.ones(len(Z), dtype=bool)

    def fb(X1, X2):
        x = X1[:, 0]
        hit = (x == back) & (np.signbit(x) == np.signbit(back))
        return np.where(hit, 2.0, np.where(x > a, 1.0, 0.0))

    for keeps_params in (False, True):
        (value, witness, _), _ = _ascend(fb, Z.copy(), lift, 1, keeps_params=keeps_params)
        assert repr((value, witness)) == repr((2.0, ((back,), (a,))))
