"""The unit-isosceles extremum and the multi-start engine on the shared loops.

``_unit_iso_extremum`` and ``sup_pairs_nd`` run on ``search``'s one copy of
the reduction (``_best_row``), the golden refinement (``_refine``) and the
multi-start ascent (``_ascend``).  The references below are those functions
as they were written before that fold, each with its own copy of the loops
(the grid reference also stops its refinement after ``_IDLE_ROUNDS``
rounds in a row that gain no more than ``_RISE`` relative, as ``_refine``
does, and scans x1 over ``isometry_domain`` only; both multi-start
references halve their live starts, and the unit-isosceles one keeps its
raw rows at Euclidean norm 1); the ``repr`` of value, witness and
evaluations must match bit for bit.
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
from normconst.search import (DEFAULT_STARTS, DEFAULT_STEPS, _GOLDEN_ITERS, _IDLE_ROUNDS,
                              _RISE, Grid2DStrategy, MultiStartStrategy, _WitnessRows,
                              Objective, _as_witness, _ascend, _golden_max, _region_pair,
                              _start_draws, sup_pairs_nd)
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


def _halving_steps(steps):
    # successive halving: before each of these steps, half the live starts stop
    return {steps // 8, steps // 4, steps // 2} - {0}


def _better_half(vals, *arrays):
    # the rows of the ceil(n / 2) best starts by value, ties to the lower
    # start, -inf last, in start order
    n = len(vals)
    ranked = sorted(range(n), key=lambda i: (-vals[i], i))
    rows = sorted(ranked[:(n + 1) // 2])
    return [a[rows] for a in arrays]


def _unit_iso_extremum_reference(space, sense, strat, edit=None, halving=True):
    """The extremum as written before the fold; ``edit`` may rewrite the
    multi-start draws in place before the ascent, and ``halving=False``
    runs every start for every step."""
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
            rose = False
            if v is not None and _improves(v, payload, best_v, best_w):
                # only a gain above rounding moves the search
                rose = v - best_v > _RISE * abs(best_v)
                best_v, best_w, best_theta = v, payload, x
            # refinement stops after _IDLE_ROUNDS rounds in a row that moved nothing
            idle = 0 if rose else idle + 1
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
        if halving and it in _halving_steps(steps):
            Z, vals, bestX1, bestC, h, stall = _better_half(vals, Z, vals, bestX1, bestC, h,
                                                            stall)
        v, c = divmod(it % ncoord, d)
        before = Z[:, v, c].copy()
        improved = np.zeros(len(Z), dtype=bool)
        for sgn in (1.0, -1.0):
            cand = Z.copy()
            cand[:, v, c] += sgn * h
            cv, cX1, cC = _unit_iso_eval_rows(space, cand)
            evaluations += len(Z)
            cv = np.where(np.isfinite(cv), sign * cv, -np.inf)
            adv = cv > vals
            if sgn < 0:
                # a start that moved at +h does not step back onto its pre-step point
                adv &= ~(improved & (cand[:, v, c].view(np.int64) == before.view(np.int64)))
            if adv.any():
                Z[adv] = cand[adv]
                vals[adv] = cv[adv]
                bestX1[adv] = cX1[adv]
                bestC[adv] = cC[adv]
                improved |= adv
        # the lift sees only each raw row's direction: back to Euclidean norm 1
        e = np.linalg.norm(Z, axis=-1, keepdims=True)
        Z = Z / np.where(e > 0.0, e, 1.0)
        stall = np.where(improved, 0, stall + 1)
        shrink = stall >= ncoord
        h = np.where(shrink, h * 0.6, h)
        stall = np.where(shrink, 0, stall)
    best_v = None
    best_w = None
    for i in range(len(Z)):
        if not math.isfinite(vals[i]):
            continue
        w = (tuple(float(x) for x in bestX1[i]), tuple(float(x) for x in bestC[i]))
        if _improves(float(vals[i]), w, best_v, best_w):
            best_v, best_w = float(vals[i]), w
    return sign * best_v, best_w, evaluations


def _sup_pairs_nd_reference(space, f, region, starts, steps, seed, halving=True):
    d = space.dim
    reg1, reg2 = _region_pair(region)
    regs = (reg1, reg2)
    fb = f.eval_batch

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
        if halving and it in _halving_steps(steps):
            Z, vals, h, stall = _better_half(vals, Z, vals, h, stall)
        v, c = divmod(it % ncoord, d)
        improved = np.zeros(len(Z), dtype=bool)
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
                ok = np.ones(len(Z), dtype=bool)
                scale = np.maximum(nv, 1.0)
                cand[:, v, :] = Vv / scale[:, None]
            cv = fb(cand[:, 0, :], cand[:, 1, :])
            evaluations += len(Z)
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
    for i in range(len(Z)):
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
    # start 0: zero x1 direction; start 1: arc direction parallel to x1;
    # start 2: zero arc direction, so its moves of x1 stay infeasible
    Z[0, 0] = 0.0
    if len(Z) > 1:
        Z[1, 1] = 2.5 * Z[1, 0]
    if len(Z) > 2:
        Z[2, 1] = 0.0


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
# budgets long enough for every halving, down to 1, 2 and 3 starts
@example("lp:q=3,dim=3", "sup", 128, 400, 7, False, None)
@example("lp:q=inf,dim=3", "inf", 3, 200, 11, True, "degenerate")
@example("wlp:q=3,dim=3,w=1;2;3", "sup", 2, 333, 5, False, None)
@example("lp:q=1.5,dim=5", "inf", 1, 256, 2, False, None)
def test_unit_iso_multistart_property(name, sense, starts, steps, seed, degenerate, path):
    paths = _check_unit_iso_multistart(name, sense, starts, steps, seed, degenerate)
    assert path is None or paths[path] > 0


@pytest.mark.parametrize("sense, bound", [("sup", 1e-3), ("inf", 1e-6)])
def test_unit_iso_ascent_shrinks_its_step(sense, bound):
    # the unit-isosceles lift is scale-free, so raw rows kept at Euclidean
    # norm 1 let the stall rule shrink h; where they grew instead, every start
    # of this ascent (the default 128 starts x 400 steps) ended at h = 0.5
    hs = []
    real = search._paired_step

    def step(Z, vals, h, *args):
        hs.append(h.copy())
        return real(Z, vals, h, *args)

    with mock.patch.object(search, "_paired_step", step):
        _unit_iso_extremum(lp_space(3, 3), sense, MultiStartStrategy())
    assert len(hs) == DEFAULT_STEPS
    assert np.median(hs[-1]) < bound


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
    # live starts per step: halved before steps 9 // 8, 9 // 4 and 9 // 2
    live = [5, 3, 2, 2, 1, 1, 1, 1, 1]
    assert rows[0] == 5 and all(2 * n <= r <= 3 * n for r, n in zip(rows[1:], live))

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
    return Objective(evb)


_ND_SPACES = {"l3d3": lp_space(3, 3), "l1d3": lp_space(1, 3), "linfd4": lp_space(math.inf, 4)}
_ND_OBJECTIVES = {"gamma": lambda space: gamma_objective(space, 3.0, 0.7),
                  "nu": lambda space: _nu_objective(space, 2.0),
                  "min_form": _min_form_objective,
                  "nan_gapped": _nan_gapped}
_ND_CASES = [("gamma", Region.SPHERE), ("gamma", Region.BALL),
             ("nu", (Region.SPHERE, Region.BALL)), ("min_form", Region.SPHERE),
             ("nan_gapped", (Region.BALL, Region.SPHERE))]


def _check_sup_pairs_nd(space, kind, region, starts, steps, seed):
    obj = _ND_OBJECTIVES[kind](space)
    want = _sup_pairs_nd_reference(space, obj, region, starts, steps, seed)
    if want[0] is None:
        # every live start ends on a NaN point (nan_gapped, few starts and
        # steps): the engine refuses exactly then
        with pytest.raises(ValueError, match="no finite value at any start"):
            sup_pairs_nd(space, obj, region, starts=starts, steps=steps, seed=seed)
        return
    got = sup_pairs_nd(space, obj, region, starts=starts, steps=steps, seed=seed)
    assert repr((got.value, got.witness, got.evaluations)) == repr(want)


@pytest.mark.parametrize("space", list(_ND_SPACES.values()), ids=list(_ND_SPACES))
@pytest.mark.parametrize("kind, region", _ND_CASES)
def test_sup_pairs_nd_matches_reference(space, kind, region):
    _check_sup_pairs_nd(space, kind, region, 8, 40, 5)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_ND_SPACES)), st.sampled_from(range(len(_ND_CASES))),
       st.integers(1, 12), st.integers(1, 50), st.integers(0, 2 ** 32 - 1))
# budgets long enough for every halving, down to 1, 2 and 3 starts
@example("l3d3", 0, 128, 400, 7)
@example("linfd4", 4, 3, 200, 11)
@example("l1d3", 2, 2, 333, 5)
@example("l3d3", 1, 1, 256, 2)
# a single nan_gapped start that ends on a NaN point: no finite value
@example("l3d3", 4, 1, 1, 1554)
def test_sup_pairs_nd_property(name, case, starts, steps, seed):
    _check_sup_pairs_nd(_ND_SPACES[name], *_ND_CASES[case], starts, steps, seed)


def _live_starts(starts, steps):
    # the live starts of each step: ceil(n / 2) of n go on at each halving
    live = []
    for it in range(steps):
        if it in _halving_steps(steps):
            starts = (starts + 1) // 2
        live.append(starts)
    return live


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 130), st.integers(1, 400))
@example(128, 400)
@example(3, 16)
def test_evaluations_count_the_live_starts(starts, steps):
    # evaluations: every start once, then two moves per live start and step;
    # each lift of sup_pairs_nd's two moves sees the live starts' rows only
    space = lp_space(3, 3)
    sizes = []

    def ascend(fb, Z, lift, steps, **kw):
        def counted(Z, v):
            sizes.append(len(Z))
            return lift(Z, v)
        return _ascend(fb, Z, counted, steps, **kw)

    live = _live_starts(starts, steps)
    with mock.patch.object(search, "_ascend", ascend):
        est = sup_pairs_nd(space, gamma_objective(space, 2.0, 0.5), Region.SPHERE,
                           starts=starts, steps=steps, seed=1)
    assert sizes == [starts] + [n for n in live for _ in range(2)]
    assert est.evaluations == starts + 2 * sum(live)
    if steps <= 50:
        strat = MultiStartStrategy(starts=starts, steps=steps, seed=1)
        assert _unit_iso_extremum(space, "inf", strat)[2] == starts + 2 * sum(live)


@pytest.mark.parametrize("starts", [8, 64])
def test_halving_ranks_ties_by_start_index(starts):
    # x1 = 0.001 k: the first halving (before step 2) keeps the upper half,
    # the last start ranked first; then every value ties at the cap 1, and
    # the next two halvings keep the lowest starts, so start n / 2 wins (the
    # final reduction's smallest witness, at 64 starts, agrees)
    Z = np.zeros((starts, 2, 1))
    Z[:, 0, 0] = 0.001 * np.arange(starts)

    def lift(Z, v):
        return Z, Z[:, 0, :], Z[:, 1, :], np.ones(len(Z), dtype=bool)

    (value, witness, _), evaluations = _ascend(lambda X1, X2: np.minimum(X1[:, 0], 1.0), Z,
                                               lift, 16)
    assert (value, witness[0][0]) == (1.0, (0.001 * (starts // 2) + 0.5) + 0.5)
    n = starts
    assert evaluations == n + 2 * (2 * n + 2 * (n // 2) + 4 * (n // 4) + 8 * (n // 8))


# compute-nd's multi-start seed at run seed 1 and its first two gamma-l3d4
# offsets: on these ascents one start ends at the maximum, and it survives
_RUN_SEED = 2110403737


@pytest.mark.parametrize("t", [0.207491, 0.730979])
def test_halving_keeps_the_winning_gamma_start(t):
    space = lp_space(3, 4)
    obj = gamma_objective(space, 3.0, t)
    got = sup_pairs_nd(space, obj, Region.SPHERE, seed=_RUN_SEED)
    want = _sup_pairs_nd_reference(space, obj, Region.SPHERE, DEFAULT_STARTS, DEFAULT_STEPS,
                                   _RUN_SEED, halving=False)
    assert repr((got.value, got.witness)) == repr(want[:2])
    assert got.evaluations < want[2]


def test_halving_keeps_the_winning_james_start():
    space = lp_space(3, 3)
    strat = MultiStartStrategy(seed=_RUN_SEED)
    got = _unit_iso_extremum(space, "sup", strat)
    want = _unit_iso_extremum_reference(space, "sup", strat, halving=False)
    assert repr(got[:2]) == repr(want[:2])
    assert got[2] < want[2]


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
        # 5, 3, 2 and 1 live starts from steps 0, 5, 10 and 20 on
        assert evaluations == 5 + 2 * (5 * 5 + 3 * 5 + 2 * 10 + 1 * 20)
        # the paired step lifts P, M and some R rows in one call
        assert len(rows) == (41 if keeps_params else 81)
        assert keeps_params == any(n > 5 for n in rows)


def _bit_hash_ascent(Z, steps):
    # an objective of x1's bits: a point one ulp off another scores anything,
    # so the -h move back from a moved start decides as often as any move;
    # the lift marks rows infeasible by their bits too
    def bits(X):
        return np.ascontiguousarray(X).view(np.int64) % 1009

    def lift(Z, v):
        return Z, Z[:, 0, :], Z[:, 1, :], bits(Z[:, 1, :]).sum(axis=1) % 5 != 0

    return _ascend(lambda X1, X2: bits(X1).sum(axis=1).astype(float), Z, lift, steps,
                   keeps_params=True)


def _sequential_step(Z, vals, h, v, c, lifted, keep):
    # the step as two lifts, +h then -h from the point +h reached, except
    # onto the pre-step point
    before = Z[:, v, c].copy()
    improved = np.zeros(len(vals), dtype=bool)
    for sgn in (1.0, -1.0):
        cand = Z.copy()
        cand[:, v, c] += sgn * h
        cand, C1, C2, cv = lifted(cand, v)
        adv = cv > vals
        if sgn < 0:
            adv &= ~(improved & (cand[:, v, c].view(np.int64) == before.view(np.int64)))
        keep(adv, cand, cv, C1, C2)
        improved |= adv
    return improved


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(1, 4), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
@example(6, 2, 30, 5)
# budgets long enough for every halving, down to 1, 2 and 3 starts
@example(128, 3, 400, 1)
@example(3, 4, 200, 2)
@example(2, 2, 333, 3)
@example(1, 1, 256, 4)
def test_paired_step_matches_sequential_on_a_bit_hash(starts, d, steps, seed):
    Z = np.random.default_rng(seed).standard_normal((starts, 2, d))
    with mock.patch.object(search, "_paired_step", _sequential_step):
        want = _bit_hash_ascent(Z.copy(), steps)
    assert repr(_bit_hash_ascent(Z, steps)) == repr(want)


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
