"""Frozen oracle values and cross-identities for the constant estimators.

Oracle provenance, all independent of the search engines:
  * hexagon values come from enumerating vertex-pair configurations by hand
    (the ratio objectives are jointly convex, so vertex pairs are enough);
  * lp values are closed forms checked against explicit witness vectors;
  * James values are cross-checked by a dense brute-force scan coded here.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import normconst as nc
from normconst.constants import CONSTANT_IDS, CONSTANT_PARAMS, _estimates_along, _family
from normconst.search import Grid2DStrategy, MultiStartStrategy, t_sweep

L1 = nc.lp_space(1, 2)
L2 = nc.lp_space(2, 2)
L3 = nc.lp_space(3, 2)
LINF = nc.lp_space(math.inf, 2)
HEX = nc.regular_polygon_space(6)

FAST = Grid2DStrategy(resolution=128, refine=10, radial=5)
# hexagon vertices sit on the angular grid only when 6 divides the resolution
HEXFAST = Grid2DStrategy(resolution=192, refine=10, radial=5)

ALPHAS = (0.0, 0.1, 0.25, 0.4, 0.5)
PS = (1.0, 2.0, 3.0)


def test_constant_params_are_each_signatures_parameters_sorted():
    # read off the signatures, in the order and with the names the CLI's
    # params documents and its "requires --x" messages have always used
    assert list(CONSTANT_PARAMS.items()) == [
        ("gamma_p", ("p", "t")), ("cinj_iso", ("alpha", "p")),
        ("cinj_via_gamma", ("alpha", "p")), ("cnj_p", ("p",)), ("cnj_modified_p", ("p",)),
        ("james", ()), ("schaffer", ()), ("rho", ("t",)), ("jxp", ("p", "t")),
        ("nu_p", ("p",)), ("omega_prime", ()), ("smoothness_quotient", ("alpha", "p"))]
    assert CONSTANT_IDS == tuple(CONSTANT_PARAMS)


# --------------------------------------------------------------- gamma family

def test_gamma_zero_value():
    for sp in (L1, L2, HEX):
        for p in PS:
            est = nc.gamma_p(sp, p=p, t=0.0, strategy=FAST)
            assert est.value == pytest.approx(2.0 ** (2.0 - p), abs=1e-9)


def test_gamma_hilbert_closed_form():
    for t in (0.0, 0.2, 0.5, 1.0):
        est = nc.gamma_p(L2, p=2.0, t=t, strategy=FAST)
        assert est.value == pytest.approx(1.0 + t * t, abs=1e-9)


def test_gamma_lq_closed_form_at_p_equal_q():
    for q in (2.0, 3.0, 4.0):
        sp = nc.lp_space(q, 2)
        for t in (0.25, 0.6, 1.0):
            want = ((1 + t) ** q + (1 - t) ** q) / 2.0 ** (q - 1.0)
            est = nc.gamma_p(sp, p=q, t=t)
            assert est.value == pytest.approx(want, abs=1e-6)


def _scaled_lq_norm(v, q):
    # max |v_i| (sum_i (|v_i| / max)^q)^(1/q) in Python floats
    m = max(abs(x) for x in v)
    return m * sum((abs(x) / m) ** q for x in v) ** (1.0 / q) if m else 0.0


def test_large_q_estimates_keep_their_closed_form_brackets_and_witnesses():
    # gamma_2(l_inf) at t = 1/2 is 2.25; ||x||_inf <= ||x||_q <= 2^(1/q) ||x||_inf
    # in the plane, so gamma_2(l_q) lies in [2^(-2/q), 2^(2/q)] 2.25, which is
    # [2.2484, 2.2516] at q = 2000.  Each value is its objective at its witness under a scaled norm.
    q = 2000.0
    sp = nc.lp_space(q, 2)
    lo, hi = 2.0 ** (-2.0 / q) * 2.25, 2.0 ** (2.0 / q) * 2.25
    est = nc.gamma_p(sp, p=2.0, t=0.5)
    assert lo - 4 * math.ulp(lo) <= est.value <= hi
    x1, x2 = (np.array(w) for w in est.witness)
    g = (_scaled_lq_norm(x1 + 0.5 * x2, q) ** 2 + _scaled_lq_norm(x1 - 0.5 * x2, q) ** 2) / 2.0
    assert est.value == pytest.approx(g, rel=1e-14)
    # the isosceles constant's floor (1 - alpha)^p + alpha^p, 0.625 at (1/4, 2)
    iso = nc.cinj_iso(sp, 0.25, 2.0, "grid2d:res=256,refine=12")
    assert iso.value >= 0.625
    y1, y2 = (np.array(w) for w in iso.meta["iso_pair"])
    assert _scaled_lq_norm(y1 + y2, q) == pytest.approx(_scaled_lq_norm(y1 - y2, q), rel=1e-12)


def test_gamma_hexagon_frozen():
    # vertex-pair enumeration: adjacent-vertex configurations dominate,
    # giving norms (1 + t/2 + t/2) and 1, hence ((1+t)^2 + 1)/2 at p = 2
    est = nc.gamma_p(HEX, p=2.0, t=0.2, strategy="exact")
    assert est.value == pytest.approx(1.22, abs=1e-12)
    est1 = nc.gamma_p(HEX, p=2.0, t=1.0, strategy="exact")
    assert est1.value == pytest.approx(2.5, abs=1e-12)
    for t in (0.0, 0.3, 0.7, 1.0):
        estp1 = nc.gamma_p(HEX, p=1.0, t=t, strategy="exact")
        assert estp1.value == pytest.approx(2.0 + t, abs=1e-12)


def test_gamma_vertex_and_grid_agree():
    for sp in (L1, LINF, HEX):
        for t in (0.2, 1.0):
            ex = nc.gamma_p(sp, p=2.0, t=t, strategy="exact")
            gr = nc.gamma_p(sp, p=2.0, t=t)
            assert gr.value == pytest.approx(ex.value, abs=1e-9)
            assert gr.value <= ex.value + 1e-12  # lower-bound semantics


# ------------------------------------------------------------------ cinj pair

def test_cinj_l1_linf_closed_form():
    for sp in (L1, LINF):
        for a in ALPHAS:
            for p in PS:
                want = 2.0 * (1.0 - a) ** p
                assert nc.cinj_iso(sp, alpha=a, p=p, strategy="exact"
                                   ).value == pytest.approx(want, abs=1e-12)


def test_cinj_lp_closed_form():
    for q in (2.0, 3.0, 4.0):
        sp = nc.lp_space(q, 2)
        for a in ALPHAS:
            want = (1.0 - a) ** q + a ** q
            est = nc.cinj_iso(sp, alpha=a, p=q)
            assert est.value == pytest.approx(want, abs=1e-6)


def test_cinj_alpha_half_universal():
    for sp in (L1, L2, L3, LINF, HEX):
        for p in PS:
            est = nc.cinj_iso(sp, alpha=0.5, p=p, strategy=FAST)
            assert est.value == pytest.approx(2.0 ** (1.0 - p), abs=1e-9)


def test_cinj_bounds_everywhere():
    for sp in (L1, L2, L3, LINF, HEX):
        for a in ALPHAS:
            for p in PS:
                v = nc.cinj_iso(sp, alpha=a, p=p, strategy=FAST).value
                lo = (1.0 - a) ** p + a ** p
                hi = 2.0 * (1.0 - a) ** p
                assert lo - 1e-9 <= v <= hi + 1e-9


def test_cinj_witness_is_isosceles_and_reproduces_value():
    est = nc.cinj_iso(HEX, alpha=0.3, p=2.0, strategy=FAST)
    x1, x2 = est.meta["iso_pair"]
    assert abs(nc.iso_defect(HEX, x1, x2)) < 1e-9
    s = nc.norm(HEX, tuple(a + b for a, b in zip(x1, x2)))
    na = nc.norm(HEX, tuple(0.3 * a + 0.7 * b for a, b in zip(x1, x2)))
    nb = nc.norm(HEX, tuple(0.7 * a + 0.3 * b for a, b in zip(x1, x2)))
    assert (na ** 2 + nb ** 2) / s ** 2 == pytest.approx(est.value, rel=1e-12)


def test_cinj_two_routes_agree():
    for sp in (L2, L3, HEX):
        for a in (0.0, 0.25, 0.4):
            for p in (1.0, 2.0):
                d = nc.cinj_iso(sp, alpha=a, p=p, strategy=FAST).value
                g = nc.cinj_via_gamma(sp, alpha=a, p=p, strategy=FAST).value
                assert d == pytest.approx(g, abs=2e-3)


def test_cinj_via_gamma_meta():
    est = nc.cinj_via_gamma(L1, alpha=0.2, p=2.0, strategy="exact")
    assert est.meta["route"] == "via_gamma"
    assert est.meta["t"] == pytest.approx(0.6)
    assert est.value == pytest.approx(2.0 * 0.8 ** 2, abs=1e-12)


# ------------------------------------------------------------------ cnj family

def test_cnj_polyhedral_frozen():
    for p in PS:
        for sp in (L1, LINF):
            est = nc.cnj_p(sp, p=p, strategy="exact")
            assert est.value == pytest.approx(2.0, abs=1e-9)


def test_cnj_hilbert_is_one():
    est = nc.cnj_p(L2, p=2.0, strategy=FAST)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_cnj_tie_breaks_to_smallest_t():
    # on the cross-polytope at p = 1 the swept ratio is exactly 2 at every
    # dyadic grid point, so the reported maximizer is the smallest t
    est = nc.cnj_p(L1, p=1.0, strategy="exact")
    assert est.value == 2.0
    assert est.meta["t_star"] == 0.0


def test_cnj_l3_at_p3_is_one():
    # Clarkson equality case: the t-ratio climbs to 1 exactly at t = 1
    est = nc.cnj_p(L3, p=3.0)
    assert est.value == pytest.approx(1.0, abs=1e-6)
    assert est.meta["t_star"] == pytest.approx(1.0, abs=1e-3)


def test_cnj_runs_each_offset_once(monkeypatch):
    # each offset the sweep asks for is one call of the inner constant, made
    # the first time, with no prefill; the estimate at t_star is that call's
    def never(*args, **kwargs):
        raise AssertionError("cnj_p prefills no offsets")

    monkeypatch.setattr(nc.constants, "_estimates_along", never)
    for space, strat in ((HEX, "exact"),
                         (nc.lp_space(3, 3), MultiStartStrategy(starts=3, steps=12, seed=5))):
        for mode, name, axis in (("gamma", "gamma_p", "t"), ("cinj", "cinj_iso", "alpha")):
            inner = getattr(nc, name)
            calls = []

            def counted(space, p, strategy=None, **at):
                est = inner(space, p=p, strategy=strategy, **at)
                calls.append((at[axis], est))
                return est

            monkeypatch.setattr(nc.constants, name, counted)
            est = nc.cnj_p(space, p=2.0, strategy=strat, t_grid=9, t_refine=5, mode=mode)
            thetas = [theta for theta, _ in calls]
            assert len(thetas) == len(set(thetas)) == 9 + 5 + 2
            t = est.meta["t_star"]
            at_best = dict(calls)[t if mode == "gamma" else (1.0 - t) / 2.0]
            assert est.witness == at_best.witness
            assert est.meta["inner_value"] == at_best.value
            assert est.evaluations == sum(e.evaluations for _, e in calls)


def test_cnj_rejects_negative_t_refine_before_any_sweep(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("t_refine is checked before any offset runs")

    monkeypatch.setattr(nc.constants, "gamma_p", never)
    with pytest.raises(ValueError, match="refine_iters must be >= 0"):
        nc.cnj_p(L1, p=2.0, strategy="exact", t_refine=-1)


def _cnj_reference(space, p, strat, t_grid, t_refine, mode):
    # cnj_p computing each swept offset on its own when the sweep asks for it
    inner = {}

    def g(t):
        if t not in inner:
            inner[t] = (nc.gamma_p(space, p, t, strat) if mode == "gamma"
                        else nc.cinj_iso(space, (1.0 - t) / 2.0, p, strat))
        est = inner[t]
        return (est.value if mode == "gamma" else 2.0 * est.value) / (1.0 + t ** p)

    t_star, value = t_sweep(g, 0.0, 1.0, grid=t_grid, refine_iters=t_refine)
    at_best = inner[t_star]
    return value, at_best.witness, sum(e.evaluations for e in inner.values()), {
        **at_best.meta, "t_star": t_star, "mode": mode, "inner_value": at_best.value}


def _assert_joint_contract(space, p, strat, t_grid, t_refine, mode):
    # grid2d cnj_p refines (x1, x2, t) jointly: it reaches at least the value
    # of t_sweep over full inner suprema, at a feasible witness and offset
    est = nc.cnj_p(space, p, strat, t_grid=t_grid, t_refine=t_refine, mode=mode)
    reference = _cnj_reference(space, p, strat, t_grid, t_refine, mode)[0]
    assert est.value >= reference - 1e-12
    for x in est.witness:
        assert abs(nc.norm(space, x) - 1.0) <= 1e-12
    t = est.meta["t_star"]
    assert 0.0 <= t <= 1.0
    X1, X2 = (np.array([x]) for x in est.witness)
    if mode == "gamma":
        inner = float(_family("gamma_p", space, p)(t).eval_batch(X1, X2)[0])
    else:
        inner = float(_family("cinj_iso", space, p)((1.0 - t) / 2.0).eval_batch(X1, X2)[0])
    scale = 1.0 if mode == "gamma" else 2.0
    assert est.value == pytest.approx(scale * inner / (1.0 + t ** p), rel=1e-12)
    assert est.meta["inner_value"] == pytest.approx(inner, rel=1e-12)
    assert (est.meta["mode"], est.exact) == (mode, False)


@pytest.mark.parametrize("sp, strat", [
    (L2, "grid2d:res=32,refine=2"), (L3, "grid2d:res=24,refine=3"),
    (HEX, "grid2d:res=48,refine=1"), (HEX, "exact"), (L1, "exact"),
], ids=["l2", "l3", "hex", "hex-exact", "l1-exact"])
@pytest.mark.parametrize("mode", ["gamma", "cinj"])
def test_cnj_prefilled_grid_matches_reference(sp, strat, mode):
    strat = nc.parse_strategy(strat)
    if isinstance(strat, Grid2DStrategy):
        # no longer t_sweep's result bit for bit: the joint refinement's contract
        _assert_joint_contract(sp, 2.0, strat, 9, 5, mode)
        return
    est = nc.cnj_p(sp, 2.0, strat, t_grid=9, t_refine=5, mode=mode)
    value, witness, evaluations, meta = _cnj_reference(sp, 2.0, strat, 9, 5, mode)
    assert (est.value, est.witness, est.evaluations) == (value, witness, evaluations)
    assert repr(est.meta) == repr(meta)
    assert est.exact is False


JOINT_SPACES = {
    **{f"lp:q={q}": nc.lp_space(q, 2) for q in (1.5, 2.0, 3.0, 6.0)},
    "wlp:q=3,w=1;2": nc.parse_space("wlp:q=3,dim=2,w=1;2"),
    "hexagon": HEX,
    "rotated octagon": nc.regular_polygon_space(8, phase=0.3),
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(JOINT_SPACES)), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       st.sampled_from(["gamma", "cinj"]), st.integers(min_value=32, max_value=48),
       st.integers(min_value=2, max_value=4), st.sampled_from([(5, 3), (9, 5)]))
# the draws on which one joint search from the best offset alone stalls below
# the t-sweep reference (by 2.7e-8 to 7.4e-6); two starts reach it
@example("hexagon", 3.0, "gamma", 35, 2, (5, 3))
@example("hexagon", 3.0, "gamma", 35, 3, (5, 3))
@example("hexagon", 3.0, "gamma", 35, 4, (5, 3))
@example("hexagon", 3.0, "gamma", 37, 2, (5, 3))
@example("hexagon", 3.0, "gamma", 37, 3, (5, 3))
@example("hexagon", 3.0, "gamma", 43, 2, (5, 3))
@example("hexagon", 3.0, "gamma", 43, 3, (5, 3))
@example("hexagon", 3.0, "gamma", 47, 4, (5, 3))
@example("hexagon", 3.0, "cinj", 35, 2, (5, 3))
@example("hexagon", 3.0, "cinj", 35, 3, (5, 3))
@example("hexagon", 3.0, "cinj", 35, 4, (5, 3))
@example("hexagon", 3.0, "cinj", 37, 2, (5, 3))
@example("hexagon", 3.0, "cinj", 37, 3, (5, 3))
@example("hexagon", 3.0, "cinj", 43, 2, (5, 3))
@example("hexagon", 3.0, "cinj", 43, 3, (5, 3))
@example("hexagon", 3.0, "cinj", 47, 4, (5, 3))
def test_cnj_grid2d_joint_refinement_contract(name, p, mode, res, refine, t_budget):
    strat = Grid2DStrategy(resolution=res, refine=refine)
    _assert_joint_contract(JOINT_SPACES[name], p, strat, *t_budget, mode)


@pytest.mark.parametrize("sp, mode", [(HEX, "gamma"), (L3, "cinj"), (L2, "gamma")],
                         ids=["hex-gamma", "l3-cinj", "l2-gamma"])
def test_cnj_grid2d_refines_only_its_best_raw_offsets(sp, mode, monkeypatch):
    # the stack refines the _CNJ_REFINED offsets of the best raw grid ratios
    # (ties to the smaller t) and scans the rest; the value is at least the
    # best raw ratio and the best refined one
    stacks = []
    stack = nc.constants._sup_pairs_2d_stack

    def kept(*args):
        out = stack(*args)
        stacks.append((args, out[0]))
        return out

    monkeypatch.setattr(nc.constants, "_sup_pairs_2d_stack", kept)
    strat = Grid2DStrategy(resolution=32, refine=3)
    est = nc.cnj_p(sp, 3.0, strat, t_grid=9, t_refine=5, mode=mode)
    [((space, family, thetas, region, _, _), got)] = stacks
    ts = [float(t) for t in np.linspace(0.0, 1.0, 9)]
    scale = 1.0 if mode == "gamma" else 2.0
    raw, _ = stack(space, family, thetas, region, Grid2DStrategy(32, 0))
    full, _ = stack(space, family, thetas, region, strat)
    raw_ratio = [scale * e.value / (1.0 + t ** 3.0) for t, e in zip(ts, raw)]
    top = sorted(range(9), key=lambda k: -raw_ratio[k])[:nc.constants._CNJ_REFINED]
    for k in range(9):
        assert repr(got[k]) == repr(full[k] if k in top else raw[k])
    assert est.value >= max(raw_ratio)
    assert est.value >= max(scale * full[k].value / (1.0 + ts[k] ** 3.0) for k in top)
    assert est.evaluations > sum(e.evaluations for e in got)


def test_cnj_grid2d_runs_no_per_t_search(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("grid2d cnj_p runs no search per offset")

    sweeps = []
    t_sweep_real = nc.constants.t_sweep
    monkeypatch.setattr(nc.constants, "t_sweep",
                        lambda *a, **k: sweeps.append(1) or t_sweep_real(*a, **k))
    nc.cnj_p(HEX, 2.0, "exact", t_grid=5, t_refine=2)
    assert sweeps == [1]
    for name in ("t_sweep", "gamma_p", "cinj_iso"):
        monkeypatch.setattr(nc.constants, name, never)
    for mode in ("gamma", "cinj"):
        est = nc.cnj_p(L3, 2.0, "grid2d:res=32,refine=2", t_grid=5, t_refine=3, mode=mode)
        assert 0.0 <= est.meta["t_star"] <= 1.0


def test_cnj_modes_agree():
    for sp in (L1, HEX):
        a = nc.cnj_p(sp, p=2.0, strategy="exact", mode="gamma")
        b = nc.cnj_p(sp, p=2.0, strategy="exact", mode="cinj")
        assert a.value == pytest.approx(b.value, abs=1e-9)


def test_cnj_modified_hilbert():
    est = nc.cnj_modified_p(L2, p=2.0, strategy=FAST)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.meta["definition"] == "inferred"
    est1 = nc.cnj_modified_p(L1, p=1.0, strategy="exact")
    # unit vectors (1,0), (0,1): (2 + 2)/2 = 2
    assert est1.value == pytest.approx(2.0, abs=1e-12)


# --------------------------------------------------- james / schaffer / rho

def _hex_norm_rows(V):
    return HEX.norm_rows(V)


def test_james_frozen_values():
    assert nc.james(L1, strategy=FAST).value == pytest.approx(2.0, abs=1e-6)
    assert nc.james(LINF, strategy=FAST).value == pytest.approx(2.0, abs=1e-6)
    assert nc.james(L2, strategy=FAST).value == pytest.approx(
        math.sqrt(2.0), abs=1e-6)
    assert nc.james(HEX, strategy=FAST).value == pytest.approx(1.5, abs=1e-6)


def test_james_brute_force_oracle():
    # independent dense scan of the min form over unit pairs
    th = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
    D = np.stack([np.cos(th), np.sin(th)], axis=1)
    U = D / _hex_norm_rows(D)[:, None]
    best = 0.0
    for i in range(0, 720, 3):
        S = U[i] + U
        Df = U[i] - U
        m = np.minimum(_hex_norm_rows(S), _hex_norm_rows(Df))
        best = max(best, float(m.max()))
    est = nc.james(HEX, strategy=FAST)
    assert est.value >= best - 1e-9      # engine beats the coarse scan
    assert est.value == pytest.approx(best, abs=5e-3)


def test_schaffer_and_product():
    for sp, jwant in ((L1, 2.0), (L2, math.sqrt(2.0)), (HEX, 1.5)):
        j = nc.james(sp, strategy=FAST).value
        s = nc.schaffer(sp, strategy=FAST).value
        assert j == pytest.approx(jwant, abs=1e-6)
        assert j * s == pytest.approx(2.0, abs=1e-4)
        assert 1.0 - 1e-9 <= s <= math.sqrt(2.0) + 1e-9


def _schaffer_reference(space, strat):
    # the infimum plus James's min-form supremum, run apart
    from normconst.constants import (_min_form_objective, _run_sup,
                                     _unit_iso_extremum)

    value, witness, evals = _unit_iso_extremum(space, "inf", strat)
    j = _run_sup(space, _min_form_objective(space), nc.Region.SPHERE, strat)
    return value, witness, j, evals


@pytest.mark.parametrize("sp, strat", [
    (L2, FAST), (HEX, FAST),
    (nc.lp_space(3, 3), MultiStartStrategy(starts=8, steps=40, seed=3)),
], ids=["l2", "hex", "l3d3"])
def test_schaffer_matches_reference(sp, strat):
    s = nc.schaffer(sp, strategy=strat)
    value, witness, j, evals = _schaffer_reference(sp, strat)
    assert (s.value, s.witness, s.strategy) == (value, witness, j.strategy)
    assert repr(s.meta) == repr({"sense": "inf", "two_over_james": 2.0 / j.value})
    assert s.evaluations == evals + j.evaluations
    # the same J that james reports
    assert s.meta["two_over_james"] == 2.0 / nc.james(sp, strategy=strat).value
    with pytest.raises(ValueError):
        nc.schaffer(sp, strategy="exact")


@pytest.mark.parametrize("strat", [FAST, HEXFAST], ids=["fast", "hexfast"])
def test_unit_iso_lookahead_is_bit_identical(monkeypatch, strat):
    from test_search import _sequential_golden

    batched = {}
    for sp in (L1, L2, L3, HEX):
        batched[sp] = (nc.james(sp, strategy=strat), nc.schaffer(sp, strategy=strat))
    # _refine drives one _golden generator per search and coordinate; the
    # sequential loop in its place sends every probe as a one-row batch.
    # The min-form supremum's grid refinement runs on the same loop.
    passes = []

    def sequential(*args, **kwargs):
        passes.append(args)
        return _sequential_golden(*args, **kwargs)

    monkeypatch.setattr(nc.search, "_golden", sequential)
    for sp, (j, s) in batched.items():
        j0, s0 = nc.james(sp, strategy=strat), nc.schaffer(sp, strategy=strat)
        for got, want in ((j, j0), (s, s0)):
            assert (got.value, got.witness, got.evaluations) == (
                want.value, want.witness, want.evaluations)
            assert repr(got.meta) == repr(want.meta)
        assert "iso_form_value" in j.meta and "iso_form_witness" in j.meta
    assert passes


def test_rho_closed_forms():
    assert nc.rho(L2, t=1.0, strategy=FAST).value == pytest.approx(
        math.sqrt(2.0) - 1.0, abs=1e-9)
    assert nc.rho(L2, t=0.5, strategy=FAST).value == pytest.approx(
        math.sqrt(1.25) - 1.0, abs=1e-9)
    assert nc.rho(L1, t=0.7, strategy=FAST).value == pytest.approx(0.7,
                                                                   abs=1e-9)
    # rho is defined for t > 1 as well
    assert nc.rho(L1, t=2.0, strategy=FAST).value == pytest.approx(2.0,
                                                                   abs=1e-9)


def test_jxp_values():
    assert nc.jxp(L2, p=2.0, t=1.0, strategy=FAST).value == pytest.approx(
        math.sqrt(2.0), abs=1e-9)
    assert nc.jxp(L1, p=1.0, t=0.5, strategy=FAST).value == pytest.approx(
        1.5, abs=1e-9)
    # power identity against the gamma family
    for t in (0.3, 0.8):
        j = nc.jxp(HEX, p=3.0, t=t, strategy=FAST).value
        g = nc.gamma_p(HEX, p=3.0, t=t, strategy=FAST).value
        assert j ** 3 == pytest.approx(2.0 ** (3.0 - 2.0) * g, rel=1e-9)


def test_nu_values():
    assert nc.nu_p(L2, p=2.0, strategy=FAST).value == pytest.approx(2.0,
                                                                    abs=1e-6)
    assert nc.nu_p(L1, p=1.0, strategy=FAST).value == pytest.approx(2.0,
                                                                    abs=1e-6)
    # scaling relation to the t-swept constant
    nu = nc.nu_p(L1, p=2.0, strategy=FAST).value
    cnj = nc.cnj_p(L1, p=2.0, strategy="exact").value
    assert nu == pytest.approx(2.0 ** (2.0 - 1.0) * cnj, abs=1e-3)


def test_omega_values():
    assert nc.omega_prime(L2, strategy=FAST).value == pytest.approx(1.0,
                                                                    abs=1e-9)
    om = nc.omega_prime(HEX, strategy=HEXFAST)
    assert om.value == pytest.approx(1.25, abs=1e-9)
    assert om.value == pytest.approx(0.9 * nc.gamma_p(HEX, 2.0, 1.0 / 3.0, HEXFAST).value,
                                     abs=1e-6)
    # its own search alone: the identity's gamma_p is the suite's to run
    alone = nc.constants._run_sup(HEX, nc.constants._omega_objective(HEX), nc.Region.SPHERE,
                                  HEXFAST)
    assert repr(om) == repr(alone)
    assert nc.omega_prime(L1, strategy=FAST).value == pytest.approx(1.6,
                                                                    abs=1e-9)


def test_smoothness_quotient():
    assert nc.smoothness_quotient(L1, p=1.0, alpha=0.3,
                                  strategy=FAST) == pytest.approx(1.0,
                                                                  abs=1e-9)
    qs = [nc.smoothness_quotient(L2, p=2.0, alpha=a, strategy=FAST)
          for a in (0.45, 0.49, 0.499)]
    assert qs[0] > qs[1] > qs[2]
    assert qs[2] <= 0.01


# --------------------------------------------------------------- validation

def test_parameter_validation():
    with pytest.raises(ValueError):
        nc.gamma_p(L2, p=0.5, t=0.3)
    with pytest.raises(ValueError):
        nc.gamma_p(L2, p=2.0, t=1.5)
    with pytest.raises(ValueError):
        nc.cinj_iso(L2, alpha=0.6, p=2.0)
    with pytest.raises(ValueError):
        nc.cinj_iso(L2, alpha=-0.1, p=2.0)
    with pytest.raises(ValueError):
        nc.jxp(L2, p=2.0, t=0.0)  # strictly positive t
    with pytest.raises(ValueError):
        nc.rho(L2, t=-0.1)
    with pytest.raises(ValueError):
        nc.smoothness_quotient(L2, p=2.0, alpha=0.5)


def test_exponents_below_the_overflow_bound_are_computed_and_the_rest_refused():
    # every objective sums two p-th powers of norms of at most 2, which
    # stay finite below p = 1023
    p = 1022.99
    assert nc.cnj_modified_p(L1, p, "exact").value == 2.0
    assert nc.cinj_iso(L1, 0.25, p, "exact").value == pytest.approx(2.0 * 0.75 ** p, rel=1e-12)
    assert nc.nu_p(L3, p, FAST).value >= 2.0 ** (p - 1.0)
    assert nc.gamma_p(L3, p, 0.5, FAST).value == pytest.approx(2.0 * 0.75 ** p, rel=1e-9)
    # at 1023 cnj_modified_p returned 1.0 and from 1030 cinj_iso 0.0, nu_p a
    # finite value below 2^(p - 1) and gamma_p an OverflowError
    calls = {"gamma_p": dict(t=0.5), "cinj_iso": dict(alpha=0.25),
             "cinj_via_gamma": dict(alpha=0.25), "cnj_p": {}, "cnj_modified_p": {},
             "jxp": dict(t=0.5), "nu_p": {}, "smoothness_quotient": dict(alpha=0.25)}
    assert set(calls) == {cid for cid, params in CONSTANT_PARAMS.items() if "p" in params}
    for cid, rest in calls.items():
        for p in (1023.0, 1030.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"exponent p must be a real in \[1, 1023\)"):
                getattr(nc, cid)(L1, p=p, strategy="exact", **rest)


@pytest.mark.parametrize("name", ["gamma_p", "cinj_iso", "cinj_via_gamma"])
def test_swept_arguments_are_checked_in_order_before_the_strategy(name):
    # gamma_p checks p and then t, the cinj constants alpha and then p; both
    # come before the strategy string is parsed
    single = getattr(nc, name)
    axis, bad = ("t", 1.5) if name == "gamma_p" else ("alpha", 0.6)
    first = "exponent p" if name == "gamma_p" else "alpha must lie"
    with pytest.raises(ValueError, match=first):
        single(L2, p=0.5, strategy="bogus", **{axis: bad})
    with pytest.raises(ValueError, match=f"{axis} must lie"):
        single(L2, p=2.0, strategy="bogus", **{axis: bad})
    with pytest.raises(ValueError, match="exponent p"):
        single(L2, p=0.5, strategy="bogus", **{axis: 0.25})
    with pytest.raises(ValueError, match="bogus"):
        single(L2, p=2.0, strategy="bogus", **{axis: 0.25})
    # a stacked sweep checks its values in the same order
    with pytest.raises(ValueError, match=first):
        _estimates_along(name, L2, FAST, axis, [bad, 0.25], p=0.5)
    with pytest.raises(ValueError, match=f"{axis} must lie"):
        _estimates_along(name, L2, FAST, axis, [0.25, bad], p=2.0)


def test_exact_strategy_rejections():
    with pytest.raises(nc.SpaceError):
        nc.cinj_iso(L2, alpha=0.25, p=2.0, strategy="exact")  # smooth ball
    # sup_vertex_pairs refuses an objective that is not vertex-attaining
    # and names it
    refusal = "is not declared vertex-attaining.*need a search strategy \\(grid2d or multistart\\)"
    with pytest.raises(ValueError, match=r"objective 'nu_p\(p=2\.0\)' " + refusal):
        nc.nu_p(L1, p=2.0, strategy="exact")  # non-convex ratio
    for sp in (L1, HEX):
        # both run the min-form supremum first, which refuses a vertex strategy
        for constant in (nc.james, nc.schaffer):
            with pytest.raises(ValueError, match="objective 'james_min_form' " + refusal):
                constant(sp, strategy="exact")


def test_resolve_strategy_defaults():
    s2 = nc.resolve_strategy(None, L2, seed=9)
    assert isinstance(s2, Grid2DStrategy)
    s3 = nc.resolve_strategy(None, nc.lp_space(2, 3), seed=9)
    assert isinstance(s3, MultiStartStrategy) and s3.seed == 9
    assert nc.resolve_strategy("grid2d:res=64", L2) == Grid2DStrategy(
        resolution=64)
    with pytest.raises(ValueError, match=r"seed >= 0"):
        nc.resolve_strategy(None, nc.lp_space(3, 3), seed=-1)


# ------------------------------------------------------------ property tests

@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.5),
       st.floats(min_value=1.0, max_value=4.0))
def test_cinj_l1_exact_matches_closed_form_hypothesis(alpha, p):
    est = nc.cinj_iso(L1, alpha=alpha, p=p, strategy="exact")
    assert est.value == pytest.approx(2.0 * (1.0 - alpha) ** p, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_multistart_seed_never_exceeds_exact(seed):
    est = nc.cinj_iso(L1, alpha=0.25, p=2.0,
                      strategy=MultiStartStrategy(starts=6, steps=80,
                                                  seed=seed))
    assert est.value <= 2.0 * 0.75 ** 2 + 1e-9


_SWEEP_CASES = {
    "exact": [(L1, "exact"), (HEX, "exact")],
    "grid2d": [(L2, Grid2DStrategy(resolution=16, refine=2)),
               (HEX, Grid2DStrategy(resolution=24, refine=1))],
    "multistart": [(nc.lp_space(3, 3), MultiStartStrategy(starts=3, steps=12, seed=5))],
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["gamma_p", "cinj_iso", "cinj_via_gamma"]),
       st.sampled_from(sorted(_SWEEP_CASES)), st.data(),
       st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5]), min_size=1, max_size=4),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_estimates_along_matches_one_call_per_value(name, kind, data, values, p):
    space, strat = data.draw(st.sampled_from(_SWEEP_CASES[kind]))
    axis = "t" if name == "gamma_p" else "alpha"
    single = getattr(nc, name)
    got = _estimates_along(name, space, strat, axis, values, p=p)
    want = [single(space, strategy=strat, p=p, **{axis: v}) for v in values]
    # repr keeps the sign of zero, which == does not
    assert [repr(e) for e in got] == [repr(e) for e in want]


_VIA_CASES = [(L3, Grid2DStrategy(resolution=16, refine=2)),
              (HEX, Grid2DStrategy(resolution=24, refine=1)), (L1, "exact"), (HEX, "exact"),
              (nc.lp_space(1.5, 3), MultiStartStrategy(starts=3, steps=12, seed=5))]


def _halved(est, t):
    return dataclasses.replace(est, value=0.5 * est.value,
                               meta={**est.meta, "route": "via_gamma", "t": t})


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.0, max_value=12.0),
       st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=3),
       st.sampled_from(range(len(_VIA_CASES))))
# exponents where 2.0 ** p and 2.0 * 2.0 ** (p - 1.0) differ in the last bit
@example(11.097158030182067, [0.3], 0)
@example(3.277224048450284, [0.1, 0.4], 1)
@example(3.2223724957642927, [0.25], 3)
def test_cinj_via_gamma_is_half_of_gamma_p(p, alphas, case):
    # the identity route runs gamma_p's search at t = 1 - 2 alpha and halves
    # its value: the same witness and evaluations, the value bit for bit
    space, strat = _VIA_CASES[case]
    ts = [1.0 - 2.0 * alpha for alpha in alphas]
    for alpha, t in zip(alphas, ts):
        assert repr(nc.cinj_via_gamma(space, alpha, p, strat)) == repr(
            _halved(nc.gamma_p(space, p, t, strat), t))
    # a sweep over alpha runs gamma's sweep over t, stacked on grid2d
    got = _estimates_along("cinj_via_gamma", space, strat, "alpha", alphas, p=p)
    want = _estimates_along("gamma_p", space, strat, "t", ts, p=p)
    assert [repr(e) for e in got] == [repr(_halved(e, t)) for e, t in zip(want, ts)]


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_coefficient_sandwich_on_iso_pairs(a, u0, u1, v0, v1):
    # for x isosceles orthogonal to y and |a| <= 1:
    #   |a| * ||x +- y|| <= ||x + a y|| <= ||x +- y||, mirrored for |a| >= 1
    if abs(u0) + abs(u1) < 1e-3 or abs(v0) + abs(v1) < 1e-3:
        return
    for sp in (L3, HEX):
        w1 = nc.unit_vector(sp, (u0, u1))
        w2 = nc.unit_vector(sp, (v0, v1))
        x = (w1[0] + w2[0], w1[1] + w2[1])
        y = (w1[0] - w2[0], w1[1] - w2[1])
        assert abs(nc.iso_defect(sp, x, y)) < 1e-9
        plus = nc.norm(sp, (x[0] + y[0], x[1] + y[1]))
        minus = nc.norm(sp, (x[0] - y[0], x[1] - y[1]))
        mid = nc.norm(sp, (x[0] + a * y[0], x[1] + a * y[1]))
        for side in (plus, minus):
            if abs(a) <= 1.0:
                assert abs(a) * side <= mid + 1e-9
                assert mid <= side + 1e-9
            else:
                assert side <= mid + 1e-9
                assert mid <= abs(a) * side + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_psi_even_bitwise_on_lp(r, t, x0, x1, y0, y1):
    # entrywise absolute values make the two evaluations identical floats
    sp = L3
    def psi(rr):
        v = (rr * x0 + t * y0, rr * x1 + t * y1)
        w = (rr * x0 - t * y0, rr * x1 - t * y1)
        return nc.norm(sp, v) ** 3 + nc.norm(sp, w) ** 3
    assert psi(r) == psi(-r)
