"""Check catalog plumbing: single checks, reports, serialization."""

import collections
import dataclasses
import json
import math

import numpy as np
import pytest

from normconst import constants as cns
from normconst import search, verify
from normconst.search import ExactStrategy, Grid2DStrategy, MultiStartStrategy, sup_pairs_2d
from normconst.spaces import NormedSpace, Region, lp_space, parse_space, regular_polygon_space
from normconst.verify import (
    CHECKS,
    CheckResult,
    PROFILES,
    Profile,
    SuiteReport,
    OFFSET_GRID,
    P_GRID,
    _Context,
    _excess,
    _run_one,
    _verdict,
    default_suite_spaces,
    report_json,
    run_check,
    run_suite,
    to_jsonable,
)

L1 = lp_space(1, 2)
L2 = lp_space(2, 2)

# trimmed profile so unit tests stay quick; suite-scale runs live in the
# acceptance tests
MINI = Profile("mini", resolution=64, refine=6, radial=3, starts=12,
               steps=120, t_grid=9, t_refine=6, lemma_pairs=500,
               psi_samples=3, ball_resolution=48, ball_radial=3)


def test_default_suite_spaces():
    spaces = default_suite_spaces()
    assert len(spaces) == 5
    kinds = [s.kind for s in spaces]
    assert kinds.count("lp") == 4 and kinds.count("poly2d") == 1


def test_run_check_single():
    res = run_check("remark_gamma_zero", L1, {"p": 3.0}, profile=MINI)
    assert isinstance(res, CheckResult)
    assert res.passed
    assert res.check_id == "remark_gamma_zero"
    assert res.params == {"p": 3.0}
    assert res.slack_used <= 1e-9


def test_run_check_bounds():
    res = run_check("bounds_pp", L1, {"alpha": 0.25, "p": 2.0}, profile=MINI)
    assert res.passed
    assert set(res.values) >= {"estimate", "lower", "upper"}


def test_run_check_unknown_id():
    with pytest.raises(ValueError, match="unknown check_id"):
        run_check("nope", L1, {})


def test_run_check_unknown_profile():
    with pytest.raises(ValueError, match="unknown profile"):
        run_check("remark_gamma_zero", L1, {"p": 2.0}, profile="warp")


def test_run_suite_validation():
    with pytest.raises(ValueError):
        run_suite([], profile="fast")
    with pytest.raises(ValueError, match="unknown profile"):
        run_suite([L1], profile="warp")


def test_negative_seed_rejected_before_any_check(monkeypatch):
    import normconst.verify as verify_mod

    def no_check(*args):
        raise AssertionError("a check ran")
    monkeypatch.setattr(verify_mod, "_run_one", no_check)
    with pytest.raises(ValueError, match="need seed >= 0"):
        run_check("sphere_ball_equal", lp_space(3, 3), {"p": 2.0, "t": 0.5},
                  seed=-1, profile=MINI)
    with pytest.raises(ValueError, match="need seed >= 0"):
        run_suite([lp_space(3, 3)], seed=-1, profile="fast")


# every numeric Profile field with its least value
PROFILE_FLOORS = {"resolution": 8, "refine": 0, "radial": 2, "starts": 1, "steps": 1,
                  "t_grid": 3, "t_refine": 0, "lemma_pairs": 1, "psi_samples": 1,
                  "ball_resolution": 8, "ball_radial": 2}


def test_profile_floors_cover_every_numeric_field():
    assert set(PROFILE_FLOORS) == {f.name for f in dataclasses.fields(Profile)} - {"name"}


@pytest.mark.parametrize("field,least", sorted(PROFILE_FLOORS.items()))
def test_out_of_range_profile_rejected_before_any_check(monkeypatch, field, least):
    import normconst.verify as verify_mod

    def never(*args):
        raise AssertionError("a check or its parameter grid ran")
    monkeypatch.setattr(verify_mod, "CHECKS", {"x": (never, never)})
    bad = dataclasses.replace(MINI, **{field: least - 1})
    for space in (L2, lp_space(3, 3)):
        with pytest.raises(ValueError, match=rf"need \w+ >= {least}, got \w+={least - 1}$"):
            run_suite([space], profile=bad)
        with pytest.raises(ValueError, match=rf"need \w+ >= {least}"):
            run_check("x", space, {}, profile=bad)
    # the least value itself is accepted: the suite reaches the checks
    with pytest.raises(AssertionError, match="a check"):
        run_suite([L2], profile=dataclasses.replace(MINI, **{field: least}))


@pytest.mark.parametrize("field,least", sorted(PROFILE_FLOORS.items()))
def test_out_of_range_profile_error_names_the_profile_field(field, least):
    # every field is capped at numpy's largest index, as strategy fields are
    most = int(np.iinfo(np.intp).max)
    for value, need in ((least - 1, f">= {least}"), (most + 1, f"<= {most}"),
                        (10 ** 20, f"<= {most}")):
        bad = dataclasses.replace(MINI, **{field: value})
        with pytest.raises(ValueError, match=rf"^profile field out of range: "
                                             rf"need {field} {need}, got {field}={value}$"):
            run_suite([L2], profile=bad)


def test_single_space_mini_suite_passes():
    rep = run_suite([L2], seed=5, profile=MINI)
    assert rep.summary["failed"] == 0
    assert rep.summary["total"] == rep.summary["passed"] == len(rep.checks)
    assert rep.profile == "mini"
    # results arrive sorted by (check_id, space, params)
    keys = [(c.check_id, c.space, json.dumps(c.params, sort_keys=True))
            for c in rep.checks]
    assert keys == sorted(keys)


def test_report_roundtrip_and_timing():
    rep = run_suite([L1], seed=5, profile=MINI)
    doc = to_jsonable(rep)
    assert doc["seed"] == 5
    assert all(c["runtime_ms"] == 0 for c in doc["checks"])
    timed = to_jsonable(rep, include_timing=True)
    assert any(c["runtime_ms"] >= 0 for c in timed["checks"])
    text = report_json(rep)
    back = json.loads(text)
    assert back == doc
    assert back["summary"]["failed"] == 0


def test_report_json_deterministic_mini():
    a = report_json(run_suite([L1], seed=9, profile=MINI))
    b = report_json(run_suite([L1], seed=9, profile=MINI))
    assert a == b


def test_profiles_exist():
    assert set(PROFILES) == {"fast", "thorough"}
    assert PROFILES["thorough"].resolution > PROFILES["fast"].resolution


def test_check_failure_is_recorded_not_raised():
    # an oversized polygon-free space list is fine; instead force a failure
    # by checking a closed form against the wrong space via params abuse:
    # dichotomy on a heavily weighted lp space with a tiny margin must still
    # produce a CheckResult rather than an exception
    sp = regular_polygon_space(8)
    res = run_check("nonsquare_dichotomy", sp, {"alpha": 0.4, "p": 2.0},
                    profile=MINI)
    assert isinstance(res, CheckResult)
    assert isinstance(res.passed, bool)


# every omega_identity norm overflows on lp:q=2000, so its estimate has no
# finite value on the grid
TINY = Profile("tiny", resolution=48, refine=2, radial=3, starts=4, steps=8, t_grid=5,
               t_refine=2, lemma_pairs=100, psi_samples=2, ball_resolution=24, ball_radial=3)


def test_suite_records_a_check_error_as_a_failure():
    space = lp_space(2000, 2)
    with pytest.raises(ValueError, match="no finite value"):
        run_check("omega_identity", space, {}, profile=TINY)
    report = run_suite([space], profile=TINY)
    (res,) = [r for r in report.checks if r.check_id == "omega_identity"]
    assert not res.passed and math.isnan(res.slack_used)
    assert res.values == {"error": "objective returned no finite value on the grid"}
    back = json.loads(report_json(report), parse_constant=_no_constant)
    (row,) = [c for c in back["checks"] if c["check_id"] == "omega_identity"]
    assert row["slack_used"] == "NaN"


def test_verify_cli_exits_1_on_a_check_error(monkeypatch, capsys):
    from normconst import verify
    from normconst.cli import main

    monkeypatch.setitem(verify.PROFILES, "fast", TINY)
    assert main(["verify", "--space", "lp:q=2000,dim=2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert any(c["check_id"] == "omega_identity" and not c["passed"] for c in doc["checks"])


def test_smoothness_check_branches():
    res_smooth = run_check("smoothness_limit", L2, {"p": 2.0}, profile=MINI)
    assert res_smooth.passed and res_smooth.values["branch"] == "vanishing"
    res_sharp = run_check("smoothness_limit", L1, {"p": 1.0}, profile=MINI)
    assert res_sharp.passed and res_sharp.values["branch"] == "bounded_away"


@pytest.mark.parametrize("desc", ["lp:q=1.1,dim=2", "lp:q=1.5,dim=2", "lp:q=1.8,dim=2",
                                  "lp:q=20,dim=2", "wlp:q=1.5,dim=2,w=1;2"])
def test_smoothness_limit_vanishes_on_every_smooth_lq(desc):
    # l_q is uniformly smooth for 1 < q < inf: its quotient falls at the
    # rate min(q, 2) - 1, near 1 or below it, well above the required share
    space = parse_space(desc)
    res = run_check("smoothness_limit", space, {"p": 2.0}, profile=MINI)
    assert res.passed and res.values["branch"] == "vanishing"
    assert res.values["rate"] == min(space.q, 2.0) - 1.0
    assert res.values["slope"] == pytest.approx(res.values["rate"], abs=0.15)
    assert res.values["required_slope"] == 0.5 * res.values["rate"]


@pytest.mark.parametrize("space, p", [(L1, 1.0), (lp_space(math.inf, 2), 1.0),
                                      (regular_polygon_space(6), 2.0)],
                         ids=["l1", "linf", "hex"])
def test_smoothness_limit_stays_bounded_away_on_polygons(space, p):
    res = run_check("smoothness_limit", space, {"p": p}, profile=MINI)
    assert res.passed and res.values["branch"] == "bounded_away"
    assert res.values["floor"] == (0.1 if space.kind == "poly2d" else 0.9)


@pytest.mark.parametrize("space", [L2, regular_polygon_space(6)], ids=["l2", "hex"])
def test_estimate_many_fills_the_keys_estimate_reads(space):
    grid = Grid2DStrategy(resolution=32, refine=2, radial=3)
    strats = [grid] + ([ExactStrategy()] if space is not L2 else [])
    # cinj_via_gamma's alphas read gamma_p at t = 1, 0.5, 0 (cached by the
    # first ask) and at t = 0.8 (prefetched by its own)
    asks = [("gamma_p", "t", [0.0, 0.25, 0.5, 0.25, 1.0], {"p": 2.0}),
            ("cinj_iso", "alpha", [0.0, 0.1, 0.5], {"p": 3.0}),
            ("cinj_via_gamma", "alpha", [0.0, 0.25, 0.5, 0.1], {"p": 2.0})]
    for strat in strats:
        alone, prefetched = _Context(MINI, 7), _Context(MINI, 7)
        # a key cached before the prefetch keeps its object
        kept = prefetched.estimate("gamma_p", space, strat, p=2.0, t=0.5)
        returned = [prefetched.estimate_many(name, space, strat, axis, values, **fixed)
                    for name, axis, values, fixed in asks]
        cached = dict(prefetched._cache)
        assert len(cached) == (4 + 1) + 3 + 4
        for (name, axis, values, fixed), ests in zip(asks, returned):
            assert len(ests) == len(values)
            for v, est in zip(values, ests):
                params = {**fixed, axis: v}
                got = prefetched.estimate(name, space, strat, **params)
                assert got is cached[_Context._key(name, space, strat, params)] is est
                assert repr(got) == repr(alone.estimate(name, space, strat, **params))
        # each cinj_via_gamma is built from the gamma_p object at its offset
        for alpha, est in zip(asks[2][2], returned[2]):
            t = 1.0 - 2.0 * alpha
            gamma = cached[_Context._key("gamma_p", space, strat, {"p": 2.0, "t": t})]
            assert (est.value, est.witness, est.evaluations) == (
                0.5 * gamma.value, gamma.witness, gamma.evaluations)
            assert est.meta == {**gamma.meta, "route": "via_gamma", "t": t}
        assert prefetched.estimate("gamma_p", space, strat, p=2.0, t=0.5) is kept
        assert prefetched._cache == cached


@pytest.mark.parametrize("strat", [Grid2DStrategy(resolution=32, refine=2, radial=3),
                                   ExactStrategy(),
                                   MultiStartStrategy(starts=4, steps=12, seed=3)],
                         ids=["grid2d", "exact", "multistart"])
def test_cached_cinj_via_gamma_is_the_constant_bit_for_bit(strat):
    space = regular_polygon_space(6)
    for alpha in (0.0, 0.25, 0.5):
        for p in (1.0, 2.5):
            # read alone, and after gamma_p at its offset is cached
            alone, after_gamma = _Context(MINI, 7), _Context(MINI, 7)
            after_gamma.estimate("gamma_p", space, strat, p=p, t=1.0 - 2.0 * alpha)
            want = cns.cinj_via_gamma(space, alpha, p, strat)
            for ctx in (alone, after_gamma):
                got = ctx.estimate("cinj_via_gamma", space, strat, alpha=alpha, p=p)
                assert repr(got) == repr(want)
                assert got.meta["route"] == "via_gamma"
    # its arguments are checked as the constant checks them, alpha first
    with pytest.raises(ValueError, match="alpha must lie"):
        _Context(MINI, 7).estimate("cinj_via_gamma", space, strat, alpha=0.75, p=0.5)
    with pytest.raises(ValueError, match="exponent p"):
        _Context(MINI, 7).estimate("cinj_via_gamma", space, strat, alpha=0.25, p=0.5)


@pytest.mark.parametrize("space", [lp_space(3, 2), regular_polygon_space(6)], ids=["l3", "hex"])
def test_ball_gamma_stacks_each_p_once_with_the_single_runs_bits(space, monkeypatch):
    stacks = []
    stack = verify._sup_pairs_2d_stack

    def counted(space, family, thetas, region, strat):
        stacks.append(list(thetas))
        return stack(space, family, thetas, region, strat)

    monkeypatch.setattr(verify, "_sup_pairs_2d_stack", counted)
    ctx = _Context(MINI, 7)
    g = ctx.ball_grid
    for p in (1.0, 2.0):
        for t in (*OFFSET_GRID, 0.3, 0.5):
            single = sup_pairs_2d(space, cns.gamma_objective(space, p, t),
                                  (Region.BALL, Region.BALL), g.resolution, g.refine, g.radial)
            assert repr(ctx.ball_gamma(space, p, t)) == repr(single)
    assert stacks == [list(OFFSET_GRID), [0.3]] * 2


def _grid_searches(monkeypatch, space):
    """Each grid search of a mini-profile suite on ``space``, as (family or
    objective name, p, theta bits, region, strategy), and each joint
    ``cnj_p`` search, as ("cnj_p", p, mode, offsets, strategy): a list with
    one entry per run.  The stacked offset scans of a joint search are part
    of that search and are not listed apart."""
    runs, tags, inside = [], {}, []
    family, stack, joint = cns._family, search._sup_pairs_2d_stack, cns._cnj_joint

    def tagged_family(name, space, p):
        fam = family(name, space, p)

        def tagged(theta):
            obj = fam(theta)
            if isinstance(theta, float):
                tags[id(obj)] = (obj, name, p, theta.hex())
            return obj

        tags[id(tagged)] = (tagged, name, p)
        return tagged

    def tagged_stack(space, family, thetas, region, strat, pick=None):
        if not inside:
            for theta in thetas:
                if id(family) in tags:
                    ident = (*tags[id(family)][1:], float(theta).hex())
                else:   # sup_pairs_2d's one objective
                    obj = family(theta)
                    ident = tags.get(id(obj), (obj, obj.name, None, None))[1:]
                runs.append((*ident, region, strat))
        return stack(space, family, thetas, region, strat, pick)

    def tagged_joint(space, p, strat, ts, mode):
        runs.append(("cnj_p", p, mode, tuple(ts), strat))
        inside.append(1)
        try:
            return joint(space, p, strat, ts, mode)
        finally:
            inside.pop()

    monkeypatch.setattr(cns, "_family", tagged_family)
    monkeypatch.setattr(cns, "_cnj_joint", tagged_joint)
    for module in (search, cns, verify):
        monkeypatch.setattr(module, "_sup_pairs_2d_stack", tagged_stack)
    report = run_suite([space], seed=7, profile=MINI)
    assert report.summary["failed"] == 0
    return runs


@pytest.mark.parametrize("space", [L2, regular_polygon_space(6)], ids=["l2", "hex"])
def test_a_suite_runs_no_grid_search_twice(space, monkeypatch):
    runs = _grid_searches(monkeypatch, space)
    twice = {run: n for run, n in collections.Counter(runs).items() if n > 1}
    assert twice == {}
    names = collections.Counter(run[0] for run in runs)
    # the ball stacks and the min-form supremum are there; the hexagon's
    # other searches enumerate vertices
    assert sum(run[-2] == (Region.BALL, Region.BALL) for run in runs) == 3 * len(P_GRID)
    assert names["james_min_form"] == 1
    assert names["cnj_p"] == (2 * len(P_GRID) if space is L2 else 0)
    if space is L2:
        # grid2d everywhere: per p, gamma_p's 21-point t-grid and the 21
        # alphas of cinj_via_gamma, which share 8 offsets; then
        # smoothness_limit's alphas 0.49 and 0.499 and omega_identity's t = 1/3
        sphere = [run for run in runs if run[0] == "gamma_p" and run[-2] is Region.SPHERE]
        assert len(sphere) == len(P_GRID) * (21 + 21 - 8) + 2 + 1


@pytest.mark.parametrize("gap, tol, passed", [(math.nan, 1e-3, False),
                                              (0.0, math.inf, False),
                                              (1e-3, 1e-3, True)],
                         ids=["nan-gap", "inf-slack", "gap-equals-slack"])
def test_verdict(gap, tol, passed):
    values, ok, used = _verdict({"estimate": 1.0}, gap, tol)
    assert ok is passed
    assert list(values) == ["estimate", "declared_slack"]
    assert values["declared_slack"] == tol and used is gap


def test_excess_keeps_nan_wherever_it_stands():
    assert math.isnan(_excess(1.0, math.nan)) and math.isnan(_excess(math.nan, 1.0))
    assert _excess() == 0.0 and _excess(-1.0, 0.5) == 0.5
    assert math.copysign(1.0, _excess(-0.0)) == 1.0


def test_psi_even_convex_fails_on_infinite_norms(monkeypatch):
    norm_rows = NormedSpace.norm_rows

    def every_third_inf(self, V):
        out = norm_rows(self, V)
        return np.where(np.arange(out.size) % 3 == 0, np.inf, out)

    assert run_check("psi_even_convex", L2, {"p": 2.0, "t": 0.5}, profile=MINI).passed
    monkeypatch.setattr(NormedSpace, "norm_rows", every_third_inf)
    res = run_check("psi_even_convex", L2, {"p": 2.0, "t": 0.5}, profile=MINI)
    assert not res.passed
    assert math.isnan(res.values["evenness_gap"]) and res.values["declared_slack"] == math.inf


def _no_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_report_json_is_strict_json_with_non_finite_values():
    # q=2000 overflows the norm, so the check holds NaN and inf values
    res = run_check("psi_even_convex", lp_space(2000, 2), {"p": 2.0, "t": 0.5})
    assert math.isnan(res.values["evenness_gap"])
    rep = SuiteReport(seed=7, profile="fast", config={}, checks=(res,),
                      summary={"passed": 0, "failed": 1, "total": 1})
    back = json.loads(report_json(rep), parse_constant=_no_constant)
    values = back["checks"][0]["values"]
    assert values["evenness_gap"] == "NaN" and values["declared_slack"] == "Infinity"
    assert back == to_jsonable(rep)


def test_js_identity_shares_the_min_form_supremum_of_both_constants(monkeypatch):
    names = []
    sup_pairs_2d = cns.sup_pairs_2d

    def counted(space, f, *args):
        names.append(f.name)
        return sup_pairs_2d(space, f, *args)

    monkeypatch.setattr(cns, "sup_pairs_2d", counted)
    hexagon = regular_polygon_space(6)
    res = run_check("js_identity", hexagon, {}, profile=MINI)
    # the check runs it once and hands it to james and schaffer, which give
    # the bits they give when each runs it
    assert res.passed and names == ["james_min_form"]
    strat = Grid2DStrategy(resolution=64, refine=6, radial=3)
    assert (res.values["james"], res.values["schaffer"]) == (
        cns.james(hexagon, strat).value, cns.schaffer(hexagon, strat).value)
    assert names[1:] == ["james_min_form"] * 2
    # as do the public constants; schaffer's evaluations count it
    strat = Grid2DStrategy(resolution=64, refine=6)
    j = cns.james(L2, strat)
    s = cns.schaffer(L2, strat)
    assert names[3:] == ["james_min_form"] * 2
    mf = cns._min_form_sup(L2, strat)
    assert repr(cns.james(L2, strat, min_form=mf)) == repr(j)
    assert repr(cns.schaffer(L2, strat, min_form=mf)) == repr(s)
    assert s.evaluations == cns._unit_iso_extremum(L2, "inf", strat)[2] + mf.evaluations
    assert s.meta["two_over_james"] == 2.0 / j.value == 2.0 / mf.value


def test_smoothness_limit_reads_its_quotients_through_the_estimate_cache(monkeypatch):
    asked, searched = [], []
    estimate = _Context.estimate
    swept = cns._swept

    def recorded(self, name, space, strat, **params):
        asked.append((name, params))
        return estimate(self, name, space, strat, **params)

    def counted(name, space, strategy, values, p):
        searched.append((name, list(values)))
        return swept(name, space, strategy, values, p)

    monkeypatch.setattr(_Context, "estimate", recorded)
    monkeypatch.setattr(cns, "_swept", counted)
    alphas = (0.45, 0.49, 0.499)
    ctx = _Context(MINI, 7)
    res = _run_one(ctx, "smoothness_limit", L2, {"p": 2.0})
    # each cinj_via_gamma read is built from the gamma_p read at its offset
    assert asked == [read for a in alphas
                     for read in (("cinj_via_gamma", {"alpha": a, "p": 2.0}),
                                  ("gamma_p", {"p": 2.0, "t": 1.0 - 2.0 * a}))]
    assert searched == [("gamma_p", [1.0 - 2.0 * a]) for a in alphas]
    grid = ctx.strategy_for(L2, vertex_ok=True)
    assert res.values["quotients"] == [cns.smoothness_quotient(L2, 2.0, a, grid) for a in alphas]
    # alpha_monotone_convex has cached the search at alpha 0.45 already
    searched.clear()
    ctx = _Context(MINI, 7)
    _run_one(ctx, "alpha_monotone_convex", L2, {"p": 2.0})
    assert len(searched) == 1
    assert _run_one(ctx, "smoothness_limit", L2, {"p": 2.0}).values == res.values
    assert searched[1:] == [("gamma_p", [1.0 - 2.0 * a]) for a in alphas[1:]]


@pytest.mark.parametrize("space", [L2, regular_polygon_space(6)], ids=["l2", "hex"])
def test_omega_identity_compares_with_its_own_gamma_p_read(space):
    # the gamma_p side is read through the cache at omega_prime's strategy,
    # and gamma_route is 0.9 times it bit for bit
    ctx = _Context(MINI, 7)
    strat = ctx.strategy_for(space, vertex_ok=True)
    res = run_check("omega_identity", space, {}, profile=MINI)
    assert res.passed
    assert res.values["gamma_route"] == 0.9 * cns.gamma_p(space, 2.0, 1.0 / 3.0, strat).value
    assert res.values["omega"] == cns.omega_prime(space, strat).value
    assert "gamma_identity" not in cns.omega_prime(space, strat).meta


def test_smoothness_check_fails_on_a_nan_quotient():
    # a NaN constant cached under cinj_via_gamma at the middle alpha
    ctx = _Context(MINI, 7)
    strat = ctx.strategy_for(L1, vertex_ok=True)
    key = _Context._key("cinj_via_gamma", L1, strat, {"alpha": 0.49, "p": 1.0})
    ctx._cache[key] = dataclasses.replace(cns.cinj_via_gamma(L1, 0.49, 1.0, strat), value=math.nan)
    res = _run_one(ctx, "smoothness_limit", L1, {"p": 1.0})
    assert res.values["branch"] == "bounded_away"
    assert math.isnan(res.values["quotients"][1])
    assert not res.passed and math.isnan(res.values["lowest"])


def test_isometry_invariance_runs_on_the_thorough_profile_only():
    # a thorough-named profile at MINI's sizes: one check per p on the 2-D
    # space, each comparing the reduced scan with the full scan of gamma_p,
    # and one of the James min-form supremum
    l3 = lp_space(3, 2)
    thorough = dataclasses.replace(MINI, name="thorough")
    for space in (l3, regular_polygon_space(6)):
        rows = [r for r in run_suite([space], seed=7, profile=thorough).checks
                if r.check_id == "isometry_invariance"]
        assert [r.params for r in rows] == ([{"constant": "james"}]
                                            + [{"p": p, "t": 0.5} for p in (1.0, 2.0, 3.0)])
        for r in rows:
            assert r.passed and r.slack_used <= 1e-12 * r.values["full"]
            assert r.values["reduced_evaluations"] < r.values["full_evaluations"]
            assert r.values["declared_slack"] == 1e-3
    for profile in (MINI, "fast"):
        ctx = _Context(PROFILES[profile] if isinstance(profile, str) else profile, 7)
        assert CHECKS["isometry_invariance"][1](ctx, l3) == []
    assert CHECKS["isometry_invariance"][1](_Context(thorough, 7), lp_space(3, 3)) == []
