"""Check catalog plumbing: single checks, reports, serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from normconst import constants as cns
from normconst.search import ExactStrategy, Grid2DStrategy
from normconst.spaces import NormedSpace, lp_space, parse_space, regular_polygon_space
from normconst.verify import (
    CHECKS,
    CheckResult,
    PROFILES,
    Profile,
    SuiteReport,
    _Context,
    _excess,
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
    asks = [("gamma_p", "t", [0.0, 0.25, 0.5, 0.25, 1.0], {"p": 2.0}),
            ("cinj_iso", "alpha", [0.0, 0.1, 0.5], {"p": 3.0}),
            ("cinj_via_gamma", "alpha", [0.5, 0.25, 0.0], {"p": 1.5})]
    for strat in strats:
        alone, prefetched = _Context(MINI, 7), _Context(MINI, 7)
        # a key cached before the prefetch keeps its object
        kept = prefetched.estimate("gamma_p", space, strat, p=2.0, t=0.5)
        returned = [prefetched.estimate_many(name, space, strat, axis, values, **fixed)
                    for name, axis, values, fixed in asks]
        cached = dict(prefetched._cache)
        assert len(cached) == 4 + 3 + 3
        for (name, axis, values, fixed), ests in zip(asks, returned):
            assert len(ests) == len(values)
            for v, est in zip(values, ests):
                params = {**fixed, axis: v}
                got = prefetched.estimate(name, space, strat, **params)
                assert got is cached[_Context._key(name, space, strat, params)] is est
                assert repr(got) == repr(alone.estimate(name, space, strat, **params))
        assert prefetched.estimate("gamma_p", space, strat, p=2.0, t=0.5) is kept
        assert prefetched._cache == cached


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


def test_js_identity_runs_the_min_form_supremum_in_each_constant(monkeypatch):
    names = []
    sup_pairs_2d = cns.sup_pairs_2d

    def counted(space, f, *args):
        names.append(f.name)
        return sup_pairs_2d(space, f, *args)

    monkeypatch.setattr(cns, "sup_pairs_2d", counted)
    res = run_check("js_identity", regular_polygon_space(6), {}, profile=MINI)
    # the check calls james and schaffer as they are, and each runs it
    assert res.passed and names == ["james_min_form"] * 2
    # as do the public constants; schaffer's evaluations count it
    strat = Grid2DStrategy(resolution=64, refine=6)
    j = cns.james(L2, strat)
    s = cns.schaffer(L2, strat)
    assert names[2:] == ["james_min_form"] * 2
    mf = cns._min_form_sup(L2, strat)
    assert s.evaluations == cns._unit_iso_extremum(L2, "inf", strat)[2] + mf.evaluations
    assert s.meta["two_over_james"] == 2.0 / j.value == 2.0 / mf.value


def test_smoothness_limit_reads_its_quotients_through_the_estimate_cache(monkeypatch):
    asked = []
    estimate = _Context.estimate

    def recorded(self, name, space, strat, **params):
        asked.append((name, params))
        return estimate(self, name, space, strat, **params)

    monkeypatch.setattr(_Context, "estimate", recorded)
    res = run_check("smoothness_limit", L2, {"p": 2.0}, profile=MINI)
    assert asked == [("smoothness_quotient", {"p": 2.0, "alpha": a}) for a in (0.45, 0.49, 0.499)]
    grid = Grid2DStrategy(MINI.resolution, MINI.refine, MINI.radial)
    assert res.values["quotients"] == [cns.smoothness_quotient(L2, 2.0, a, grid)
                                       for a in (0.45, 0.49, 0.499)]


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


def test_smoothness_check_fails_on_a_nan_quotient(monkeypatch):
    quotient = cns.smoothness_quotient

    def nan_in_the_middle(space, p, alpha, strategy=None):
        return math.nan if alpha == 0.49 else quotient(space, p, alpha, strategy)

    monkeypatch.setattr(cns, "smoothness_quotient", nan_in_the_middle)
    res = run_check("smoothness_limit", L1, {"p": 1.0}, profile=MINI)
    assert res.values["branch"] == "bounded_away"
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
