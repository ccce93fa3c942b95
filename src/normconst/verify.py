"""Executable cross-checks: inequalities, identities, and worked values.

Each check compares independently computed estimates, so a pass certifies
agreement between two routes rather than internal consistency of one code
path.  Slack policy:

* vertex-exact comparisons get 1e-6 (identities 1e-9 where both sides are
  enumerated exactly);
* grid / multi-start comparisons get 1e-3, doubled when both sides carry
  independent search error;
* one-sided checks whose direction is safe under lower-bound estimation
  (every "estimate <= closed-form bound" direction) get no statistical
  slack at all, only a 1e-9 rounding guard.

Results are sorted by (check_id, space, params), so the report does not
depend on the order in which the catalog runs.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import constants as cns
from .search import (_MOST, Estimate, ExactStrategy, Grid2DStrategy, MultiStartStrategy,
                     Strategy, _check_range, _sup_pairs_2d_stack, _unit_rows, sup_pairs_2d,
                     sup_pairs_nd)
from .spaces import (NormedSpace, Region, descriptor, lp_space,
                     regular_polygon_space, supports_extreme_points)

EXACT_SLACK = 1e-6
SEARCH_SLACK = 1e-3
ROUNDING_GUARD = 1e-9
DICHOTOMY_MARGIN = 0.1
LEMMA_TOL = 1e-9

ALPHA_GRID = (0.0, 0.1, 0.25, 0.4, 0.5)
P_GRID = (1.0, 2.0, 3.0)
Q_GRID = (2.0, 4.0)
OFFSET_GRID = (0.0, 0.5, 1.0)      # t values for the sphere/ball comparison
MONOTONE_POINTS = 21               # alpha and t resolution for monotonicity scans
SMOOTHNESS_ALPHAS = (0.45, 0.49, 0.499)
# share of the rate min(q, 2) - 1 that an l_q quotient must fall at (smoothness_limit)
SMOOTHNESS_RATE_SHARE = 0.5


@dataclass(frozen=True)
class Profile:
    name: str
    resolution: int
    refine: int
    radial: int
    starts: int
    steps: int
    t_grid: int
    t_refine: int
    lemma_pairs: int
    psi_samples: int
    # angular/radial grid for the ball-region cross scan; kept separate
    # because a ball x ball sweep squares the point count.  Both values
    # are divisible by 8 and 6 so square and hexagon vertices stay on
    # the grid.
    ball_resolution: int = 96
    ball_radial: int = 5


PROFILES = {
    "fast": Profile("fast", resolution=256, refine=12, radial=9, starts=48,
                    steps=240, t_grid=17, t_refine=10, lemma_pairs=10000,
                    psi_samples=6, ball_resolution=96, ball_radial=5),
    "thorough": Profile("thorough", resolution=1024, refine=40, radial=17,
                        starts=128, steps=400, t_grid=33, t_refine=20,
                        lemma_pairs=10000, psi_samples=12,
                        ball_resolution=192, ball_radial=9),
}


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    space: str
    params: dict
    values: dict
    passed: bool
    slack_used: float
    runtime_ms: int


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    profile: str
    config: dict
    checks: tuple[CheckResult, ...]
    summary: dict


def default_suite_spaces() -> tuple[NormedSpace, ...]:
    return (lp_space(1, 2), lp_space(math.inf, 2), lp_space(2, 2),
            lp_space(3, 2), regular_polygon_space(6))


# ---------------------------------------------------------------------------
# execution context: strategies, slacks, and an estimate cache


_BALLS = (Region.BALL, Region.BALL)

# Every numeric Profile field with its (least, largest) value: a field that
# fills a strategy field takes that field's bounds, the other counts are
# capped as strategy fields are
_PROFILE_BOUNDS = {name: (least, most) for cls in (Grid2DStrategy, MultiStartStrategy)
                   for _, name, least, most in cls.FIELDS if name in Profile.__dataclass_fields__}
_PROFILE_BOUNDS.update(ball_resolution=_PROFILE_BOUNDS["resolution"],
                       ball_radial=_PROFILE_BOUNDS["radial"], t_grid=(3, _MOST),
                       t_refine=(0, _MOST), lemma_pairs=(1, _MOST), psi_samples=(1, _MOST))


class _Context:
    """A profile's strategies, built once, and the estimate cache, keyed by
    the constant's name, the space (by identity), the strategy (by value)
    and the parameters.  Each search runs once: a constant built on a
    search that another key holds is built from that key's estimate (see
    ``_compute``), and every other one is a call of the ``constants``
    function of its name.  Every numeric field of the profile is checked
    first, and an out-of-range one is refused by its profile field name
    before any check runs."""

    def __init__(self, profile: Profile, seed: int):
        self.profile = profile
        self.seed = seed
        self._cache: dict = {}
        for name, (least, most) in _PROFILE_BOUNDS.items():
            _check_range("profile field", name, getattr(profile, name), least, most)
        self.grid = Grid2DStrategy(profile.resolution, profile.refine, profile.radial)
        # the ball x ball grid of sphere_ball_equal
        self.ball_grid = Grid2DStrategy(profile.ball_resolution, profile.refine,
                                        profile.ball_radial)
        self.multistart = MultiStartStrategy(profile.starts, profile.steps, seed)

    def strategy_for(self, space: NormedSpace, vertex_ok: bool) -> Strategy:
        if vertex_ok and supports_extreme_points(space):
            return ExactStrategy()
        return self.grid if space.dim == 2 else self.multistart

    @staticmethod
    def _key(name: str, space: NormedSpace, strat: Strategy, params: dict):
        return name, space, strat, tuple(sorted(params.items()))

    def estimate(self, name: str, space: NormedSpace, strat: Strategy,
                 **params) -> Estimate | float:
        key = self._key(name, space, strat, params)
        if key not in self._cache:
            self._cache[key] = self._compute(name, space, strat, params)
        return self._cache[key]

    def _compute(self, name: str, space: NormedSpace, strat: Strategy, params: dict):
        """What ``constants``' function ``name`` returns at ``params``, bit for
        bit.  ``cinj_via_gamma`` is built from the cached ``gamma_p`` at
        t = 1 - 2 alpha; ``james`` and ``schaffer`` are handed the cached
        min-form supremum that both run first.  Every other constant, and
        those two, are a call of the function of their name."""
        if name == "cinj_via_gamma":
            t = cns._identity_offset(params["alpha"])
            return cns._via_gamma(self.estimate("gamma_p", space, strat, p=params["p"], t=t), t)
        if name in ("james", "schaffer"):
            params = {**params, "min_form": self.estimate("_min_form_sup", space, strat)}
        return getattr(cns, name)(space, strategy=strat, **params)

    def estimate_many(self, name: str, space: NormedSpace, strat: Strategy, axis: str,
                      values, **fixed) -> list[Estimate]:
        """``estimate(name, space, strat, **fixed, axis=v)`` for each v of
        ``values``, the cached objects: those not cached yet come from one
        ``constants._estimates_along`` call and are cached under the keys
        ``estimate`` reads.  ``cinj_via_gamma`` over alpha prefetches
        ``gamma_p`` at the offsets t = 1 - 2 alpha instead, and each
        ``cinj_via_gamma`` is then built from its offset's estimate."""
        if name == "cinj_via_gamma" and axis == "alpha":
            offsets = [cns._identity_offset(v) for v in values]
            self.estimate_many("gamma_p", space, strat, "t", offsets, p=fixed["p"])
            return [self.estimate(name, space, strat, **fixed, alpha=v) for v in values]
        keys = [self._key(name, space, strat, {**fixed, axis: v}) for v in values]
        missing = {key: v for key, v in zip(keys, values) if key not in self._cache}
        if missing:
            ests = cns._estimates_along(name, space, strat, axis, list(missing.values()),
                                        **fixed)
            self._cache.update(zip(missing, ests))
        return [self._cache[key] for key in keys]

    def ball_gamma(self, space: NormedSpace, p: float, t: float) -> Estimate:
        """``gamma_p``'s objective at (p, t) maximized over ball x ball pairs,
        cached: on a 2-D space one stacked ``ball_grid`` search per (space, p)
        of ``t`` and each offset of ``OFFSET_GRID`` not cached yet, bit for
        bit the single ``sup_pairs_2d`` runs; above two dimensions one
        multistart search per t."""
        strat = self.ball_grid if space.dim == 2 else self.multistart
        key = self._key("ball_gamma", space, strat, {"p": p, "t": t})
        if key in self._cache:
            return self._cache[key]
        if space.dim == 2:
            keys = {self._key("ball_gamma", space, strat, {"p": p, "t": x}): x
                    for x in (*OFFSET_GRID, t)}
            missing = [k for k in keys if k not in self._cache]
            ests, _ = _sup_pairs_2d_stack(space, cns._family("gamma_p", space, p),
                                          [keys[k] for k in missing], _BALLS, strat)
            self._cache.update(zip(missing, ests))
        else:
            m = self.multistart
            self._cache[key] = sup_pairs_nd(space, cns.gamma_objective(space, p, t), _BALLS,
                                            m.starts, m.steps, m.seed)
        return self._cache[key]

    def check_seed(self, check_id: str, space: NormedSpace) -> int:
        tag = f"{self.seed}:{check_id}:{descriptor(space)}"
        return zlib.crc32(tag.encode("utf-8"))


# ---------------------------------------------------------------------------
# check bodies: each returns (values, passed, slack_used)


def _slack(strat: Strategy, exact: float, search: float) -> float:
    """The declared slack of a comparison: ``exact`` when ``strat`` enumerates
    extreme points, ``search`` when it searches."""
    return exact if isinstance(strat, ExactStrategy) else search


def _excess(*terms: float) -> float:
    """``max(0.0, *terms)``, but NaN when any term is NaN: ``max`` keeps a
    NaN only in first place, so a gap built by it could drop a term that
    could not be computed."""
    return math.nan if any(math.isnan(t) for t in terms) else max((0.0, *terms))


def _verdict(values: dict, gap: float, tol: float):
    """Append ``declared_slack`` (``tol``) to ``values`` and judge ``gap``
    against it.  A NaN gap or a non-finite slack fails."""
    values["declared_slack"] = tol
    return values, math.isfinite(tol) and gap <= tol, gap


def _check_bounds_pp(ctx: _Context, space, params):
    alpha, p = float(params["alpha"]), float(params["p"])
    strat = ctx.strategy_for(space, vertex_ok=True)
    ctx.estimate_many("cinj_iso", space, strat, "alpha", ALPHA_GRID, p=p)
    est = ctx.estimate("cinj_iso", space, strat, alpha=alpha, p=p)
    lower = (1.0 - alpha) ** p + alpha ** p
    upper = 2.0 * (1.0 - alpha) ** p
    lo_slack = _slack(strat, ROUNDING_GUARD, SEARCH_SLACK)
    consumed_lo = _excess(lower - est.value)
    consumed_hi = _excess(est.value - upper)
    passed = consumed_lo <= lo_slack and consumed_hi <= ROUNDING_GUARD
    values = {"estimate": est.value, "lower": lower, "upper": upper,
              "declared_lower_slack": lo_slack,
              "declared_upper_slack": ROUNDING_GUARD}
    return values, passed, _excess(consumed_lo, consumed_hi)


def _check_identity_cr(ctx: _Context, space, params):
    alpha, p = float(params["alpha"]), float(params["p"])
    strat = ctx.strategy_for(space, vertex_ok=True)
    a = ctx.estimate("cinj_iso", space, strat, alpha=alpha, p=p)
    b = ctx.estimate("cinj_via_gamma", space, strat, alpha=alpha, p=p)
    return _verdict({"direct": a.value, "via_gamma": b.value}, abs(a.value - b.value),
                    _slack(strat, ROUNDING_GUARD, 2.0 * SEARCH_SLACK))


def _check_equivalence_t(ctx: _Context, space, params):
    p = float(params["p"])
    strat = ctx.strategy_for(space, vertex_ok=True)
    common = dict(p=p, t_grid=ctx.profile.t_grid, t_refine=ctx.profile.t_refine)
    a = ctx.estimate("cnj_p", space, strat, mode="gamma", **common)
    b = ctx.estimate("cnj_p", space, strat, mode="cinj", **common)
    values = {"via_gamma": a.value, "via_cinj": b.value,
              "t_star_gamma": float(a.meta["t_star"]),
              "t_star_cinj": float(b.meta["t_star"])}
    return _verdict(values, abs(a.value - b.value),
                    _slack(strat, EXACT_SLACK, 2.0 * SEARCH_SLACK))


def _check_alpha_monotone_convex(ctx: _Context, space, params):
    """The constant is non-increasing and convex in alpha on [0, 1/2].

    Direction: for a fixed pair the numerator is convex in alpha and
    symmetric under alpha -> 1-alpha, so it cannot increase on [0, 1/2];
    the closed forms on classical spaces (2(1-alpha)^p and
    (1-alpha)^p + alpha^p) decrease accordingly.
    """
    p = float(params["p"])
    strat = ctx.strategy_for(space, vertex_ok=True)
    grid = [float(a) for a in np.linspace(0.0, 0.5, MONOTONE_POINTS)]
    vals = [est.value for est in ctx.estimate_many("cinj_via_gamma", space, strat, "alpha",
                                                   grid, p=p)]
    mono = _excess(*(vals[i + 1] - vals[i] for i in range(len(vals) - 1)))
    convex = _excess(*(2.0 * vals[i] - vals[i - 1] - vals[i + 1]
                       for i in range(1, len(vals) - 1)))
    values = {"monotone_violation": mono, "convexity_violation": convex,
              "at_zero": vals[0], "at_half": vals[-1]}
    return _verdict(values, _excess(mono, convex), EXACT_SLACK)


def _check_gamma_monotone_t(ctx: _Context, space, params):
    p = float(params["p"])
    strat = ctx.strategy_for(space, vertex_ok=True)
    grid = [float(t) for t in np.linspace(0.0, 1.0, MONOTONE_POINTS)]
    vals = [est.value for est in ctx.estimate_many("gamma_p", space, strat, "t", grid, p=p)]
    worst = _excess(*(vals[i] - vals[i + 1] for i in range(len(vals) - 1)))
    values = {"monotone_violation": worst, "at_zero": vals[0], "at_one": vals[-1]}
    return _verdict(values, worst, EXACT_SLACK)


def _check_sphere_ball_equal(ctx: _Context, space, params):
    p, t = float(params["p"]), float(params["t"])
    strat = ctx.strategy_for(space, vertex_ok=False)
    ctx.estimate_many("gamma_p", space, strat, "t", OFFSET_GRID, p=p)
    sphere = ctx.estimate("gamma_p", space, strat, p=p, t=t)
    ball = ctx.ball_gamma(space, p, t)
    return _verdict({"sphere": sphere.value, "ball": ball.value},
                    abs(sphere.value - ball.value), SEARCH_SLACK)


def _check_isometry_invariance(ctx: _Context, space, params):
    """A grid2d estimate whose scan puts x1 on one fundamental domain of the
    space's isometries and x2 on half its circle where that is allowed,
    ``gamma_p`` at (p, t) or the James min-form supremum, against the full
    scan of its objective, which undoes both reductions."""
    g = ctx.grid
    if "p" in params:
        p, t = float(params["p"]), float(params["t"])
        reduced = ctx.estimate("gamma_p", space, g, p=p, t=t)
        obj = cns.gamma_objective(space, p, t)
    else:
        reduced = ctx.estimate("_min_form_sup", space, g)
        obj = cns._min_form_objective(space)
    full = sup_pairs_2d(space, replace(obj, isometry_invariant=False), Region.SPHERE,
                        g.resolution, g.refine, g.radial)
    values = {"reduced": reduced.value, "full": full.value,
              "reduced_evaluations": reduced.evaluations, "full_evaluations": full.evaluations}
    return _verdict(values, abs(reduced.value - full.value), SEARCH_SLACK)


def _check_pq_ordering(ctx: _Context, space, params):
    alpha, p, q = float(params["alpha"]), float(params["p"]), float(params["q"])
    strat = ctx.strategy_for(space, vertex_ok=True)
    cp = ctx.estimate("cinj_iso", space, strat, alpha=alpha, p=p).value
    cq = ctx.estimate("cinj_iso", space, strat, alpha=alpha, p=q).value
    upper = 2.0 ** (1.0 - p / q) * cq ** (p / q)
    return _verdict({"c_p": cp, "c_q": cq, "interpolation_cap": upper},
                    _excess(cq - cp, cp - upper),
                    _slack(strat, ROUNDING_GUARD, 2.0 * SEARCH_SLACK))


def _check_rho_sandwich(ctx: _Context, space, params):
    alpha, p = float(params["alpha"]), float(params["p"])
    t = 1.0 - 2.0 * alpha
    strat = ctx.strategy_for(space, vertex_ok=True)
    r = ctx.estimate("rho", space, strat, t=t).value
    c = ctx.estimate("cinj_iso", space, strat, alpha=alpha, p=p).value
    cap = ctx.estimate("cnj_modified_p", space, strat, p=p).value
    lower = 2.0 ** (1.0 - p) * (r + 1.0) ** p
    return _verdict({"smoothness_floor": lower, "estimate": c, "upper_constant": cap},
                    _excess(lower - c, c - cap), _slack(strat, ROUNDING_GUARD, SEARCH_SLACK))


def _check_james_sandwich(ctx: _Context, space, params):
    """(J - 2a)^p / 2^(p-1) <= C <= 2^p a^p + 2^(2p) (1-2a)^p / J^p.

    In the upper cap only the second term carries 1/J^p: the cap must
    dominate the value 2(1-a)^p attained on non-square spaces (J = 2),
    where dividing the whole sum would push the cap below the constant
    (p = 1: (2a + 4(1-2a))/2 = 1 - ... < 2 - 2a).  The a^p term comes from
    the triangle-inequality split and is J-free.
    """
    alpha, p = float(params["alpha"]), float(params["p"])
    cstrat = ctx.strategy_for(space, vertex_ok=True)
    jstrat = ctx.strategy_for(space, vertex_ok=False)
    c = ctx.estimate("cinj_iso", space, cstrat, alpha=alpha, p=p).value
    j = ctx.estimate("james", space, jstrat).value
    lower = (j - 2.0 * alpha) ** p / 2.0 ** (p - 1.0)
    upper = 2.0 ** p * alpha ** p + 2.0 ** (2 * p) * (1.0 - 2.0 * alpha) ** p / j ** p
    # the lower bound uses an under-estimate of J, so only the gap in the
    # C estimate can break it; the upper cap grows as the J estimate
    # falls short, so it is safe on both sides
    return _verdict({"james": j, "lower": lower, "estimate": c, "upper": upper},
                    _excess(lower - c, c - upper),
                    _slack(cstrat, ROUNDING_GUARD, SEARCH_SLACK))


def _check_js_identity(ctx: _Context, space, params):
    strat = ctx.strategy_for(space, vertex_ok=False)
    j = ctx.estimate("james", space, strat)
    s = ctx.estimate("schaffer", space, strat)
    product = j.value * s.value
    return _verdict({"james": j.value, "schaffer": s.value, "product": product},
                    abs(product - 2.0), SEARCH_SLACK)


def _check_omega_identity(ctx: _Context, space, params):
    """omega' = 0.9 gamma_p(p=2, t=1/3), each side its own search at one strategy."""
    strat = ctx.strategy_for(space, vertex_ok=True)
    om = ctx.estimate("omega_prime", space, strat)
    target = 0.9 * ctx.estimate("gamma_p", space, strat, p=2.0, t=1.0 / 3.0).value
    return _verdict({"omega": om.value, "gamma_route": target}, abs(om.value - target),
                    _slack(strat, EXACT_SLACK, SEARCH_SLACK))


def _check_lemma_ll_bounds(ctx: _Context, space, params):
    n = int(params["pairs"])
    if n < 1:
        raise ValueError("pairs must be positive")
    rng = np.random.default_rng(ctx.check_seed("lemma_ll_bounds", space))
    U1 = _unit_rows(space, rng.standard_normal((n, space.dim)))
    U2 = _unit_rows(space, rng.standard_normal((n, space.dim)))
    X = U1 + U2
    Y = U1 - U2
    plus = space.norm_rows(X + Y)
    minus = space.norm_rows(X - Y)
    maxima = []
    coeffs = (-2.0, -1.5, -1.25, -1.0, -0.75, -0.5, -0.25, 0.0,
              0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
    for a in coeffs:
        mid = space.norm_rows(X + a * Y)
        mag = abs(a)
        if mag <= 1.0:
            gaps = [mag * plus - mid, mag * minus - mid, mid - plus, mid - minus]
        else:
            gaps = [plus - mid, minus - mid, mid - mag * plus, mid - mag * minus]
        maxima += [float(g.max()) for g in gaps]
    worst = _excess(*maxima)
    values = {"pairs": n, "coefficients": len(coeffs), "max_violation": worst}
    return _verdict(values, worst, LEMMA_TOL)


def _closed_form_l1_linf(space) -> bool:
    return space.kind == "lp" and space.q in (1.0, math.inf)


def _closed_form(ctx: _Context, space, name: str, expected: float,
                 search_slack: float = SEARCH_SLACK, **params):
    """Estimate ``name`` at ``params`` and compare it with its closed form
    ``expected``: within the rounding guard on extreme points, else within
    ``search_slack``."""
    strat = ctx.strategy_for(space, vertex_ok=True)
    est = ctx.estimate(name, space, strat, **params)
    return _verdict({"estimate": est.value, "closed_form": expected},
                    abs(est.value - expected), _slack(strat, ROUNDING_GUARD, search_slack))


def _check_example_l1(ctx: _Context, space, params):
    alpha, p = float(params["alpha"]), float(params["p"])
    return _closed_form(ctx, space, "cinj_iso", 2.0 * (1.0 - alpha) ** p, alpha=alpha, p=p)


_check_example_linf = _check_example_l1


def _check_example_lp(ctx: _Context, space, params):
    alpha, p = float(params["alpha"]), float(params["p"])
    return _closed_form(ctx, space, "cinj_iso", (1.0 - alpha) ** p + alpha ** p,
                        alpha=alpha, p=p)


def _check_example_cnj_p(ctx: _Context, space, params):
    p = float(params["p"])
    strat = ctx.strategy_for(space, vertex_ok=True)
    est = ctx.estimate("cnj_p", space, strat, p=p, t_grid=ctx.profile.t_grid,
                       t_refine=ctx.profile.t_refine, mode="gamma")
    values = {"estimate": est.value, "expected": 2.0, "t_star": float(est.meta["t_star"])}
    return _verdict(values, abs(est.value - 2.0), _slack(strat, EXACT_SLACK, SEARCH_SLACK))


def _check_remark_alpha_half(ctx: _Context, space, params):
    p = float(params["p"])
    return _closed_form(ctx, space, "cinj_iso", 2.0 ** (1.0 - p), ROUNDING_GUARD,
                        alpha=0.5, p=p)


def _check_remark_gamma_zero(ctx: _Context, space, params):
    p = float(params["p"])
    return _closed_form(ctx, space, "gamma_p", 2.0 ** (2.0 - p), ROUNDING_GUARD,
                        p=p, t=0.0)


def _james_estimate(ctx: _Context, space) -> float:
    strat = ctx.strategy_for(space, vertex_ok=False)
    return ctx.estimate("james", space, strat).value


def _check_nonsquare_dichotomy(ctx: _Context, space, params):
    alpha, p = float(params["alpha"]), float(params["p"])
    strat = ctx.strategy_for(space, vertex_ok=True)
    est = ctx.estimate("cinj_iso", space, strat, alpha=alpha, p=p).value
    cap = 2.0 * (1.0 - alpha) ** p
    j = _james_estimate(ctx, space)
    if j >= 1.9:
        values = {"branch": "attains", "james": j, "estimate": est, "cap": cap}
        return _verdict(values, abs(est - cap), _slack(strat, ROUNDING_GUARD, SEARCH_SLACK))
    margin = cap - est
    values = {"branch": "strictly_below", "james": j, "estimate": est,
              "cap": cap, "margin": margin,
              "required_margin": DICHOTOMY_MARGIN}
    return values, margin >= DICHOTOMY_MARGIN, _excess(DICHOTOMY_MARGIN - margin)


def _check_smoothness_limit(ctx: _Context, space, params):
    p = float(params["p"])
    strat = ctx.strategy_for(space, vertex_ok=True)
    quotients = [cns._quotient(ctx.estimate("cinj_via_gamma", space, strat, alpha=a, p=p).value,
                               p, a) for a in SMOOTHNESS_ALPHAS]
    values = {"alphas": list(SMOOTHNESS_ALPHAS), "quotients": quotients}
    if space.kind in ("lp", "wlp") and 1.0 < space.q < math.inf:
        # l_q's modulus of smoothness is of order tau^min(q, 2), so its quotient
        # vanishes like (1 - 2 alpha)^rate: it must fall at every alpha, with a
        # log-log slope from the first alpha to the last of a share of that rate
        rate = min(space.q, 2.0) - 1.0
        required = SMOOTHNESS_RATE_SHARE * rate
        first, last = quotients[0], quotients[-1]
        span = math.log((1.0 - 2.0 * SMOOTHNESS_ALPHAS[0]) / (1.0 - 2.0 * SMOOTHNESS_ALPHAS[-1]))
        slope = math.log(first / last) / span if 0.0 < last <= first < math.inf else math.nan
        decreasing = all(b < a for a, b in zip(quotients, quotients[1:]))
        values.update(branch="vanishing", rate=rate, required_slope=required, slope=slope)
        return values, decreasing and slope >= required, _excess(required - slope)
    # l1 and l_inf (the lp and wlp norms left), or any polygon: a positive limit
    floor = 0.9 if space.kind in ("lp", "wlp") else 0.1
    # numpy's min, unlike min(), keeps a NaN quotient wherever it stands
    lowest = float(np.min(quotients))
    values.update(branch="bounded_away", floor=floor, lowest=lowest)
    return values, lowest >= floor, _excess(floor - lowest)


def _check_psi_even_convex(ctx: _Context, space, params):
    p, t = float(params["p"]), float(params["t"])
    n = ctx.profile.psi_samples
    rng = np.random.default_rng(ctx.check_seed("psi_even_convex", space))
    X1 = rng.standard_normal((n, space.dim))
    X2 = rng.standard_normal((n, space.dim))
    rs = np.linspace(-2.0, 2.0, 17)
    vals = np.empty((rs.size, n))
    for i, r in enumerate(rs):
        vals[i] = (space.norm_rows(r * X1 + t * X2) ** p
                   + space.norm_rows(r * X1 - t * X2) ** p)
    scale = 1.0 + float(np.abs(vals).max())
    even = float(np.abs(vals - vals[::-1]).max())
    mid = _excess(float((2.0 * vals[1:-1] - vals[:-2] - vals[2:]).max()))
    values = {"samples": n, "evenness_gap": even, "convexity_violation": mid}
    return _verdict(values, _excess(even, mid), LEMMA_TOL * scale)


# ---------------------------------------------------------------------------
# catalog: bodies plus per-space parameter grids


def _grid_alpha_p(ctx, space):
    return [{"alpha": a, "p": p} for a in ALPHA_GRID for p in P_GRID]


def _grid_p(ctx, space):
    return [{"p": p} for p in P_GRID]


def _params_sphere_ball(ctx, space):
    return [{"p": p, "t": t} for p in P_GRID for t in OFFSET_GRID]


def _params_isometry(ctx, space):
    # thorough only: the fast profile's reports keep their checks
    if ctx.profile.name != "thorough" or space.dim != 2:
        return []
    return [{"p": p, "t": 0.5} for p in P_GRID] + [{"constant": "james"}]


def _params_pq(ctx, space):
    return [{"alpha": a, "p": p, "q": q}
            for a in ALPHA_GRID for p in P_GRID for q in Q_GRID if p <= q]


def _params_once(ctx, space):
    return [{}]


def _params_lemma(ctx, space):
    return [{"pairs": ctx.profile.lemma_pairs}]


def _params_example_l1(ctx, space):
    if space.kind == "lp" and space.q == 1.0:
        return _grid_alpha_p(ctx, space)
    return []


def _params_example_linf(ctx, space):
    if space.kind == "lp" and space.q == math.inf:
        return _grid_alpha_p(ctx, space)
    return []


def _params_example_lp(ctx, space):
    if space.kind == "lp" and 2.0 <= space.q < math.inf and space.q in P_GRID:
        return [{"alpha": a, "p": space.q} for a in ALPHA_GRID]
    return []


def _params_example_cnj(ctx, space):
    return _grid_p(ctx, space) if _closed_form_l1_linf(space) else []


def _params_dichotomy(ctx, space):
    if _james_estimate(ctx, space) >= 1.9:
        return _grid_alpha_p(ctx, space)
    # the fixed margin is calibrated at p = 2 away from the alpha = 1/2
    # degeneracy, where both sides of the dichotomy meet
    return [{"alpha": a, "p": 2.0} for a in ALPHA_GRID if a <= 0.4]


def _params_smoothness(ctx, space):
    if space.kind in ("lp", "wlp") and space.q in (1.0, math.inf):
        return [{"p": 1.0}]
    return [{"p": 2.0}]


def _params_psi(ctx, space):
    return [{"p": p, "t": t} for p in P_GRID for t in (0.5, 1.0)]


CHECKS: dict[str, tuple[Callable, Callable]] = {
    "bounds_pp": (_check_bounds_pp, _grid_alpha_p),
    "identity_cr": (_check_identity_cr, _grid_alpha_p),
    "equivalence_t": (_check_equivalence_t, _grid_p),
    "alpha_monotone_convex": (_check_alpha_monotone_convex, _grid_p),
    "gamma_monotone_t": (_check_gamma_monotone_t, _grid_p),
    "sphere_ball_equal": (_check_sphere_ball_equal, _params_sphere_ball),
    "isometry_invariance": (_check_isometry_invariance, _params_isometry),
    "pq_ordering": (_check_pq_ordering, _params_pq),
    "rho_sandwich": (_check_rho_sandwich, _grid_alpha_p),
    "james_sandwich": (_check_james_sandwich, _grid_alpha_p),
    "js_identity": (_check_js_identity, _params_once),
    "omega_identity": (_check_omega_identity, _params_once),
    "lemma_ll_bounds": (_check_lemma_ll_bounds, _params_lemma),
    "example_l1": (_check_example_l1, _params_example_l1),
    "example_linf": (_check_example_linf, _params_example_linf),
    "example_lp": (_check_example_lp, _params_example_lp),
    "example_cnj_p": (_check_example_cnj_p, _params_example_cnj),
    "remark_alpha_half": (_check_remark_alpha_half, _grid_p),
    "remark_gamma_zero": (_check_remark_gamma_zero, _grid_p),
    "nonsquare_dichotomy": (_check_nonsquare_dichotomy, _params_dichotomy),
    "smoothness_limit": (_check_smoothness_limit, _params_smoothness),
    "psi_even_convex": (_check_psi_even_convex, _params_psi),
}


def _plain(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _run_one(ctx: _Context, check_id: str, space: NormedSpace, params: dict,
             record_errors: bool = False) -> CheckResult:
    """Run one check; with ``record_errors`` a ``ValueError`` of its body is
    a failed result whose ``values['error']`` is the message."""
    body, _ = CHECKS[check_id]
    started = time.perf_counter()
    try:
        values, passed, slack_used = body(ctx, space, params)
    except ValueError as err:
        if not record_errors:
            raise
        values, passed, slack_used = {"error": str(err)}, False, math.nan
    elapsed = int(round((time.perf_counter() - started) * 1000.0))
    values = {k: _plain(v) for k, v in values.items()}
    return CheckResult(check_id=check_id, space=descriptor(space),
                       params={k: _plain(v) for k, v in params.items()},
                       values=values, passed=bool(passed),
                       slack_used=float(slack_used), runtime_ms=elapsed)


def _context(profile: str | Profile, seed: int) -> _Context:
    """Run context for a profile (name or ``Profile``) and a seed >= 0."""
    if isinstance(profile, str):
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}; choose from "
                             f"{sorted(PROFILES)}")
        profile = PROFILES[profile]
    return _Context(profile, int(seed))


def run_check(check_id: str, space: NormedSpace, params: dict,
              seed: int = 7, profile: str | Profile = "fast") -> CheckResult:
    """Run a single catalog check; raises on unknown ids or bad params."""
    if check_id not in CHECKS:
        known = ", ".join(sorted(CHECKS))
        raise ValueError(f"unknown check_id {check_id!r}; known checks: {known}")
    return _run_one(_context(profile, seed), check_id, space, dict(params))


def run_suite(spaces: Sequence[NormedSpace], seed: int = 7,
              profile: str | Profile = "fast") -> SuiteReport:
    """Full catalog over every space; failures are recorded, never raised.
    A check whose body raises ``ValueError`` (say, an estimate with no
    finite value) fails with the message in ``values['error']`` and a NaN
    ``slack_used``."""
    spaces = list(spaces)
    if not spaces:
        raise ValueError("run_suite needs a nonempty space list")
    ctx = _context(profile, seed)

    tasks = []
    for space in spaces:
        for check_id, (_, param_gen) in CHECKS.items():
            for params in param_gen(ctx, space):
                tasks.append((check_id, space, params))

    results = [_run_one(ctx, *t, record_errors=True) for t in tasks]

    results.sort(key=lambda r: (r.check_id, r.space,
                                json.dumps(r.params, sort_keys=True)))
    passed = sum(1 for r in results if r.passed)
    summary = {"passed": passed, "failed": len(results) - passed,
               "total": len(results)}
    config = asdict(ctx.profile)
    del config["name"]
    config.update(alpha_grid=list(ALPHA_GRID), p_grid=list(P_GRID),
                  q_grid=list(Q_GRID))
    return SuiteReport(seed=ctx.seed, profile=ctx.profile.name, config=config,
                       checks=tuple(results), summary=summary)


def _json_safe(value):
    """``value`` with every non-finite float written as the string
    ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``, which strict JSON allows."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def to_jsonable(report: SuiteReport, include_timing: bool = False) -> dict:
    """Report as plain dicts of strict-JSON values (see ``_json_safe``), the
    fields in ``dataclasses.asdict`` order; timings are zeroed unless
    requested so that reruns with one seed serialize to identical bytes."""
    doc = asdict(report)
    if not include_timing:
        for check in doc["checks"]:
            check["runtime_ms"] = 0
    return _json_safe(doc)


def report_json(report: SuiteReport, include_timing: bool = False) -> str:
    return json.dumps(to_jsonable(report, include_timing=include_timing), indent=2,
                      allow_nan=False)
