"""Geometric constants of normed spaces, built on the search engines.

Each operation returns an :class:`~normconst.search.Estimate` (or a plain
float for the smoothness quotient) and accepts a strategy: ``None`` picks a
sensible default for the space (2D grid, or multi-start ascent above two
dimensions), a selector string is parsed, and a strategy object is used as
given.  ``exact`` is only valid on spaces with a finite extreme-point set,
and for objectives that attain their supremum at extreme points:
``sup_vertex_pairs`` refuses the others (``nu_p``'s ratio, and the
min-form supremum that ``james`` and ``schaffer`` run first).

The two NJ-type routes are deliberately independent: ``cinj_iso`` evaluates
the defining ratio on isosceles pairs sampled through the half-sum
parametrization, while ``cinj_via_gamma`` runs ``gamma_p``'s search at
t = 1 - 2 alpha and halves its value.  Their agreement is a cross-check of
the underlying identity, not a shared objective.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import replace

import numpy as np

from .orthogonality import _iso_partner_rows
from .search import (_GRID_LOOKAHEAD, DEFAULT_SEED, Estimate, ExactStrategy, Grid2DStrategy,
                     MultiStartStrategy, Objective, Strategy, _Strategy, _ascend, _best_offsets,
                     _best_row, _points_2d, _refine, _replies, _start_draws, _sup_pairs_2d_stack,
                     _sweep_grid, _WitnessRows, parse_strategy, sup_pairs_2d, sup_pairs_nd,
                     sup_vertex_pairs, t_sweep)
from .spaces import (TWO_PI, NormedSpace, Region, SpaceError, isometry_domain,
                     supports_extreme_points)

# Ratio objectives (the half-sum ratio's ||x1 + x2||^p, nu_p's norm power
# sum) read NaN on rows whose denominator is at or below this.
SUM_NORM_FLOOR = 1e-9

CONSTANT_IDS = ("gamma_p", "cinj_iso", "cinj_via_gamma", "cnj_p", "cnj_modified_p", "james",
                "schaffer", "rho", "jxp", "nu_p", "omega_prime", "smoothness_quotient")


def _check_p(p: float) -> float:
    p = float(p)
    # every objective sums two p-th powers of norms of at most 2: 2^(p+1) < 2^1024
    if not 1.0 <= p < 1023.0:
        raise ValueError(f"exponent p must be a real in [1, 1023), got {p}")
    return p


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 <= alpha <= 0.5):
        raise ValueError(f"alpha must lie in [0, 1/2], got {alpha}")
    return alpha


def _check_t(t: float, lo: float = 0.0, hi: float = 1.0, strict_lo: bool = False) -> float:
    t = float(t)
    if not math.isfinite(t) or t < lo or t > hi or (strict_lo and t == lo):
        bound = f"({lo}, {hi}]" if strict_lo else f"[{lo}, {hi}]"
        raise ValueError(f"t must lie in {bound}, got {t}")
    return t


def resolve_strategy(strategy, space: NormedSpace, seed: int = DEFAULT_SEED) -> Strategy:
    """Normalize a strategy argument (None, selector string, or instance)."""
    if strategy is None:
        strat: Strategy = Grid2DStrategy() if space.dim == 2 else MultiStartStrategy(seed=seed)
    elif isinstance(strategy, str):
        strat = parse_strategy(strategy)
    elif isinstance(strategy, _Strategy):
        strat = strategy
    else:
        raise ValueError(f"not a strategy: {strategy!r}")
    if isinstance(strat, ExactStrategy) and not supports_extreme_points(space):
        raise SpaceError("exact strategy needs a finite extreme-point set; "
                         "this space has none")
    return strat


def _run_sup(space: NormedSpace, obj: Objective, region, strat: Strategy) -> Estimate:
    if isinstance(strat, ExactStrategy):
        return sup_vertex_pairs(space, obj)
    if isinstance(strat, Grid2DStrategy):
        return sup_pairs_2d(space, obj, region, strat.resolution, strat.refine, strat.radial)
    return sup_pairs_nd(space, obj, region, strat.starts, strat.steps, strat.seed)


# ---------------------------------------------------------------------------
# objective builders


def _two_sided(space: NormedSpace, t, combine, convex_flag: bool,
               name: str) -> Objective:
    """The objective combine(||x1 + t x2||, ||x1 - t x2||); ``t`` is a float
    or an ``(n, 1)`` column of per-row offsets."""

    def evb(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
        return combine(space.norm_rows(X1 + t * X2), space.norm_rows(X1 - t * X2))

    return Objective(evb, convex_flag=convex_flag, name=name, isometry_invariant=True)


def _power_mean(p: float, scale: float):
    """combine(a, b) = (a^p + b^p) / scale."""
    return lambda a, b: (a ** p + b ** p) / scale


def gamma_objective(space: NormedSpace, p: float, t: float) -> Objective:
    """(||x1 + t x2||^p + ||x1 - t x2||^p) / 2^(p-1), jointly convex."""
    return replace(_family("gamma_p", space, p)(t), name=f"gamma_p(p={p},t={t})")


def _half_sum_ratio(space: NormedSpace, a, b, p: float, scale: float,
                    name: str) -> Objective:
    """(||a x1 + b x2||^p + ||b x1 + a x2||^p) / (scale ||x1 + x2||^p) on the
    isosceles pair (x1, x2) = (u1 + u2, u1 - u2) of the arguments (u1, u2);
    ``a`` and ``b`` are floats or ``(n, 1)`` columns of per-row values.

    Every norm is evaluated directly; rows whose ||x1 + x2|| is at most
    ``SUM_NORM_FLOOR`` are NaN.
    """

    def evb(U1: np.ndarray, U2: np.ndarray) -> np.ndarray:
        X1 = U1 + U2
        X2 = U1 - U2
        s = space.norm_rows(X1 + X2)
        na = space.norm_rows(a * X1 + b * X2)
        nb = space.norm_rows(b * X1 + a * X2)
        out = np.full(s.shape, np.nan)
        ok = s > SUM_NORM_FLOOR
        out[ok] = (na[ok] ** p + nb[ok] ** p) / (scale * s[ok] ** p)
        return out

    return Objective(evb, convex_flag=True, name=name, isometry_invariant=True)


def _family(name: str, space: NormedSpace, p: float):
    """theta -> the objective of constant ``name`` at its swept parameter
    theta: t for ``gamma_p``, alpha for ``cinj_iso``.  theta is a float or
    an ``(n, 1)`` column of per-row values; every row is computed
    elementwise, so it has the same bits in a stack of rows.  The
    objective's name is ``name`` alone, so no value is formatted per call.
    """
    if name == "cinj_iso":
        # the ratio on the isosceles pair (u1+u2, u1-u2) of two unit vectors:
        # there the denominator ||sum|| is the constant 2, so the restriction
        # coincides with a jointly convex function and vertex enumeration
        # attains its supremum
        return lambda alpha: _half_sum_ratio(space, alpha, 1.0 - alpha, p, 1.0, name)
    gamma = _power_mean(p, 2.0 ** (p - 1.0))
    return lambda t: _two_sided(space, t, gamma, True, name)


def _min_form_objective(space: NormedSpace) -> Objective:
    return _two_sided(space, 1.0, np.minimum, False, "james_min_form")


def _rho_objective(space: NormedSpace, t: float) -> Objective:
    return _two_sided(space, t, lambda a, b: (a + b) / 2.0 - 1.0, True, f"rho(t={t})")


def _cnj_modified_objective(space: NormedSpace, p: float) -> Objective:
    return _two_sided(space, 1.0, _power_mean(p, 2.0 ** p), True, f"cnj_modified_p(p={p})")


def _jxp_objective(space: NormedSpace, p: float, t: float) -> Objective:
    inv_p = 1.0 / p
    # increasing transform of a convex objective; vertex enumeration stays exact
    return _two_sided(space, t, lambda a, b: ((a ** p + b ** p) / 2.0) ** inv_p, True,
                      f"jxp(p={p},t={t})")


def _nu_objective(space: NormedSpace, p: float) -> Objective:
    def evb(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
        den = space.norm_rows(X1) ** p + space.norm_rows(X2) ** p
        num = space.norm_rows(X1 + X2) ** p + space.norm_rows(X1 - X2) ** p
        out = np.full(den.shape, np.nan)
        ok = den > SUM_NORM_FLOOR
        out[ok] = num[ok] / den[ok]
        return out

    return Objective(evb, convex_flag=False, name=f"nu_p(p={p})", isometry_invariant=True)


def _omega_objective(space: NormedSpace) -> Objective:
    return _half_sum_ratio(space, 1.0, 2.0, 2.0, 5.0, "omega_prime")


# ---------------------------------------------------------------------------
# constants


def gamma_p(space: NormedSpace, p: float, t: float, strategy=None) -> Estimate:
    """Supremum of the normalized two-sided norm power mean at offset t."""
    return _swept("gamma_p", space, strategy, [t], p)[0]


def cinj_iso(space: NormedSpace, alpha: float, p: float, strategy=None) -> Estimate:
    """NJ-type constant for isosceles orthogonal pairs, direct supremum.

    Samples pairs exclusively through the half-sum parametrization of unit
    vector pairs, which covers every admissible pair up to joint scaling;
    ``meta['iso_pair']`` is the isosceles pair of the witness.
    """
    return _swept("cinj_iso", space, strategy, [alpha], p)[0]


def cinj_via_gamma(space: NormedSpace, alpha: float, p: float, strategy=None) -> Estimate:
    """Same constant through the identity route: half the power mean at t = 1-2*alpha."""
    return _swept("cinj_via_gamma", space, strategy, [alpha], p)[0]


def _swept(name: str, space: NormedSpace, strategy, values, p) -> list[Estimate]:
    """Constant ``name`` (``gamma_p``, ``cinj_iso`` or ``cinj_via_gamma``) at
    exponent ``p`` and each swept parameter of ``values``: t for ``gamma_p``,
    alpha for the other two.  The constants are its one-value calls.

    ``cinj_via_gamma`` is ``gamma_p``'s search at t = 1 - 2 alpha with each
    value halved, which is exact.  Several values on a grid2d strategy run
    as one stacked engine call, ``_sup_pairs_2d_stack``, whose Estimates are
    bit for bit those of the single runs; every other case runs ``_run_sup``
    per value.
    """
    via = name == "cinj_via_gamma"
    thetas = []
    for v in values:
        # in the order the constant checks its arguments
        if name == "gamma_p":
            p = _check_p(p)
            thetas.append(_check_t(v))
        else:
            theta = _identity_offset(v) if via else _check_alpha(v)
            p = _check_p(p)
            thetas.append(theta)
    strat = resolve_strategy(strategy, space)
    family = _family("gamma_p" if via else name, space, p)
    if isinstance(strat, Grid2DStrategy) and len(thetas) > 1:
        ests, _ = _sup_pairs_2d_stack(space, family, thetas, Region.SPHERE, strat)
    else:
        ests = [_run_sup(space, family(theta), Region.SPHERE, strat) for theta in thetas]
    if name == "cinj_iso":
        ests = [replace(est, meta={**est.meta, "iso_pair": _iso_pair(est.witness)})
                for est in ests]
    elif via:
        ests = [_via_gamma(est, t) for est, t in zip(ests, thetas)]
    return ests


def _identity_offset(alpha: float) -> float:
    """The offset t = 1 - 2 alpha of ``gamma_p`` that ``cinj_via_gamma`` runs
    at, once ``alpha`` is checked."""
    return 1.0 - 2.0 * _check_alpha(alpha)


def _via_gamma(gamma: Estimate, t: float) -> Estimate:
    """``cinj_via_gamma`` from ``gamma_p``'s Estimate at its offset ``t``:
    the value halved, which is exact, and ``route`` and ``t`` in the meta."""
    return replace(gamma, value=0.5 * gamma.value,
                   meta={**gamma.meta, "route": "via_gamma", "t": t})


def _iso_pair(witness):
    """The isosceles pair (u1 + u2, u1 - u2) of a ``cinj_iso`` witness (u1, u2)."""
    u1, u2 = witness
    return tuple(a + b for a, b in zip(u1, u2)), tuple(a - b for a, b in zip(u1, u2))


# constant -> the keyword of its swept parameter, which a grid2d stack of it runs over
_STACKED_AXIS = {"gamma_p": "t", "cinj_iso": "alpha", "cinj_via_gamma": "alpha"}


def _estimates_along(name: str, space: NormedSpace, strat, axis: str, values, **fixed):
    """Constant ``name`` at ``axis=v`` for each v of ``values`` and the other
    parameters ``fixed``: the results of one call of the constant per value.

    On a grid2d strategy, ``gamma_p`` over t and ``cinj_iso`` and
    ``cinj_via_gamma`` over alpha (``fixed`` is then ``p``) run through
    ``_swept``.  Every other case calls the constant per value.
    """
    strat = resolve_strategy(strat, space)
    if _STACKED_AXIS.get(name) == axis and isinstance(strat, Grid2DStrategy):
        return _swept(name, space, strat, values, fixed["p"])
    single = globals()[name]     # the module attribute, as callers look it up
    return [single(space, strategy=strat, **fixed, **{axis: v}) for v in values]


# cnj_p's mode -> (the inner constant, the scale of its value, t -> its swept parameter)
_CNJ_MODES = {"gamma": ("gamma_p", 1.0, lambda t: t),
              "cinj": ("cinj_iso", 2.0, lambda t: (1.0 - t) / 2.0)}

# The offsets a grid2d cnj_p refines after its stacked scan, those of the best
# raw grid ratios; its two joint searches start from the best of them.  Over
# the 5712 combinations of tools/joint_contract.py the contract failed 12
# times at 2 (all on the rotated octagon at p = 2) and 0 times at 3 and at 4.
_CNJ_REFINED = 4


def _cnj_joint(space: NormedSpace, p: float, strat: Grid2DStrategy, ts: list[float],
               mode: str) -> Estimate:
    """:func:`cnj_p` on a grid2d strategy.

    The offsets ``ts`` run as one stacked search of the inner constant, which
    scans every offset and refines only the ``_CNJ_REFINED`` with the best
    raw grid ratios (ties to the smaller t, by ``_best_offsets`` as in
    ``t_sweep``).  From each of the two of those with the best refined
    ratios (ties again to the smaller t) one ``_refine`` search moves the
    angles of x1 and x2 and the offset t together on the ratio objective,
    the two in lockstep, at most ``strat.refine`` rounds with t's width one
    offset step; the better end wins, ties to the smaller t.  Two starts,
    because coordinate-wise golden from the best offset alone can stall
    below the end of the golden t-sweep over full inner suprema.  Each
    search starts at the exact angles the stacked search ended at; every
    probe evaluates t clamped to [0, 1] and carries that t.
    """
    name, scale, theta = _CNJ_MODES[mode]
    family = _family(name, space, p)

    def ratio(k: int, value: float) -> float:
        return scale * value / (1.0 + ts[k] ** p)

    top = []    # the offsets the stack refines, in the order of ts

    def pick(raw: list[float]) -> list[int]:
        ranked = _best_offsets(ts, [ratio(k, v) for k, v in enumerate(raw)], _CNJ_REFINED)
        top.extend(sorted(k for k, _ in ranked))
        return top

    swept, angles = _sup_pairs_2d_stack(space, family, list(map(theta, ts)), Region.SPHERE, strat,
                                        pick)
    starts = [(top[i], r) for i, r in _best_offsets([ts[k] for k in top],
                                                    [ratio(k, swept[k].value) for k in top], 2)]
    best_v = [r for _, r in starts]
    best_w = [(swept[i].witness, ts[i], swept[i].value) for i, _ in starts]
    params = np.array([np.append(angles[i], ts[i]) for i, _ in starts])    # (theta1, theta2, t)

    def probe(ci: int):
        def fun(ks: list[int], batches: list[list[float]]):
            counts = [len(xs) for xs in batches]
            rows = params[ks].repeat(counts, axis=0)
            rows[:, ci] = [x for xs in batches for x in xs]
            X1, X2 = np.split(_points_2d(space, Region.SPHERE, rows[:, :2].T.reshape(-1, 1)), 2)
            T = np.minimum(np.maximum(rows[:, 2], 0.0), 1.0)
            inner = family(theta(T)[:, None]).eval_batch(X1, X2)
            return _replies(counts, scale * inner / (1.0 + T ** p), X1, X2, T, inner)

        return fun

    widths = [TWO_PI / strat.resolution] * 2 + [1.0 / (len(ts) - 1)]
    refined = _refine(best_v, best_w, params, widths, probe, strat.refine, _GRID_LOOKAHEAD)
    k = max(range(len(starts)), key=lambda k: (best_v[k], -best_w[k][1]))
    witness, t_star, inner = best_w[k]
    meta = {"iso_pair": _iso_pair(witness)} if name == "cinj_iso" else {}
    return Estimate(best_v[k], witness, "Grid2D", False,
                    sum(est.evaluations for est in swept) + sum(refined),
                    {**meta, "t_star": t_star, "mode": mode, "inner_value": inner})


def cnj_p(space: NormedSpace, p: float, strategy=None, t_grid: int = 33,
          t_refine: int = 20, mode: str = "gamma") -> Estimate:
    """Generalized NJ constant: the supremum over the offset t in [0, 1].

    ``mode="gamma"`` maximizes gamma_p(t) / (1 + t^p); ``mode="cinj"`` is the
    cross-check form 2 * cinj_iso((1-t)/2) / (1 + t^p).  Both scan the
    ``t_grid`` offsets of [0, 1] first.  On ``exact`` and ``multistart``
    ``t_sweep`` then runs ``t_refine`` golden iterations over t; each offset
    it asks for is one call of the inner constant, made the first time.  The
    witness is the inner witness at the best offset ``meta['t_star']``, and
    ``meta['inner_value']`` its inner value.  On ``grid2d`` the offsets run
    as one stacked search that refines only the offsets of the best raw
    grid ratios, and the refinement moves x1, x2 and t together from the
    two best of those for at most the strategy's ``refine`` rounds (see
    ``_cnj_joint``); ``t_refine`` is checked but unused.  ``t_star``
    is then the offset of the witness, and ``meta['inner_value']`` the inner
    objective (gamma_p's, or cinj_iso's) at the witness and ``t_star``.
    """
    p = _check_p(p)
    if mode not in _CNJ_MODES:
        raise ValueError(f"mode must be 'gamma' or 'cinj', got {mode!r}")
    strat = resolve_strategy(strategy, space)
    ts = _sweep_grid(0.0, 1.0, t_grid, t_refine)
    if isinstance(strat, Grid2DStrategy):
        return _cnj_joint(space, p, strat, ts, mode)
    name, scale, theta = _CNJ_MODES[mode]
    inner: dict[float, Estimate] = {}

    def g(t: float) -> float:
        if t not in inner:
            # the module attribute, as callers look it up
            inner[t] = globals()[name](space, p=p, strategy=strat,
                                       **{_STACKED_AXIS[name]: theta(t)})
        return scale * inner[t].value / (1.0 + t ** p)

    t_star, value = t_sweep(g, 0.0, 1.0, grid=t_grid, refine_iters=t_refine)
    at_best = inner[t_star]
    return replace(at_best, value=value, exact=False,
                   evaluations=sum(est.evaluations for est in inner.values()),
                   meta={**at_best.meta, "t_star": t_star, "mode": mode,
                         "inner_value": at_best.value})


def cnj_modified_p(space: NormedSpace, p: float, strategy=None) -> Estimate:
    """Upper companion constant sup (||x1+x2||^p + ||x1-x2||^p) / 2^p on unit pairs.

    At p = 2 this is the classical quadratic-mean form.  For general p the
    definition is inferred by analogy and flagged as such in the metadata.
    """
    p = _check_p(p)
    strat = resolve_strategy(strategy, space)
    est = _run_sup(space, _cnj_modified_objective(space, p), Region.SPHERE, strat)
    return replace(est, meta={**est.meta, "definition": "inferred"})


def rho(space: NormedSpace, t: float, strategy=None) -> Estimate:
    """Modulus of smoothness at t: sup of (||x1+t x2|| + ||x1-t x2||)/2 - 1."""
    t = _check_t(t, hi=math.inf)
    strat = resolve_strategy(strategy, space)
    return _run_sup(space, _rho_objective(space, t), Region.SPHERE, strat)


def jxp(space: NormedSpace, p: float, t: float, strategy=None) -> Estimate:
    """Power-mean smoothness profile ((||x1+t x2||^p + ||x1-t x2||^p)/2)^(1/p)."""
    p = _check_p(p)
    t = _check_t(t, strict_lo=True)
    strat = resolve_strategy(strategy, space)
    return _run_sup(space, _jxp_objective(space, p, t), Region.SPHERE, strat)


def nu_p(space: NormedSpace, p: float, strategy=None) -> Estimate:
    """sup (||x1+x2||^p + ||x1-x2||^p) / (||x1||^p + ||x2||^p) over nonzero pairs.

    The ratio is invariant under joint scaling and symmetric under swapping
    the pair, so the supremum is computed with x1 on the sphere and x2 in
    the ball; the swapped half of the domain contributes the same values.
    """
    p = _check_p(p)
    strat = resolve_strategy(strategy, space)
    est = _run_sup(space, _nu_objective(space, p), (Region.SPHERE, Region.BALL), strat)
    return replace(est, meta={**est.meta,
                              "reduction": "x1 on sphere, x2 in ball, swap-symmetric"})


def omega_prime(space: NormedSpace, strategy=None) -> Estimate:
    """Skewed quadratic ratio on isosceles pairs, via the half-sum parametrization.
    The suite's ``omega_identity`` checks it against 0.9 gamma_p(p=2, t=1/3)."""
    strat = resolve_strategy(strategy, space)
    return _run_sup(space, _omega_objective(space), Region.SPHERE, strat)


def smoothness_quotient(space: NormedSpace, p: float, alpha: float, strategy=None) -> float:
    """((2^(p-1) C(alpha))^(1/p) - 1) / (1 - 2 alpha); vanishing limit at
    alpha -> 1/2 characterizes uniform smoothness.  Rejects alpha = 1/2."""
    p = _check_p(p)
    alpha = _check_alpha(alpha)
    if alpha == 0.5:
        raise ValueError("smoothness_quotient is undefined at alpha = 1/2")
    return _quotient(cinj_via_gamma(space, alpha, p, strategy).value, p, alpha)


def _quotient(c: float, p: float, alpha: float) -> float:
    """:func:`smoothness_quotient` from the constant's value ``c`` at (alpha, p)."""
    return ((2.0 ** (p - 1.0) * c) ** (1.0 / p) - 1.0) / (1.0 - 2.0 * alpha)


# ---------------------------------------------------------------------------
# constants constrained to unit-norm isosceles pairs


def _unit_iso_pairs(space: NormedSpace, Zraw: np.ndarray):
    """Map raw (n, 2, dim) parameters to unit isosceles pairs.

    Row layout: Zraw[:, 0] is the raw direction of x1, Zraw[:, 1] the raw
    arc direction; the partner is found by ``_iso_partner_rows`` along the
    great-circle arc between x1 and -x1.  Returns (Zraw, x1 rows, partner
    rows, feasible mask), as ``_ascend``'s lift does; degenerate rows are
    infeasible.  Zraw is returned as given and each row is lifted on its
    own from the directions of Zraw[i, 0] and Zraw[i, 1] alone, so the
    ascent runs it with ``keeps_params``: one partner search per step for
    the starts still live after its halvings, and raw rows kept at
    Euclidean norm 1.
    """
    X1raw = Zraw[:, 0, :]
    Wraw = Zraw[:, 1, :]
    n1 = space.norm_rows(X1raw)
    e1 = np.sqrt((X1raw * X1raw).sum(axis=-1))
    ok = (n1 > 0.0) & (e1 > 0.0)
    X1 = X1raw / np.where(ok, n1, 1.0)[:, None]
    E = X1raw / np.where(ok, e1, 1.0)[:, None]
    Wc = Wraw - ((Wraw * E).sum(axis=-1))[:, None] * E
    wres = np.sqrt((Wc * Wc).sum(axis=-1))
    wref = np.sqrt((Wraw * Wraw).sum(axis=-1))
    ok = ok & (wres > 1e-12 * np.maximum(wref, 1.0))
    nw = space.norm_rows(Wc)
    W = Wc / np.where(ok & (nw > 0.0), nw, 1.0)[:, None]
    return Zraw, X1, _iso_partner_rows(space, X1, W), ok


# Lookahead of the golden refinement in _unit_iso_extremum's grid branch.  At
# 6 a 12-iteration pass takes two partner searches of at most 63 rows each
# (points two branches share are sent once; about 45 on the hexagon) instead
# of 14 single-row ones; 5 and 8 measured 8-20% slower, 7 the same.
_ISO_LOOKAHEAD = 6


def _arc_directions(space: NormedSpace, t: np.ndarray) -> np.ndarray:
    """Unit rows along (-sin t, cos t), each with its own bits (``_points_2d``)."""
    w = np.stack([-np.sin(t), np.cos(t)], axis=1)
    return w / space.norm_rows(w)[:, None]


def _unit_iso_extremum(space: NormedSpace, sense: str, strat: Strategy):
    """Extremum of ||x1 + x2|| over sampled unit-norm isosceles pairs.

    Returns (value, witness, evaluations).  ``sense`` is "sup" or "inf";
    infima run the negated objective, so the result is an upper bound of
    the true infimum (mirror image of the engines' lower-bound semantics).
    The search runs on the engines' own loops: the grid scan's reduction and
    golden refinement over x1's angle, or the multi-start ascent.  The grid
    scan puts x1 on one fundamental domain of the space's isometries
    (``spaces.isometry_domain``): the value is the same for either partner
    +-c of x1, and isosceles pairs map to isosceles pairs, so the grid
    extremum is the full grid's to rounding; ``evaluations`` counts the
    angles scanned.  ``strat``
    is never exact: :func:`james` and :func:`schaffer` run the min-form
    supremum first, and ``sup_vertex_pairs`` refuses its objective.
    """
    sign = 1.0 if sense == "sup" else -1.0

    def fb(X1: np.ndarray, C: np.ndarray) -> np.ndarray:
        return sign * space.norm_rows(X1 + C)

    if isinstance(strat, Grid2DStrategy):
        if space.dim != 2:
            raise SpaceError("grid2d strategy needs a 2-dimensional space")

        def pairs(thetas):
            # the grid scan and each golden probe: x1 at each angle and its partner
            # along the arc towards the quarter-turned direction, one partner search
            t = np.array(thetas)
            x1 = _points_2d(space, Region.SPHERE, t[:, None])
            c = _iso_partner_rows(space, x1, _arc_directions(space, t))
            return fb(x1, c), _WitnessRows(x1, c)

        thetas = isometry_domain(space, strat.resolution) * (TWO_PI / strat.resolution)
        vals, rows = pairs(thetas)
        best = _best_row(vals, rows.X1, rows.X2)
        if best is None:
            raise ValueError("no feasible isosceles pair found on the grid")
        value, witness, i = best
        best_v, best_w = [value], [witness]
        [refined] = _refine(best_v, best_w, thetas[i:i + 1, None], [TWO_PI / strat.resolution],
                            lambda ci: lambda ks, batches: [pairs(batches[0])], strat.refine,
                            _ISO_LOOKAHEAD)
        return sign * best_v[0], best_w[0], thetas.size + refined

    Z, _ = _start_draws(strat.seed, strat.starts, space.dim)
    best, evaluations = _ascend(fb, Z, lambda Z, v: _unit_iso_pairs(space, Z), strat.steps,
                                keeps_params=True)
    if best is None:
        raise ValueError("no feasible isosceles pair found from any start")
    return sign * best[0], best[1], evaluations


def _min_form_sup(space: NormedSpace, strategy: Strategy) -> Estimate:
    """The min-form supremum that :func:`james` reports and whose value
    :func:`schaffer` records as 2/J; ``strategy`` is resolved."""
    return _run_sup(space, _min_form_objective(space), Region.SPHERE, strategy)


def james(space: NormedSpace, strategy=None, *, min_form: Estimate | None = None) -> Estimate:
    """Non-squareness constant: sup over unit pairs of min(||x1+x2||, ||x1-x2||).

    The equivalent form as sup of ||x1+x2|| over unit isosceles pairs is
    computed on sampled pairs and recorded in ``meta['iso_form_value']``;
    the two agree within the strategy tolerance.  ``min_form``, if given,
    is ``_min_form_sup`` of the space on this strategy, which then does not
    run again; the suite shares that one search with :func:`schaffer`.
    """
    strat = resolve_strategy(strategy, space)
    j = _min_form_sup(space, strat) if min_form is None else min_form
    iso_v, iso_w, ev2 = _unit_iso_extremum(space, "sup", strat)
    return replace(j, exact=False, evaluations=j.evaluations + ev2,
                   meta={**j.meta, "iso_form_value": iso_v, "iso_form_witness": iso_w})


def schaffer(space: NormedSpace, strategy=None, *, min_form: Estimate | None = None) -> Estimate:
    """Girth-type constant: inf of ||x1+x2|| over unit isosceles pairs.

    An infimum: the estimate is an upper bound of the true value (the
    mirror image of the suprema semantics).  ``meta['two_over_james']``
    records 2/J for the product identity J * S = 2, with J the min-form
    supremum that :func:`james` reports, run here too; ``evaluations``
    counts the infimum's samples plus that supremum's.  ``min_form`` is
    that supremum, if given, as in :func:`james`.
    """
    strat = resolve_strategy(strategy, space)
    j = _min_form_sup(space, strat) if min_form is None else min_form
    value, witness, evals = _unit_iso_extremum(space, "inf", strat)
    meta = {"sense": "inf", "two_over_james": 2.0 / j.value}
    return Estimate(value, witness, j.strategy, False, evals + j.evaluations, meta)


def _params_between_space_and_strategy(cid: str) -> tuple[str, ...]:
    names = list(inspect.signature(globals()[cid]).parameters)
    return tuple(sorted(names[1:names.index("strategy")]))


# sorted, as the CLI's params documents and "requires --x" messages list them
CONSTANT_PARAMS = {cid: _params_between_space_and_strategy(cid) for cid in CONSTANT_IDS}
