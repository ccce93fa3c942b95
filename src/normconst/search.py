"""Deterministic supremum engines over pairs of vectors.

Three engines share one contract:

* every point they evaluate is feasible (on the requested sphere or ball),
  so a returned value is always a certified lower bound of the supremum
  (for infima, run the negated objective; the bound flips sides);
* identical inputs, including seeds, give bit-identical results;
* ties on the value are broken by the lexicographically smallest witness,
  so the reduction over candidates is order-independent.

``sup_vertex_pairs`` is exact: for an objective that attains its maximum at
extreme points of the ball (jointly convex in the pair, or a monotone
transform of such a function), enumerating extreme-point pairs computes the
supremum over the sphere and the ball alike, reducing the pairs with the
2-D grid engine's block scan.

Objectives may mark points as out of scope by returning NaN; engines skip
those.  Batch evaluation (``eval_batch`` on ``(n, dim)`` row arrays) is the
hot path; the scalar ``eval`` must agree with it on single rows.

The engines, and the unit-isosceles extremum in ``constants``, share one
copy of each search loop: ``_best_row`` (the max-value / lexicographic-
witness reduction), ``_golden`` (batched golden-section search), and
``_start_draws`` with ``_ascend`` (per-start seed streams and the
multi-start pattern ascent, parametrized by a lift from parameters to
pairs, that stops the worse half of its live starts three times).  Each
ascent step tries +h, then -h from the point the +h move reached.  For a
lift that returns its parameters as given (the unit-isosceles lift, one
partner search per call), ``_paired_step`` lifts all of a step's
candidates in one call with the same bits; ``sup_pairs_nd``'s lift
renormalizes the moved variable, so it lifts the two moves one after the
other.

``_golden`` is a generator: it yields each batch of points it needs and is
sent their values, so one loop can run many searches side by side.  Each
batch's candidates are built level by level as one flat heap-ordered list.
``_golden_max`` drives one search with a probe function; its one caller is
``t_sweep``, which ``cnj_p`` runs over t on ``exact`` and ``multistart``.
``t_sweep``'s grid stage and ``cnj_p`` on ``grid2d`` rank offsets by one
rule, ``_best_offsets``.  ``_refine`` drives the coordinate-wise
refinement of K searches in lockstep, one probe call per step for all of
them, and stops each search once its rounds gain only rounding;
``cnj_p`` on ``grid2d`` also runs it with K = 2 over (angle of x1, angle
of x2, t).
On that, the 2-D grid engine is a K-objective engine:
``_sup_pairs_2d_stack`` runs a family of objectives that share the space
and the region and differ in one scalar parameter on one
``Grid2DStrategy``, scans each grid block once for all of them and
refines them in lockstep.  Every objective row is computed elementwise,
so each of its Estimates is bit for bit the one a separate run gives;
``sup_pairs_2d`` is its one-objective call.  Its probe rows
(``_points_2d``) are built with array ``cos`` / ``sin``, which give each
row the bits of a per-row ``math`` call.  For objectives that declare
``isometry_invariant`` it scans x1 over one fundamental domain of its
angle grid under the space's isometries (``spaces.isometry_domain``: on
a polygon, the maps that hold on its vertex table to rounding), and,
since such an objective is even in x2, x2 over half its circle when res
is even and -x holds: the grid maximum is the full grid's to rounding,
the tie-break picks the smallest witness among the pairs scanned, and
``evaluations`` counts the pairs scanned.  The unit-isosceles scan in
``constants`` puts x1 on the same domain.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .spaces import (TWO_PI, NormedSpace, Region, SpaceError, Vector, _key_values,
                     extreme_points, isometry_domain)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Engine defaults; the strategy selector strings below override them.
DEFAULT_RESOLUTION = 1024
DEFAULT_REFINE = 40
DEFAULT_RADIAL = 9
DEFAULT_STARTS = 128
DEFAULT_STEPS = 400
DEFAULT_SEED = 7

# The largest count a strategy field may hold, numpy's largest index: a
# larger one would fail inside numpy with a message that names no field.
_MOST = int(np.iinfo(np.intp).max)

# Golden-section iterations per refinement pass.
_GOLDEN_ITERS = 12

# Idle rounds in a row before _refine stops a search.  A round is idle when
# no accepted sample raised the search's best by more than _RISE relative,
# the 4 eps of orthogonality._DEFECT_TOL: a gain of rounding noise, or an
# equal value with a smaller witness, still replaces the best but does not
# keep the search going.  Coordinate-wise golden can stall at a kink and
# move again on a narrower bracket, so one idle round is too few.
# Five-space fast suite, 2-vCPU Xeon, three runs each: CPU 2.3-2.8 s
# without the stop; stopping after 1, 2 or 3 idle rounds, 1.0-1.3, 1.1-1.3
# and 1.2-1.3 s, moving 29, 9 and 7 report values, the largest by 9.7e-7,
# 1.0e-8 and 1.0e-8 (hexagon).  Counting any strict gain as progress kept
# every l2 search, where every pair is a maximum to rounding, moving for up
# to all of its cap; with _RISE each stops after 3 rounds.  l2 fast suite,
# best of 5 per process, two processes: 421-456 ms before, 204-211 ms with
# it, and only l2 outputs move, by 1 ulp.  64 eps or 1e-12 relative also
# stop one hexagon sweep search too early, moving its value (gamma_p at
# t = 0.375) by -6.4e-15 and -5.9e-13.
_IDLE_ROUNDS = 3
_RISE = 4.0 * np.finfo(float).eps

# Objective rows per call of sup_pairs_2d's grid scan.  Larger blocks are no
# faster and raise peak memory (compute-2d workload: peak RSS 37 MB at 4096
# rows, 74 MB at 262144).
_SCAN_BLOCK = 4096

# Lookahead of sup_pairs_2d's golden refinement (see _golden).
_GRID_LOOKAHEAD = 4


@dataclass(frozen=True)
class Objective:
    """A real objective on pairs of vectors.

    ``convex_flag`` asserts that enumerating extreme-point pairs attains the
    supremum over the ball (and the sphere): true for objectives jointly
    convex in the pair, and for monotone transforms of such objectives.
    ``eval_batch``, when given, takes two matching ``(n, dim)`` arrays and
    returns ``(n,)`` values; rows may be NaN to mark guarded points.
    ``isometry_invariant`` asserts that the value is unchanged when one
    linear isometry of the space is applied to both vectors, as any
    function of the norms of linear combinations of the pair is, and when
    x2 alone changes sign (every builder in ``constants`` gives
    f(x1, -x2) the bits of f(x1, x2) on ``lp`` and ``wlp``).  The 2-D grid
    engine then scans x1 over one fundamental domain of its grid
    (``spaces.isometry_domain``) only, polygons included, whose isometries
    hold to the rounding of their vertex tables, and x2 over half its
    circle where -x holds (see ``_sup_pairs_2d_stack``).
    """

    eval: Callable[[Vector, Vector], float]
    convex_flag: bool = False
    eval_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    name: str = ""
    isometry_invariant: bool = False


def scalar_objective(fn: Callable[[Vector, Vector], float], convex_flag: bool = False,
                     name: str = "") -> Objective:
    """Wrap a plain python pair function, deriving a loop-based batch form."""

    def evb(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
        return np.array([fn(tuple(map(float, a)), tuple(map(float, b)))
                         for a, b in zip(X1, X2)], dtype=float)

    return Objective(eval=fn, convex_flag=convex_flag, eval_batch=evb, name=name)


def batch_objective(evb: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    convex_flag: bool = False, name: str = "",
                    isometry_invariant: bool = False) -> Objective:
    """Build an Objective from a batch evaluator; the scalar form delegates."""

    def ev(x1: Sequence[float], x2: Sequence[float]) -> float:
        return float(evb(np.asarray([x1], dtype=float), np.asarray([x2], dtype=float))[0])

    return Objective(eval=ev, convex_flag=convex_flag, eval_batch=evb, name=name,
                     isometry_invariant=isometry_invariant)


@dataclass(frozen=True)
class Estimate:
    """Result of one engine run.

    ``value`` equals the objective at ``witness``.  ``exact`` is true only
    for vertex enumeration; all other values are feasible-point bounds.
    """

    value: float
    witness: tuple[Vector, Vector]
    strategy: str          # "Grid2D" | "MultiStart" | "VertexExact"
    exact: bool
    evaluations: int
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# strategy selectors


@dataclass(frozen=True)
class _Strategy:
    """A search strategy's one declaration: its selector head ``HEAD`` and
    its ``FIELDS``, rows of (selector key, field, least value, largest value).
    Parsing, describing and the engines' argument checks all read them;
    building a strategy checks every field against its bounds, so a strategy
    built by hand and one parsed from a selector are refused alike."""

    HEAD = ""
    FIELDS = ()

    def __post_init__(self):
        for key, name, least, most in self.FIELDS:
            _check_range(f"{self.HEAD} parameter", key, getattr(self, name), least, most)


def _check_range(what: str, key: str, value, least, most) -> None:
    """Refuse a ``value`` of ``key`` outside [least, most], naming the bound it breaks."""
    if not least <= value <= most:
        need = f">= {least}" if value < least else f"<= {most}"
        raise ValueError(f"{what} out of range: need {key} {need}, got {key}={value}")


@dataclass(frozen=True)
class ExactStrategy(_Strategy):
    HEAD = "exact"


@dataclass(frozen=True)
class Grid2DStrategy(_Strategy):
    """The 2-D grid engine's settings: ``resolution`` angles per circle,
    ``radial`` radii in the ball, and ``refine``, the most golden
    refinement rounds a search runs; a search stops sooner once
    ``_IDLE_ROUNDS`` rounds in a row gain no more than rounding."""

    resolution: int = DEFAULT_RESOLUTION
    refine: int = DEFAULT_REFINE
    radial: int = DEFAULT_RADIAL
    HEAD = "grid2d"
    FIELDS = (("res", "resolution", 8, _MOST), ("refine", "refine", 0, _MOST),
              ("radial", "radial", 2, _MOST))


@dataclass(frozen=True)
class MultiStartStrategy(_Strategy):
    starts: int = DEFAULT_STARTS
    steps: int = DEFAULT_STEPS
    seed: int = DEFAULT_SEED
    HEAD = "multistart"
    # a seed of any size seeds numpy's SeedSequence
    FIELDS = (("starts", "starts", 1, _MOST), ("steps", "steps", 1, _MOST),
              ("seed", "seed", 0, math.inf))


Strategy = ExactStrategy | Grid2DStrategy | MultiStartStrategy
_STRATEGY_CLASSES = {cls.HEAD: cls for cls in (ExactStrategy, Grid2DStrategy, MultiStartStrategy)}


def strategy_descriptor(strategy: Strategy) -> str:
    fields = ",".join(f"{key}={getattr(strategy, name)}" for key, name, _, _ in strategy.FIELDS)
    return f"{strategy.HEAD}:{fields}" if fields else strategy.HEAD


def parse_strategy(text: str) -> Strategy:
    """Parse a selector string, a head with optional ``key=value`` fields
    as ``strategy_descriptor`` writes them: ``exact``,
    ``grid2d:res=..,refine=..,radial=..`` or
    ``multistart:starts=..,steps=..,seed=..``.  Omitted fields keep defaults."""
    head, _, rest = text.strip().partition(":")
    cls = _STRATEGY_CLASSES.get(head)
    if cls is None:
        raise ValueError(f"unknown strategy: {text!r}")
    names = {key: name for key, name, _, _ in cls.FIELDS}
    fields = _key_values(text, rest, names, head, ValueError) if rest else {}
    for key, val in fields.items():
        if not re.fullmatch(r"-?\d+", val):
            raise ValueError(f"{head} parameter {key} must be an integer, got {val!r}")
    return cls(**{names[key]: int(val) for key, val in fields.items()})


# ---------------------------------------------------------------------------
# shared helpers


def _region_pair(region) -> tuple[Region, Region]:
    if isinstance(region, Region):
        return region, region
    r1, r2 = region
    if not (isinstance(r1, Region) and isinstance(r2, Region)):
        raise ValueError("region must be a Region or a pair of Regions")
    return r1, r2


def _batch(f: Objective) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    if f.eval_batch is not None:
        return f.eval_batch
    return scalar_objective(f.eval).eval_batch


def _as_witness(x1: np.ndarray, x2: np.ndarray) -> tuple[Vector, Vector]:
    return tuple(x1.tolist()), tuple(x2.tolist())


def _lex_first(cols: Sequence[np.ndarray], rows: np.ndarray) -> int:
    """The first of ``rows`` whose key (cols[0][r], cols[1][r], ...) is least
    in a stable ``np.lexsort``: zeros of either sign equal, NaN last."""
    for col in cols:
        if rows.size == 1:
            break
        v = col[rows]
        low = v == np.fmin.reduce(v)      # no row is low if every key is NaN
        rows = rows[low] if low.any() else rows
    return int(rows[0])


def _best_row(vals: np.ndarray, X1: np.ndarray, X2: np.ndarray):
    """The best of the candidate pairs (X1[k], X2[k]) valued ``vals[k]``:
    (value, witness, k), or None if no value is finite.

    The largest finite value wins, then the lexicographically smallest
    witness among its rows (zeros of either sign compare equal), then the
    first of equal witnesses; ``value`` is the winning row's own.
    """
    m = vals.max() if vals.size else -math.inf    # initial=-inf rejects integer dtypes
    if not math.isfinite(m):      # a NaN or an infinite value: the finite max
        m = vals.max(where=np.isfinite(vals), initial=-np.inf)
        if m == -np.inf:
            return None
    k = _lex_first((*X1.T, *X2.T), np.flatnonzero(vals == m))
    return float(vals[k]), _as_witness(X1[k], X2[k]), k


class _WitnessRows:
    """Payloads of matching rows of arrays, each built when indexed: the witness
    (X1[i], X2[i]), or with ``extra`` arrays the tuple of it and each one's float at i."""

    def __init__(self, X1: np.ndarray, X2: np.ndarray, *extra: np.ndarray):
        self.X1, self.X2, self.extra = X1, X2, extra

    def __getitem__(self, i):
        witness = _as_witness(self.X1[i], self.X2[i])
        return (witness, *(float(a[i]) for a in self.extra)) if self.extra else witness


def _replies(counts: list[int], vals: np.ndarray, *rows: np.ndarray) -> list:
    """One (values, payloads) per search from a probe's stacked rows, search
    n holding the next ``counts[n]`` rows: the payloads are ``_WitnessRows``
    of its slices of ``rows`` (X1, X2, then any extra arrays)."""
    return [(vals[e - n:e], _WitnessRows(*(a[e - n:e] for a in rows)))
            for n, e in zip(counts, itertools.accumulate(counts))]


def _golden(lo: float, hi: float, iters: int, lookahead: int = 1):
    """Golden-section ascent on [lo, hi] as a generator; its return value is
    the best evaluated sample, (value, coordinate, payload), or three Nones.

    Each ``yield`` is a batch, a list of coordinates, and the generator must
    be sent back ``(values, payloads)`` for it; NaN values are treated as
    minus infinity.  Only evaluated feasible samples are ever returned,
    which preserves the engines' lower-bound semantics.  Only the returned
    sample's payload is read, so ``payloads`` may be a lazy sequence.

    Each batch carries every point the search could probe while at most
    ``lookahead - 1`` of its comparisons are undecided: the 2^lookahead - 1
    candidates of the next ``lookahead`` iterations, or, in the first batch,
    the two interior points and the 2^lookahead - 2 candidates of the
    ``lookahead - 1`` iterations after them, as a complete binary tree
    built level by level in one flat heap-ordered list.  Node i is a probe
    and the bracket after it, ``(x, a, b, c, d)``; its children, the next
    probes if ``fc >= fd`` and if not, are nodes 2i and 2i + 1.  Node 1 is
    the probe the known comparison decides, or in the first batch the
    bracket itself (x None).  The walk takes the on-path node of each level
    by index, in the sequential order, so the result does not depend on
    ``lookahead``; at 1 every batch holds exactly
    the points a one-probe-at-a-time loop evaluates.  No point is yielded
    twice in one run: golden brackets can reach one float by two routes,
    and a candidate that two branches share, or that an earlier batch
    held, is yielded once and its value and payload reused.  A batch with no
    new point that repeats an earlier one's bracket ends the run: the walk
    is periodic from there and has probed a whole period, so no later probe
    changes the result, whatever ``iters``.
    """
    if lookahead < 1:
        raise ValueError("lookahead must be at least 1")
    best_v, best_x, best_at = None, None, None
    # x -> (values, payloads, index) of every point evaluated so far.  Keys
    # compare by value: a golden point is a sum or difference of bracket
    # points, so it is -0.0 only when every point of the run is.
    seen = {}
    stalled = set()     # brackets of the batches that held no new point

    def probe(x: float):
        nonlocal best_v, best_x, best_at
        values, payloads, i = seen[x]
        v = float(values[i])
        if not math.isfinite(v):
            return -math.inf
        if best_v is None or v > best_v or (v == best_v and x < best_x):
            best_v, best_x, best_at = v, x, (payloads, i)
        return v

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = fd = None
    it = 0
    while fc is None or it < iters:
        if fc is None:
            tree, xs = [None, (None, a, b, c, d)], [c, d]
            depth = min(lookahead - 1, iters)
        else:
            left = fc >= fd
            x = d - _INV_PHI * (d - a) if left else c + _INV_PHI * (b - c)
            tree, xs = [None, (x, a, d, x, c) if left else (x, c, b, d, x)], [x]
            depth = min(lookahead - 1, iters - it - 1)
        for i in range(1, 2 ** depth):
            _, pa, pb, pc, pd = tree[i]
            xl = pd - _INV_PHI * (pd - pa)
            xr = pc + _INV_PHI * (pb - pc)
            tree += [(xl, pa, pd, xl, pc), (xr, pc, pb, pd, xr)]
        xs += [node[0] for node in tree[2:]]
        new = [x for x in dict.fromkeys(xs) if x not in seen]
        if new:
            values, payloads = yield new
            seen.update({x: (values, payloads, i) for i, x in enumerate(new)})
        elif (a, b, c, d) in stalled:
            break
        else:
            stalled.add((a, b, c, d))
        i = 1
        if fc is None:
            fc, fd = probe(c), probe(d)
        else:
            i, depth = None, depth + 1      # the first step takes node 1 itself
        for _ in range(depth):
            left = fc >= fd
            i = 1 if i is None else 2 * i + (not left)
            x, a, b, c, d = tree[i]
            v = probe(x)
            fc, fd = (v, fc) if left else (fd, v)
            it += 1
    if best_at is None:
        return None, None, None
    payloads, i = best_at
    return best_v, best_x, payloads[i]


def _golden_max(fun: Callable[[list[float]], tuple[Sequence[float], Sequence[object]]],
                lo: float, hi: float, iters: int, lookahead: int = 1):
    """``_golden`` driven by ``fun``, which maps each batch of coordinates
    to (values, payloads); returns the best evaluated sample."""
    run = _golden(lo, hi, iters, lookahead)
    try:
        xs = next(run)
        while True:
            xs = run.send(fun(xs))
    except StopIteration as stop:
        return stop.value


def _refine(best_v: list, best_w: list, params: np.ndarray, widths: Sequence[float],
            probe: Callable[[int], Callable], rounds: int, lookahead: int) -> list[int]:
    """Coordinate-wise golden refinement of K scanned maxima in lockstep.

    Search k starts from ``best_v[k]``, ``best_w[k]`` at ``params[k]``.
    Each round runs one ``_golden`` pass per search and coordinate ``ci`` on
    ``params[k, ci] ± widths[ci] * 0.6**round``; all K passes over ``ci``
    advance together, and each step sends the batch of every search still
    running to one call ``probe(ci)(ks, batches)``, which returns one
    (values, payloads) per search ``ks[n]`` and its coordinate list
    ``batches[n]``.  ``params[k]`` is read as it is updated in place; it
    changes only when search k's pass is over.  A sample replaces a best
    only with a larger value, or an equal one and a smaller witness, so
    each search ends as a refinement of its own would.

    ``rounds`` is a cap: a search stops once ``_IDLE_ROUNDS`` rounds in a
    row have raised its best by no more than ``_RISE`` relative (rounding;
    such samples still replace the best), and the loop ends when every
    search has stopped.  Updates ``best_v``, ``best_w`` and ``params``;
    returns each search's evaluations, the golden-path probes of the rounds
    it ran.
    """
    evaluations = [0] * len(best_v)
    idle = [0] * len(best_v)
    live = list(range(len(best_v)))
    for rnd in range(rounds):
        if not live:
            break
        shrink = 0.6 ** rnd
        moved = set()
        for ci in range(params.shape[1]):
            h = widths[ci] * shrink
            fun = probe(ci)
            mids = params[live, ci].tolist()    # python floats: the same bits, faster
            runs = {k: _golden(x - h, x + h, _GOLDEN_ITERS, lookahead) for k, x in zip(live, mids)}
            asks = {k: next(run) for k, run in runs.items()}
            while asks:
                ks = list(asks)
                replies = fun(ks, [asks[k] for k in ks])
                asks = {}
                for k, reply in zip(ks, replies):
                    try:
                        asks[k] = runs[k].send(reply)
                    except StopIteration as stop:
                        v, x, w = stop.value
                        if v is not None and (v > best_v[k] or (v == best_v[k] and w < best_w[k])):
                            if v - best_v[k] > _RISE * abs(best_v[k]):
                                moved.add(k)
                            best_v[k], best_w[k] = v, w
                            params[k, ci] = x
        for k in live:
            evaluations[k] += params.shape[1] * (_GOLDEN_ITERS + 2)
            idle[k] = 0 if k in moved else idle[k] + 1
        live = [k for k in live if idle[k] < _IDLE_ROUNDS]
    return evaluations


# ---------------------------------------------------------------------------
# 2D angular grid engine


def _grid_axes_2d(space: NormedSpace, region: Region, resolution: int, radial: int,
                  ks: np.ndarray | None = None):
    """Grid points and their parameters: the angles k * 2 pi / resolution for
    k in ``ks`` (all of them by default), times every radius in the ball.
    Each row has the bits of the same row of the full grid."""
    thetas = (np.arange(resolution) if ks is None else ks) * (TWO_PI / resolution)
    unit = _points_2d(space, Region.SPHERE, thetas[:, None])
    if region is Region.SPHERE:
        return unit, thetas[:, None]
    # _points_2d's ball rows, with each angle normalized once for all radii
    radii = np.repeat(np.linspace(0.0, 1.0, radial), thetas.size)
    params = np.stack([np.tile(thetas, radial), radii], axis=1)
    return np.tile(unit, (radial, 1)) * radii[:, None], params


def _points_2d(space: NormedSpace, region: Region, params: np.ndarray) -> np.ndarray:
    """Points for rows of parameters: (angle,) on the sphere, (angle, radius)
    in the ball, the radius clamped as ``min(max(r, 0.0), 1.0)`` clamps it
    (-0.0 and NaN pass through).  A row has the bits it has on its own:
    numpy's float64 ``cos`` / ``sin`` give ``math.cos`` / ``math.sin``'s
    bits at any array length and stride (a property test pins this)."""
    rows = np.empty((params.shape[0], 2))
    np.cos(params[:, 0], out=rows[:, 0])
    np.sin(params[:, 0], out=rows[:, 1])
    rows /= space.norm_rows(rows)[:, None]
    if region is Region.BALL:
        r = params[:, 1]
        rows *= np.where(r < 0.0, 0.0, np.where(r > 1.0, 1.0, r))[:, None]
    return rows


def _scan_2d(fbs, P1: np.ndarray, P2: np.ndarray):
    """Maximum of each objective of ``fbs`` over all pairs (P1[i], P2[j]) of
    two point sets, grid points or extreme points: one (value, witness, i,
    j), or None if no value is finite, per objective.

    Blocks of whole P1 rows are built once and evaluated against all of P2
    by every objective in turn, at most ``_SCAN_BLOCK`` objective rows per
    call, and each objective's values are reduced apart.  The result is the
    one ``_best_row`` gives over all pairs at once: the largest finite
    value, the lexicographically smallest witness among its pairs, the
    first (i, j) among equal witnesses, and the value the objective took at
    that pair (a zero keeps its sign there).
    """
    n2 = P2.shape[0]
    step = max(1, _SCAN_BLOCK // n2)
    winners = [[] for _ in fbs]     # (value, i, j) of each block's best pair
    for i0 in range(0, P1.shape[0], step):
        X1 = np.repeat(P1[i0:i0 + step], n2, axis=0)
        X2 = np.tile(P2, (X1.shape[0] // n2, 1))
        for fb, won in zip(fbs, winners):
            vals = np.concatenate([fb(X1[k:k + _SCAN_BLOCK], X2[k:k + _SCAN_BLOCK])
                                   for k in range(0, X1.shape[0], _SCAN_BLOCK)])
            best = _best_row(vals, X1, X2)
            if best is not None:
                i, j = divmod(best[2], n2)
                won.append((best[0], i0 + i, j))

    def final(won):
        vs, ii, jj = (np.array(col) for col in zip(*won))
        v, w, k = _best_row(vs, P1[ii], P2[jj])
        return v, w, ii[k], jj[k]

    return [final(won) if won else None for won in winners]


def _sup_pairs_2d_stack(space: NormedSpace, family: Callable[[object], Objective],
                        thetas: Sequence[float], region, strat: Grid2DStrategy,
                        pick: Callable[[list], Sequence[int]] | None = None):
    """``sup_pairs_2d`` on ``strat``'s grid of the objectives ``family(theta)``
    for each theta of ``thetas``, in one run: (Estimates, params), the
    Estimates K separate runs give, bit for bit, and in ``params[k]`` the
    grid parameters (angle, and in the ball radius, of x1 then of x2) at
    which search k ended, the exact bits its witness was built from.

    ``family`` takes a float, or an ``(n, 1)`` column of per-row parameters,
    and returns an Objective whose rows are computed elementwise, so a row
    has the same bits whichever rows it is stacked with.  When every
    objective of the family declares ``isometry_invariant``, x1's grid is
    the angles of ``isometry_domain``, and if res is even and the space's
    rotation order ``_symmetry[0]`` is even (-x holds to rounding), x2's
    is the half circle k in [res // 4, res // 4 + res // 2), where
    x2[0] <= 0; each at every radius in the ball, and the whole grid
    otherwise.  Mapping x1 into the domain, then x2 into the half circle
    by x2 -> -x2, reaches every pair, so the raw grid maximum is the full
    grid's to rounding (the point at k + res / 2 is minus the point at k
    to rounding only).  The scan builds each block of grid pairs once for
    all K objectives; the refinement runs the K searches in lockstep (see
    ``_refine``), one ``_points_2d`` call and one objective call per step
    for all of them.  Each search stops on its own once its rounds gain no
    more than rounding, so on a flat family (every offset of l2) each stops
    after ``_IDLE_ROUNDS`` rounds; its Estimate's ``evaluations`` counts
    the pairs scanned and the probes of the rounds it ran.

    ``pick``, if given, is called with the list of raw grid maxima and
    returns the indices of the searches to refine.  The others keep their
    grid maximum, witness and parameters, and count the pairs scanned
    only; a refined search is bit for bit the one a stack that refines all
    gives, since no search reads another's samples.
    """
    if space.dim != 2:
        raise SpaceError(f"sup_pairs_2d needs a 2-dimensional space, got dim={space.dim}")
    reg1, reg2 = _region_pair(region)
    thetas = np.array(thetas, dtype=float)
    if thetas.size == 0:
        return [], np.empty((0, 0))
    objs = [family(float(th)) for th in thetas]
    invariant = all(obj.isometry_invariant for obj in objs)
    res = strat.resolution
    P1, par1 = _grid_axes_2d(space, reg1, res, strat.radial,
                             isometry_domain(space, res) if invariant else None)
    half = invariant and res % 2 == 0 and space._symmetry[0] % 2 == 0
    P2, par2 = _grid_axes_2d(space, reg2, res, strat.radial,
                             np.arange(res // 4, res // 4 + res // 2) if half else None)

    scans = _scan_2d([_batch(obj) for obj in objs], P1, P2)
    if any(scan is None for scan in scans):
        raise ValueError("objective returned no finite value on the grid")
    best_v, best_w, _, _ = map(list, zip(*scans))

    regs = (reg1, reg2)
    k1 = par1.shape[1]
    # each coordinate's grid step: the angle's, and in the ball the radius's
    steps = (TWO_PI / strat.resolution, 1.0 / (strat.radial - 1))
    widths = [w for par in (par1, par2) for w in steps[:par.shape[1]]]
    params = np.array([np.concatenate([par1[i], par2[j]]) for _, _, i, j in scans])
    run = list(range(len(objs))) if pick is None else sorted(pick(best_v))
    run_v, run_w = [best_v[k] for k in run], [best_w[k] for k in run]
    run_params, run_thetas = params[run], thetas[run]

    def probe_rows(ci: int):
        # the probe over coordinate ci: one array of candidate rows for the
        # moving variable of every search, each search's other point repeated
        moving = 0 if ci < k1 else 1
        halves = (slice(0, k1), slice(k1, None))
        own, other = halves if moving == 0 else halves[::-1]
        fixed = _points_2d(space, regs[1 - moving], run_params[:, other])

        def fun(ks: list[int], batches: list[list[float]]):
            counts = [len(xs) for xs in batches]
            trial = run_params[ks, own].repeat(counts, axis=0)
            trial[:, ci - own.start] = [x for xs in batches for x in xs]
            R = _points_2d(space, regs[moving], trial)
            F = fixed[ks].repeat(counts, axis=0)
            X1, X2 = (R, F) if moving == 0 else (F, R)
            vals = _batch(family(run_thetas[ks].repeat(counts)[:, None]))(X1, X2)
            return _replies(counts, vals, X1, X2)

        return fun

    probes = _refine(run_v, run_w, run_params, widths, probe_rows, strat.refine, _GRID_LOOKAHEAD)
    refined = [0] * len(objs)
    for k, v, w, n in zip(run, run_v, run_w, probes):
        best_v[k], best_w[k], refined[k] = v, w, n
    params[run] = run_params
    scanned = P1.shape[0] * P2.shape[0]
    return [Estimate(value=v, witness=w, strategy="Grid2D", exact=False,
                     evaluations=scanned + n) for v, w, n in zip(best_v, best_w, refined)], params


def sup_pairs_2d(space: NormedSpace, f: Objective, region, resolution: int = DEFAULT_RESOLUTION,
                 refine_iters: int = DEFAULT_REFINE, radial: int = DEFAULT_RADIAL) -> Estimate:
    """Angular-grid scan over pairs, then coordinate-wise golden refinement.

    Sphere variables are parametrized by one angle, ball variables by an
    angle and a radius in [0, 1].  An objective that declares
    ``isometry_invariant`` has x1 scanned over one fundamental domain of the
    grid under the space's isometries only, and at an even ``resolution``
    on a space whose -x holds to rounding, x2 over half its circle (see
    ``_sup_pairs_2d_stack``).  The scan reduces with the
    max-value / lexicographic-witness rule over the pairs it scans.
    ``refine_iters`` caps the refinement rounds: the search stops once
    ``_IDLE_ROUNDS`` rounds in a row have raised its value by no more than
    ``_RISE`` relative, a gain of rounding.  ``evaluations``
    counts the pairs scanned and the golden-path probes of the rounds run;
    refinement never accepts a worse sample, so the returned value
    dominates the raw grid maximum.  This is the one-objective run of
    ``_sup_pairs_2d_stack``.
    """
    strat = Grid2DStrategy(resolution, refine_iters, radial)   # refuses fields out of range
    return _sup_pairs_2d_stack(space, lambda _: f, [0.0], region, strat)[0][0]


# ---------------------------------------------------------------------------
# multi-start pattern ascent (any dimension)


def _unit_rows(space: NormedSpace, Z: np.ndarray) -> np.ndarray:
    """The rows of Z divided by their norms; a row of norm 0 is first
    replaced, in Z, by the first basis vector."""
    norms = space.norm_rows(Z)
    bad = norms <= 0.0
    if bad.any():
        Z[bad] = 0.0
        Z[bad, 0] = 1.0
        norms = space.norm_rows(Z)
    return Z / norms[:, None]


def _start_draws(seed: int, starts: int, d: int):
    """Standard normal draws of shape (starts, 2, d), one seed stream per
    start (so enlarging ``starts`` keeps earlier starts' draws unchanged,
    though not which starts survive ``_ascend``'s halvings), and each
    start's generator, positioned after its draw."""
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(starts)]
    return np.stack([rng.standard_normal((2, d)) for rng in rngs]), rngs


def _ascend(fb, Z: np.ndarray, lift, steps: int, keeps_params: bool = False):
    """``sup_pairs_nd``'s ascent of ``fb`` on parameters Z of shape (starts, 2, d).

    ``lift(Z, v)`` maps parameters whose variable ``v`` moved (None at the
    start) to (parameters kept, x1 rows, x2 rows, feasible mask), one row
    per row of Z; it may write into Z, a fresh copy for every move.
    Returns (``_best_row`` of the live starts' final pairs, evaluations).

    Successive halving (Karnin, Koren and Somekh 2013): before steps
    ``steps // 8``, ``steps // 4`` and ``steps // 2`` (those above 0), the
    better half of the live starts, ceil(n / 2) of n by value with ties to
    the lower start, goes on and the rest stop.  Starts do not interact,
    so a surviving start keeps its trajectory bit for bit; only the winner
    can change, if a start stopped early would have overtaken it.

    Each step tries a move of +h, then a move of -h from the point that
    step reached, keeping strict improvements; a -h move back onto the
    pre-step parameters bit for bit is not tried.  ``keeps_params`` says
    that ``lift`` returns the parameters it is given and lifts each row on
    its own, whatever ``v`` and the other rows, from the directions of its
    raw rows Z[i, 0] and Z[i, 1] alone.  The step then lifts all its
    candidates in one call (``_paired_step``), with the same result, and
    the raw rows go back to Euclidean norm 1 after it.  ``evaluations``
    counts the starts, then two moves per live start and step either way;
    the extra rows the paired step lifts are not counted.
    """
    starts, _, d = Z.shape
    Z, X1, X2, ok = lift(Z, None)
    vals = fb(X1, X2)
    vals = np.where(ok & np.isfinite(vals), vals, -np.inf)
    X1, X2 = X1.copy(), X2.copy()
    evaluations = starts
    h = np.full(starts, 0.5)
    stall = np.zeros(starts, dtype=int)
    ncoord = 2 * d
    halvings = {steps // 8, steps // 4, steps // 2} - {0}

    def lifted(cand: np.ndarray, v: int):
        cand, C1, C2, ok = lift(cand, v)
        cv = fb(C1, C2)
        return cand, C1, C2, np.where(ok & np.isfinite(cv), cv, -np.inf)

    def keep(adv: np.ndarray, cand, cv, C1, C2, rows=None):
        # the starts in ``adv`` move to their candidate rows: row i for start
        # i, or rows[i] if given
        r = adv if rows is None else rows[adv]
        Z[adv] = cand[r]
        vals[adv] = cv[r]
        X1[adv] = C1[r]
        X2[adv] = C2[r]

    for it in range(steps):
        if it in halvings:
            # the better half goes on, in start order
            live = np.sort(np.argsort(-vals, kind="stable")[:(len(vals) + 1) // 2])
            Z, vals, X1, X2, h, stall = (a[live] for a in (Z, vals, X1, X2, h, stall))
        v, c = divmod(it % ncoord, d)
        evaluations += 2 * len(vals)
        if keeps_params:
            improved = _paired_step(Z, vals, h, v, c, lifted, keep)
            # the lift sees directions only: a move that just lengthens a row
            # shrinks the angular step unseen, and h would never shrink
            e = np.sqrt((Z * Z).sum(axis=-1, keepdims=True))
            Z /= np.where(e > 0.0, e, 1.0)
        else:
            improved = np.zeros(len(vals), dtype=bool)
            for sgn in (1.0, -1.0):
                cand = Z.copy()
                cand[:, v, c] += sgn * h
                cand, C1, C2, cv = lifted(cand, v)
                adv = cv > vals
                if adv.any():
                    keep(adv, cand, cv, C1, C2)
                    improved |= adv
        stall = np.where(improved, 0, stall + 1)
        shrink = stall >= ncoord
        h = np.where(shrink, h * 0.6, h)
        stall = np.where(shrink, 0, stall)
    return _best_row(vals, X1, X2), evaluations


def _paired_step(Z, vals, h, v: int, c: int, lifted, keep) -> np.ndarray:
    """One ``_ascend`` step for a lift that keeps its parameters, in one lift.

    The rows lifted are P (coordinate a -> a + h), M (a -> a - h) and, for
    the starts whose ``(a + h) - h`` is not a bit for bit, R (P's coordinate
    -> (a + h) - h).  A start that moves at +h then tries R as its -h move,
    or nothing if R would be its pre-step point: that point's value is the
    pre-step value, which the +h value strictly beat.  A start that stays
    tries M.  These are the moves, values and pairs of the sequential step.
    (After ``_ascend`` renormalizes the raw rows, the pre-step point lifts
    to the pre-step pair to rounding only, so the sequential step skips that
    move too.)  Returns the mask of starts that moved.
    """
    starts = len(vals)
    a = Z[:, v, c]
    up_a = a + h
    back = up_a - h
    redo = np.flatnonzero(back.view(np.int64) != a.view(np.int64))
    cand = np.concatenate([Z, Z, Z[redo]])
    cand[:starts, v, c] = up_a
    cand[starts:2 * starts, v, c] = a - h
    cand[2 * starts:, v, c] = back[redo]
    cand, C1, C2, cv = lifted(cand, v)

    up = cv[:starts] > vals
    keep(up, cand, cv, C1, C2, np.arange(starts))
    # the row of each start's -h candidate; -1 where it is the pre-step point
    minus = np.where(up, -1, np.arange(starts, 2 * starts))
    minus[redo] = np.where(up[redo], np.arange(2 * starts, len(cand)), minus[redo])
    down = (minus >= 0) & (cv[minus] > vals)
    keep(down, cand, cv, C1, C2, minus)
    return up | down


def sup_pairs_nd(space: NormedSpace, f: Objective, region, starts: int = DEFAULT_STARTS,
                 steps: int = DEFAULT_STEPS, seed: int = DEFAULT_SEED) -> Estimate:
    """Seeded multi-start coordinate ascent with shrinking steps.

    Each start draws its own random pair from a per-start seed stream, then
    repeatedly perturbs one coordinate of one variable, renormalizes to the
    region, and keeps strict improvements.  The step shrinks after a full
    stagnant sweep.  Before steps ``steps // 8``, ``steps // 4`` and
    ``steps // 2`` the worse half of the live starts stops (``_ascend``), so
    enlarging ``starts`` keeps earlier starts' trajectories unchanged but
    not which of them survive.  ``evaluations`` counts the starts and two
    moves per live start and step.  The final reduction over the live
    starts is max-value with the lexicographic witness tie-break, hence
    order-independent.
    """
    MultiStartStrategy(starts, steps, seed)             # refuses fields out of range
    d = space.dim
    regs = _region_pair(region)

    Z, rngs = _start_draws(seed, starts, d)
    radii = [rng.random(2) for rng in rngs]
    for v in range(2):
        Z[:, v] = _unit_rows(space, Z[:, v])
        if regs[v] is Region.BALL:
            # each start's radius as a scalar power: numpy's array power
            # does not always give the same bits
            Z[:, v] *= np.array([r[v] ** (1.0 / d) for r in radii])[:, None]

    def lift(Z: np.ndarray, v):
        # back onto the sphere (rows of norm 0 are infeasible) or into the ball
        ok = np.ones(len(Z), dtype=bool)
        if v is not None:
            nv = space.norm_rows(Z[:, v, :])
            if regs[v] is Region.SPHERE:
                ok = nv > 0.0
                Z[:, v, :] /= np.where(ok, nv, 1.0)[:, None]
            else:
                Z[:, v, :] /= np.maximum(nv, 1.0)[:, None]
        return Z, Z[:, 0, :], Z[:, 1, :], ok

    best, evaluations = _ascend(_batch(f), Z, lift, steps)
    if best is None:
        raise ValueError("objective returned no finite value at any start")
    return Estimate(value=best[0], witness=best[1], strategy="MultiStart", exact=False,
                    evaluations=evaluations)


# ---------------------------------------------------------------------------
# exact vertex enumeration


def sup_vertex_pairs(space: NormedSpace, f: Objective) -> Estimate:
    """Exact maximum of the objective over ordered extreme-point pairs.

    Requires ``f.convex_flag`` (the supremum is attained at extreme points)
    and a space with a finite extreme set; the result is the exact supremum
    over sphere and ball pairs alike.  This is where every constant refuses
    an exact run of an objective that is not vertex-attaining.  The pairs
    are reduced one block at a time by ``_scan_2d``.
    """
    if not f.convex_flag:
        raise ValueError(f"objective {f.name!r} is not declared vertex-attaining, so exact "
                         "enumeration cannot bound it; need a search strategy (grid2d or multistart)")
    E = np.asarray(extreme_points(space), dtype=float)
    best = _scan_2d([_batch(f)], E, E)[0]
    if best is None:
        raise ValueError("objective returned no finite value at extreme points")
    return Estimate(value=best[0], witness=best[1], strategy="VertexExact", exact=True,
                    evaluations=E.shape[0] ** 2)


# ---------------------------------------------------------------------------
# one-dimensional sweep


def _sweep_grid(lo: float, hi: float, grid: int, refine_iters: int) -> list[float]:
    """The scan points of ``t_sweep(g, lo, hi, grid, refine_iters)``, in its
    order, once its arguments are checked."""
    if grid < 3:
        raise ValueError("grid must be at least 3")
    if refine_iters < 0:
        raise ValueError(f"refine_iters must be >= 0, got {refine_iters}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("need finite lo < hi")
    return [float(t) for t in np.linspace(lo, hi, grid)]


def _best_offsets(ts: Sequence[float], values, n: int = 1) -> list[tuple[int, float]]:
    """(index, value) of the ``n`` largest of ``values`` at the offsets
    ``ts``, best first and equal values in the order of ``ts``; the values
    are read in order, and a non-finite one raises with its t."""
    vals = []
    for t, v in zip(ts, map(float, values)):
        if not math.isfinite(v):
            raise ValueError(f"sweep objective returned a non-finite value at t={t}")
        vals.append(v)
    return [(i, vals[i]) for i in sorted(range(len(vals)), key=lambda i: -vals[i])[:n]]


def t_sweep(g: Callable[[float], float], lo: float, hi: float, grid: int = 33,
            refine_iters: int = 20) -> tuple[float, float]:
    """Maximize a scalar function on [lo, hi]: grid scan plus golden refinement.

    Returns ``(t_star, value)``; ties prefer the smallest t, so a constant
    function reports its left endpoint.  Non-finite values raise.
    """
    ts = _sweep_grid(lo, hi, grid, refine_iters)
    [(i, best_v)] = _best_offsets(ts, map(g, ts))
    best_t = ts[i]
    cell = (hi - lo) / (grid - 1)
    a = max(lo, best_t - cell)
    b = min(hi, best_t + cell)

    def fun(ts: list[float]):
        return [float(g(t)) for t in ts], ts

    v, x, _ = _golden_max(fun, a, b, refine_iters)
    if v is not None and (v > best_v or (v == best_v and x < best_t)):
        best_t, best_v = x, v
    return best_t, best_v
