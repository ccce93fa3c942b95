"""The benchmark's workloads: op lists made from a seed, and their checks.

An op is one call into normconst.  A round is a workload's op list in a
fixed order; every run repeats whole rounds of the same ops, so a fault
that fails an op fails the same share of ops in every run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

import closed_forms as cf

ROUND_GUARD = 1e-9     # a lower-bound estimate may exceed its closed form by rounding only
SEARCH_SLACK = 1e-3    # normconst's declared slack for grid and multistart estimates
EXACT_SLACK = 1e-9     # vertex enumeration on l1 / l_inf
UNIT_TOL = 1e-9        # witnesses sit on the unit sphere to rounding
VALUE_TOL = 1e-9       # relative gap between a value and its objective at the witness

HEX = cf.HEXAGON_DESCRIPTOR
Q_LARGE = "lp:q=2000,dim=2"


@dataclass(frozen=True)
class ComputeOp:
    """One ``normconst compute`` call and the range its value must fall in."""

    label: str
    space: str
    constant: str
    params: dict
    accept: tuple[float, float]
    strategy: str | None = None
    ball_second: bool = False      # nu_p keeps x2 in the ball, not on the sphere
    pair_with: str | None = None   # label of the james op for J * S = 2
    known_fault: bool = False

    def argv(self, seed: int, out: str) -> list[str]:
        argv = ["compute", "--space", self.space, "--constant", self.constant]
        for k, v in self.params.items():
            argv += [f"--{k}", repr(float(v))]
        if self.strategy is not None:
            argv += ["--strategy", self.strategy]
        return argv + ["--seed", str(seed), "--out", out]


@dataclass(frozen=True)
class SuiteOp:
    """One ``run_suite`` call on one space of ``default_suite_spaces()``."""

    label: str
    space_index: int
    closed_james: float


def _sup(value: float, slack: float) -> tuple[float, float]:
    return value - slack, value + ROUND_GUARD


def _inf(value: float, slack: float) -> tuple[float, float]:
    return value - ROUND_GUARD, value + slack


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


# Seed-drawn ops appear DRAWS times per round, each time with fresh parameters.
# The median op latency then sits inside a large group of similar ops, and a
# scheduler stall that slows a few of them moves it by little.
DRAWS = 3


def compute_2d_ops(seed: int) -> list[ComputeOp]:
    """2-D spaces, default strategy (grid2d res=1024, refine=40); l1 / l_inf forced onto it.

    gamma-l2, cinjgamma-l1 and cinj-linf take fixed parameters: their grids
    hold many exact ties, and the tie-break's cost swings by up to 5x with t
    and alpha, so a drawn value would make one seed's run slower than
    another's.  The fixed values sit at or above the typical tie cost.
    """
    rng = random.Random(seed)
    ops = []
    for k in range(DRAWS):
        t2, t3, t4 = (_draw(rng, 0.1, 0.9) for _ in range(3))
        a1 = _draw(rng, 0.05, 0.45)
        ops += [
            ComputeOp(f"gamma-l3.{k}", "lp:q=3,dim=2", "gamma_p", {"p": 3.0, "t": t2},
                      _sup(cf.gamma_lq_at_p_eq_q(3.0, t2), SEARCH_SLACK)),
            ComputeOp(f"gamma-wl3.{k}", "wlp:q=3,dim=2,w=1;2", "gamma_p", {"p": 3.0, "t": t3},
                      _sup(cf.gamma_lq_at_p_eq_q(3.0, t3), SEARCH_SLACK)),
            ComputeOp(f"cinj-l3.{k}", "lp:q=3,dim=2", "cinj_iso", {"alpha": a1, "p": 3.0},
                      _sup(cf.cinj_lq_at_p_eq_q(a1, 3.0), SEARCH_SLACK)),
            ComputeOp(f"rho-l2.{k}", "lp:q=2,dim=2", "rho", {"t": t4},
                      _sup(cf.rho_l2(t4), SEARCH_SLACK)),
        ]
    sand_lo, sand_hi = cf.gamma_lq_sandwich(2000.0, 2.0, 0.5)
    j_hex = cf.JAMES_HEXAGON
    return ops + [
        ComputeOp("gamma-l2", "lp:q=2,dim=2", "gamma_p", {"p": 2.0, "t": 0.5},
                  _sup(cf.gamma_l2(0.5), SEARCH_SLACK)),
        ComputeOp("gamma-l2000", Q_LARGE, "gamma_p", {"p": 2.0, "t": 0.5},
                  (sand_lo - SEARCH_SLACK, sand_hi + ROUND_GUARD), known_fault=True),
        ComputeOp("cinjgamma-l1", "lp:q=1,dim=2", "cinj_via_gamma", {"alpha": 0.35, "p": 2.0},
                  _sup(cf.cinj_l1_linf(0.35, 2.0), SEARCH_SLACK), strategy="grid2d"),
        ComputeOp("cinj-linf", "lp:q=inf,dim=2", "cinj_iso", {"alpha": 0.35, "p": 2.0},
                  _sup(cf.cinj_l1_linf(0.35, 2.0), SEARCH_SLACK), strategy="grid2d"),
        ComputeOp("james-hex", HEX, "james", {}, _sup(j_hex, SEARCH_SLACK)),
        ComputeOp("schaffer-hex", HEX, "schaffer", {},
                  _inf(cf.schaffer_from_james(j_hex), SEARCH_SLACK), pair_with="james-hex"),
        ComputeOp("nu-l3", "lp:q=3,dim=2", "nu_p", {"p": 2.0},
                  _sup(cf.nu2_lq(3.0), SEARCH_SLACK), ball_second=True),
    ]


def compute_nd_ops(seed: int) -> list[ComputeOp]:
    """Dimensions 3-8: default multistart (seeded from the run's seed), and exact on l1 / l_inf."""
    rng = random.Random(seed)
    ops = []
    for k in range(DRAWS):
        t1, t2, t3, t4 = (_draw(rng, 0.1, 0.9) for _ in range(4))
        a1, a2, a3 = (_draw(rng, 0.05, 0.45) for _ in range(3))
        ops += [
            ComputeOp(f"gamma-l3d4.{k}", "lp:q=3,dim=4", "gamma_p", {"p": 3.0, "t": t1},
                      _sup(cf.gamma_lq_at_p_eq_q(3.0, t1), SEARCH_SLACK)),
            ComputeOp(f"gamma-l2d8.{k}", "lp:q=2,dim=8", "gamma_p", {"p": 2.0, "t": t2},
                      _sup(cf.gamma_l2(t2), SEARCH_SLACK)),
            ComputeOp(f"cinj-l4d3.{k}", "lp:q=4,dim=3", "cinj_iso", {"alpha": a1, "p": 4.0},
                      _sup(cf.cinj_lq_at_p_eq_q(a1, 4.0), SEARCH_SLACK)),
            ComputeOp(f"rho-l2d5.{k}", "lp:q=2,dim=5", "rho", {"t": t3},
                      _sup(cf.rho_l2(t3), SEARCH_SLACK)),
            ComputeOp(f"gamma-linfd6.{k}", "lp:q=inf,dim=6", "gamma_p", {"p": 2.0, "t": t4},
                      _sup(cf.gamma_l1_linf(2.0, t4), EXACT_SLACK), strategy="exact"),
            ComputeOp(f"cinj-l1d8.{k}", "lp:q=1,dim=8", "cinj_iso", {"alpha": a2, "p": 2.0},
                      _sup(cf.cinj_l1_linf(a2, 2.0), EXACT_SLACK), strategy="exact"),
            ComputeOp(f"cinjgamma-linfd5.{k}", "lp:q=inf,dim=5", "cinj_via_gamma",
                      {"alpha": a3, "p": 3.0}, _sup(cf.cinj_l1_linf(a3, 3.0), EXACT_SLACK),
                      strategy="exact"),
        ]
    j3 = cf.james_lq(3.0)
    return ops + [
        ComputeOp("nu-l3d3", "lp:q=3,dim=3", "nu_p", {"p": 2.0},
                  _sup(cf.nu2_lq(3.0), SEARCH_SLACK), ball_second=True),
        ComputeOp("james-l3d3", "lp:q=3,dim=3", "james", {}, _sup(j3, SEARCH_SLACK)),
        ComputeOp("schaffer-l3d3", "lp:q=3,dim=3", "schaffer", {},
                  _inf(cf.schaffer_from_james(j3), SEARCH_SLACK), pair_with="james-l3d3"),
    ]


# Untimed warm-up ops, the same for every seed so that set-up time does not follow it.
WARM_UP_2D = ComputeOp("warm-up", "lp:q=3,dim=2", "gamma_p", {"p": 3.0, "t": 0.5},
                       _sup(cf.gamma_lq_at_p_eq_q(3.0, 0.5), SEARCH_SLACK))
WARM_UP_ND = ComputeOp("warm-up", "lp:q=3,dim=4", "gamma_p", {"p": 3.0, "t": 0.5},
                       _sup(cf.gamma_lq_at_p_eq_q(3.0, 0.5), SEARCH_SLACK))

# default_suite_spaces() is (l1, l_inf, l2, l3, hexagon)
SUITE_OPS = [SuiteOp("suite-l2", 2, cf.james_lq(2.0)),
             SuiteOp("suite-hex", 4, cf.JAMES_HEXAGON)]


# ---------------------------------------------------------------------------
# checks: each returns the list of reasons an op's output is wrong


def check_compute(op: ComputeOp, rc: int, payload: dict | None, by_label: dict) -> list[str]:
    if rc != 0 or payload is None:
        return [f"exit code {rc}"]
    bad = []
    value = payload["value"]
    lo, hi = op.accept
    if not (lo <= value <= hi):
        bad.append(f"value {value!r} outside [{lo!r}, {hi!r}]")
    nrm = cf.norm_for(op.space)
    x1, x2 = payload["witness"]
    n1, n2 = nrm(x1), nrm(x2)
    if abs(n1 - 1.0) > UNIT_TOL:
        bad.append(f"||x1|| = {n1!r}")
    if (n2 > 1.0 + UNIT_TOL) if op.ball_second else (abs(n2 - 1.0) > UNIT_TOL):
        bad.append(f"||x2|| = {n2!r}")
    at_witness = cf.objective_at(op.constant, op.params, nrm, (x1, x2))
    if abs(at_witness - value) > VALUE_TOL * max(1.0, abs(value)):
        bad.append(f"objective at the witness is {at_witness!r}, value {value!r}")
    if op.constant == "schaffer":
        a, b = np.asarray(x1), np.asarray(x2)
        if abs(nrm(a + b) - nrm(a - b)) > UNIT_TOL:
            bad.append("schaffer witness is not isosceles orthogonal")
    if op.pair_with is not None:
        james = by_label.get(op.pair_with)
        j = james["value"] if james else float("nan")
        if not abs(j * value - 2.0) <= SEARCH_SLACK:
            bad.append(f"J * S = {j * value!r}")
    return bad


def check_suite(op: SuiteOp, report: dict) -> list[str]:
    """Checks on a ``to_jsonable`` report against closed forms made here."""
    bad = []
    summary = report["summary"]
    if summary["failed"] != 0 or summary["total"] != len(report["checks"]):
        bad.append(f"suite summary {summary}")
    for c in report["checks"]:
        cid, par, val = c["check_id"], c["params"], c["values"]
        if not c["passed"]:
            bad.append(f"{cid} {par} did not pass")
        if cid == "example_lp":
            lo, hi = _sup(cf.cinj_lq_at_p_eq_q(par["alpha"], par["p"]), SEARCH_SLACK)
        elif cid in ("example_l1", "example_linf"):
            lo, hi = _sup(cf.cinj_l1_linf(par["alpha"], par["p"]), SEARCH_SLACK)
        elif cid == "remark_gamma_zero":
            lo = hi = 2.0 ** (2.0 - par["p"])
        elif cid == "remark_alpha_half":
            lo = hi = 2.0 ** (1.0 - par["p"])
        elif cid == "bounds_pp":
            lo = cf.cinj_lq_at_p_eq_q(par["alpha"], par["p"]) - SEARCH_SLACK
            hi = cf.cinj_l1_linf(par["alpha"], par["p"])
        elif cid == "js_identity":
            lo, hi = _sup(op.closed_james, SEARCH_SLACK)
            if not (lo <= val["james"] <= hi):
                bad.append(f"J = {val['james']!r}, closed form {op.closed_james!r}")
            if abs(val["james"] * val["schaffer"] - 2.0) > SEARCH_SLACK:
                bad.append(f"J * S = {val['james'] * val['schaffer']!r}")
            continue
        else:
            continue
        est = val["estimate"]
        if not (lo - ROUND_GUARD <= est <= hi + ROUND_GUARD):
            bad.append(f"{cid} {par}: estimate {est!r} outside [{lo!r}, {hi!r}]")
    return bad


def multistart_seed(seed: int) -> int:
    """The multistart seed the compute ops pass to ``--seed``."""
    return random.Random(f"multistart:{seed}").randrange(2 ** 31)


def read_payload(path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None
