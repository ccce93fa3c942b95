"""Reference values computed apart from normconst.

Nothing here imports normconst.  The norms are written from their
definitions, the constants from their closed forms, and the objectives are
re-evaluated at a reported witness so that a value and its witness can be
checked against each other.  Sources are listed next to each closed form
and in the README.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# independent norms


def lq_norm(x, q: float, weights=None) -> float:
    """(sum_i (w_i |x_i|)^q)^(1/q), max_i w_i |x_i| for q = inf.

    Scaled by the largest entry first, so large q neither overflows nor
    underflows.  The weighted form is the one normconst's ``wlp`` spaces
    compute (tests/test_spaces.py::test_weighted_lp pins it).
    """
    a = np.abs(np.asarray(x, dtype=float))
    if weights is not None:
        a = a * np.asarray(weights, dtype=float)
    m = float(a.max())
    if q == math.inf or m == 0.0:
        return m
    return m * float(((a / m) ** q).sum()) ** (1.0 / q)


def hexagon_gauge(x) -> float:
    """Gauge of the regular hexagon with unit circumradius and a vertex at (1, 0).

    Facet form: the facets have outer normals at angles pi/6 + k*pi/3 and
    lie at distance cos(pi/6) from the origin, so the gauge is the largest
    of three |<n_k, x>| divided by that distance.
    """
    v = np.asarray(x, dtype=float)
    angles = math.pi / 6.0 + np.arange(3) * (math.pi / 3.0)
    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return float(np.abs(normals @ v).max()) / math.cos(math.pi / 6.0)


HEXAGON_DESCRIPTOR = ("poly2d:v=(1,0);(0.5,0.8660254037844386);(-0.5,0.8660254037844386);"
                      "(-1,0);(-0.5,-0.8660254037844386);(0.5,-0.8660254037844386)")


def norm_for(space: str):
    """An independent norm function for a descriptor the workloads use."""
    if space == HEXAGON_DESCRIPTOR:
        return hexagon_gauge
    kind, _, rest = space.partition(":")
    fields = dict(item.split("=", 1) for item in rest.split(","))
    q = math.inf if fields["q"] == "inf" else float(fields["q"])
    if kind == "lp":
        return lambda x: lq_norm(x, q)
    if kind == "wlp":
        w = [float(t) for t in fields["w"].split(";")]
        return lambda x: lq_norm(x, q, w)
    raise ValueError(f"no independent norm for {space!r}")


# ---------------------------------------------------------------------------
# closed forms


def gamma_l2(t: float) -> float:
    """gamma_2(l2) = 1 + t^2 (parallelogram law; tests/test_constants.py)."""
    return 1.0 + t * t


def gamma_lq_at_p_eq_q(q: float, t: float) -> float:
    """gamma_q(l_q) = ((1+t)^q + (1-t)^q) / 2^(q-1) for q >= 2.

    The paper's l_q example through C = gamma_p(1-2a)/2, pinned by
    tests/test_constants.py::test_gamma_lq_closed_form_at_p_equal_q.
    """
    return ((1.0 + t) ** q + (1.0 - t) ** q) / 2.0 ** (q - 1.0)


def gamma_l1_linf(p: float, t: float) -> float:
    """gamma_p(l1) = gamma_p(l_inf) = 2^(2-p) (1+t)^p in any dimension.

    The triangle inequality caps both norms at 1+t; x = e1, y = e2 in l1 and
    x = (1,1), y = (1,-1) in l_inf attain the cap.
    """
    return 2.0 ** (2.0 - p) * (1.0 + t) ** p


def cinj_lq_at_p_eq_q(alpha: float, p: float) -> float:
    """C(alpha, p, l_q) = (1-alpha)^p + alpha^p for p = q >= 2 (paper's l_p example)."""
    return (1.0 - alpha) ** p + alpha ** p


def cinj_l1_linf(alpha: float, p: float) -> float:
    """C(alpha, p, X) = 2(1-alpha)^p on l1 and l_inf (paper's l1 / l_inf examples)."""
    return 2.0 * (1.0 - alpha) ** p


def james_lq(q: float) -> float:
    """J(l_q) = 2^max(1/q, 1-1/q) (classical; J(l2) = sqrt 2 in the tests)."""
    return 2.0 ** max(1.0 / q, 1.0 - 1.0 / q)


JAMES_HEXAGON = 1.5   # tests/test_constants.py::test_james_frozen_values


def schaffer_from_james(j: float) -> float:
    """S = 2 / J (the identity J * S = 2; tests/test_constants.py::test_schaffer_and_product)."""
    return 2.0 / j


def nu2_lq(q: float) -> float:
    """nu_2(l_q) = 2^(2-2/q) for q >= 2, i.e. twice the von Neumann-Jordan constant (Clarkson)."""
    return 2.0 ** (2.0 - 2.0 / q)


def rho_l2(t: float) -> float:
    """Modulus of smoothness of a Hilbert space: sqrt(1+t^2) - 1."""
    return math.sqrt(1.0 + t * t) - 1.0


def gamma_lq_sandwich(q: float, p: float, t: float) -> tuple[float, float]:
    """Bounds on gamma_p(l_q) in the plane from gamma_p(l_inf).

    In R^2, ||x||_inf <= ||x||_q <= 2^(1/q) ||x||_inf.  Rescaling a unit
    pair of one norm onto the sphere of the other changes each norm of the
    objective by at most that factor, and the objective is p-homogeneous in
    the pair, so gamma_p(l_q) lies in [2^(-p/q), 2^(p/q)] * gamma_p(l_inf).
    """
    g = gamma_l1_linf(p, t)
    return 2.0 ** (-p / q) * g, 2.0 ** (p / q) * g


# ---------------------------------------------------------------------------
# objectives at a witness


def objective_at(constant: str, params: dict, nrm, witness) -> float:
    """The constant's objective at a witness pair, under the norm ``nrm``."""
    x1 = np.asarray(witness[0], dtype=float)
    x2 = np.asarray(witness[1], dtype=float)
    if constant in ("gamma_p", "cinj_via_gamma"):
        p = params["p"]
        t = params["t"] if constant == "gamma_p" else 1.0 - 2.0 * params["alpha"]
        g = (nrm(x1 + t * x2) ** p + nrm(x1 - t * x2) ** p) / 2.0 ** (p - 1.0)
        return g if constant == "gamma_p" else 0.5 * g
    if constant == "cinj_iso":
        a, p = params["alpha"], params["p"]
        y1, y2 = x1 + x2, x1 - x2
        num = nrm(a * y1 + (1.0 - a) * y2) ** p + nrm((1.0 - a) * y1 + a * y2) ** p
        return num / nrm(y1 + y2) ** p
    if constant == "rho":
        t = params["t"]
        return (nrm(x1 + t * x2) + nrm(x1 - t * x2)) / 2.0 - 1.0
    if constant == "nu_p":
        p = params["p"]
        return (nrm(x1 + x2) ** p + nrm(x1 - x2) ** p) / (nrm(x1) ** p + nrm(x2) ** p)
    if constant == "james":
        return min(nrm(x1 + x2), nrm(x1 - x2))
    if constant == "schaffer":
        return nrm(x1 + x2)
    raise ValueError(f"no objective for {constant!r}")
