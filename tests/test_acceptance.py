"""Acceptance gate: eleven stated criteria, one printed line per criterion.

Each test prints ``ACCEPTANCE nn [label]: PASS|FAIL`` outside the pytest
capture so the line shows up in plain ``pytest -v`` output, then asserts.
"""

import math

import pytest

import normconst as nc
from normconst.search import MultiStartStrategy
from normconst.verify import default_suite_spaces, report_json, run_check, run_suite

ALPHAS = (0.0, 0.1, 0.25, 0.4, 0.5)
PS = (1.0, 2.0, 3.0)

L1 = nc.lp_space(1, 2)
L2 = nc.lp_space(2, 2)
L3 = nc.lp_space(3, 2)
LINF = nc.lp_space(math.inf, 2)
HEX = nc.regular_polygon_space(6)
SUITE = (L1, LINF, L2, L3, HEX)
POLY = (L1, LINF, HEX)

_CHANNEL = None


@pytest.fixture(autouse=True)
def _announce_channel(capsys):
    global _CHANNEL
    _CHANNEL = capsys
    yield
    _CHANNEL = None


def announce(n: int, label: str, failures: list):
    ok = not failures
    detail = "" if ok else f" ({len(failures)} issue(s), first: {failures[0]})"
    line = f"ACCEPTANCE {n:02d} [{label}]: {'PASS' if ok else 'FAIL'}{detail}"
    if _CHANNEL is not None:
        with _CHANNEL.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, failures[:5]


@pytest.fixture(scope="module")
def suite_pair():
    first = run_suite(default_suite_spaces(), seed=7, profile="fast")
    second = run_suite(default_suite_spaces(), seed=7, profile="fast")
    return first, report_json(first), report_json(second)


def test_criterion_01_l1_closed_form():
    failures = []
    for a in ALPHAS:
        for p in PS:
            want = 2.0 * (1.0 - a) ** p
            ex = nc.cinj_iso(L1, alpha=a, p=p, strategy="exact").value
            if abs(ex - want) > 1e-9:
                failures.append(("exact", a, p, ex, want))
            gr = nc.cinj_iso(L1, alpha=a, p=p).value
            if abs(gr - want) > 1e-4:
                failures.append(("grid", a, p, gr, want))
    announce(1, "closed form l1", failures)


def test_criterion_02_linf_closed_form():
    failures = []
    for a in ALPHAS:
        for p in PS:
            want = 2.0 * (1.0 - a) ** p
            ex = nc.cinj_iso(LINF, alpha=a, p=p, strategy="exact").value
            if abs(ex - want) > 1e-9:
                failures.append((a, p, ex, want))
    announce(2, "closed form linf", failures)


def test_criterion_03_lp_closed_form_multistart():
    failures = []
    for q in (2.0, 3.0, 4.0):
        sp = nc.lp_space(q, 2)
        for a in ALPHAS:
            want = (1.0 - a) ** q + a ** q
            got = nc.cinj_iso(sp, alpha=a, p=q,
                              strategy=MultiStartStrategy(seed=7)).value
            if abs(got - want) > 1e-3:
                failures.append((q, a, got, want))
    announce(3, "closed form lp multistart", failures)


def test_criterion_04_cnj_polyhedral_equals_two():
    failures = []
    for p in PS:
        for sp, name in ((L1, "l1"), (LINF, "linf")):
            got = nc.cnj_p(sp, p=p, strategy="exact").value
            if abs(got - 2.0) > 1e-6:
                failures.append((name, p, got))
    announce(4, "cnj_p = 2 on l1/linf", failures)


def test_criterion_05_identity_two_routes():
    failures = []
    for sp in SUITE:
        for a in ALPHAS:
            for p in PS:
                d = nc.cinj_iso(sp, alpha=a, p=p).value
                g = nc.cinj_via_gamma(sp, alpha=a, p=p).value
                if abs(d - g) > 2e-3:
                    failures.append((str(sp), a, p, d, g))
    for sp in POLY:
        for a in ALPHAS:
            for p in PS:
                d = nc.cinj_iso(sp, alpha=a, p=p, strategy="exact").value
                g = nc.cinj_via_gamma(sp, alpha=a, p=p,
                                      strategy="exact").value
                if abs(d - g) > 1e-9:
                    failures.append(("vertex", str(sp), a, p, d, g))
    announce(5, "identity direct vs via-gamma", failures)


def test_criterion_06_cnj_two_routes():
    failures = []
    for sp in POLY:
        for p in PS:
            a = nc.cnj_p(sp, p=p, strategy="exact", mode="gamma").value
            b = nc.cnj_p(sp, p=p, strategy="exact", mode="cinj").value
            if abs(a - b) > 1e-6:
                failures.append((str(sp), p, a, b))
    announce(6, "cnj_p route equivalence", failures)


def test_criterion_07_bound_suite(suite_pair):
    report, _, _ = suite_pair
    wanted = {"bounds_pp", "pq_ordering", "rho_sandwich", "james_sandwich"}
    rows = [c for c in report.checks if c.check_id in wanted]
    failures = [(c.check_id, c.space, c.params, c.values)
                for c in rows if not c.passed]
    seen = {c.check_id for c in rows}
    if seen != wanted:
        failures.append(("missing check families", sorted(wanted - seen)))
    if len({c.space for c in rows}) != 5:
        failures.append(("bound checks did not cover all 5 spaces",))
    announce(7, "bound suite zero violations", failures)


def test_criterion_08_dichotomy():
    failures = []
    for sp, name in ((L1, "l1"), (LINF, "linf")):
        for a in ALPHAS:
            for p in PS:
                want = 2.0 * (1.0 - a) ** p
                got = nc.cinj_iso(sp, alpha=a, p=p, strategy="exact").value
                if abs(got - want) > 1e-9:
                    failures.append((name, a, p, got, want))
    for a in (0.0, 0.1, 0.25, 0.4):
        cap = 2.0 * (1.0 - a) ** 2
        got = nc.cinj_iso(L2, alpha=a, p=2.0).value
        if cap - got < 0.1:
            failures.append(("l2 margin", a, cap - got))
    announce(8, "square dichotomy", failures)


def test_criterion_09_smoothness_proxy():
    failures = []
    qs = [nc.smoothness_quotient(L2, p=2.0, alpha=a)
          for a in (0.45, 0.49, 0.499)]
    if not (qs[0] > qs[1] > qs[2]):
        failures.append(("not strictly decreasing", qs))
    if qs[2] > 0.01:
        failures.append(("final value too large", qs[2]))
    for a in (0.0, 0.1, 0.25, 0.4, 0.45, 0.49, 0.499):
        got = nc.smoothness_quotient(L1, p=1.0, alpha=a, strategy="exact")
        if abs(got - 1.0) > 1e-6:
            failures.append(("l1 quotient", a, got))
    announce(9, "smoothness proxy", failures)


def test_criterion_10_structural():
    failures = []
    for sp in SUITE:
        for p in PS:
            g0 = nc.gamma_p(sp, p=p, t=0.0).value
            if abs(g0 - 2.0 ** (2.0 - p)) > 1e-9:
                failures.append(("gamma at 0", str(sp), p, g0))
            ch = nc.cinj_iso(sp, alpha=0.5, p=p).value
            if abs(ch - 2.0 ** (1.0 - p)) > 1e-9:
                failures.append(("alpha half", str(sp), p, ch))
    # the p = 2 member reproduces the classical normalization, checked via
    # an independently assembled objective through the raw engine
    from normconst.search import Objective, sup_pairs_2d
    from normconst.spaces import Region
    for sp in SUITE:
        for t in (0.3, 1.0):
            fam = nc.gamma_p(sp, p=2.0, t=t).value

            def evb(X1, X2, _sp=sp, _t=t):
                na = _sp.norm_rows(X1 + _t * X2)
                nb = _sp.norm_rows(X1 - _t * X2)
                return (na * na + nb * nb) / 2.0
            classic = sup_pairs_2d(sp, Objective(evb), Region.SPHERE)
            if abs(fam - classic.value) > 1e-12:
                failures.append(("p2 normalization", str(sp), t, fam,
                                 classic.value))
    for sp in SUITE:
        j = nc.james(sp).value
        s = nc.schaffer(sp).value
        if abs(j * s - 2.0) > 1e-3:
            failures.append(("J*S", str(sp), j, s))
        om = nc.omega_prime(sp)
        ident = 0.9 * nc.gamma_p(sp, p=2.0, t=1.0 / 3.0).value
        if abs(om.value - ident) > 1e-3:
            failures.append(("omega identity", str(sp), om.value, ident))
    for sp in SUITE:
        res = run_check("lemma_ll_bounds", sp, {"pairs": 10000}, seed=7,
                        profile="fast")
        if not res.passed or res.values["max_violation"] > 1e-9:
            failures.append(("lemma", str(sp), res.values))
    announce(10, "structural properties", failures)


def test_criterion_11_determinism(suite_pair):
    report, j1, j2 = suite_pair
    failures = []
    if j1 != j2:
        failures.append(("reports differ", len(j1), len(j2)))
    if report.summary["failed"]:
        failures.append(("suite has failures", report.summary))
    announce(11, "byte-identical reruns", failures)
