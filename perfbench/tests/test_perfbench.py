"""Tests of the benchmark's own parts: closed forms, span arithmetic, wrappers.

    python3 -m pytest perfbench/tests -q
"""

import math
import threading

import numpy as np
import pytest

import closed_forms as cf
import tracing
import workloads as wl


# ------------------------------------------------------------- closed forms

def test_closed_forms_hand_values():
    assert cf.james_lq(3.0) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-15)
    assert cf.james_lq(1.5) == pytest.approx(cf.james_lq(3.0), rel=1e-15)   # dual exponents
    assert cf.james_lq(2.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert cf.nu2_lq(3.0) == pytest.approx(2.0 ** (4.0 / 3.0), rel=1e-15)
    assert cf.nu2_lq(2.0) == pytest.approx(2.0, rel=1e-15)
    assert cf.schaffer_from_james(cf.JAMES_HEXAGON) == pytest.approx(4.0 / 3.0)
    assert cf.gamma_l1_linf(2.0, 0.5) == 2.25
    assert cf.gamma_lq_at_p_eq_q(2.0, 0.3) == pytest.approx(cf.gamma_l2(0.3), rel=1e-15)
    assert cf.gamma_lq_at_p_eq_q(3.0, 0.5) == pytest.approx(0.875, rel=1e-15)
    assert cf.cinj_lq_at_p_eq_q(0.2, 3.0) == pytest.approx(0.52, rel=1e-15)
    assert cf.cinj_l1_linf(0.2, 2.0) == pytest.approx(1.28, rel=1e-15)
    assert cf.rho_l2(1.0) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)
    # the identity C(alpha) = gamma_p(1 - 2 alpha) / 2 links the two l_q forms
    a, q = 0.15, 4.0
    assert cf.cinj_lq_at_p_eq_q(a, q) == pytest.approx(
        cf.gamma_lq_at_p_eq_q(q, 1.0 - 2.0 * a) / 2.0, rel=1e-14)


def test_q2000_sandwich_endpoints():
    lo, hi = cf.gamma_lq_sandwich(2000.0, 2.0, 0.5)
    assert lo == pytest.approx(2.2484, abs=1e-4)
    assert hi == pytest.approx(2.2516, abs=1e-4)
    assert lo < 2.25 < hi
    # the value normconst returns today lies far outside it
    assert 2.0335 < lo - wl.SEARCH_SLACK


def test_independent_norms():
    assert cf.lq_norm((3.0, 4.0), 2.0) == pytest.approx(5.0, rel=1e-15)
    assert cf.lq_norm((2.0, 1.0), 2000.0) == pytest.approx(2.0, rel=1e-3)
    assert cf.lq_norm((1e-200, 1e-200), 2.0) == pytest.approx(math.sqrt(2.0) * 1e-200)
    assert cf.lq_norm((-2.0, 1.0), math.inf) == 2.0
    # wlp scales each coordinate before the p-norm
    assert cf.lq_norm((1.0, 0.0), 2.0, (2.0, 0.5)) == pytest.approx(2.0)
    for k in range(6):
        vertex = (math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0))
        assert cf.hexagon_gauge(vertex) == pytest.approx(1.0, rel=1e-12)
    assert cf.hexagon_gauge((0.75, 0.25 * math.sqrt(3.0))) == pytest.approx(1.0, rel=1e-12)
    assert cf.norm_for(cf.HEXAGON_DESCRIPTOR) is cf.hexagon_gauge
    assert cf.norm_for("wlp:q=3,dim=2,w=1;2")((0.0, 1.0)) == pytest.approx(2.0)


def test_objective_at_witness():
    nrm = cf.norm_for("lp:q=2,dim=2")
    pair = ((1.0, 0.0), (0.6, 0.8))
    assert cf.objective_at("gamma_p", {"p": 2.0, "t": 0.4}, nrm, pair) == pytest.approx(1.16)
    assert cf.objective_at("cinj_via_gamma", {"alpha": 0.3, "p": 2.0}, nrm, pair) == \
        pytest.approx(cf.gamma_l2(0.4) / 2.0)
    assert cf.objective_at("schaffer", {}, nrm, pair) == pytest.approx(math.sqrt(3.2))


def test_op_lists_follow_the_seed():
    assert wl.compute_2d_ops(3) == wl.compute_2d_ops(3)
    assert wl.compute_nd_ops(3) != wl.compute_nd_ops(4)
    assert wl.multistart_seed(3) == wl.multistart_seed(3)
    faulty = [op for op in wl.compute_2d_ops(3) if op.known_fault]
    assert [op.label for op in faulty] == ["gamma-l2000"]
    assert faulty[0] == next(op for op in wl.compute_2d_ops(4) if op.known_fault)


def test_check_compute_flags_a_wrong_value():
    op = next(op for op in wl.compute_2d_ops(1) if op.label == "gamma-l2")
    t = op.params["t"]
    good = {"value": cf.gamma_l2(t), "witness": [[1.0, 0.0], [0.0, 1.0]]}
    assert wl.check_compute(op, 0, good, {}) == []
    assert wl.check_compute(op, 0, dict(good, value=good["value"] - 0.01), {})
    assert wl.check_compute(op, 2, None, {}) == ["exit code 2"]


# ------------------------------------------------------------ span arithmetic

def test_self_times_on_a_nested_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    parent = np.array([-1, 0, 0, 2])
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 3.0, 2.0, 2.0]
    mask = np.array([True, False, False, False])
    assert tracing.nearest_ancestor(parent, mask, 3) == 0
    assert tracing.nearest_ancestor(parent, mask, 0) == -1


def test_tracer_records_nesting_per_thread():
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1, count=lambda a, k, r: r)
    outer = tr.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    worker = threading.Thread(target=inner, args=(5,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    sp = tr.spans()
    names = [tr.names[i] for i in sp["name"]]
    assert names == ["outer", "inner", "inner", "inner"]
    assert sp["parent"].tolist() == [-1, 0, 0, -1]
    assert sp["thread"].tolist() == [0, 0, 0, 1]
    assert sp["count"].tolist() == [0, 2, 3, 6]
    own = tracing.self_times(sp["start"], sp["end"], sp["parent"])
    assert np.all(own >= 0.0)
    assert own[0] <= sp["end"][0] - sp["start"][0]


# ------------------------------------------------------------------ wrappers

def _entry_points(nc):
    points = [(nc.spaces.NormedSpace, "norm_rows"), (nc.verify._Context, "estimate"),
              (nc.verify, "run_suite"), (nc.verify, "_run_one"), (nc.cli, "main"),
              (nc.verify, "sup_pairs_2d"), (nc.verify, "sup_pairs_nd"),
              (nc.constants, "sup_pairs_2d"), (nc.constants, "sup_pairs_nd"),
              (nc.constants, "sup_vertex_pairs"), (nc.constants, "t_sweep"),
              (nc.constants, "_iso_partner_rows")]
    return points + [(nc.constants, cid) for cid in tracing.TRACED_CONSTANTS]


def test_install_wraps_and_restore_puts_everything_back():
    import normconst as nc
    import normconst.cli  # noqa: F401

    points = _entry_points(nc)
    before = {(id(o), a): vars(o)[a] for o, a in points}
    tr = tracing.Tracer()
    tracing.install(tr, nc)
    try:
        assert all(vars(o)[a] is not before[(id(o), a)] for o, a in points)
        assert len(tr._patches) == len(points)
        est = nc.constants.gamma_p(nc.lp_space(2, 2), 2.0, 0.5, "grid2d:res=16,refine=1")
        nc.constants.cnj_p(nc.lp_space(1, 2), 2.0, "exact", t_grid=3, t_refine=1)
    finally:
        tr.restore()
    assert all(vars(o)[a] is before[(id(o), a)] for o, a in points)
    assert tr._patches == []

    m = tracing.layer_metrics(tr, rounds=1)
    assert m["constants.gamma_p.calls"] == 1 + 3 + 3 + 1   # direct, grid, golden, at t*
    assert m["constants.cnj_p.calls"] == 1
    assert m["constants.cnj_p.inner_calls"] == 3 + 3 + 1
    assert m["search.sup_pairs_2d.calls"] == 1
    assert m["search.sup_pairs_2d.evals"] == est.evaluations
    assert m["search.t_sweep.calls"] == 1
    assert m["search.t_sweep.probes"] == 3 + 3
    assert m["search.sup_vertex_pairs.calls"] == 7
    assert m["spaces.norm_rows.calls"] >= m["spaces.norm_rows.single_row_calls"] > 0
    assert m["verify.checks"] == 0
