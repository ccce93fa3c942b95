"""The benchmark tracer's contract with the library.

``perfbench/tracing.py`` wraps the engines where ``constants`` and
``verify`` look them up.  A change that routes an engine call around those
module globals would leave the tracer's per-layer counts at 0 without an
error; these tests run the tracer, unchanged, over one call of each
engine and check that every call is counted once with its evaluations.
"""

import importlib.util
from pathlib import Path

import pytest

import normconst
import normconst.cli  # noqa: F401  (the tracer wraps cli.main)
import normconst.constants
import normconst.verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    originals = {name: getattr(normconst.constants, name)
                 for name in ("gamma_p", "cinj_iso", "sup_pairs_2d", "sup_pairs_nd",
                              "sup_vertex_pairs")}
    tracing.install(tracer, normconst)
    try:
        yield tracing, tracer
    finally:
        tracer.restore()
    for name, fn in originals.items():
        assert getattr(normconst.constants, name) is fn


def test_each_engine_call_is_counted_once_with_its_evaluations(traced):
    tracing, tracer = traced
    cns = normconst.constants
    grid = cns.gamma_p(normconst.lp_space(3, 2), 2.0, 0.5, "grid2d:res=32,refine=2,radial=2")
    exact = cns.cinj_iso(normconst.lp_space(1, 2), 0.25, 2.0, "exact")
    multi = cns.gamma_p(normconst.lp_space(3, 3), 2.0, 0.5, "multistart:starts=3,steps=6,seed=1")
    m = tracing.layer_metrics(tracer, 1)
    for layer, est in (("sup_pairs_2d", grid), ("sup_vertex_pairs", exact),
                       ("sup_pairs_nd", multi)):
        assert m[f"search.{layer}.calls"] == 1, layer
        assert m[f"search.{layer}.evals"] == est.evaluations > 0, layer
    assert m["constants.gamma_p.calls"] == 2
    assert m["constants.cinj_iso.calls"] == 1


@pytest.mark.parametrize("strategy,layer", [("exact", "sup_vertex_pairs"),
                                            ("grid2d:res=32,refine=2", "sup_pairs_2d")])
def test_cinj_via_gamma_runs_its_engine_without_a_gamma_p_call(traced, strategy, layer):
    # cinj_via_gamma runs gamma_p's search itself: a call through the
    # gamma_p module attribute would count as a gamma_p call too
    tracing, tracer = traced
    est = normconst.constants.cinj_via_gamma(normconst.lp_space(1, 2), 0.25, 2.0, strategy)
    m = tracing.layer_metrics(tracer, 1)
    assert m["constants.cinj_via_gamma.calls"] == 1
    assert m[f"search.{layer}.calls"] == 1
    assert m[f"search.{layer}.evals"] == est.evaluations > 0
    assert m["constants.gamma_p.calls"] == 0


def test_a_suite_counts_james_and_schaffer_once_each(traced):
    # the suite's estimate cache calls every constant through its module
    # attribute, james and schaffer included, once per space and strategy
    tracing, tracer = traced
    profile = normconst.verify.Profile("mini", resolution=64, refine=6, starts=12,
                                       steps=120, t_grid=9, t_refine=6, lemma_pairs=500,
                                       psi_samples=3, ball_resolution=48, ball_radial=3)
    report = normconst.verify.run_suite([normconst.regular_polygon_space(6)], 7, profile)
    assert report.summary["failed"] == 0
    m = tracing.layer_metrics(tracer, 1)
    assert m["constants.james.calls"] == 1
    assert m["constants.schaffer.calls"] == 1
