"""``tools/joint_contract.py``: the joint-refinement contract as a plain loop."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "joint_contract.py"
_SPEC = importlib.util.spec_from_file_location("joint_contract", _PATH)
jc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(jc)


def test_the_grid_is_the_hypothesis_test_s_whole_space():
    combos = jc.combinations()
    assert len(combos) == len(set(combos)) == 7 * 4 * 2 * 17 * 3 * 2 == 5712
    assert {c[0] for c in combos} == set(jc.tc.JOINT_SPACES)
    assert {c[3] for c in combos} == set(range(32, 49))


def test_one_combination_holds():
    assert jc.failure("lp:q=2.0", 2.0, "gamma", 32, 2, (5, 3)) is None


def test_each_failure_is_printed_and_the_exit_code_is_1(monkeypatch, capsys):
    bad = ("hexagon", 3.0, "cinj", 37, 3, (5, 3))

    def contract(space, p, strat, t_grid, t_refine, mode):
        combo = ([n for n, s in jc.tc.JOINT_SPACES.items() if s is space][0], p, mode,
                 strat.resolution, strat.refine, (t_grid, t_refine))
        assert combo != bad

    monkeypatch.setattr(jc.tc, "_assert_joint_contract", contract)
    assert jc.main([]) == 1
    out = capsys.readouterr().out.splitlines()
    # the failed check's source line (pytest's rewritten assert adds its own message)
    assert out[0].startswith(f"FAIL {bad}: assert combo != bad")
    assert out[1].startswith("1 failure(s) of 5712 combinations in ")

    monkeypatch.setattr(jc.tc, "_assert_joint_contract", lambda *args: None)
    assert jc.main([]) == 0
    assert capsys.readouterr().out.startswith("0 failure(s) of 5712 combinations in ")
