"""``tools/output_hashes.py``: the commands group, ``--against`` and the
``--compare`` table of moved values."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_hashes.py"
_SPEC = importlib.util.spec_from_file_location("output_hashes", _PATH)
oh = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oh)

OLD = {"suite": {"hex": {"checks/0/values/a": 1.5, "checks/1/values/a": 2.0, "checks/2/x": 0.0}},
       "cli": {"compute-2d/seed1": {"op": {"value": 1.0, "evaluations": 10, "gone": 3.0},
                                    "same": {"value": 7.0}}}}
NEW = {"suite": {"hex": {"checks/0/values/a": 1.5, "checks/1/values/a": 2.5, "checks/2/x": -0.0}},
       "cli": {"compute-2d/seed1": {"op": {"value": 1.25, "evaluations": 4, "new": "NaN"},
                                    "same": {"value": 7.0}}}}


def test_moved_leaves_lists_each_changed_or_one_sided_leaf():
    assert oh.moved_leaves(OLD, NEW) == [
        ("cli / compute-2d/seed1 / op", "evaluations", 10, 4, -6),
        ("cli / compute-2d/seed1 / op", "gone", 3.0, "missing", None),
        ("cli / compute-2d/seed1 / op", "new", "missing", "NaN", None),
        ("cli / compute-2d/seed1 / op", "value", 1.0, 1.25, 0.25),
        ("suite / hex", "checks/1/values/a", 2.0, 2.5, 0.5),
        # a zero that changes sign moves, by 0
        ("suite / hex", "checks/2/x", 0.0, -0.0, -0.0),
    ]
    assert oh.moved_leaves(NEW, NEW) == []


def test_compare_table_groups_by_output_and_starred_leaf_path(tmp_path, capsys):
    lines = oh.compare_table(OLD, NEW)
    # float leaves also move in ulps of max(|old|, 1): 0.25 is 2^50 ulps of 1
    assert lines == [
        "cli / compute-2d/seed1 / op / evaluations: 10 -> 4, delta -6",
        "cli / compute-2d/seed1 / op / gone: 3.0 -> 'missing', delta None",
        "cli / compute-2d/seed1 / op / new: 'missing' -> 'NaN', delta None",
        "cli / compute-2d/seed1 / op / value: 1.0 -> 1.25, delta 0.25, 1.13e+15 ulps",
        "suite / hex / checks/1/values/a: 2.0 -> 2.5, delta 0.5, 1.13e+15 ulps",
        "suite / hex / checks/2/x: 0.0 -> -0.0, delta -0.0, -0 ulps",
        "largest |delta| per group:",
        "cli / compute-2d/seed1 / op / evaluations: 6 over 1 moved leaf(s)",
        "cli / compute-2d/seed1 / op / gone: None over 1 moved leaf(s)",
        "cli / compute-2d/seed1 / op / new: None over 1 moved leaf(s)",
        "cli / compute-2d/seed1 / op / value: 0.25 over 1 moved leaf(s), 1.13e+15 ulps",
        "suite / hex / checks/*/values/a: 0.5 over 1 moved leaf(s), 1.13e+15 ulps",
        "suite / hex / checks/*/x: 0.0 over 1 moved leaf(s), 0 ulps",
        "6 moved leaf(s) of 7 in 2 output(s)",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(OLD))
    b.write_text(json.dumps(NEW))
    assert oh.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == lines
    assert oh.main(["--compare", str(b), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 moved leaf(s) of 7 in 0 output(s)"]


AVX512 = {"numpy": "2.4.6", "simd_found": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]}
V3 = {"numpy": "2.4.6", "simd_found": ["X86_V3"]}


def test_dispatch_is_numpy_version_and_found_simd():
    got = oh.dispatch()
    assert got == {"numpy": np.__version__,
                   "simd_found": np.show_config(mode="dicts")["SIMD Extensions"]["found"]}
    assert json.loads(json.dumps(got)) == got


def test_against_names_a_dispatch_mismatch_before_the_keys():
    result = {"dispatch": AVX512, "suite": {"l2": "aa"},
              "cli": {"compute-nd/seed1": {"op": "bb", "same": "cc"}}, "csv": {"x": "dd"}}
    bench = {"suite_report_sha256": {"l2": {"sha256": "aa"}},
             "cli_output_sha256": {"compute-nd/seed1": {"op": {"sha256": "b0", "rc": 0},
                                                        "same": {"sha256": "cc", "rc": 0}}}}
    keys = ["cli / compute-nd/seed1 / op: bb here, b0 recorded"]
    count = "1 differing key(s); 3 hashes computed, against R.json"
    # a record without the csv group is not compared on it
    assert oh.against_lines(result, {**bench, "dispatch": AVX512}, "R.json") == (
        keys + [count], keys)
    lines, diff = oh.against_lines(result, {**bench, "dispatch": V3}, "R.json")
    assert lines == [f"dispatch differs: numpy 2.4.6, SIMD found {AVX512['simd_found']} in "
                     f"this run, numpy 2.4.6, SIMD found ['X86_V3'] in R.json", *keys, count]
    assert diff == keys
    assert oh.against_lines(result, bench, "R.json")[0][0] == (
        f"dispatch differs: numpy 2.4.6, SIMD found {AVX512['simd_found']} in this run, "
        "none in R.json")


def test_compare_names_a_dispatch_mismatch_and_moves_no_leaf_for_it():
    lines = oh.compare_table({**OLD, "dispatch": AVX512}, {**NEW, "dispatch": V3})
    assert lines[0] == (f"dispatch differs: numpy 2.4.6, SIMD found {AVX512['simd_found']} "
                        "in old, numpy 2.4.6, SIMD found ['X86_V3'] in new")
    assert lines[1:] == oh.compare_table(OLD, NEW)
    assert oh.compare_table({**OLD, "dispatch": V3}, {**OLD, "dispatch": V3}) == [
        "0 moved leaf(s) of 7 in 0 output(s)"]


def test_compare_exits_0_when_only_the_dispatch_differs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({**OLD, "dispatch": AVX512}))
    b.write_text(json.dumps({**OLD, "dispatch": V3}))
    assert oh.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["0 moved leaf(s) of 7 in 0 output(s)"]


def test_compare_reads_float_moves_in_ulps_of_the_old_value_or_1():
    # ulps of max(|old|, 1): a move below 1 counts in ulps of 1, an integer
    # leaf such as an evaluation count has none
    old = {"cli": {"w": {"op": {"a": 1.25, "b": 0.3, "c": -1e3, "n": 1024, "z": 0.0}}}}
    moved = {"a": 1.25 + 2 * math.ulp(1.25), "b": 0.3 - math.ulp(0.3),
             "c": math.nextafter(-1e3, 0.0), "n": 512, "z": math.ulp(1.0) / 2}
    new = {"cli": {"w": {"op": moved}}}
    assert oh.ulps(1.25, moved["a"]) == 2.0
    assert oh.ulps(0.3, moved["b"]) == -0.25
    assert oh.ulps(-1e3, moved["c"]) == 1.0
    assert oh.ulps(1024, 512) is None and oh.ulps(3.0, "missing") is None
    lines = oh.compare_table(old, new)
    assert [line.rsplit(", ", 1)[-1] for line in lines[:5]] == [
        "2 ulps", "-0.25 ulps", "1 ulps", "delta -512", "0.5 ulps"]
    assert lines[6:8] == ["cli / w / op / a: 4.440892098500626e-16 over 1 moved leaf(s), 2 ulps",
                          "cli / w / op / b: 5.551115123125783e-17 over 1 moved leaf(s), "
                          "0.25 ulps"]
    # the largest |move| of a group with several float leaves
    many = oh.compare_table({"s": {"x": {"v/0": 1.0, "v/1": 2.0}}},
                            {"s": {"x": {"v/0": 1.0 - math.ulp(1.0), "v/1": 2.0 + 3 * math.ulp(2.0)}}})
    assert many[-2] == f"s / x / v/*: {3 * math.ulp(2.0)!r} over 2 moved leaf(s), 3 ulps"


def test_commands_group_hashes_what_verify_and_spaces_list_write(tmp_path, capsys):
    # --out holds the bytes the command prints to stdout, in every format
    got = oh.command_hashes(tmp_path)
    assert sorted(got) == ["compute/omega_prime", "spaces/csv", "spaces/json", "spaces/text",
                           "verify/csv", "verify/json"]
    for label, argv in oh.COMMAND_OPS.items():
        assert oh.cli.main(argv) == 0
        assert got[label] == hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    leaves = oh.command_hashes(tmp_path, oh.numeric_leaves)
    # a text output has no numeric leaf; the verify CSV one per number cell
    assert leaves["spaces/text"] == {} and leaves["spaces/csv"] == {}
    assert leaves["verify/csv"]["row 0/runtime_ms"] == 0.0


def test_against_compares_the_commands_group_when_the_record_holds_it():
    result = {"suite": {"l2": "aa"}, "cli": {}, "commands": {"spaces/text": "ee"}}
    bench = {"suite_report_sha256": {"l2": {"sha256": "aa"}}, "cli_output_sha256": {}}
    assert oh.against_lines(result, bench, "R.json")[1] == []
    moved = {**bench, "commands_output_sha256": {"spaces/text": {"sha256": "e0", "rc": 0}}}
    assert oh.recorded_hashes(moved)["commands"] == {"spaces/text": "e0"}
    assert oh.against_lines(result, moved, "R.json")[1] == [
        "commands / spaces/text: ee here, e0 recorded"]


# numpy's own runtime switch off its AVX-512 loops: a setting of this
# process, not of the machine
NO_AVX512 = "X86_V4 AVX512_SPR AVX512_ICL"
# The hexagon and l3 fast suites at seeds 1-20 move by at most 128 ulps
# between the two dispatches, every move above 2 ulps in psi_even_convex's
# evenness_gap (a rounding residual of values near 1e2, read in ulps of 1);
# the bound is 4 times that.  l2 is left out: its cnj_p t_star can jump
# along a flat ratio.
DISPATCH_ULPS = 512
_SUITES = """
import json, sys
import numpy as np
from normconst import lp_space, regular_polygon_space
from normconst.verify import report_json, run_suite
found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
reports = [report_json(run_suite([space], 7, "fast"))
           for space in (regular_polygon_space(6), lp_space(3, 2))]
json.dump({"found": list(found), "reports": reports}, sys.stdout)
"""


def _fast_suites(**env) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", _SUITES], capture_output=True, check=True,
                         env={**os.environ, "PYTHONPATH": path, **env})
    return json.loads(run.stdout)


@pytest.mark.skipif("X86_V4" not in oh.dispatch()["simd_found"],
                    reason="numpy's runtime dispatch found no AVX-512 (X86_V4)")
def test_fast_suites_keep_their_verdicts_and_values_across_simd_dispatches():
    plain, v3 = _fast_suites(), _fast_suites(NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    assert "X86_V4" in plain["found"] and "X86_V4" not in v3["found"]
    for a, b in zip(plain["reports"], v3["reports"], strict=True):
        verdicts = [[(c["check_id"], c["params"], c["passed"]) for c in json.loads(r)["checks"]]
                    for r in (a, b)]
        assert verdicts[0] == verdicts[1]
        old, new = oh.numeric_leaves(a.encode()), oh.numeric_leaves(b.encode())
        assert old.keys() == new.keys()
        for leaf, x in old.items():
            moved = oh.ulps(x, new[leaf])
            if moved is None:
                assert repr(x) == repr(new[leaf]), leaf
            else:
                assert abs(moved) <= DISPATCH_ULPS, (leaf, x, new[leaf])
