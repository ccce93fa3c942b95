"""CLI contract: commands, formats, exit codes, deterministic bytes."""

import csv
import io
import json

import pytest

import normconst as nc
from normconst.cli import main, parse_grid
from normconst.verify import SuiteReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------- compute

def test_compute_json_value_roundtrips_bitwise(capsys):
    code, out, err = run_cli(capsys, "compute", "--space", "lp:q=1,dim=2",
                             "--constant", "cinj_iso", "--alpha", "0.25",
                             "--p", "2", "--strategy", "exact")
    assert code == 0 and err == ""
    doc = json.loads(out)
    lib = nc.cinj_iso(nc.lp_space(1, 2), alpha=0.25, p=2.0, strategy="exact")
    assert doc["value"] == lib.value  # bit-identical through JSON
    assert doc["exact"] is True
    assert doc["constant"] == "cinj_iso"
    assert doc["params"] == {"alpha": 0.25, "p": 2.0}


def test_compute_csv_format(capsys):
    code, out, err = run_cli(capsys, "compute", "--space", "lp:q=2,dim=2",
                             "--constant", "gamma_p", "--p", "2", "--t",
                             "0.5", "--format", "csv", "--strategy",
                             "grid2d:res=64,refine=6")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["constant", "space", "value", "witness1", "witness2",
                       "strategy", "exact"]
    assert len(rows) == 2
    assert float(rows[1][2]) == pytest.approx(1.25, abs=1e-9)
    assert rows[1][6] == "false"


def test_compute_scalar_constant(capsys):
    code, out, _ = run_cli(capsys, "compute", "--space", "lp:q=1,dim=2",
                           "--constant", "smoothness_quotient", "--alpha",
                           "0.4", "--p", "1", "--strategy",
                           "grid2d:res=64,refine=6")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1.0, abs=1e-9)
    assert doc["witness"] is None
    assert doc["exact"] is False and doc["evaluations"] is None and doc["meta"] == {}
    code, out, _ = run_cli(capsys, "compute", "--space", "lp:q=1,dim=2",
                           "--constant", "smoothness_quotient", "--alpha",
                           "0.4", "--p", "1", "--strategy",
                           "grid2d:res=64,refine=6", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["smoothness_quotient", "lp:q=1,dim=2", f"{doc['value']:.17g}", "", "",
                       "grid2d:res=64,refine=6,radial=9", "false"]


def test_compute_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "compute", "--space", "lp:q=inf,dim=2",
                           "--constant", "james", "--strategy",
                           "grid2d:res=64,refine=6", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["value"] == pytest.approx(2.0, abs=1e-6)


def test_compute_usage_errors(capsys):
    cases = [
        (["compute", "--space", "zorp:q=1", "--constant", "james"], "zorp"),
        (["compute", "--space", "lp:q=1,dim=2", "--constant", "cinj_iso",
          "--alpha", "0.2"], "--p"),
        (["compute", "--space", "lp:q=1,dim=2", "--constant", "james",
          "--t", "0.5"], "--t"),
        (["compute", "--space", "lp:q=1,dim=2", "--constant", "gamma_p",
          "--p", "2", "--t", "0.5", "--strategy", "warp"], "warp"),
        (["compute", "--space", "lp:q=1,dim=2", "--constant", "cinj_iso",
          "--alpha", "0.7", "--p", "2"], "alpha"),
    ]
    for argv, token in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert token in err


def test_compute_has_one_flag_per_constant_parameter(capsys):
    # no constant takes q, so there is no --q to accept and then refuse
    with pytest.raises(SystemExit):
        main(["compute", "--help"])
    help_text = capsys.readouterr().out
    assert "--alpha" in help_text and "--p" in help_text and "--t" in help_text
    assert "--q" not in help_text
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--space", "lp:q=1,dim=2", "--constant", "james", "--q", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --q 2" in capsys.readouterr().err


def test_compute_refuses_an_exponent_whose_powers_overflow(capsys):
    # gamma_p at p = 1030 used to end in an OverflowError traceback
    for p in ("1023", "1030"):
        code, out, err = run_cli(capsys, "compute", "--space", "lp:q=3,dim=2",
                                 "--constant", "gamma_p", "--p", p, "--t", "0.5")
        assert code == 2 and out == ""
        assert err == f"error: exponent p must be a real in [1, 1023), got {float(p)}\n"
    code, out, _ = run_cli(capsys, "compute", "--space", "lp:q=1,dim=2", "--constant",
                           "cnj_modified_p", "--p", "1022.99", "--strategy", "exact")
    assert code == 0 and json.loads(out)["value"] == 2.0


def test_compute_rejects_negative_seed(capsys):
    code, out, err = run_cli(capsys, "compute", "--space", "lp:q=3,dim=3",
                             "--constant", "gamma_p", "--p", "2", "--t", "0.5",
                             "--seed", "-1")
    assert code == 2 and out == ""
    assert "seed >= 0" in err and "non-negative integer" not in err


@pytest.mark.parametrize("space, selector, key", [
    ("lp:q=3,dim=3", "multistart:starts=99999999999999999999", "starts"),
    ("lp:q=3,dim=2", "grid2d:res=99999999999999999999", "res"),
])
def test_compute_refuses_an_oversized_strategy_field_by_key(capsys, space, selector, key):
    code, out, err = run_cli(capsys, "compute", "--space", space, "--constant", "gamma_p",
                             "--p", "2", "--t", "0.5", "--strategy", selector)
    assert code == 2 and out == ""
    assert f"parameter out of range: need {key} <= " in err


def test_compute_takes_a_seed_of_any_size(capsys):
    code, out, err = run_cli(capsys, "compute", "--space", "lp:q=3,dim=3",
                             "--constant", "gamma_p", "--p", "2", "--t", "0.5", "--strategy",
                             "multistart:starts=2,steps=3,seed=99999999999999999999")
    assert code == 0 and err == ""
    assert json.loads(out)["strategy"].endswith("seed=99999999999999999999")


def test_unknown_constant_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--space", "lp:q=1,dim=2", "--constant", "nope"])
    assert exc.value.code == 2


# --------------------------------------------------------------------- sweep

def test_sweep_alpha_csv_contract(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--space", "lp:q=1,dim=2",
                           "--constant", "cinj_iso", "--alpha-grid",
                           "0:0.5:0.05", "--p", "1", "--strategy", "exact",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["alpha", "value", "witness1", "witness2", "strategy",
                       "exact"]
    assert len(rows) == 12  # header + 11 grid points
    alphas = [float(r[0]) for r in rows[1:]]
    assert alphas[0] == 0.0 and alphas[-1] == 0.5
    values = [float(r[1]) for r in rows[1:]]
    for a, v in zip(alphas, values):
        assert v == pytest.approx(2.0 - 2.0 * a, abs=1e-12)


def test_sweep_t_json(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--space", "lp:q=2,dim=2",
                           "--constant", "gamma_p", "--t-grid", "0:1:0.25",
                           "--p", "2", "--strategy", "grid2d:res=64,refine=8")
    assert code == 0
    doc = json.loads(out)
    assert doc["sweep"] == "t"
    assert [r["t"] for r in doc["rows"]] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for r in doc["rows"]:
        assert r["value"] == pytest.approx(1.0 + r["t"] ** 2, abs=1e-9)


def test_sweep_usage_errors(capsys):
    code, _, err = run_cli(capsys, "sweep", "--space", "lp:q=1,dim=2",
                           "--constant", "cinj_iso", "--p", "1")
    assert code == 2 and "alpha-grid" in err
    code, _, err = run_cli(capsys, "sweep", "--space", "lp:q=1,dim=2",
                           "--constant", "james", "--t-grid", "0:1:0.5")
    assert code == 2 and "james" in err
    code, _, err = run_cli(capsys, "sweep", "--space", "lp:q=1,dim=2",
                           "--constant", "cinj_iso", "--alpha-grid",
                           "0:0.5:0.1", "--p", "1", "--t", "0.3")
    assert code == 2 and "--t" in err
    code, _, err = run_cli(capsys, "sweep", "--space", "lp:q=1,dim=2",
                           "--constant", "cinj_iso", "--alpha-grid",
                           "0.5:0:0.1", "--p", "1")
    assert code == 2


def test_parse_grid():
    assert parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    got = parse_grid("0:0.5:0.05")
    assert len(got) == 11
    assert got[-1] == 0.5  # endpoint snapped despite float drift
    assert parse_grid("0.3:0.3:1") == [0.3]
    for bad in ("0:1", "a:b:c", "0:1:-0.1", "1:0:0.1", "0:1:0"):
        with pytest.raises(ValueError):
            parse_grid(bad)
    with pytest.raises(ValueError, match="points"):
        parse_grid("0:1:1e-9")


# -------------------------------------------------------------------- verify

def test_verify_single_space_json(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--space", "lp:q=2,dim=2",
                           "--profile", "fast", "--seed", "3", "--out",
                           str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["summary"]["failed"] == 0
    assert doc["seed"] == 3


def test_verify_exit_1_on_failures(monkeypatch, capsys):
    import normconst.cli as cli_mod

    def fake_run_suite(spaces, seed=7, profile="fast"):
        return SuiteReport(seed=seed, profile="fast", config={},
                           checks=(), summary={"passed": 0, "failed": 2,
                                               "total": 2})
    monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
    code, out, _ = run_cli(capsys, "verify", "--space", "lp:q=2,dim=2")
    assert code == 1
    assert json.loads(out)["summary"]["failed"] == 2


def test_verify_unknown_profile_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--profile", "warp"])
    assert exc.value.code == 2


def test_verify_rejects_negative_seed(capsys):
    code, _, err = run_cli(capsys, "verify", "--space", "lp:q=3,dim=3",
                           "--seed", "-1")
    assert code == 2
    assert "need seed >= 0" in err and "non-negative integer" not in err


def test_verify_has_no_strategy_option(capsys):
    # verify takes each check's strategy from the profile
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--strategy", "exact"])
    assert exc.value.code == 2


# -------------------------------------------------------------------- spaces

def test_spaces_list_text(capsys):
    code, out, _ = run_cli(capsys, "spaces", "list")
    assert code == 0
    assert "lp:q=" in out and "poly2d:v=" in out


def test_spaces_list_json(capsys):
    code, out, _ = run_cli(capsys, "spaces", "list", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["default_suite"]) == 5
    for desc in doc["default_suite"]:
        nc.parse_space(desc)  # every advertised descriptor parses


# -------------------------------------------------------------- determinism

def test_identical_argv_identical_bytes(capsys):
    argv = ["compute", "--space", "poly2d:v=(1,0);(0,1);(-1,0);(0,-1)",
            "--constant", "cnj_p", "--p", "2",
            "--strategy", "multistart:starts=8,steps=100,seed=5"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
