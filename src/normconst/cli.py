"""Command-line front end: compute one constant, sweep a parameter, or run
the verification suite.  Output is JSON (default) or CSV; identical argv and
seed produce byte-identical documents."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .constants import CONSTANT_IDS, CONSTANT_PARAMS, resolve_strategy
from . import constants as cns
from .search import _STRATEGY_CLASSES, Estimate, strategy_descriptor
from .spaces import SpaceError, descriptor, parse_space
from .verify import (PROFILES, default_suite_spaces, report_json, run_suite)

GRID_LIMIT = 100001
PARAM_FLAGS = tuple(sorted(set().union(*CONSTANT_PARAMS.values())))

# each strategy's selector at its defaults, from the strategy table
STRATEGY_HELP = (" | ".join(strategy_descriptor(cls()) for cls in _STRATEGY_CLASSES.values())
                 + "; omitted fields keep these defaults.  Without --strategy: grid2d "
                   "on 2-D spaces, else multistart seeded by --seed")


class UsageError(ValueError):
    pass


def parse_grid(text: str) -> list[float]:
    """``start:stop:step`` with both endpoints included (within 1e-12)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError:
        raise UsageError(f"grid has a non-numeric field: {text!r}")
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise UsageError(f"grid fields must be finite: {text!r}")
    if step <= 0.0 or stop < start:
        raise UsageError(f"grid needs step > 0 and stop >= start: {text!r}")
    values = []
    i = 0
    while True:
        v = start + i * step
        if v > stop + 1e-12:
            break
        values.append(stop if abs(v - stop) <= 1e-12 else v)
        i += 1
        if i > GRID_LIMIT:
            raise UsageError(f"grid {text!r} has more than {GRID_LIMIT} points")
    return values


def _fmt17(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _witness_field(w) -> str:
    return "(" + ", ".join(f"{x:.17g}" for x in w) + ")"


def write_csv(rows: list[dict], header: list[str], out) -> None:
    """RFC-4180-style rows; floats carry 17 significant digits."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt17(row[k]) for k in header])


def _emit(args, doc: str, rows: list[dict], header: list[str]) -> None:
    """Write ``doc``, or with ``--format csv`` the CSV of ``rows`` under
    ``header``, to ``--out`` or stdout."""
    if args.format == "csv":
        buf = io.StringIO()
        write_csv(rows, header, buf)
        doc = buf.getvalue()
    if args.out is None:
        sys.stdout.write(doc)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(doc)


def _collect_params(args, needed: tuple[str, ...], role: str = "") -> dict:
    """The values of the parameters ``needed``: each must be given, and no
    other may be (a typo cannot silently alter the computation)."""
    given = {name: getattr(args, name) for name in PARAM_FLAGS
             if getattr(args, name) is not None}
    extra = set(given) - set(needed)
    if extra:
        tok = sorted(extra)[0]
        raise UsageError(f"--{tok} is not {role or 'a parameter of ' + args.constant}")
    missing = [n for n in needed if n not in given]
    if missing:
        raise UsageError(f"{args.constant} requires --{missing[0]}")
    return {k: given[k] for k in needed}


def _result_fields(result, strat_text: str) -> tuple[dict, dict]:
    """The JSON and the CSV fields of one result: an ``Estimate``, or the
    float ``smoothness_quotient`` returns, which has no witness."""
    if isinstance(result, Estimate):
        w1, w2 = result.witness
        value, exact = result.value, result.exact
        witness, csv_witness = [list(w1), list(w2)], (_witness_field(w1), _witness_field(w2))
    else:
        value, exact, witness, csv_witness = result, False, None, ("", "")
    fields = {"value": value, "witness": witness, "strategy": strat_text, "exact": exact}
    row = {"value": value, "witness1": csv_witness[0], "witness2": csv_witness[1],
           "strategy": strat_text, "exact": exact}
    return fields, row


def _cmd_compute(args) -> int:
    space = parse_space(args.space)
    params = _collect_params(args, CONSTANT_PARAMS[args.constant])
    strat = resolve_strategy(args.strategy, space, seed=args.seed)
    result = getattr(cns, args.constant)(space, strategy=strat, **params)
    fields, row = _result_fields(result, strategy_descriptor(strat))
    payload = {"space": descriptor(space), "constant": args.constant,
               "params": params, **fields,
               "evaluations": getattr(result, "evaluations", None),
               "meta": getattr(result, "meta", {})}
    _emit(args, json.dumps(payload, indent=2) + "\n",
          [{"constant": args.constant, "space": descriptor(space), **row}],
          ["constant", "space", "value", "witness1", "witness2", "strategy", "exact"])
    return 0


def _cmd_sweep(args) -> int:
    space = parse_space(args.space)
    if (args.alpha_grid is None) == (args.t_grid is None):
        raise UsageError("sweep needs exactly one of --alpha-grid or --t-grid")
    var = "alpha" if args.alpha_grid is not None else "t"
    needed = CONSTANT_PARAMS[args.constant]
    if var not in needed:
        raise UsageError(f"{args.constant} does not take --{var}; "
                         f"it cannot be swept over a {var} grid")
    grid = parse_grid(args.alpha_grid if var == "alpha" else args.t_grid)
    given = _collect_params(args, tuple(n for n in needed if n != var),
                            "a fixed parameter of this sweep")
    strat = resolve_strategy(args.strategy, space, seed=args.seed)
    strat_text = strategy_descriptor(strat)

    rows = []
    json_rows = []
    results = cns._estimates_along(args.constant, space, strat, var, grid, **given)
    for value, result in zip(grid, results):
        fields, row = _result_fields(result, strat_text)
        json_rows.append({var: value, **fields})
        rows.append({var: value, **row})
    payload = {"space": descriptor(space), "constant": args.constant,
               "sweep": var, "params": given, "rows": json_rows}
    _emit(args, json.dumps(payload, indent=2) + "\n", rows,
          [var, "value", "witness1", "witness2", "strategy", "exact"])
    return 0


def _cmd_verify(args) -> int:
    if args.space:
        spaces = [parse_space(s) for s in args.space]
    else:
        spaces = list(default_suite_spaces())
    report = run_suite(spaces, seed=args.seed, profile=args.profile)
    rows = [{"check_id": r.check_id, "space": r.space,
             "params": json.dumps(r.params, sort_keys=True),
             "passed": r.passed, "slack_used": r.slack_used, "runtime_ms": 0}
            for r in report.checks]
    _emit(args, report_json(report) + "\n", rows,
          ["check_id", "space", "params", "passed", "slack_used", "runtime_ms"])
    return 0 if report.summary["failed"] == 0 else 1


def _cmd_spaces(args) -> int:
    kinds = [
        "lp:q=<exponent>,dim=<n>          p-norm; q=1, q=2, q=inf, or any q >= 1",
        "wlp:q=<exponent>,dim=<n>,w=a;b   weighted p-norm with positive weights",
        "poly2d:v=(x,y);(x,y);...         symmetric polygon gauge from vertices",
    ]
    defaults = [descriptor(s) for s in default_suite_spaces()]
    if args.format == "json":
        doc = json.dumps({"kinds": [k.split()[0] for k in kinds],
                          "default_suite": defaults}, indent=2)
    else:
        doc = "\n".join(["space descriptor syntax:", *("  " + k for k in kinds),
                         "default verification suite:", *("  " + d for d in defaults)])
    _emit(args, doc + "\n", [{"descriptor": d} for d in defaults], ["descriptor"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normconst",
        description="Geometric constants of finite-dimensional normed spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="json", fmt_choices=("json", "csv")):
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--format", choices=fmt_choices, default=fmt_default)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def constant_args(p):
        p.add_argument("--space", required=True)
        p.add_argument("--constant", required=True, choices=CONSTANT_IDS)
        for name in PARAM_FLAGS:
            p.add_argument(f"--{name}", type=float, default=None)
        p.add_argument("--strategy", default=None, help=STRATEGY_HELP)

    pc = sub.add_parser("compute", help="compute one constant on one space")
    constant_args(pc)
    common(pc)
    pc.set_defaults(fn=_cmd_compute)

    ps = sub.add_parser("sweep", help="sweep alpha or t over a grid")
    constant_args(ps)
    ps.add_argument("--alpha-grid", dest="alpha_grid", default=None,
                    metavar="START:STOP:STEP")
    ps.add_argument("--t-grid", dest="t_grid", default=None,
                    metavar="START:STOP:STEP")
    common(ps)
    ps.set_defaults(fn=_cmd_sweep)

    pv = sub.add_parser("verify", help="run the verification suite")
    pv.add_argument("--space", action="append", default=None,
                    help="repeatable; defaults to the built-in suite")
    pv.add_argument("--profile", choices=sorted(PROFILES), default="fast")
    common(pv)
    pv.set_defaults(fn=_cmd_verify)

    pl = sub.add_parser("spaces", help="describe available spaces")
    pl.add_argument("action", choices=("list",))
    pl.add_argument("--format", choices=("text", "json", "csv"), default="text")
    pl.add_argument("--out", default=None)
    pl.set_defaults(fn=_cmd_spaces)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, SpaceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
