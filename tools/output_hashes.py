"""Print SHA-256 hashes of normconst's serialized outputs as one JSON object.

    python3 tools/output_hashes.py > hashes.json

Run from the root of a source checkout: normconst is imported from ``src/``
and the op lists from ``perfbench/workloads.py`` of the same checkout.  Six
groups of hashes are printed:

* ``suite``: ``report_json(run_suite([space], 7, "fast"))`` for each space
  of ``default_suite_spaces()``, keyed by its descriptor;
* ``cli``: the ``--out`` JSON of every op of ``compute_2d_ops(seed)`` and
  ``compute_nd_ops(seed)`` for seeds 1 and 2, run through ``cli.main`` with
  ``--seed multistart_seed(seed)`` as the benchmark runs them, keyed by
  ``"<workload>/seed<seed>"`` and the op label;
* ``sweep``: the ``--out`` JSON of each ``normconst sweep`` call of
  ``SWEEP_OPS``, keyed by its label: ``gamma_p`` over a t-grid on
  ``lp:q=3,dim=2`` and on the hexagon, and ``cinj_iso`` over an alpha-grid
  on l2 at a small ``grid2d``, the stacked runs of the grid engine;
* ``iso_nd``: the ``--out`` JSON of ``normconst compute`` for ``james`` and
  ``schaffer`` on each space of ``ISO_ND_SPACES`` at ``--seed
  multistart_seed(1)``, keyed by ``"<constant>/<space>"``: the multi-start
  unit-isosceles extremum above dimension 2;
* ``csv``: the ``--format csv --out`` bytes of each ``normconst compute``
  and ``normconst sweep`` call of ``CSV_OPS``, keyed by its label: an
  ``Estimate`` constant (``gamma_p``) and the float ``smoothness_quotient``,
  each on a grid2d space (``lp:q=3,dim=2``) and with ``--strategy exact``
  on ``lp:q=1,dim=2``;
* ``commands``: the ``--out`` bytes of each call of ``COMMAND_OPS``, keyed
  by its label: ``normconst verify --space lp:q=1,dim=2`` in JSON and CSV,
  ``normconst spaces list`` in text, JSON and CSV, and ``normconst compute
  --space lp:q=3,dim=2 --constant omega_prime`` in JSON.

The bytes hold for one numpy version and SIMD dispatch only: numpy's
AVX-512 ``**`` rounds some powers apart from its other loops.  So the
object also holds ``dispatch``: numpy's version and the SIMD extensions its
runtime dispatch found (``np.show_config(mode="dicts")``).

A change that should not move any output is checked by running the script
on both checkouts and comparing the two files with ``diff``, or against the
hashes a benchmark record holds:

    python3 tools/output_hashes.py --against BENCH_6.json

compares every hash with that file's ``suite_report_sha256``,
``cli_output_sha256``, ``sweep_output_sha256``, ``iso_nd_output_sha256``,
``csv_output_sha256`` and ``commands_output_sha256`` entries, prints each
key whose hash differs or is missing on one side, and exits 1 if there is
any.  Before those keys it names a dispatch that differs from the record's
``dispatch`` entry, or a record that has none (every record before
``BENCH_26.json``).  A group the record does not hold is not compared:
``sweep`` before ``BENCH_9.json``, ``iso_nd`` before ``BENCH_10.json``,
``csv`` in every record up to ``BENCH_10.json``, and ``commands`` in every
record up to ``BENCH_28.json``.

A change that moves outputs by design is checked value by value instead:

    python3 tools/output_hashes.py --values > values.json

prints, in place of each hash, the numeric leaves of that output as one
object from leaf path to value: ``"checks/12/values/estimate"`` in a JSON
output, ``"row 3/value"`` or ``"row 3/witness1/0"`` in a CSV one.  The
non-finite values a report writes as strings (``"NaN"``, ``"Infinity"``,
``"-Infinity"``) are leaves too, and ``"exit code"`` is added when a command
exits nonzero.  Every leaf is printed on a line of its own, so ``diff`` of
the files of two checkouts lists each moved value.  Two such files, of the
parent and of the change, are tabled by

    python3 tools/output_hashes.py --compare parent.json change.json

which prints each leaf whose value differs, or that one side lacks, with
its old value, its new value and the difference, then each output's
largest |difference|, and exits 1 if any leaf moved; a differing dispatch
is named first and is not a moved leaf.  A leaf that is a float on both
sides also has its difference in ulps of max(|old|, 1), and each group the
largest such |move|, so "no value moved by more than k ulps" is read off
the table.  It runs no op.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wl  # noqa: E402
from normconst import cli, verify  # noqa: E402
from normconst.spaces import descriptor, regular_polygon_space  # noqa: E402

SUITE_SEED = 7
CLI_SEEDS = (1, 2)
SWEEP_OPS = {
    "gamma_p/l3/t": ["--space", "lp:q=3,dim=2", "--constant", "gamma_p", "--p", "2",
                     "--t-grid", "0:1:0.125"],
    "gamma_p/hexagon/t": ["--space", descriptor(regular_polygon_space(6)),
                          "--constant", "gamma_p", "--p", "3", "--t-grid", "0:1:0.125"],
    "cinj_iso/l2/alpha": ["--space", "lp:q=2,dim=2", "--constant", "cinj_iso", "--p", "2",
                          "--alpha-grid", "0:0.5:0.0625",
                          "--strategy", "grid2d:res=64,refine=6"],
}
ISO_ND_SEED = 1
ISO_ND_SPACES = ("lp:q=1,dim=3", "lp:q=inf,dim=3", "wlp:q=3,dim=3,w=1;2;3", "lp:q=1.5,dim=4")
_CSV_SPACES = {"l3/grid2d": ["--space", "lp:q=3,dim=2", "--strategy", "grid2d:res=64,refine=6"],
               "l1/exact": ["--space", "lp:q=1,dim=2", "--strategy", "exact"]}
_CSV_CALLS = {"compute/gamma_p": ["compute", "--constant", "gamma_p", "--p", "2", "--t", "0.5"],
              "compute/smoothness_quotient": ["compute", "--constant", "smoothness_quotient",
                                              "--p", "2", "--alpha", "0.4"],
              "sweep/gamma_p": ["sweep", "--constant", "gamma_p", "--p", "3",
                                "--t-grid", "0:1:0.25"],
              "sweep/smoothness_quotient": ["sweep", "--constant", "smoothness_quotient",
                                            "--p", "2", "--alpha-grid", "0:0.45:0.15"]}
CSV_OPS = {f"{call}/{space}": [*argv, *space_argv, "--format", "csv"]
           for call, argv in _CSV_CALLS.items() for space, space_argv in _CSV_SPACES.items()}
COMMAND_OPS = {**{f"verify/{fmt}": ["verify", "--space", "lp:q=1,dim=2", "--format", fmt]
                  for fmt in ("json", "csv")},
               **{f"spaces/{fmt}": ["spaces", "list", "--format", fmt]
                  for fmt in ("text", "json", "csv")},
               "compute/omega_prime": ["compute", "--space", "lp:q=3,dim=2",
                                       "--constant", "omega_prime"]}
# the groups a record may lack, by the key they are recorded under
OPTIONAL_GROUPS = {"sweep": "sweep_output_sha256", "iso_nd": "iso_nd_output_sha256",
                   "csv": "csv_output_sha256", "commands": "commands_output_sha256"}


def dispatch() -> dict:
    """numpy's version and the SIMD extensions its runtime dispatch found."""
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    return {"numpy": np.__version__, "simd_found": list(found)}


def dispatch_line(a: dict | None, b: dict | None, a_name: str, b_name: str) -> list[str]:
    """One line naming dispatches ``a`` and ``b`` that differ, or a side
    that records none (None); no line if they match."""
    def name(d: dict | None) -> str:
        return "none" if d is None else f"numpy {d['numpy']}, SIMD found {d['simd_found']}"

    if a == b:
        return []
    return [f"dispatch differs: {name(a)} in {a_name}, {name(b)} in {b_name}"]


def _sha(data: bytes | None, rc: int = 0) -> str:
    """The hash of an output (``None``: there is none), its exit code
    appended when nonzero."""
    digest = "no output" if data is None else hashlib.sha256(data).hexdigest()
    return digest if rc == 0 else f"{digest} (exit code {rc})"


def _number(text: str):
    """``text`` as a float, or None if it is not a number."""
    try:
        return float(text)
    except ValueError:
        return None


def numeric_leaves(data: bytes | None, rc: int = 0) -> dict:
    """The numeric leaves of a JSON, CSV or text output (a text output read
    as CSV), keyed by their paths (see the module docstring), plus ``"exit
    code"`` when ``rc`` is nonzero."""
    leaves = {}

    def walk(node, path: str):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}/{key}" if path else str(key))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}/{i}" if path else str(i))
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            leaves[path] = node
        elif node in ("NaN", "Infinity", "-Infinity"):
            leaves[path] = node

    if data is not None:
        text = data.decode("utf-8")
        try:
            walk(json.loads(text), "")
        except json.JSONDecodeError:
            for i, row in enumerate(csv.DictReader(io.StringIO(text))):
                for column, cell in row.items():
                    # a witness cell is a tuple, "(x, y)": one leaf per coordinate;
                    # a row longer or shorter than the header (a line of a text
                    # output) has a list or None cell, which is no leaf
                    if not isinstance(cell, str):
                        continue
                    numbers = [_number(part) for part in cell.strip("()").split(",")]
                    if None in numbers:
                        continue
                    if cell.startswith("("):
                        leaves.update({f"row {i}/{column}/{k}": x for k, x in enumerate(numbers)})
                    else:
                        leaves[f"row {i}/{column}"] = numbers[0]
    if rc != 0:
        leaves["exit code"] = rc
    return leaves


Summary = Callable[..., object]


def suite_hashes(summary: Summary = _sha) -> dict[str, object]:
    return {descriptor(space): summary(verify.report_json(
                verify.run_suite([space], SUITE_SEED, "fast")).encode("utf-8"))
            for space in verify.default_suite_spaces()}


def _cli_hash(argv: list[str], out: Path, summary: Summary = _sha):
    """``summary`` of what ``cli.main(argv)`` writes to ``out`` and of its
    exit code."""
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return summary(out.read_bytes() if out.exists() else None, rc)


def cli_hashes(tmp: Path, summary: Summary = _sha) -> dict[str, dict[str, object]]:
    out = tmp / "out.json"
    hashes = {}
    for workload, make_ops in (("compute-2d", wl.compute_2d_ops),
                               ("compute-nd", wl.compute_nd_ops)):
        for seed in CLI_SEEDS:
            hashes[f"{workload}/seed{seed}"] = {
                op.label: _cli_hash(op.argv(wl.multistart_seed(seed), str(out)), out, summary)
                for op in make_ops(seed)}
    return hashes


def sweep_hashes(tmp: Path, summary: Summary = _sha) -> dict[str, object]:
    out = tmp / "sweep.json"
    return {label: _cli_hash(["sweep", *argv, "--out", str(out)], out, summary)
            for label, argv in SWEEP_OPS.items()}


def iso_nd_hashes(tmp: Path, summary: Summary = _sha) -> dict[str, object]:
    out = tmp / "iso.json"
    seed = str(wl.multistart_seed(ISO_ND_SEED))
    return {f"{constant}/{space}": _cli_hash(["compute", "--space", space, "--constant",
                                              constant, "--seed", seed, "--out", str(out)],
                                             out, summary)
            for constant in ("james", "schaffer") for space in ISO_ND_SPACES}


def _ops_hashes(ops: dict[str, list[str]], out: Path, summary: Summary) -> dict[str, object]:
    return {label: _cli_hash([*argv, "--out", str(out)], out, summary)
            for label, argv in ops.items()}


def csv_hashes(tmp: Path, summary: Summary = _sha) -> dict[str, object]:
    return _ops_hashes(CSV_OPS, tmp / "out.csv", summary)


def command_hashes(tmp: Path, summary: Summary = _sha) -> dict[str, object]:
    return _ops_hashes(COMMAND_OPS, tmp / "command.out", summary)


def recorded_hashes(bench: dict) -> dict:
    """The hashes of a ``BENCH_*.json`` record in the layout ``main`` prints.

    Each entry there is ``{"sha256": ..., "rc": ...}`` (``rc`` for the ops
    run through ``cli.main`` only); a nonzero ``rc`` is written as this
    script writes it.  The groups of ``OPTIONAL_GROUPS`` are present only if
    the record holds them.
    """
    def digest(entry: dict) -> str:
        rc = entry.get("rc", 0)
        return entry["sha256"] if rc == 0 else f"{entry['sha256']} (exit code {rc})"

    want = {"suite": {key: digest(e) for key, e in bench["suite_report_sha256"].items()},
            "cli": {group: {label: digest(e) for label, e in ops.items()}
                    for group, ops in bench["cli_output_sha256"].items()}}
    for group, key in OPTIONAL_GROUPS.items():
        if key in bench:
            want[group] = {label: digest(e) for label, e in bench[key].items()}
    return want


def differences(got: dict, want: dict) -> list[str]:
    """One line per key whose hash differs or that only one side has."""
    def flat(tree: dict, prefix: str = "") -> dict:
        out = {}
        for key, value in tree.items():
            if isinstance(value, dict):
                out.update(flat(value, f"{prefix}{key} / "))
            else:
                out[f"{prefix}{key}"] = value
        return out

    got, want = flat(got), flat(want)
    return [f"{key}: {got.get(key, 'missing')} here, {want.get(key, 'missing')} recorded"
            for key in sorted(got.keys() | want.keys()) if got.get(key) != want.get(key)]


def _outputs(tree: dict, prefix: str = "") -> dict[str, dict]:
    """The leaf objects of a ``--values`` file, keyed by the path of their
    output, as ``differences`` writes it."""
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict) and any(isinstance(v, dict) for v in value.values()):
            out.update(_outputs(value, f"{prefix}{key} / "))
        else:
            out[f"{prefix}{key}"] = value
    return out


def _outputs_only(tree: dict) -> dict:
    """A ``main`` result without its ``dispatch`` entry."""
    return {key: value for key, value in tree.items() if key != "dispatch"}


def moved_leaves(old: dict, new: dict) -> list[tuple]:
    """Each leaf whose value differs between two ``--values`` files, or that
    one side lacks (its value there is ``"missing"``), as (output path, leaf
    path, old value, new value, new - old or None if either is not a
    number), in sorted order."""
    old, new = _outputs(old), _outputs(new)
    rows = []
    for out in sorted(old.keys() | new.keys()):
        a, b = old.get(out, {}), new.get(out, {})
        for leaf in sorted(a.keys() | b.keys()):
            x, y = a.get(leaf, "missing"), b.get(leaf, "missing")
            if repr(x) != repr(y):
                numeric = all(isinstance(v, (int, float)) for v in (x, y))
                rows.append((out, leaf, x, y, y - x if numeric else None))
    return rows


def ulps(old, new) -> float | None:
    """``new - old`` in ulps of max(|old|, 1), or None unless both are floats."""
    if not all(isinstance(v, float) for v in (old, new)):
        return None
    return (new - old) / math.ulp(max(abs(old), 1.0))


def compare_table(old: dict, new: dict) -> list[str]:
    """The ``--compare`` lines: each moved leaf, then the largest |difference|
    (None if no moved leaf of the group has one), the count of moved leaves
    and, where any is a float on both sides, the largest |move| in ulps
    (``ulps``) per group, then the totals.  A group is an
    output and a leaf path with its list indices starred, so that, say, a
    sweep's values (``rows/*/value``) are not summed up with its witnesses
    (``rows/*/witness/*/*``) or evaluation counts."""
    lines = dispatch_line(old.get("dispatch"), new.get("dispatch"), "old", "new")
    old, new = _outputs_only(old), _outputs_only(new)
    rows = moved_leaves(old, new)

    def in_ulps(u):
        return "" if u is None else f", {u:.3g} ulps"

    lines += [f"{out} / {leaf}: {x!r} -> {y!r}, delta {d!r}{in_ulps(ulps(x, y))}"
              for out, leaf, x, y, d in rows]
    largest: dict[str, list] = {}
    for out, leaf, x, y, d in rows:
        kind = "/".join("*" if part.isdigit() else part for part in leaf.split("/"))
        entry = largest.setdefault(f"{out} / {kind}", [0, None, None])
        entry[0] += 1
        for i, move in ((1, d), (2, ulps(x, y))):
            if move is not None:
                entry[i] = abs(move) if entry[i] is None else max(entry[i], abs(move))
    if largest:
        lines.append("largest |delta| per group:")
        lines += [f"{group}: {size!r} over {n} moved leaf(s){in_ulps(u)}"
                  for group, (n, size, u) in largest.items()]
    total = sum(map(len, _outputs(new).values()))
    outputs = len({out for out, *_ in rows})
    lines.append(f"{len(rows)} moved leaf(s) of {total} in {outputs} output(s)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--against", metavar="BENCH_N.json", default=None,
                      help="compare with the hashes of this benchmark record")
    mode.add_argument("--values", action="store_true",
                      help="print each output's numeric leaves instead of its hash")
    mode.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"), default=None,
                      help="table the leaves that moved between two --values files")
    args = parser.parse_args(argv)
    if args.compare is not None:
        old, new = (json.loads(Path(name).read_text()) for name in args.compare)
        for line in compare_table(old, new):
            print(line)
        return 1 if moved_leaves(_outputs_only(old), _outputs_only(new)) else 0
    bench = None
    if args.against is not None:
        bench = json.loads(Path(args.against).read_text())
    summary = numeric_leaves if args.values else _sha
    with tempfile.TemporaryDirectory() as tmp:
        result = {"dispatch": dispatch(), "suite": suite_hashes(summary),
                  "cli": cli_hashes(Path(tmp), summary),
                  "sweep": sweep_hashes(Path(tmp), summary),
                  "iso_nd": iso_nd_hashes(Path(tmp), summary),
                  "csv": csv_hashes(Path(tmp), summary),
                  "commands": command_hashes(Path(tmp), summary)}
    if bench is None:
        json.dump(result, sys.stdout, indent=1)
        sys.stdout.write("\n")
        return 0
    lines, diff = against_lines(result, bench, args.against)
    for line in lines:
        print(line)
    return 1 if diff else 0


def against_lines(result: dict, bench: dict, where: str) -> tuple[list[str], list[str]]:
    """The ``--against`` lines for a ``main`` result and a record read from
    ``where``: a dispatch mismatch, each differing key, then the counts;
    and the differing keys alone."""
    want = recorded_hashes(bench)
    lines = dispatch_line(result.get("dispatch"), bench.get("dispatch"), "this run", where)
    result = {key: value for key, value in result.items() if key in want}
    diff = differences(result, want)
    total = (len(result["suite"]) + sum(len(ops) for ops in result["cli"].values())
             + sum(len(result.get(group, ())) for group in OPTIONAL_GROUPS))
    lines += diff
    lines.append(f"{len(diff)} differing key(s); {total} hashes computed, against {where}")
    return lines, diff


if __name__ == "__main__":
    sys.exit(main())
