"""Print SHA-256 hashes of normconst's serialized outputs as one JSON object.

    python3 tools/output_hashes.py > hashes.json

Run from the root of a source checkout: normconst is imported from ``src/``
and the op lists from ``perfbench/workloads.py`` of the same checkout.  Two
groups of hashes are printed:

* ``suite``: ``report_json(run_suite([space], 7, "fast"))`` for each space
  of ``default_suite_spaces()``, keyed by its descriptor;
* ``cli``: the ``--out`` JSON of every op of ``compute_2d_ops(seed)`` and
  ``compute_nd_ops(seed)`` for seeds 1 and 2, run through ``cli.main`` with
  ``--seed multistart_seed(seed)`` as the benchmark runs them, keyed by
  ``"<workload>/seed<seed>"`` and the op label.

A change that should not move any output is checked by running the script
on both checkouts and comparing the two files with ``diff``, or against the
hashes a benchmark record holds:

    python3 tools/output_hashes.py --against BENCH_6.json

compares every hash with that file's ``suite_report_sha256`` and
``cli_output_sha256`` entries, prints each key whose hash differs or is
missing on one side, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wl  # noqa: E402
from normconst import cli, verify  # noqa: E402
from normconst.spaces import descriptor  # noqa: E402

SUITE_SEED = 7
CLI_SEEDS = (1, 2)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def suite_hashes() -> dict[str, str]:
    return {descriptor(space): _sha(verify.report_json(
                verify.run_suite([space], SUITE_SEED, "fast")).encode("utf-8"))
            for space in verify.default_suite_spaces()}


def cli_hashes(tmp: Path) -> dict[str, dict[str, str]]:
    out = tmp / "out.json"
    hashes = {}
    for workload, make_ops in (("compute-2d", wl.compute_2d_ops),
                               ("compute-nd", wl.compute_nd_ops)):
        for seed in CLI_SEEDS:
            group = hashes[f"{workload}/seed{seed}"] = {}
            for op in make_ops(seed):
                out.unlink(missing_ok=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(op.argv(wl.multistart_seed(seed), str(out)))
                digest = _sha(out.read_bytes()) if out.exists() else "no output"
                group[op.label] = digest if rc == 0 else f"{digest} (exit code {rc})"
    return hashes


def recorded_hashes(bench: dict) -> dict:
    """The hashes of a ``BENCH_*.json`` record in the layout ``main`` prints.

    Each entry there is ``{"sha256": ..., "rc": ...}`` (``rc`` for CLI ops
    only); a nonzero ``rc`` is written as this script writes it.
    """
    def digest(entry: dict) -> str:
        rc = entry.get("rc", 0)
        return entry["sha256"] if rc == 0 else f"{entry['sha256']} (exit code {rc})"

    return {"suite": {key: digest(e) for key, e in bench["suite_report_sha256"].items()},
            "cli": {group: {label: digest(e) for label, e in ops.items()}
                    for group, ops in bench["cli_output_sha256"].items()}}


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="BENCH_N.json", default=None,
                        help="compare with the hashes of this benchmark record")
    args = parser.parse_args(argv)
    want = None
    if args.against is not None:
        want = recorded_hashes(json.loads(Path(args.against).read_text()))
    with tempfile.TemporaryDirectory() as tmp:
        result = {"suite": suite_hashes(), "cli": cli_hashes(Path(tmp))}
    if want is None:
        json.dump(result, sys.stdout, indent=1)
        sys.stdout.write("\n")
        return 0
    diff = differences(result, want)
    for line in diff:
        print(line)
    total = len(result["suite"]) + sum(len(ops) for ops in result["cli"].values())
    print(f"{len(diff)} differing key(s); {total} hashes computed, against {args.against}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
