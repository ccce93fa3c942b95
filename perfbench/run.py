"""Benchmark driver for normconst.

    python3 perfbench/run.py --workload suite-fast --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: normconst is imported from
``src/`` next to this directory and from nowhere else.  A run sets the
program up nine times (fresh import of normconst, the workload's spaces,
one untimed warm-up op) and reports the median as ``setup_s``.  It then
repeats whole rounds of the workload's ops until ``--seconds`` have passed,
timing each op from outside the program, and checks every output against
values computed in ``closed_forms``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl  # sibling modules: this script's directory is on sys.path
from tracing import Tracer, install, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 9


def fresh_import():
    """Import normconst from scratch, as a new process would."""
    for mod in [m for m in sys.modules if m == "normconst" or m.startswith("normconst.")]:
        del sys.modules[mod]
    nc = importlib.import_module("normconst")
    importlib.import_module("normconst.cli")
    if Path(nc.__file__).resolve().parent != SRC / "normconst":
        raise RuntimeError(f"normconst was imported from {nc.__file__}, not from {SRC}")
    return nc


class ComputeWorkload:
    """``normconst compute`` calls issued in-process through ``cli.main``."""

    def __init__(self, make_ops, warm_up_op):
        self.make_ops = make_ops
        self.warm_up_op = warm_up_op

    def prepare(self, nc, seed: int):
        self.ops = self.make_ops(seed)
        self.ms_seed = wl.multistart_seed(seed)
        self.out = OUT / f"compute-{os.getpid()}.json"

    def warm_up(self, nc) -> None:
        nc.cli.main(self.warm_up_op.argv(self.ms_seed, str(self.out)))

    def run_op(self, nc, op):
        self.out.unlink(missing_ok=True)
        started = time.perf_counter()
        rc = nc.cli.main(op.argv(self.ms_seed, str(self.out)))
        elapsed = time.perf_counter() - started
        return elapsed, (rc, wl.read_payload(self.out))

    def check_round(self, nc, outputs) -> list[list[str]]:
        by_label = {op.label: payload for op, (rc, payload) in zip(self.ops, outputs)
                    if rc == 0 and payload is not None}
        return [wl.check_compute(op, rc, payload, by_label)
                for op, (rc, payload) in zip(self.ops, outputs)]

    def check_run(self, nc, first_round) -> list[str]:
        return []


class SuiteWorkload:
    """``run_suite`` with the fast profile and the library's default worker count."""

    def prepare(self, nc, seed: int):
        self.ops = wl.SUITE_OPS
        self.seed = seed
        self.spaces = nc.verify.default_suite_spaces()

    def warm_up(self, nc) -> None:
        nc.verify.run_check("remark_gamma_zero", self.spaces[self.ops[0].space_index],
                            {"p": 2.0}, self.seed, "fast")

    def run_op(self, nc, op):
        space = self.spaces[op.space_index]
        started = time.perf_counter()
        report = nc.verify.run_suite([space], self.seed, "fast")
        return time.perf_counter() - started, report

    def check_round(self, nc, outputs) -> list[list[str]]:
        return [wl.check_suite(op, nc.verify.to_jsonable(report))
                for op, report in zip(self.ops, outputs)]

    def check_run(self, nc, first_round) -> list[str]:
        """A second suite with the same seed must give the same report bytes."""
        op, report = self.ops[-1], first_round[-1]
        again = nc.verify.run_suite([self.spaces[op.space_index]], self.seed, "fast")
        if nc.verify.report_json(again) != nc.verify.report_json(report):
            return [f"{op.label}: a second suite with seed {self.seed} gave other bytes"]
        return []


WORKLOADS = {
    "suite-fast": SuiteWorkload,
    "compute-2d": lambda: ComputeWorkload(wl.compute_2d_ops, wl.WARM_UP_2D),
    "compute-nd": lambda: ComputeWorkload(wl.compute_nd_ops, wl.WARM_UP_ND),
}


def run_rounds(nc, work, deadline: float):
    """Whole rounds, at least one, until ``deadline``.

    Returns one ``(label, wall_s, cpu_s)`` record per op and the outputs by round.
    """
    records, rounds = [], []
    while not rounds or time.perf_counter() < deadline:
        outputs = []
        for op in work.ops:
            cpu = time.process_time()
            elapsed, output = work.run_op(nc, op)
            records.append((op.label, elapsed, time.process_time() - cpu))
            outputs.append(output)
        rounds.append(outputs)
    return records, rounds


def suite_untraced_figures(nc, rounds, wall: float, cpu: float) -> dict:
    checks_ms = sum(c["runtime_ms"] for outputs in rounds for report in outputs
                    for c in nc.verify.to_jsonable(report, include_timing=True)["checks"])
    return {"verify.pool.cpu_per_wall": cpu / wall,
            "verify.check_s.sum": checks_ms / 1000.0 / len(rounds)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "normconst" / "__init__.py").is_file():
        print(f"error: no normconst sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    work = WORKLOADS[args.workload]()
    setups = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        nc = fresh_import()
        work.prepare(nc, args.seed)
        work.warm_up(nc)
        setups.append(time.perf_counter() - started)

    t0 = time.perf_counter()
    c0 = time.process_time()
    if not args.trace:
        records, rounds = run_rounds(nc, work, t0 + args.seconds)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(records) / wall, "1/s"),
            "op_ms.p50": (statistics.median(r[1] for r in records) * 1000.0, "ms"),
            "cpu_ms_per_op": (cpu * 1000.0 / len(records), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        # one untraced round for the overhead ratio and the suite's own timings,
        # then traced rounds
        records, rounds = run_rounds(nc, work, t0)
        untraced_wall = time.perf_counter() - t0
        extra = (suite_untraced_figures(nc, rounds, untraced_wall, time.process_time() - c0)
                 if isinstance(work, SuiteWorkload) else
                 {"verify.pool.cpu_per_wall": 0.0, "verify.check_s.sum": 0.0})
        tracer = Tracer()
        install(tracer, nc)
        try:
            t1 = time.perf_counter()
            _, traced = run_rounds(nc, work, t0 + args.seconds)
            traced_wall = (time.perf_counter() - t1) / len(traced)
        finally:
            tracer.restore()
        rounds += traced
        layers = layer_metrics(tracer, len(traced))
        layers.update(extra)
        layers["trace.overhead"] = traced_wall / untraced_wall
        np.savez(OUT / f"trace-{args.workload}.npz", names=np.array(tracer.names),
                 **tracer.spans())
        metrics = {k: (v, "ratio" if k in ("trace.overhead", "verify.pool.cpu_per_wall")
                       else "s" if k.endswith(("_s", ".s", ".sum")) else "count")
                   for k, v in layers.items()}

    failures = []
    attempted = failed = 0
    correct = True
    for outputs in rounds:
        for op, bad in zip(work.ops, work.check_round(nc, outputs)):
            attempted += 1
            if bad:
                failed += 1
                if not getattr(op, "known_fault", False):
                    correct = False
                    failures += [f"{op.label}: {b}" for b in bad]
    if isinstance(work, ComputeWorkload):
        work.out.unlink(missing_ok=True)
    run_bad = work.check_run(nc, rounds[0])
    if run_bad:
        correct = False
        failures += run_bad
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    line = json.dumps(result)
    detail = dict(result, failures=failures, setups=setups, ops=records)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
