"""semigroupinv benchmark: seeded closed-loop workloads over the CLI and library.

Run from the repository root:

    python3 perfbench/run.py --workload conditioning-ou400 --seed 1 --seconds 10 --trace 0

One client runs the workload's fixed cycle of ops in a closed loop (the next
op starts when the previous one returns) for about ``--seconds`` seconds,
always finishing whole cycles.  CLI ops call ``semigroupinv.cli.main(argv)``
in this process and catch its ``SystemExit``; library ops call the public
API.  Every op is checked (see ``checker.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A full result, with an environment stamp (and
with ``--trace 1`` every span), is written to ``perfbench/results/``.

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checker import Checker, Outcome
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0
# Stop starting cycles past this, whatever --seconds says, so a run ends in time.
LOOP_LIMIT_S = 120.0


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment_stamp(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sources = sorted((SRC / "semigroupinv").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": digest,
        "platform": platform.platform(),
    }


class Runner:
    """Executes ops, times them and hands outcomes to the checker."""

    def __init__(self, cli, checker, work_dir: Path):
        self.cli = cli
        self.checker = checker
        self.out_dir = work_dir / "op"
        self.tracer = None
        self.op_count = 0
        self.artifact_bytes = 0

    def run(self, op) -> float:
        """Run one op, hand its outcome to the checker, return its latency."""
        outcome, latency = self.execute(op)
        self.checker.record(op.key, outcome, op.expect_code, op.verify)
        return latency

    def execute(self, op):
        """Run one op; return its outcome and its latency in seconds."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(self.op_count)
        self.op_count += 1
        note = ""
        if op.argv is not None:
            stderr = io.StringIO()
            argv = op.argv + ["--output", str(self.out_dir)]
            start = time.perf_counter()
            try:
                with contextlib.redirect_stderr(stderr):
                    self.cli.main(argv)
                code = None
            except SystemExit as exc:
                code = exc.code
            except Exception:  # the CLI must map every failure to an exit code
                code, note = None, traceback.format_exc(limit=3)
            latency = time.perf_counter() - start
            note = note or stderr.getvalue().strip()
            files = {}
            if self.out_dir.is_dir():
                files = {p.name: p.read_bytes() for p in self.out_dir.iterdir()}
        else:
            start = time.perf_counter()
            try:
                result = op.call()
                code = 0
            except Exception:  # a library op that raises counts as failed
                result, code, note = None, None, traceback.format_exc(limit=3)
            latency = time.perf_counter() - start
            files = {} if result is None else {"result": result.tobytes()}
        if tracer is not None:
            tracer.end_op()
            if op.argv is not None:
                self.artifact_bytes += sum(map(len, files.values()))
        return Outcome(code, files, note), latency

    def loop(self, workload, budget_s: float, min_cycles: int) -> list[float]:
        """Run whole cycles until the budget is spent (at least min_cycles)."""
        latencies: list[float] = []
        start = time.perf_counter()
        cycles = 0
        while True:
            latencies += [self.run(op) for op in workload.cycle]
            cycles += 1
            elapsed = time.perf_counter() - start
            if cycles >= min_cycles and (elapsed + 0.5 * elapsed / cycles > budget_s or elapsed > LOOP_LIMIT_S):
                break
        return latencies


def measure_setup(workload, work_dir: Path, checker) -> float:
    """Median wall time of fresh processes that reach the first op's end."""
    times = []
    for i in range(SETUP_REPEATS):
        out = work_dir / f"setup-{i}"
        cmd = [sys.executable, "-c", workload.setup_child, str(SRC), *workload.setup_argv, "--output", str(out)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=SETUP_TIMEOUT_S)
            code, note = proc.returncode, proc.stderr.decode(errors="replace")[-500:]
        except subprocess.TimeoutExpired:
            code, note = None, "setup process timed out"
        times.append(time.perf_counter() - start)
        if code == 0:
            checker.attempted += 1
        else:
            checker.fail_unchecked(f"setup-{i}", f"exit code {code}: {note}")
    return statistics.median(times)


def end_to_end(workload, latencies, setup_s, peak_rss_mb, checker) -> tuple[dict, dict]:
    q_tail = workload.tail_quantile
    tail = _quantile(latencies, q_tail)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * _quantile(latencies, 0.5), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "accuracy_digits": (-checker.accuracy_log10, "digits"),
    }
    extra = {
        "samples": len(latencies),
        "tail_percentile": round(100.0 * q_tail, 2),
        "samples_beyond_tail": sum(1 for v in latencies if v > tail),
        "error_rate": checker.failed / max(checker.attempted, 1),
        "accuracy_log10": checker.accuracy_log10,
        "worst_error_check": checker.worst_what,
        "discretisation_errors": checker.discretisation,
        "latency_max_ms": 1e3 * max(latencies),
    }
    return metrics, extra


def per_layer(tracer, untraced, traced, checker) -> tuple[dict, dict]:
    selfs, root_ns = tracer.self_times_ns()
    counts = tracer.counts
    n_ops = len(traced)
    op_ns = 1e9 * sum(traced)

    def ms(*kinds):
        return 1e-6 * sum(selfs.get(k, 0) for k in kinds) / n_ops

    def layer_ns(layer):
        return sum(v for k, v in selfs.items() if k.split(".")[0] == layer)

    def per_op(name):
        return counts.get(name, 0) / n_ops

    csv_s = 1e-9 * selfs.get("regularisation.trajectory_csv", 0)
    metrics = {
        "cli.self_ms": (ms("cli"), "ms"),
        "cli.artifact_bytes": (per_op("cli.artifact_bytes"), "count"),
        "models.build_ms": (ms("models.build"), "ms"),
        "spectral.msym_check_ms": (ms("spectral.msym_check"), "ms"),
        "spectral.decompose_ms": (ms("spectral.decompose"), "ms"),
        "spectral.apply_ms": (ms("spectral.apply"), "ms"),
        "spectral.apply_calls": (per_op("spectral.apply_calls"), "count"),
        "spectral.apply_gb": (per_op("spectral.apply_bytes") / 1e9, "GB"),
        "spectral.vector_csv_ms": (ms("spectral.vector_csv"), "ms"),
        "bessel.quadrature_ms": (ms("bessel.quadrature"), "ms"),
        "bessel.weight_ms": (ms("bessel.weight"), "ms"),
        "bessel.field_ms": (ms("bessel.field"), "ms"),
        "bessel.quadrature_calls": (per_op("bessel.quadrature_calls"), "count"),
        "bessel.nodes_final": (per_op("bessel.nodes_final"), "count"),
        "bessel.nodes_evaluated": (per_op("bessel.nodes_evaluated"), "count"),
        "bessel.useful_node_frac": (
            counts["bessel.nodes_final"] / counts["bessel.nodes_evaluated"] if counts["bessel.nodes_evaluated"] else 0.0,
            "fraction",
        ),
        "bessel.field_cells": (per_op("bessel.field_cells"), "count"),
        "inversion.conditioning_ms": (ms("inversion.conditioning"), "ms"),
        "inversion.invert_ms": (ms("inversion.invert"), "ms"),
        "inversion.backward_ms": (ms("inversion.backward"), "ms"),
        "regularisation.solve_ms": (ms("regularisation.solve"), "ms"),
        "regularisation.pide_ms": (ms("regularisation.pide"), "ms"),
        "regularisation.trajectory_csv_ms": (ms("regularisation.trajectory_csv"), "ms"),
        "regularisation.trajectory_cells": (per_op("regularisation.trajectory_cells"), "count"),
        "regularisation.csv_mb_per_s": (
            counts["regularisation.trajectory_bytes"] / 1e6 / csv_s if csv_s else 0.0,
            "MB/s",
        ),
        "trace.op_ms": (1e3 * sum(traced) / n_ops, "ms"),
        "trace.overhead_frac": (sum(untraced) / sum(traced), "fraction"),
        "trace.self_coverage": (root_ns / op_ns, "fraction"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (layer_ns(layer) / op_ns, "fraction")
    for layer in ("spectral", "bessel", "inversion", "regularisation"):
        metrics[f"{layer}.self_ms"] = (1e-6 * layer_ns(layer) / n_ops, "ms")
    shares = {layer: metrics[f"{layer}.share"][0] for layer in LAYERS}
    gap = 1.0 - metrics["trace.self_coverage"][0]
    extra = {
        "traced_ops": n_ops,
        "error_rate": checker.failed / max(checker.attempted, 1),
        "layer_share_of_op": shares,
        "self_time_gap": gap,
        "self_times_sum_within_overhead": gap <= max(0.0, 1.0 - metrics["trace.overhead_frac"][0]) + 0.01,
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semigroupinv" / "cli.py").is_file():
        print(f"error: semigroupinv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import semigroupinv as sg
    from semigroupinv import cli

    if not Path(sg.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported semigroupinv from {sg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    work_dir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = environment_stamp(np)
    checker = Checker(stash_dir=work_dir / "stash")
    try:
        work_dir.mkdir(parents=True)
        workload = generate(args.workload, args.seed, sg, cli, work_dir)
        runner = Runner(cli, checker, work_dir)
        runner.run(workload.cycle[0])  # warm-up: checked, not timed
        if args.trace == 0:
            setup_s = measure_setup(workload, work_dir, checker)
            latencies = runner.loop(workload, args.seconds, workload.min_cycles)
            # Read before the oracles run, so the peak is the program's own.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            checker.verify_pending()
            metrics, extra = end_to_end(workload, latencies, setup_s, peak_rss_mb, checker)
        else:
            untraced = runner.loop(workload, 0.5 * args.seconds, 1)
            cycles = len(untraced) // len(workload.cycle)
            tracer = Tracer()
            tracer.install(sg)
            try:
                runner.tracer = tracer
                traced = runner.loop(workload, 0.0, cycles)
            finally:
                tracer.uninstall()
            tracer.counts["cli.artifact_bytes"] = runner.artifact_bytes
            checker.verify_pending()
            metrics, extra = per_layer(tracer, untraced, traced, checker)
            tracer.write(results_dir / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # only succeeds when no other run uses it

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": stamp,
              "details": extra, "failures": checker.messages, **result}
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / out_name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for key, value in stamp.items():
        print(f"#   {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    report_only = {"error_rate": "fraction", "accuracy_log10": "log10"}
    for name, unit in report_only.items():
        if name in extra:
            print(f"{name:34s} {extra[name]:14.6g} {unit}  (report only)")
    for key, value in extra.items():
        if key not in report_only:
            print(f"# {key}: {value}")
    print(f"# attempted={checker.attempted} failed={checker.failed}")
    for message in checker.messages:
        print(f"# FAILED {message}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
