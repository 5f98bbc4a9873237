"""Run one workload of the GBSC pipeline benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 18 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same op list
twice, untraced and then traced, and reports the per-layer metrics and
the tracing overhead, and writes the spans to ``.perfbench_out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_tmp"
OUTDIR = ROOT / ".perfbench_out"

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: What a fresh interpreter runs to load the benchmark and the program.
STARTUP = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"

# One compute thread: steadier timings on a small shared host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("table1-cold", "figure5-sweep", "serve-mixed"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def startup_s() -> float:
    """Wall time of a fresh interpreter importing the benchmark and the program."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP, str(HERE), str(SRC)], check=True)
    return time.perf_counter() - started


def run_ops(bench, ops, tracer=None) -> dict:
    """Run *ops* in order; time the non-warm-up ones; check every output."""
    durations: list[tuple[object, float]] = []
    failed = 0
    problems: list[str] = []
    for op in ops:
        if tracer is not None:
            tracer.begin_op("op")
        started = time.perf_counter()
        try:
            output = bench.run(op)
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.end_op()
        if not op.warmup:
            durations.append((op, elapsed))
        problems += [f"{op.kind}: {problem}" for problem in bench.check(op, output)]
        # Start every op from a collected heap, so that neither its time
        # nor the peak RSS depends on when the collector last ran.
        del output
        gc.collect()
    busy = sum(d for _, d in durations)
    return {
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "durations": durations,
        "busy_s": busy,
    }


def p50_ms(result: dict, keep=lambda op: True) -> float:
    """Median duration of the timed ops that *keep* selects, in ms."""
    times = [d for op, d in result["durations"] if keep(op)]
    return 1000.0 * statistics.median(times) if times else 0.0


def end_to_end(bench, setup_s: float, result: dict) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(result["durations"]) / (result["busy_s"] or float("inf")), "1/s"),
        "op_p50_ms": (p50_ms(result), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
        ),
        "layout_miss_pct": (bench.miss_pct(), "%"),
    }


def per_layer(bench, untraced: dict, traced: dict, spans_) -> dict:
    import spans

    metrics = spans.layer_metrics(spans_)
    overhead = 100.0 * (traced["busy_s"] / untraced["busy_s"] - 1.0)
    metrics["tracing.overhead_pct"] = (overhead, "%")
    ops_s, unattributed_s = metrics["ops.s"][0], metrics["ops.unattributed_s"][0]
    metrics["ops.unattributed_pct"] = (100.0 * unattributed_s / ops_s, "%")
    service_s = metrics["serve.upload_trace.s"][0] + metrics["serve.place.s"][0]
    http_ms = 0.0
    if service_s:
        requests = sum(1 for s in spans_ if s.name == "op")
        http_ms = 1000.0 * (ops_s - service_s) / requests
    metrics["serve.http_overhead_ms"] = (http_ms, "ms")
    endpoint = getattr(bench, "endpoint", None)
    for metric, path in (("layout", "layouts"), ("upload", "traces")):
        value = 0.0
        if endpoint is not None:
            value = p50_ms(untraced, lambda op: endpoint(op) == path)
        metrics[f"serve.{metric}_p50_ms"] = (value, "ms")
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import selftest
    import workloads

    problems = [f"self-test: {p}" for p in selftest.run()]
    workdir = WORKDIR / str(os.getpid())
    bench = workloads.make(args.workload, args.seed, args.seconds, workdir)
    try:
        if args.trace == 0:
            setups = []
            for _ in range(SETUP_REPEATS):
                bench.close()
                started = time.perf_counter()
                bench.setup()
                setups.append(time.perf_counter() - started + startup_s())
            result = run_ops(bench, bench.plan())
            metrics = end_to_end(bench, statistics.median(setups), result)
            results = [result]
        else:
            import spans

            bench.setup()
            untraced = run_ops(bench, bench.plan())
            bench.close()
            tracer = spans.Tracer()
            tracer.install()
            try:
                tracer.begin_op("setup")
                bench.setup()
                tracer.end_op()
                traced = run_ops(bench, bench.plan(), tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(bench, untraced, traced, tracer.spans)
            results = [untraced, traced]
            OUTDIR.mkdir(exist_ok=True)
            spans.write_jsonl(
                tracer.spans, OUTDIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            )
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems += [p for r in results for p in r["problems"]]
    timed = " ".join(f"{op.kind}:{d:.3f}" for op, d in results[0]["durations"])
    print(f"perfbench: timed op seconds: {timed}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: "
        f"attempted {attempted} ops, failed {failed}, "
        f"{len(problems)} check problems",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
