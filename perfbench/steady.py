"""Steadiness check: do two sets of runs of this checkout agree?

Usage, from the root of a checkout::

    python3 perfbench/steady.py                        # every workload, 10 runs a set
    python3 perfbench/steady.py --workload serve-mixed --runs 5

For each workload it makes two sets of ``--runs`` untraced runs with
``perfbench/run.py``, one seed per run (set A seeds ``1..runs``, set B
``runs+1..2*runs``), alternating which set runs first in each pair.
It prints, per end-to-end metric of ``BENCHMARK.json``, each set's
median and quartiles, its spread (quartile distance over median) and
whether the sets agree: each spread but ``setup_s``'s within the
metric's bound, set B's median not worse than set A's by more than the
bound, and the same share of failed ops in both sets.  The runs are
kept in ``.perfbench_out/steady-<workload>.json``.  Exits 1 when a
workload disagrees or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTDIR = ROOT / ".perfbench_out"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run's result line, plus its wall time."""
    started = time.perf_counter()
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    result["seed"] = seed
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median}


def compare(metrics: list[dict], sets: dict[str, list[dict]]) -> tuple[bool, list[str]]:
    """Whether the two sets agree, and one report line per metric."""
    ok = True
    lines = []
    shares = {
        name: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        for name, runs in sets.items()
    }
    if len(set(shares.values())) != 1 or any(not r["correct"] for v in sets.values() for r in v):
        ok = False
        lines.append(f"  failed-op shares {shares} or incorrect outputs: DISAGREE")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        a, b = (summary([r["metrics"][name]["value"] for r in sets[s]]) for s in "AB")
        change = (b["median"] - a["median"]) / a["median"]
        worse = change if metric["better"] == "lower" else -change
        spread_ok = name == "setup_s" or max(a["spread"], b["spread"]) <= bound
        agree = spread_ok and worse <= bound
        ok &= agree
        lines.append(
            f"  {name:<16} A {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] "
            f"spread {a['spread']:.3f} | B {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] "
            f"spread {b['spread']:.3f} | B-A {change:+.3f} bound {bound} "
            f"{'agree' if agree else 'DISAGREE'}"
        )
    return ok, lines


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=[w["name"] for w in spec["workloads"]],
        help="workload to check (repeatable; default every workload)",
    )
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    OUTDIR.mkdir(exist_ok=True)
    all_ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(args.runs):
            order = "AB" if i % 2 == 0 else "BA"
            for name in order:
                seed = 1 + i + (args.runs if name == "B" else 0)
                result = run_once(workload, seed, args.seconds)
                sets[name].append(result)
                print(
                    f"{workload} set {name} seed {seed}: wall {result['wall_s']:.1f} s, "
                    f"attempted {result['attempted']}, failed {result['failed']}",
                    file=sys.stderr,
                    flush=True,
                )
        (OUTDIR / f"steady-{workload}.json").write_text(json.dumps(sets, indent=1))
        ok, lines = compare(spec["end_to_end"], sets)
        all_ok &= ok
        print(f"{workload}: {'agree' if ok else 'DISAGREE'}")
        print("\n".join(lines), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
