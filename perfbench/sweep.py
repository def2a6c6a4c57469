"""Run the benchmark once per seed and summarise how far the metrics spread.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10 [--trace 0|1] [--out FILE]

It runs every workload in BENCHMARK.json for its ``run_seconds``. For every
workload and metric it reports the median over the seeds, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json. With ``--out`` it also writes every run and the machine it
ran on (cores, Python, numpy and scipy versions) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
                    "platform": platform.platform()},
        "seconds": bench["run_seconds"], "trace": args.trace, "seeds": parse_seeds(args.seeds),
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in record["seeds"]:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(record["seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(lines[-1])
            result.update(seed=seed, elapsed_s=time.perf_counter() - started)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['elapsed_s']:.1f}s", file=sys.stderr)
        stats = {}
        for name in runs[0]["metrics"]:
            stats[name] = summary([r["metrics"][name]["value"] for r in runs])
            stats[name]["bound"] = bounds.get(name)
            s = stats[name]
            print(f"{workload:18} {name:34} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f}  bound {s['bound']}")
        record["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs), "stats": stats, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
