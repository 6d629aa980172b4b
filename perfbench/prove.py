"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (inter-quartile range over median), the statistic the
metric bounds in BENCHMARK.json are judged by.

    python3 perfbench/prove.py --runs 10 [--workload codec] [--out FILE]

Runs are made one after another from the repository root, seeds 1..runs
(offset by ``--first-seed``).  With ``--out`` the medians are written as a
JSON baseline together with the Python version, the CPU count and, when
the checkout is a git repository, its revision.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", choices=names, action="append")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline = {}
    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - t0)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit code {out.returncode}\n{out.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.runs} runs, {statistics.median(walls):.1f} s each (median)")
        baseline[workload] = {}
        for name, vals in values.items():
            s = spread(vals) if len(vals) > 1 else 0.0
            flag = "" if s <= bounds[name] / 3 else "  (above a third of its bound)"
            if s > bounds[name]:
                flag, ok = "  (ABOVE its bound)", False
            med = statistics.median(vals)
            print(f"  {name:>14}  median {med:12.6g}  spread {s:7.4f}  bound "
                  f"{bounds[name]}{flag}")
            baseline[workload][name] = {"median": med, "spread": s, "runs": len(vals)}

    if args.out:
        args.out.write_text(json.dumps({
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_revision": git_revision(),
            "run_seconds": args.seconds,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "workloads": baseline,
        }, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
