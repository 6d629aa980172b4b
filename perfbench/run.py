"""Benchmark command for lrckit.

    python3 perfbench/run.py --workload codec --seed 1 --seconds 25 --trace 0

Runs one workload (codec, sweep or distance; see README.md) from the root
of a source checkout, checks every output, and prints as its last line one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; it exits with code 1 when any operation failed.  With
``--trace 0`` the metrics are the end-to-end ones: set-up time, the lowest
pass fraction over the workload's cases and checks, and the timing of the
workload's four cases.  With ``--trace 1`` a fixed, seeded list of
operations runs untraced, traced and untraced again, and the metrics are
per-layer calls and seconds plus the tracing overhead.  Every time is
scaled to a reference machine speed (see speed.py); the lines before the
JSON also give the raw medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import stats
from speed import PARALLEL_REF_S, REF_S, Speed, kernel_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUNDS = 8  # the timed loop interleaves the cases in this many rounds
SETUP_MIN_SAMPLES = 5
SETUP_BATCH_S = 1.0  # a batch of set-up samples ends within this time if it can
READY = "setup-ready"


def _import_library():
    src = ROOT / "src"
    if not (src / "lrckit" / "__init__.py").is_file():
        raise SystemExit(f"error: no lrckit sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))


class Ledger:
    """Counts attempted and failed operations, in total and per label; a
    failure is an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_label: dict[str, list[int]] = {}  # label -> [attempted, failed]

    def attempt(self, label: str, fn):
        self.attempted += 1
        counts = self.by_label.setdefault(label, [0, 0])
        counts[0] += 1
        try:
            result, ok = fn()
            if not ok:
                print(f"check failed: {label}", file=sys.stderr)
        except Exception:
            print(f"operation raised: {label}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            counts[1] += 1
            return None
        return result

    def ok_frac(self) -> float:
        """The lowest pass fraction over the labels, so one case that always
        fails shows however few operations it makes."""
        return min((a - f) / a for a, f in self.by_label.values())


def measure(workload, seconds: float, ledger: Ledger, speed,
            between=lambda: None) -> tuple[dict, dict]:
    """Closed loop over the workload's cases, interleaved: the run is cut
    into ROUNDS rounds, and in each one every case runs whole cycles for its
    share of the round: at least one, and a further one while it would end
    less than half a cycle past the share if it took as long as the last.
    So the samples of each case span the whole run, and a slow spell of the
    shared machine weighs on every case alike.  In the last round each case
    runs on until it has its minimum number of samples.  ``between`` is
    called between two rounds.  Returns the samples scaled to the reference
    speed and the raw ones, each as metric -> seconds."""
    timed = []  # (start, end, parallel, durations)
    steps = [0] * len(workload.cases)
    for r in range(ROUNDS):
        if r:
            # calibrations on both sides of the break, for the samples
            # next to it
            speed.refresh()
            between()
            speed.refresh()
        for n, case in enumerate(workload.cases):
            budget = case.share * seconds / ROUNDS
            start = cycle_start = time.perf_counter()
            cycle_s = 0.0
            first = i = steps[n]
            while (i == first or i % case.cycle
                   or (r == ROUNDS - 1 and i < case.min_samples)
                   or time.perf_counter() - start + cycle_s / 2 < budget):
                speed.current(case.parallel)
                t0 = time.perf_counter()
                durations = ledger.attempt(case.label, lambda: case.step(i))
                t1 = time.perf_counter()
                timed.append((t0, t1, case.parallel, durations or {}))
                i += 1
                if i % case.cycle == 0:
                    cycle_s, cycle_start = t1 - cycle_start, t1
            steps[n] = i
            if case.parallel:
                speed.refresh(parallel=True)
    speed.refresh()
    scaled: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for t0, t1, parallel, durations in timed:
        factor = speed.factor(t0, t1, parallel)
        for metric, dt in durations.items():
            scaled.setdefault(metric, []).append(dt * factor)
            raw.setdefault(metric, []).append(dt)
    return scaled, raw


def run_checks(workload, ledger: Ledger) -> None:
    for check in workload.checks():
        ledger.attempt(check.label, lambda: (None, check.run()))


def replay(workload, ledger: Ledger) -> None:
    """Run the fixed operation list of a traced run."""
    for case in workload.cases:
        for i in range(case.trace_samples):
            ledger.attempt(case.label, lambda: case.step(i))


def setup_only(args) -> None:
    """Child side of SetupSampler: build the workload and print the ready
    line with the set-up time, from the start of library import to the end
    of set-up, scaled to the reference speed and raw.

    The calibration kernel runs before set-up, at each of its marks and
    after it, in this same process; its own time is left out.  Each stretch
    of set-up between two calibrations is scaled by the mean of their
    kernel times."""
    scaled, raw = 0.0, 0.0
    k_last = kernel_seconds()
    t_last = time.perf_counter()

    def mark():
        nonlocal scaled, raw, k_last, t_last
        dt = time.perf_counter() - t_last
        k = kernel_seconds()
        raw += dt
        scaled += dt * REF_S / ((k_last + k) / 2)
        k_last, t_last = k, time.perf_counter()

    _import_library()
    import workloads

    mark()
    workloads.setup(args.workload, args.seed, mark)
    mark()
    print(READY, scaled, raw, flush=True)


class SetupSampler:
    """Set-up time samples, each a fresh interpreter process timed from the
    start of library import to the first timed operation.  Interpreter
    start-up is left out: it is the same for any version of the library, and
    process creation is the noisiest part of it.

    Each sample is scaled to the reference speed by the calibration kernel
    run in the same process around each step of set-up (see setup_only):
    the machine's speed changes within a second and from core to core, so
    calibrations taken by this process around the child track it less
    well.

    Samples are taken in batches, before the timed loop and between its
    rounds, so that no single slow spell of the shared machine holds all
    of them.  A batch takes samples while the next one should end within
    SETUP_BATCH_S; it takes one anyway while the run has fewer than
    SETUP_MIN_SAMPLES, and the last batch takes as many as that minimum
    still needs."""

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--setup-only"]
        self.samples: list[tuple[float, float]] = []  # (scaled, raw) seconds
        self.length = 0.0  # wall time of the last sample, process start-up included

    def batch(self, last: bool = False) -> None:
        short = max(0, SETUP_MIN_SAMPLES - len(self.samples))
        least = short if last else min(1, short)
        start = time.perf_counter()
        taken = 0
        while taken < least or time.perf_counter() - start + self.length <= SETUP_BATCH_S:
            self.sample()
            taken += 1

    def sample(self) -> None:
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().split()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or len(line) != 3 or line[0] != READY:
            raise RuntimeError(f"set-up process failed with exit code {code}")
        self.samples.append((float(line[1]), float(line[2])))
        self.length = time.perf_counter() - t0

    def seconds(self) -> tuple[list[float], list[float]]:
        """The samples scaled to the reference speed, and raw."""
        return [s for s, _ in self.samples], [r for _, r in self.samples]


def end_to_end(args) -> dict:
    import workloads

    speed = Speed()
    sampler = SetupSampler(args.workload, args.seed)
    sampler.batch()
    workload = workloads.setup(args.workload, args.seed)
    workload.warm_pool()
    ledger = Ledger()
    samples, raw = measure(workload, args.seconds, ledger, speed, between=sampler.batch)
    run_checks(workload, ledger)
    sampler.batch(last=True)
    setups, setups_raw = sampler.seconds()

    # name -> (value, unit, raw value, sample count)
    found = {
        "setup_s": (statistics.median(setups), "s", statistics.median(setups_raw),
                    len(setups)),
    }
    # the 90th percentile is printed but is no metric: its spread from run
    # to run on the shared baseline machine (21-27%) exceeds any bound
    tail = {}
    for metric in workloads.CASE_METRICS:
        if not samples.get(metric):
            continue
        values = [1000 * s for s in samples[metric]]
        raws = [1000 * s for s in raw[metric]]
        found[f"{metric}_ms_p50"] = (statistics.median(values), "ms", statistics.median(raws),
                                     len(values))
        try:
            tail[f"{metric}_ms_p90"] = (stats.percentile(values, 90), "ms",
                                        stats.percentile(raws, 90), len(values))
        except stats.TooFewSamples:
            pass
    found["ok_frac"] = (ledger.ok_frac(), "ratio", None, ledger.attempted)
    print(f"calibration kernel: median {1000 * speed.median_kernel():.4g} ms over "
          f"{len(speed.history)} calibrations; reference {1000 * REF_S:g} ms")
    if speed.parallel:
        print(f"parallel calibration: median "
              f"{1000 * statistics.median(k for _, k in speed.parallel):.4g} ms over "
              f"{len(speed.parallel)} calibrations; reference {1000 * PARALLEL_REF_S:g} ms")
    for name, (value, unit, raw_value, n) in {**found, **tail}.items():
        unscaled = "" if raw_value is None else f"  raw {raw_value:.6g} {unit}"
        print(f"{name:>14} = {value:.6g} {unit}{unscaled}  (n={n})")
    metrics = {name: {"value": v, "unit": u} for name, (v, u, _, _) in found.items()}
    return {"ledger": ledger, "metrics": metrics}


def traced(args) -> dict:
    import tracer
    import workloads

    speed = Speed()
    trace = tracer.Tracer()
    ledger = Ledger()
    with trace.installed():
        workload = workloads.setup(args.workload, args.seed)

    def scaled_pass():
        speed.refresh()
        t0 = time.perf_counter()
        replay(workload, ledger)
        t1 = time.perf_counter()
        speed.refresh()
        return (t1 - t0) * speed.factor(t0, t1)

    # untraced passes on both sides of the traced one, so drift between
    # passes does not read as tracing overhead
    untraced_s = scaled_pass()
    with trace.installed():
        traced_s = scaled_pass()
    untraced_s = (untraced_s + scaled_pass()) / 2
    factor = REF_S / speed.median_kernel()

    metrics = {}
    for name, value in trace.summary().items():
        if name.endswith(".calls") or name == "gsd.patterns_checked":
            metrics[name] = {"value": value, "unit": "count"}
        elif name.endswith("_frac"):
            metrics[name] = {"value": value, "unit": "ratio"}
        else:
            metrics[name] = {"value": value * factor, "unit": "s"}
    metrics["trace.untraced_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.traced_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    return {"ledger": ledger, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("codec", "sweep", "distance"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print a ready line and exit "
                         "(used to time set-up in a fresh process)")
    args = ap.parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    _import_library()
    result = traced(args) if args.trace else end_to_end(args)
    ledger = result["ledger"]
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result["metrics"],
    }))
    return 1 if ledger.failed else 0


if __name__ == "__main__":
    sys.exit(main())
