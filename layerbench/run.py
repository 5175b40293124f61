#!/usr/bin/env python3
"""Layer benchmark for the ElastiSim simulator.

Builds the elsim_layerbench harness from this checkout's sources and runs one
workload for a host-time budget. A run simulates a bundle of independent
parts (job mixes drawn from --seed), one fresh process per simulation, in
repeated passes; each time is the per-part minimum over passes, summed over
the bundle. Every simulated output is checked against the blessed digests in
expected.json. The last line on stdout is the JSON result.

    python3 layerbench/run.py --workload wide-steady --seed 42 --seconds 35 --trace 0

--trace 0 reports the end-to-end metrics from untraced runs. --trace 1 runs
each part traced and untraced and reports the per-layer metrics. See
layerbench/README.md for the workloads, metrics and predictions.

    python3 layerbench/run.py --bless 0-20,42,90001

re-records expected.json (digests and exact counters) for the listed seeds.
"""

import argparse
import concurrent.futures
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "layerbench"
BINARY = BUILD_DIR / "elsim_layerbench"
EXPECTED = BENCH_DIR / "expected.json"

# Workload -> parts per run. Sized so one pass over the parts takes about
# nine seconds on the seed code: three or four passes per 35 s run.
WORKLOADS = {
    "wide-steady": 2,
    "backlog-fairshare": 8,
    "overload-io-faults": 3,
}
HELD_OUT_SEED = 90001

# Deterministic work counters: identical in every run of one part, traced or
# untraced.
COUNTERS = (
    "engine.events", "queue.pushes", "queue.pops", "queue.event_peak",
    "fluid.solves", "fluid.activities_touched", "batch.jobs_scanned",
    "sched.invocations", "sched.rounds", "batch.requeues",
)
# Counted only by the traced run's scheduler decorator.
TRACED_COUNTERS = ("sched.user_usage_calls",)

# Per-layer host times from the traced runs, in seconds.
LAYER_TIMES = (
    "setup.generate_s", "setup.faults_s", "setup.submit_s", "engine.self_s",
    "fluid.solve_s", "batch.self_s", "batch.views_s", "batch.start_job_s",
    "batch.set_target_s", "sched.self_s", "sched.policy_s", "sched.user_usage_s",
    "fault.self_s", "sinks_s", "unattributed_s",
)
# Layer -> the self times that make it up, for the coverage report.
LAYERS = (
    ("workload", ("setup.generate_s", "setup.faults_s", "setup.submit_s")),
    ("sim", ("engine.self_s", "fluid.solve_s")),
    ("core.batch_system", ("batch.self_s",)),
    ("core.schedulers", ("sched.self_s",)),
    ("core.fault_injector", ("fault.self_s",)),
    ("stats", ("sinks_s",)),
    ("unattributed", ("unattributed_s",)),
)

# The coverage check: layer self times must explain the traced wall time.
MAX_UNATTRIBUTED_SHARE = 0.10
RUN_DEADLINE_S = 165.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False when it cannot."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("layerbench: simulator sources (src/) not found next to layerbench/")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "elsim_layerbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"layerbench: {' '.join(step)} failed: {error}")
            return False
        if done.returncode != 0:
            log(f"layerbench: {' '.join(step)} exited {done.returncode}")
            return False
    return BINARY.is_file()


def simulate(workload, seed, part, traced, timeout):
    """Runs one simulation in a fresh process; returns its record or None."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--part", str(part)]
    if traced:
        command.append("--traced")
    label = f"{workload} seed {seed} part {part}"
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(timeout, 1.0), check=False)
    except subprocess.TimeoutExpired:
        log(f"layerbench: {label} timed out after {timeout:.0f} s")
        return None
    if done.returncode != 0:
        log(f"layerbench: {label} exited {done.returncode}")
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"layerbench: {label} printed no result")
        return None


def load_expected():
    try:
        with open(EXPECTED, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return {"runs": {}}


def counters_of(record):
    names = COUNTERS + (TRACED_COUNTERS if record["mode"] == "traced" else ())
    return {name: record[name] for name in names}


class Checker:
    """Output check for one part: its blessed digest when it has one, else
    agreement between its runs; exact counters agree between all its runs,
    traced or not; traced runs must explain their wall time."""

    def __init__(self, label, blessed=None):
        self.label = label
        self.digest = blessed["digest"] if blessed else None
        self.blessed_counters = blessed["counters"] if blessed else None
        self.counters = {}

    def check(self, record):
        """Returns True when the run passes."""
        problems = []
        if record is None:
            problems.append("run failed")
        else:
            if record["stuck"] or record["cancelled"]:
                problems.append(f"{record['stuck']} stuck jobs, "
                                f"cancelled={record['cancelled']}")
            if record["finished"] + record["killed"] != record["submitted"]:
                problems.append("finished + killed != submitted")
            if self.digest is None:
                self.digest = record["digest"]
            if record["digest"] != self.digest:
                problems.append(f"digest {record['digest']} != expected {self.digest}")
            for name, value in counters_of(record).items():
                if self.counters.setdefault(name, value) != value:
                    problems.append(f"counter {name} = {value}, another run gave "
                                    f"{self.counters[name]}")
            if record["mode"] == "traced":
                problems += coverage_problems(record)
        for problem in problems:
            log(f"layerbench: FAILED CHECK ({self.label}): {problem}")
        return not problems

    def report_counter_deltas(self):
        """Exact counter moves against the blessed run, for count claims."""
        for name, value in sorted(self.counters.items()):
            blessed = (self.blessed_counters or {}).get(name)
            if blessed is not None and blessed != value:
                log(f"layerbench: {self.label}: counter {name} = {value} "
                    f"(blessed {blessed}, {value - blessed:+d})")


def coverage_problems(record):
    wall = record["traced_wall_s"]
    problems = []
    if record["unattributed_s"] > MAX_UNATTRIBUTED_SHARE * wall:
        problems.append(f"layer coverage: {record['unattributed_s']:.4f} s of {wall:.4f} s "
                        "traced wall is not attributed to any layer")
    for name in ("engine.self_s", "batch.self_s", "sched.self_s"):
        if record[name] < -0.01 * wall:
            problems.append(f"layer coverage: {name} = {record[name]:.4f} s is negative; "
                            "layer timers overlap")
    return problems


def bundle_sum(runs, name):
    """Sum over parts of each part's fastest run. The host's speed drifts by
    up to a third for seconds at a time; the minimum over passes keeps a slow
    stretch from moving a run's figure when another pass ran at full speed."""
    return sum(min(r[name] for r in part) for part in runs)


def bundle_count(runs, name):
    """Sum over parts of an exact counter (identical in every run of a part)."""
    return sum(part[0][name] for part in runs)


def measure(workload, seed, seconds, traced):
    parts = WORKLOADS[workload]
    blessed = load_expected()["runs"].get(workload, {})
    checkers = [Checker(f"{workload} seed {seed} part {p}", blessed.get(f"{seed}/{p}"))
                for p in range(parts)]
    if f"{seed}/0" not in blessed:
        log(f"layerbench: no blessed digests for {workload} seed {seed}; "
            "checking run-to-run agreement only")
    modes = (True, False) if traced else (False,)
    runs = {mode: [[] for _ in range(parts)] for mode in modes}
    attempted = failed = passes = 0
    pass_s = 0.0
    begin = time.monotonic()
    while True:
        elapsed = time.monotonic() - begin
        if passes >= (1 if traced else 2) and elapsed + pass_s > seconds:
            break
        if passes > 0 and elapsed + pass_s > RUN_DEADLINE_S:
            break
        pass_begin = time.monotonic()
        for part in range(parts):
            for mode in modes:
                remaining = RUN_DEADLINE_S - (time.monotonic() - begin)
                record = simulate(workload, seed, part, mode, timeout=remaining)
                attempted += 1
                if not checkers[part].check(record):
                    failed += 1
                if record is None:
                    return None, attempted, failed
                runs[mode][part].append(record)
        passes += 1
        pass_s = time.monotonic() - pass_begin
    for checker in checkers:
        checker.report_counter_deltas()
    log(f"layerbench: {workload} seed {seed}: {passes} passes over {parts} parts, "
        f"{attempted} simulations in {time.monotonic() - begin:.1f} s")
    return runs, attempted, failed


def end_to_end_metrics(untraced):
    wall = bundle_sum(untraced, "wall_s")
    jobs = bundle_count(untraced, "finished") + bundle_count(untraced, "killed")
    rss = statistics.median(min(r["peak_rss_mb"] for r in part) for part in untraced)
    return {
        "jobs_per_s": {"value": jobs / wall, "unit": "1/s"},
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": bundle_sum(untraced, "setup_s"), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
    }


def per_layer_metrics(traced, untraced):
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def ratio(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    times = {name: bundle_sum(traced, name) for name in LAYER_TIMES}
    counts = {name: bundle_count(traced, name) for name in COUNTERS + TRACED_COUNTERS}
    for name in LAYER_TIMES:
        put(name, times[name], "s")
    for name, value in counts.items():
        put(name, value, "count")
    put("batch.job_queue_peak", max(part[0]["batch.job_queue_peak"] for part in traced),
        "count")
    put("queue.pushes_per_pop", ratio(counts["queue.pushes"], counts["queue.pops"]), "ratio")
    put("fluid.touched_per_solve",
        ratio(counts["fluid.activities_touched"], counts["fluid.solves"]), "count")
    put("fluid.ns_per_activity_touched",
        ratio(times["fluid.solve_s"], counts["fluid.activities_touched"], 1e9), "ns")
    put("engine.ns_per_event", ratio(times["engine.self_s"], counts["engine.events"], 1e9),
        "ns")
    put("batch.scanned_per_invocation",
        ratio(counts["batch.jobs_scanned"], counts["sched.invocations"]), "count")
    for name in ("sched.call_p50_us", "sched.call_p99_us"):
        put(name, statistics.median(statistics.median(r[name] for r in part)
                                    for part in traced), "us")
    wall = bundle_sum(traced, "traced_wall_s")
    put("trace.wall_s", wall, "s")
    put("trace.overhead_s", bundle_sum(traced, "loop_s") - bundle_sum(untraced, "wall_s"), "s")
    return metrics


def print_coverage(metrics):
    """The layer coverage report: self time and share of traced wall."""
    wall = metrics["trace.wall_s"]["value"]
    log(f"layer coverage (traced wall {wall:.4f} s, summed over the bundle):")
    for layer, names in LAYERS:
        seconds = sum(metrics[n]["value"] for n in names)
        log(f"  {layer:22s} {seconds:10.4f} s  {100.0 * seconds / wall:6.2f} %")


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def bless(spec):
    if not build():
        return 1
    expected = load_expected()
    expected["held_out_seed"] = HELD_OUT_SEED
    runs = expected.setdefault("runs", {})
    tasks = [(w, s, p) for w, parts in WORKLOADS.items() for s in parse_seeds(spec)
             for p in range(parts)]

    def one(task):
        workload, seed, part = task
        return task, [simulate(workload, seed, part, mode, timeout=600.0)
                      for mode in (False, True)]

    status = 0
    # Blessing records outputs, not times, so simulations may share the cores.
    workers = min(3, os.cpu_count() or 1)
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        for (workload, seed, part), records in pool.map(one, tasks):
            checker = Checker(f"{workload} seed {seed} part {part}")
            if not all(checker.check(record) for record in records):
                log(f"bless: {workload} seed {seed} part {part} failed; not recorded")
                status = 1
                continue
            traced = records[1]
            counters = counters_of(traced)
            counters["failures_injected"] = traced["failures_injected"]
            runs.setdefault(workload, {})[f"{seed}/{part}"] = {
                "digest": traced["digest"], "counters": counters}
    for workload in runs:
        runs[workload] = dict(sorted(
            runs[workload].items(), key=lambda kv: tuple(map(int, kv[0].split("/")))))
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", metavar="SEEDS",
                        help="re-record expected.json for these seeds, e.g. 0-20,42")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.bless:
        return bless(args.bless)
    if args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1

    traced = args.trace == 1
    runs, attempted, failed = measure(args.workload, args.seed, args.seconds, traced)
    if runs is None:
        log("layerbench: a simulation failed to complete; no result")
        return 1
    if traced:
        metrics = per_layer_metrics(runs[True], runs[False])
        print_coverage(metrics)
    else:
        metrics = end_to_end_metrics(runs[False])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
