#!/usr/bin/env python3
"""The simulator's benchmark: one command, two workloads, two views.

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 40 --trace 0

Run from the repository root. The first run configures and builds
harvest_sim and the traced probe (perfbench/probe.cc) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
rebuild incrementally.

--trace 0 times whole harvest_sim runs with tracing off and reports the
end-to-end metrics: wall_s, cpu_s and peak_rss_mib (medians over the
repetitions that fill --seconds, read from the child's rusage) and setup_s
(wall time of building the workload's fleets through the fleet-build stage;
the median of the builds timed between the repetitions).

Everything the run times runs on one CPU beside the pace sampler
(perfbench/pace.cc), and wall_s, cpu_s and setup_s are given at the CPU's
full pace: each timing is scaled by the mean, over the samples taken while
it ran, of the run's fastest sample over that sample. On a shared host the
CPU's speed drifts by up to ~1.6x with the other tenants' load; the raw
medians are printed beside the result.

--trace 1 makes the same untraced runs, then one traced probe run that calls
each layer's entry points with spans around them, and reports the per-layer
metrics. The probe's simulated statistics must equal the untraced run's JSON,
or the trace is invalid and the command exits 1.

Every run's JSON is checked (see check_result); the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}. perfbench/README.md
documents the workloads, metrics and the layer -> metric -> workload map.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

# Seed 20261016 was never used while tuning the benchmark: confirm a claimed
# gain on it as well as on the default.
DEFAULT_SEED = 42
# The seed that generates each workload's fleet. A seed reshapes the whole
# synthetic fleet (fleet_sweep spans 2,670-4,587 servers over seeds 1-10),
# and fleet size sets the work, so every run replays the one fleet seed 42
# generates: the benchmark seed varies the simulation (job arrivals, RNG
# streams of every stage), not the amount of work.
FLEET_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    # harvest_sim scenario arguments (without --seed, --threads, --out).
    scenario_args: tuple
    threads: int
    # The fleet FLEET_SEED generates for it.
    datacenters: int
    servers: int


WORKLOADS = {
    "sweep": Workload(
        name="sweep", scenario_args=("--scenario=fleet_sweep",),
        threads=1, datacenters=10, servers=4322),
    "storage_storm": Workload(
        name="storage_storm",
        scenario_args=("--scenario=storage_stress", "--scale=2",
                       "--set=run_availability=false"),
        threads=1, datacenters=1, servers=1843),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

# Per-layer metrics (name -> unit), grouped by the module that does the work.
PER_LAYER_UNITS = {
    "fleet.build_s": "s", "fleet.replay_s": "s", "fleet.servers": "count",
    "fleet.distinct_traces": "count",
    "rescale.s": "s", "rescale.calls": "count", "rescale.samples": "count",
    "rescale.ns_per_sample": "ns", "rescale.rss_delta_mib": "MiB",
    "clustering.s": "s", "clustering.classes": "count",
    "sched.pt_s": "s", "sched.h_s": "s", "sched.stage_s": "s",
    "sched.pt_h_speedup": "ratio", "sched.containers": "count", "sched.kills": "count",
    "sched.kill_ratio": "ratio", "sched.us_per_container": "us",
    "sched.jobs_completed": "count",
    "storage.timeline_s": "s", "storage.cells_s": "s", "storage.cell_max_s": "s",
    "storage.reimages": "count", "storage.rereplications": "count",
    "storage.accesses": "count", "storage.replicas_destroyed": "count",
    "storage.failed_access_frac": "fraction", "storage.events_per_s": "1/s",
    "placement.audit_s": "s", "driver.render_s": "s", "driver.other_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


# --- processes and their resource usage ---------------------------------------

@dataclass
class ChildRun:
    returncode: int
    stdout: bytes
    # CLOCK_MONOTONIC seconds, the clock the pace sampler stamps samples with.
    start: float
    end: float
    cpu_s: float
    peak_rss_mib: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def cpu_seconds(usage) -> float:
    """User plus system CPU seconds of one child's rusage."""
    return usage.ru_utime + usage.ru_stime


def peak_rss_mib(usage) -> float:
    """Peak resident set of one child's rusage in MiB (Linux reports KiB)."""
    return usage.ru_maxrss / 1024.0


def run_child(argv, log_path) -> ChildRun:
    """Runs argv to completion, returning its stdout and its own rusage.

    os.wait4 reaps exactly this child, so the CPU time and peak RSS are the
    child's alone, not an aggregate over earlier children."""
    with open(log_path, "ab") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, out, start, end, cpu_seconds(usage), peak_rss_mib(usage))


# --- build ---------------------------------------------------------------------

def build_dir() -> str:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build(out_dir: str) -> None:
    if not os.path.isfile(os.path.join(REPO, "src", "driver", "harvest_sim_main.cc")):
        raise BenchError(f"no simulator sources under {REPO}; run from the repository")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "--target", "harvest_sim", "perfbench_probe",
                  "perfbench_pace", "-j", jobs])
    with open(log_path, "wb") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(step)} (log: {log_path})")


# --- the CPU's pace --------------------------------------------------------------

def start_pace(out_dir: str) -> subprocess.Popen:
    """Starts the pace sampler; it samples until stop_pace closes its stdin."""
    return subprocess.Popen([os.path.join(out_dir, "perfbench_pace")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def stop_pace(pace: subprocess.Popen) -> list:
    """Stops the sampler and returns its samples, (start, duration) in
    CLOCK_MONOTONIC seconds, ordered by start."""
    pace.stdin.close()
    out = pace.stdout.read()
    pace.stdout.close()
    if pace.wait() != 0:
        raise BenchError(f"pace sampler exited {pace.returncode}")
    return [(int(start) / 1e9, int(duration) / 1e9)
            for start, duration in (line.split() for line in out.decode().splitlines())]


def pace_factor(samples, start: float, end: float) -> float:
    """The share of the CPU's full pace that [start, end] ran at: the mean,
    over the samples taken in it, of the fastest sample's duration over the
    sample's. Without a sample inside, the one nearest to the interval's
    middle stands in."""
    if not samples:
        raise BenchError("the pace sampler took no sample")
    fastest = min(duration for _, duration in samples)
    inside = [duration for t, duration in samples if start <= t < end]
    if not inside:
        middle = (start + end) / 2
        inside = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
    return statistics.fmean(fastest / duration for duration in inside)


# --- the workload's fleet ----------------------------------------------------------

def build_fleet(probe, workload: Workload, log_path: str, fleet_dir=None):
    """Times set-up: the probe builds the workload's fleet through the
    fleet-build stage at least 3 times and for at least 1 s. With fleet_dir
    it first exports the fleet there (one .trace file per DC) for harvest_sim
    to replay. Returns the probe run and its report (for each timed build
    the seconds of every DC's fleet, per-DC sizes)."""
    argv = [probe, "fleet", *workload.scenario_args, f"--seed={FLEET_SEED}"]
    if fleet_dir is not None:
        os.makedirs(fleet_dir, exist_ok=True)
        argv.append(f"--dump-dir={fleet_dir}")
    run = run_child(argv, log_path)
    if run.returncode != 0:
        raise BenchError(f"probe fleet mode failed (log: {log_path})")
    return run, json.loads(run.stdout)


# --- output checks -------------------------------------------------------------

def deterministic_bytes(doc: dict) -> bytes:
    """The result without its wall-clock "timing" block, canonically encoded."""
    return json.dumps({k: v for k, v in doc.items() if k != "timing"},
                      separators=(",", ":")).encode()


def check_result(doc: dict, workload: Workload) -> list:
    """Violations of the workload's invariants in one harvest_sim result."""
    problems = []
    dcs = doc.get("datacenters", [])
    if len(dcs) != workload.datacenters:
        problems.append(f"{len(dcs)} datacenters, expected {workload.datacenters}")
    servers = sum(dc["fleet"]["servers"] for dc in dcs)
    if servers != workload.servers:
        problems.append(f"{servers} servers, expected {workload.servers}")
    for dc in dcs:
        name = dc.get("name", "?")
        sched = dc.get("scheduling")
        if sched is not None:
            for run in ("primary_aware", "history"):
                if sched[run]["jobs_completed"] < 1:
                    problems.append(f"{name}: {run} completed no job")
                frac = sched[run].get("failed_access_fraction", 0.0)
                if not 0.0 <= frac <= 1.0:
                    problems.append(f"{name}: {run} failed_access_fraction {frac}")
        for block in ("durability", "availability"):
            for cell in dc.get(block, {}).get("cells", []):
                for key in ("lost_percent", "failed_percent"):
                    value = cell.get(key, 0.0)
                    if not (isinstance(value, (int, float)) and 0.0 <= value <= 100.0):
                        problems.append(f"{name}: {block} {key} {value} outside [0, 100]")
    return problems


def check_run(run: ChildRun, workload: Workload, reference: Optional[dict]):
    """(parsed result or None, violations) of one harvest_sim run; any
    violation counts the run as failed. `reference` is the first valid
    repetition, whose deterministic bytes every later one must repeat."""
    if run.returncode != 0:
        return None, [f"harvest_sim exited {run.returncode}"]
    try:
        doc = json.loads(run.stdout)
        violations = check_result(doc, workload)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        return None, [f"malformed result: {err!r}"]
    if reference is not None and deterministic_bytes(doc) != deterministic_bytes(reference):
        violations.append("deterministic bytes differ from the first repetition")
    return doc, violations


def fidelity(doc: dict) -> dict:
    """Simulated headline statistics (mirrors SummarizeScenario)."""
    improvements, jobs, stock, history = [], 0, 0.0, 0.0
    for dc in doc["datacenters"]:
        sched = dc.get("scheduling")
        if sched is not None:
            improvements.append(sched["history_improvement_percent"])
            jobs += sched["primary_aware"]["jobs_completed"] + sched["history"]["jobs_completed"]
        for cell in dc.get("durability", {}).get("cells", []):
            if cell["placement"] == "HDFS-Stock":
                stock = max(stock, cell["lost_percent"])
            elif cell["placement"] == "HDFS-H":
                history = max(history, cell["lost_percent"])
    return {
        "digest": hashlib.sha256(deterministic_bytes(doc)).hexdigest()[:16],
        "mean_h_vs_pt_percent": statistics.fmean(improvements) if improvements else None,
        "jobs_completed": jobs,
        "worst_stock_loss_percent": stock,
        "worst_h_loss_percent": history,
    }


def cross_check(trace: dict, doc: dict) -> list:
    """Differences between the probe's simulated statistics and harvest_sim's."""
    problems = []
    dcs = doc["datacenters"]
    if len(trace["datacenters"]) != len(dcs):
        return [f"probe traced {len(trace['datacenters'])} datacenters, run has {len(dcs)}"]
    for probe_dc, dc in zip(trace["datacenters"], dcs):
        stats = probe_dc["stats"]
        expected = {"name": dc["name"], "servers": dc["fleet"]["servers"]}
        if "scheduling" in dc:
            sched = dc["scheduling"]
            expected.update({
                "pt_jobs_completed": sched["primary_aware"]["jobs_completed"],
                "h_jobs_completed": sched["history"]["jobs_completed"],
                "pt_total_kills": sched["primary_aware"]["total_kills"],
                "h_total_kills": sched["history"]["total_kills"],
            })
        expected["cells"] = [
            {"lost_percent": c["lost_percent"],
             "rereplications_completed": c["rereplications_completed"]}
            for c in dc.get("durability", {}).get("cells", [])]
        for key, value in expected.items():
            if stats.get(key) != value:
                problems.append(f"{dc['name']}: {key} probe={stats.get(key)} run={value}")
    return problems


# --- spans -------------------------------------------------------------------------

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it its children cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        clipped = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
                   for c in children.get(span["id"], [])]
        clipped = [(s, e) for s, e in clipped if e > s]
        result[span["id"]] = (span["end"] - span["start"]) - covered(clipped)
    return result


def layer_metrics(trace: dict, wall_s: float, setup_s: float, pace: float):
    """Per-layer metrics from the probe's spans and counters, with the span
    times scaled by `pace`, the probe run's pace factor, as the end-to-end
    times are.

    fleet.build_s is the set-up measurement (generating the fleet); the
    traced run replays the exported fleet, which fleet.replay_s times.
    Returns (metrics, names of metrics whose layer did not run). Such a
    layer has no span of its own: its times are those of the stage call that
    skipped it (sub-microsecond) and its ratios are 0."""
    spans = [dict(span, start=span["start"] * pace, end=span["end"] * pace)
             for span in trace["spans"]]
    durations = {}
    longest = {}
    for span in spans:
        d = span["end"] - span["start"]
        durations[span["name"]] = durations.get(span["name"], 0.0) + d
        longest[span["name"]] = max(longest.get(span["name"], 0.0), d)
    root = next(s for s in spans if s["parent"] == -1)
    counters = {}
    for dc in trace["datacenters"]:
        for key, value in dc["counters"].items():
            if key == "rescale_rss_delta_bytes":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    skipped_sched = durations.get("sched.stage", 0.0)
    skipped_storage = durations.get("storage.durability", 0.0)
    pt_s = durations.get("sched.pt", skipped_sched)
    h_s = durations.get("sched.h", skipped_sched)
    rescale_s = durations.get("rescale", skipped_sched)
    cells_s = durations.get("storage.cell", skipped_storage)
    events = (counters["storage_reimages"] + counters["storage_accesses"]
              + counters["storage_rereplications"])
    metrics = {
        "fleet.build_s": setup_s,
        "fleet.replay_s": durations.get("fleet.build", 0.0),
        "fleet.servers": counters["servers"],
        "fleet.distinct_traces": counters["distinct_traces"],
        "rescale.s": rescale_s,
        "rescale.calls": counters["rescale_calls"],
        "rescale.samples": counters["rescale_samples"],
        "rescale.ns_per_sample": ratio(rescale_s * 1e9, counters["rescale_samples"]),
        "rescale.rss_delta_mib": counters["rescale_rss_delta_bytes"] / 2**20,
        "clustering.s": durations.get("clustering", 0.0),
        "clustering.classes": counters["classes"],
        "sched.pt_s": pt_s,
        "sched.h_s": h_s,
        "sched.stage_s": durations.get("sched.stage", 0.0),
        "sched.pt_h_speedup": ratio(pt_s + h_s, durations.get("sched.cosim", 0.0)),
        "sched.containers": counters["containers"],
        "sched.kills": counters["kills"],
        "sched.kill_ratio": ratio(counters["kills"], counters["containers"]),
        "sched.us_per_container": ratio((pt_s + h_s) * 1e6, counters["containers"]),
        "sched.jobs_completed": counters["jobs_completed"],
        "storage.timeline_s": durations.get("storage.timeline", skipped_storage),
        "storage.cells_s": cells_s,
        "storage.cell_max_s": longest.get("storage.cell", skipped_storage),
        "storage.reimages": counters["storage_reimages"],
        "storage.rereplications": counters["storage_rereplications"],
        "storage.accesses": counters["storage_accesses"],
        "storage.replicas_destroyed": counters["storage_replicas_destroyed"],
        "storage.failed_access_frac":
            ratio(counters["storage_failed_accesses"], counters["storage_accesses"]),
        "storage.events_per_s": ratio(events, cells_s),
        "placement.audit_s": durations.get("placement.audit", 0.0),
        "driver.render_s": durations.get("driver.render", 0.0),
        "driver.other_s": self_times(spans)[root["id"]],
        "trace.overhead_s": (root["end"] - root["start"]) - wall_s,
    }
    not_run = set()
    for prefix, span in (("rescale.", "rescale"), ("sched.", "sched.cosim"),
                         ("storage.", "storage.cells")):
        if span not in durations:
            not_run |= {name for name in metrics
                        if name.startswith(prefix) and name != "sched.stage_s"}
    return metrics, not_run


# --- the run -------------------------------------------------------------------------

def repeat(argv, workload: Workload, seconds: float, probe, log_path: str):
    """The closed loop: harvest_sim runs one after another, with set-up timed
    after each. Returns (runs, set-up calls as (probe run, its timed builds),
    parsed results, problems, number of failed runs)."""
    runs, setups, docs, problems = [], [], [], []
    failed = 0
    # Start another repetition while it would end at most half a repetition
    # past --seconds, so the measured time stays close to --seconds.
    while not runs or (len(runs) < 100 and sum(r.wall_s for r in runs)
                       + statistics.median(r.wall_s for r in runs) / 2 < seconds):
        run = run_child(argv, log_path)
        runs.append(run)
        # Set-up is timed between the runs, across the whole measurement.
        call, timed = build_fleet(probe, workload, log_path)
        setups.append((call, timed["build_s"]))
        doc, violations = check_run(run, workload, docs[0] if docs else None)
        if doc is not None:
            docs.append(doc)
        if violations:
            failed += 1
            problems += [f"rep {len(runs)}: {v}" for v in violations]
    return runs, setups, docs, problems, failed


def run_traced(probe, scenario_args, workload: Workload, seed: int, doc: dict,
               out_dir: str, log_path: str):
    """One traced probe run, cross-checked against the untraced result doc.
    Returns (the probe run, its trace)."""
    trace_path = os.path.join(out_dir, f"trace-{workload.name}-{seed}.json")
    run = run_child([probe, "trace", *scenario_args, f"--seed={seed}",
                     f"--threads={workload.threads}", f"--out={trace_path}"], log_path)
    if run.returncode != 0:
        raise BenchError(f"probe trace mode failed (log: {log_path})")
    with open(trace_path) as f:
        trace = json.load(f)
    mismatches = cross_check(trace, doc)
    if mismatches:
        raise BenchError("trace invalid, probe disagrees with harvest_sim: "
                         + "; ".join(mismatches[:5]))
    return run, trace


def measure(workload_name: str, seed: int, seconds: float, traced: bool, out_dir: str):
    workload = WORKLOADS[workload_name]
    sim = os.path.join(out_dir, "harvest_sim")
    probe = os.path.join(out_dir, "perfbench_probe")
    log_path = os.path.join(out_dir, f"{workload_name}.log")
    open(log_path, "wb").close()
    fleet_dir = os.path.join(out_dir, "fleets", workload_name)
    # Every run replays the exported fleet; the seed drives the simulation.
    scenario_args = (*workload.scenario_args, f"--set=trace_dir={fleet_dir}")
    argv = [sim, *scenario_args, f"--seed={seed}", f"--threads={workload.threads}", "--out=-"]

    # This process and every child it starts share one CPU with the pace
    # sampler. The highest-numbered CPU is the one the system's own
    # housekeeping uses least.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    pace = start_pace(out_dir)
    try:
        call, fleet = build_fleet(probe, workload, log_path, fleet_dir)
        runs, setups, docs, problems, failed = repeat(argv, workload, seconds, probe, log_path)
        setups.insert(0, (call, fleet["build_s"]))
        if traced:
            if not docs:
                raise BenchError("no valid untraced run to cross-check the trace against")
            probe_run, trace = run_traced(probe, scenario_args, workload, seed, docs[0],
                                          out_dir, log_path)
    finally:
        samples = stop_pace(pace)

    def paced(run: ChildRun, value: float) -> float:
        return value * pace_factor(samples, run.start, run.end)

    builds = [(call, sum(build)) for call, timed in setups for build in timed]
    metrics = {
        "wall_s": statistics.median(paced(r, r.wall_s) for r in runs),
        "cpu_s": statistics.median(paced(r, r.cpu_s) for r in runs),
        "peak_rss_mib": statistics.median(r.peak_rss_mib for r in runs),
        "setup_s": statistics.median(paced(call, build) for call, build in builds),
    }
    report = {
        "workload": workload_name, "seed": seed,
        "servers": sum(dc["servers"] for dc in fleet["datacenters"]),
        "reps": len(runs), "setup_reps": len(builds),
        "problems": problems,
        "fidelity": fidelity(docs[0]) if docs else None,
        "raw": {"wall_s": statistics.median(r.wall_s for r in runs),
                "cpu_s": statistics.median(r.cpu_s for r in runs),
                "setup_s": statistics.median(build for _, build in builds)},
        "pace": {"cpu": cpu, "samples": len(samples),
                 "fastest_us": min(duration for _, duration in samples) * 1e6,
                 "mean_factor": statistics.fmean(paced(r, 1.0) for r in runs)},
    }
    attempted = len(runs)
    if traced:
        attempted += 1
        report["untraced"] = metrics
        metrics, report["not_run"] = layer_metrics(
            trace, metrics["wall_s"], metrics["setup_s"], paced(probe_run, 1.0))
    return report, metrics, attempted, failed


def format_value(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    try:
        build(out_dir)
        report, metrics, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"workload {report['workload']}: seed {report['seed']}, fleet of seed {FLEET_SEED} "
          f"({report['servers']} servers), {report['reps']} run(s), "
          f"{report['setup_reps']} fleet build(s)")
    fid = report["fidelity"]
    if fid is not None:
        improvement = fid["mean_h_vs_pt_percent"]
        print(f"fidelity {report['workload']}: digest {fid['digest']} mean H-vs-PT "
              f"{'n/a' if improvement is None else format_value(improvement) + '%'} "
              f"jobs completed {fid['jobs_completed']} "
              f"worst loss Stock {format_value(fid['worst_stock_loss_percent'])}% "
              f"H {format_value(fid['worst_h_loss_percent'])}%")
    for problem in report["problems"]:
        print(f"check failed: {problem}")
    pace = report["pace"]
    print(f"pace: CPU {pace['cpu']}, {pace['samples']} samples, fastest "
          f"{format_value(pace['fastest_us'])} us, mean factor over the runs "
          f"{format_value(pace['mean_factor'])}")
    for name, value in report["raw"].items():
        print(f"  raw {name:<31} {format_value(value):>14} {END_TO_END_UNITS[name]}")
    for name, value in report.get("untraced", {}).items():
        print(f"  untraced {name:<26} {format_value(value):>14} {END_TO_END_UNITS[name]}")
    not_run = report.get("not_run", set())
    for name, unit in units.items():
        shown = "n/a" if name in not_run else format_value(metrics[name])
        print(f"  {name:<35} {shown:>14} {unit}")
    print(f"checks: {failed}/{attempted} run(s) failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
