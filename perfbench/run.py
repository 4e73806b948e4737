#!/usr/bin/env python3
"""End-to-end benchmark of the `selfstab` and `selfstab-sim` command lines.

Run from the repository root:

    python3 perfbench/run.py --workload stabilize-udg-1m --seed 1 \
        --seconds 20 --trace 0

The first run builds the program from ../src into $CARGO_TARGET_DIR (default
.bench_build). With --trace 0 the CLIs run exactly as a user runs them, with
telemetry off, and the last stdout line holds the end-to-end metrics. With
--trace 1 the traced mirror (perfbench_trace) repeats the same pipeline with
spans around each layer call, and the last line holds the per-layer metrics.
Every run checks the program's outputs; any failed check makes it exit 1.
See perfbench/README.md for the metrics and what each should move.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = "perfbench"
MIN_REPEATS = 3          # CLI runs per --trace 0 run, whatever --seconds says
CHILD_TIMEOUT_S = 150.0  # a single child over this is killed and fails
MASK64 = (1 << 64) - 1

# Recovery stream: corrupt PLAN_NODES random nodes every PLAN_SPACING rounds,
# starting once the clean start has stabilized (about 11 rounds).
PLAN_EVENTS = 100
PLAN_NODES = 100
PLAN_SPACING = 24
PLAN_FIRST = 48

WORKLOADS = {
    "stabilize-udg-1m": {
        "tool": "selfstab",
        "args": ["-p", "smm", "-g", "udg:1000000:0.003", "--start", "random"],
        "setup_repeats": 1,
    },
    "recover-stream-100k": {
        "tool": "selfstab",
        "args": ["-p", "sis", "-g", "udg:100000:0.008"],
        "plan": True,
        "setup_repeats": 4,
    },
    "beacon-waypoint-10k": {
        "tool": "selfstab-sim",
        "args": ["-p", "smm", "-n", "10000", "--radius", "0.02",
                 "--mobility", "waypoint", "--stop-sec", "5",
                 "--duration-sec", "10", "--no-early-stop"],
        "setup_repeats": 21,
        "beacon_s": 0.1,
    },
}

LAYERS = ("cli", "graph", "engine", "core", "analysis", "chaos", "adhoc",
          "telemetry")

# Per-layer metric -> unit; the order is the order of the output.
PER_LAYER = {
    "graph.generate_s": "s", "graph.edges": "count", "graph.self_s": "s",
    "engine.rounds": "count", "engine.evaluations": "count",
    "engine.moves": "count", "engine.first_round_s": "s",
    "engine.round_ms.p50": "ms", "engine.round_ms.p99": "ms",
    "engine.snapshot_s": "s", "engine.evaluate_s": "s",
    "engine.commit_s": "s", "engine.useful_eval_ratio": "ratio",
    "engine.self_s": "s",
    "core.kernel_build_s": "s", "core.evals_per_s": "1/s",
    "core.self_s": "s",
    "analysis.verify_s": "s", "analysis.safety_s": "s",
    "analysis.self_s": "s",
    "chaos.campaign_s": "s", "chaos.step_s": "s", "chaos.self_s": "s",
    "chaos.faults": "count", "chaos.unrecovered": "count",
    "chaos.recovery_rounds.p50": "count",
    "chaos.recovery_rounds.p90": "count",
    "chaos.idle_round_share": "ratio",
    "adhoc.run_s": "s", "adhoc.interval_ms.p50": "ms",
    "adhoc.interval_ms.p90": "ms", "adhoc.beacons": "count",
    "adhoc.deliveries": "count", "adhoc.range_checks": "count",
    "adhoc.broadcast_candidates": "count",
    "adhoc.collision_checks": "count", "adhoc.rule_evaluations": "count",
    "adhoc.moves": "count", "adhoc.neighbor_expirations": "count",
    "adhoc.queue_depth.max": "count", "adhoc.ns_per_delivery": "ns",
    "adhoc.candidate_yield": "ratio", "adhoc.self_s": "s",
    "cli.self_s": "s",
    "telemetry.overhead_s": "s", "trace.coverage": "ratio",
}


class BenchError(Exception):
    """Set-up failure: the run exits non-zero without printing a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(targets):
    """Configures once, then brings `targets` up to date."""
    if not os.path.isfile(os.path.join(BENCH_DIR, "CMakeLists.txt")):
        raise BenchError("run from the repository root: no perfbench/")
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("no program sources under src/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def binary(name):
    sub = {"selfstab": "src/cli", "selfstab-sim": "src/cli"}.get(name, "")
    return os.path.join(build_dir(), sub, name)


# --------------------------------------------------------------- children

def run_child(cmd, tag):
    """Runs `cmd` to completion; returns (exit code, wall s, peak RSS MB,
    stdout text). stdout goes through a file so no pipe can fill up."""
    work = os.path.join(build_dir(), "perfbench-work")
    out_path = os.path.join(work, tag + ".out")
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, text


# ------------------------------------------------------------------ inputs

def splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def make_plan(seed, n):
    """Deterministic recovery stream: PLAN_EVENTS corrupt events."""
    state = (seed * 0x9E3779B97F4A7C15 + 0x504C414E) & MASK64
    events = []
    for i in range(PLAN_EVENTS):
        chosen = set()
        while len(chosen) < PLAN_NODES:
            state, z = splitmix64(state)
            chosen.add(z % n)
        events.append({"at": PLAN_FIRST + i * PLAN_SPACING,
                       "kind": "corrupt", "nodes": sorted(chosen)})
    return {"events": events}


def cli_args(workload, seed):
    """The exact CLI arguments of one run; writes the plan file if any."""
    spec = WORKLOADS[workload]
    args = list(spec["args"]) + ["--seed", str(seed)]
    if spec.get("plan"):
        path = os.path.join(build_dir(), "perfbench-work",
                            "plan-%d.json" % seed)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(make_plan(seed, graph_nodes(workload)), f)
        args += ["--chaos", path]
    return args


def arg_value(workload, flag):
    args = WORKLOADS[workload]["args"]
    return args[args.index(flag) + 1]


def graph_nodes(workload):
    if WORKLOADS[workload]["tool"] == "selfstab-sim":
        return int(arg_value(workload, "-n"))
    return int(arg_value(workload, "-g").split(":")[1])


# ------------------------------------------------------------------ checks

REPORT_LINE = re.compile(r"^([a-z][a-z ]*?)\s*: (.*)$")


def parse_report(text):
    fields = {}
    for line in text.splitlines():
        m = REPORT_LINE.match(line)
        if m:
            fields[m.group(1)] = m.group(2)
    return fields


def first_int(text, pattern):
    m = re.search(pattern, text or "")
    return int(m.group(1)) if m else None


def check_report(workload, fields, expect_m):
    """Returns (failures, exact counts) for one CLI report."""
    fails = []
    counts = {}
    if WORKLOADS[workload]["tool"] == "selfstab":
        n = first_int(fields.get("graph"), r"(\d+) nodes")
        counts["m"] = first_int(fields.get("graph"), r"(\d+) edges")
        counts["rounds"] = first_int(fields.get("rounds"), r"(\d+)")
        counts["moves"] = first_int(fields.get("moves"), r"(\d+)")
        counts["size"] = first_int(fields.get("result"),
                                   r"(\d+) (?:pair|member)")
        if fields.get("stabilized") != "yes":
            fails.append("did not stabilize")
        if fields.get("verified") != "yes":
            fails.append("predicate check failed")
        if n != graph_nodes(workload):
            fails.append("node count %s" % n)
        if expect_m is not None and counts["m"] != expect_m:
            fails.append("m=%s but the set-up graph has %s edges"
                         % (counts["m"], expect_m))
        if not WORKLOADS[workload].get("plan"):
            # Theorem 1: SMM stabilizes within n+1 rounds.
            if counts["rounds"] is None or counts["rounds"] > n + 1:
                fails.append("rounds %s > n+1" % counts["rounds"])
        else:
            chaos = fields.get("chaos", "")
            faults = first_int(chaos, r"(\d+) fault")
            counts["faults"] = faults
            if faults != PLAN_EVENTS:
                fails.append("faults %s != plan's %d" % (faults, PLAN_EVENTS))
            if not re.search(r"\bfault\(s\), all recovered,", chaos):
                fails.append("a fault did not recover inside its window")
            if first_int(chaos, r"safety violations (\d+)") != 0:
                fails.append("safety violations")
    else:
        spec = WORKLOADS[workload]
        sent = first_int(fields.get("beacons"), r"(\d+) sent")
        counts["beacons"] = sent
        counts["deliveries"] = first_int(fields.get("beacons"),
                                         r"(\d+) delivered")
        counts["rounds"] = first_int(fields.get("rounds"), r"(\d+)")
        counts["moves"] = first_int(fields.get("moves"), r"(\d+)")
        counts["size"] = first_int(fields.get("result"), r"(\d+) pair")
        if fields.get("quiet") != "yes":
            fails.append("run did not end quiet")
        if fields.get("verified") != "yes":
            fails.append("predicate check failed")
        expected = (graph_nodes(workload)
                    * float(arg_value(workload, "--duration-sec"))
                    / spec["beacon_s"])
        if sent is None or abs(sent - expected) > 0.01 * expected:
            fails.append("beacons sent %s, expected %d +-1%%"
                         % (sent, expected))
    if any(v is None for v in counts.values()):
        fails.append("unparsable report")
    return fails, counts


class Tally:
    """Operations attempted and failed; failures are logged with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, fails):
        self.attempted += 1
        if fails:
            self.failed += 1
            log("FAILED %s: %s" % (what, "; ".join(fails)))


def run_cli(workload, args, tag, tally, expect_m, reference):
    """One untraced CLI run with every workload check; returns
    (wall s, peak RSS MB, stdout). `reference` holds the counts of the
    first run: a deterministic CLI must repeat them exactly."""
    tool = WORKLOADS[workload]["tool"]
    code, wall, rss, text = run_child([binary(tool)] + args, tag)
    fields = parse_report(text)
    fails, counts = check_report(workload, fields, expect_m)
    if code != 0:
        fails.append("exit code %d" % code)
    if reference.setdefault("counts", counts) != counts:
        fails.append("counts %s differ from the first run's %s"
                     % (counts, reference["counts"]))
    tally.record(tag, fails)
    print("%s: wall=%.3fs rss=%.1fMB %s" % (
        tag, wall, rss, " ".join("%s=%s" % kv for kv in counts.items())))
    return wall, rss, text


def setup_probe(workload, args, tag, tally):
    """Set-up times of the workload's repeats in one process, and the edge
    count of the graph it built (0 for the simulator)."""
    spec = WORKLOADS[workload]
    cmd = [binary("perfbench_setup"), spec["tool"],
           str(spec["setup_repeats"])] + args
    code, _, _, text = run_child(cmd, tag)
    fails = []
    try:
        probe = json.loads(text.strip().splitlines()[-1])
        times = probe["setup_s"]
        if len(times) != spec["setup_repeats"] or min(times) <= 0:
            fails.append("bad set-up timings")
            times = [0.0]
    except (ValueError, KeyError, IndexError):
        probe, times = {"m": None}, [0.0]
        fails.append("unparsable set-up probe output")
    if code != 0:
        fails.append("set-up probe exit code %d" % code)
    tally.record(tag, fails)
    print("%s: median=%.6fs over %d, m=%s"
          % (tag, statistics.median(times), len(times), probe["m"]))
    return times, probe["m"] or None


# ------------------------------------------------------------- trace math

def percentile(values, q):
    """Nearest-rank percentile, or None unless at least ten samples lie
    above it (fewer would make it a near-maximum)."""
    values = sorted(values)
    rank = max(1, math.ceil(q * len(values)))
    if len(values) - rank < 10:
        return None
    return values[rank - 1]


def layer_metrics(trace, traced_wall, untraced_wall):
    spans = trace["spans"]
    counters = trace["counters"]
    dur = {s["id"]: (s["end_ns"] - s["start_ns"]) / 1e9 for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) \
                + dur[s["id"]]
    by_name = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    check_s = 0.0
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        layer = s["name"].split(".")[0]
        if layer in self_by_layer:
            self_by_layer[layer] += dur[s["id"]] - child_time.get(s["id"], 0)
        elif s["parent"] == 0:
            check_s += dur[s["id"]]

    def total(name):
        return sum(dur[s["id"]] for s in by_name.get(name, []))

    m = dict.fromkeys(PER_LAYER, 0.0)
    traced_total = traced_wall - check_s
    m["graph.generate_s"] = total("graph.generate")
    m["graph.edges"] = counters.get("graph.edges", 0)
    for layer in ("graph", "engine", "core", "analysis", "chaos", "adhoc",
                  "cli"):
        m[layer + ".self_s"] = self_by_layer[layer]

    steps = by_name.get("engine.step", [])
    if steps:
        round_ms = [dur[s["id"]] * 1e3 for s in steps]
        m["engine.rounds"] = len(steps)
        m["engine.evaluations"] = counters["engine.evaluations"]
        m["engine.moves"] = counters["engine.moves"]
        m["engine.first_round_s"] = round_ms[0] / 1e3
        m["engine.round_ms.p50"] = percentile(round_ms, 0.5) or 0.0
        m["engine.round_ms.p99"] = percentile(round_ms, 0.99) or 0.0
        for phase in ("snapshot", "evaluate", "commit"):
            m["engine.%s_s" % phase] = counters["engine.%s_s" % phase]
        m["engine.useful_eval_ratio"] = (
            counters["engine.moves"] / counters["engine.evaluations"])
        m["core.kernel_build_s"] = total("core.kernel_build")
        m["core.evals_per_s"] = (counters["engine.evaluations"]
                                 / counters["engine.evaluate_s"])
    m["analysis.verify_s"] = total("analysis.verify")
    m["analysis.safety_s"] = total("analysis.safety")

    if "chaos.campaign" in by_name:
        m["chaos.campaign_s"] = total("chaos.campaign")
        m["chaos.step_s"] = total("engine.step")
        m["chaos.self_s"] = self_by_layer["chaos"]
        for key in ("faults", "unrecovered", "recovery_rounds.p50",
                    "recovery_rounds.p90"):
            m["chaos." + key] = counters["chaos." + key]
        idle = sum(1 for s in steps if s["attrs"]["moves"] == 0)
        m["chaos.idle_round_share"] = idle / len(steps)

    intervals = by_name.get("adhoc.interval", [])
    if intervals:
        interval_ms = [dur[s["id"]] * 1e3 for s in intervals]
        m["adhoc.run_s"] = total("adhoc.run")
        m["adhoc.interval_ms.p50"] = percentile(interval_ms, 0.5) or 0.0
        m["adhoc.interval_ms.p90"] = percentile(interval_ms, 0.9) or 0.0
        for key in ("beacons", "deliveries", "range_checks",
                    "broadcast_candidates", "collision_checks",
                    "rule_evaluations", "moves", "neighbor_expirations",
                    "queue_depth.max"):
            m["adhoc." + key] = counters["adhoc." + key]
        m["adhoc.ns_per_delivery"] = (m["adhoc.run_s"] * 1e9
                                      / counters["adhoc.deliveries"])
        m["adhoc.candidate_yield"] = (counters["adhoc.deliveries"]
                                      / counters["adhoc.broadcast_candidates"])

    m["telemetry.overhead_s"] = traced_total - untraced_wall
    m["trace.coverage"] = sum(self_by_layer.values()) / traced_total
    return m


def traced_pair(workload, args, seed, index, tally):
    """One untraced CLI run and one traced run of the same input; returns
    the per-layer metrics of the traced run."""
    reference = {}
    wall, _, text = run_cli(workload, args, "untraced-%d" % index, tally,
                            None, reference)
    tag = "traced-%d" % index
    spans_path = os.path.join(build_dir(), "perfbench-work",
                              "spans-%s-%d-%d.json" % (workload, seed, index))
    run_id = "%s-seed%d-%d-%d" % (workload, seed, os.getpid(), index)
    cmd = [binary("perfbench_trace"), run_id, spans_path,
           WORKLOADS[workload]["tool"]] + args
    code, traced_wall, _, traced_text = run_child(cmd, tag)
    fields = parse_report(traced_text)
    fails, counts = check_report(workload, fields, None)
    if code != 0:
        fails.append("perfbench_trace exit code %d" % code)
    if fields != parse_report(text):
        fails.append("traced report differs from the CLI's")
    metrics = None
    try:
        with open(spans_path, encoding="utf-8") as f:
            trace = json.load(f)
        if trace["run"] != run_id or any(
                s["run"] != run_id for s in trace["spans"]):
            fails.append("spans carry another run id")
        metrics = layer_metrics(trace, traced_wall, wall)
        if trace["counters"].get("chaos.unrecovered", 0) != 0:
            fails.append("%d fault(s) did not recover inside their window"
                         % trace["counters"]["chaos.unrecovered"])
    except (OSError, ValueError, KeyError, ZeroDivisionError) as e:
        fails.append("unusable trace: %r" % e)
    tally.record(tag, fails)
    print("%s: wall=%.3fs %s" % (
        tag, traced_wall, " ".join("%s=%s" % kv for kv in counts.items())))
    return metrics


# -------------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0:
        parser.error("--seed must be >= 0")

    build(["selfstab", "selfstab-sim",
           "perfbench_trace" if opts.trace else "perfbench_setup"])
    os.makedirs(os.path.join(build_dir(), "perfbench-work"), exist_ok=True)

    workload = opts.workload
    args = cli_args(workload, opts.seed)
    print("workload %s: %s %s" % (workload, WORKLOADS[workload]["tool"],
                                  " ".join(args)))
    tally = Tally()
    results = {}
    if not opts.trace:
        # A set-up probe runs before every CLI run, so that the set-up
        # samples spread over the whole run instead of one moment of it.
        start = time.perf_counter()
        setup_times, walls, rsss, reference = [], [], [], {}
        while len(walls) < MIN_REPEATS or \
                time.perf_counter() - start < opts.seconds:
            times, probe_m = setup_probe(workload, args,
                                         "setup-%d" % len(walls), tally)
            setup_times += times
            expect_m = probe_m \
                if WORKLOADS[workload]["tool"] == "selfstab" else None
            wall, rss, _ = run_cli(workload, args, "run-%d" % len(walls),
                                   tally, expect_m, reference)
            walls.append(wall)
            rsss.append(rss)
        results = {
            "total_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (statistics.median(rsss), "MB"),
        }
    else:
        start = time.perf_counter()
        runs = []
        while not runs or time.perf_counter() - start < opts.seconds:
            metrics = traced_pair(workload, args, opts.seed, len(runs),
                                  tally)
            if metrics is None:
                break
            runs.append(metrics)
        for name, unit in PER_LAYER.items():
            values = [r[name] for r in runs] or [0.0]
            results[name] = (statistics.median(values), unit)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in results.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: %s" % e)
        sys.exit(2)
