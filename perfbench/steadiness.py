#!/usr/bin/env python3
"""Interleaved repeat runs of every workload, for setting and checking bounds.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 101-110 \
        --out .bench_build/steadiness.json

For each seed it runs every workload once with --trace 0, rotating the
workload order from seed to seed, so that a slow phase of the machine lands
on all workloads instead of on one. It then reports, per workload and
end-to-end metric, the ten values, their median and their quartile spread
(q3 - q1) / median as statistics.quantiles(values, n=4) gives them, next to
the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range, e.g. 101-110")
    parser.add_argument("--out", required=True)
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}

    for i, seed in enumerate(opts.seeds):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for workload in order:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit("%s seed %d failed" % (workload, seed))
            for name in bounds:
                values[workload][name].append(
                    result["metrics"][name]["value"])
            print("seed %d %s: %s" % (seed, workload, " ".join(
                "%s=%.4f" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)

    report = {"seeds": opts.seeds, "order": "workloads rotate per seed",
              "workloads": {}}
    for workload in workloads:
        rows = {}
        for name, vals in values[workload].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": statistics.median(vals),
                          "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / statistics.median(vals),
                          "bound": bounds[name], "values": vals}
            print("%-22s %-12s median=%.4f spread=%.4f bound=%.2f" % (
                workload, name, rows[name]["median"], rows[name]["spread"],
                bounds[name]))
        report["workloads"][workload] = rows
    with open(opts.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
