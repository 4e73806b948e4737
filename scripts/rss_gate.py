#!/usr/bin/env python3
"""Peak-memory gate for the `selfstab` command line.

    scripts/rss_gate.py path/to/selfstab

Runs four 3·10^5-node unit-disk runs as child processes and compares each
child's peak resident set (ru_maxrss) with a budget derived from the run's
one adjacency, the Graph's CSR, as the run's own memory ledger (--metrics)
reports it: graph_offsets_bytes, and the slice entries
(graph_slices_bytes / graph_slice_entry_bytes) counted at the 2 bytes a
narrow slice takes. The budget is

    BUDGET_FACTOR × (offsets + 2 B × entries)
      + BUDGET_BYTES_PER_NODE × n + BUDGET_SLACK_MIB

The CSR itself is 1×, and the factor leaves half as much again for
transient buffers. The per-node allowance covers the per-node arrays
(label 4 B, ID 8 B, state, kernel mirror and cache), and the slack covers
the binary, the C++ runtime and thread stacks. A space-ordered unit-disk
graph stores its slices as 2-byte deltas; slices stored as 4-byte targets
(the SMM run then peaks ~16 MiB higher, over budget), a second copy of the
adjacency (the unit-disk build holding its neighbour lists beside the
CSR, a materialized edge list, a fault campaign copying the Graph for a
plan that never edits the topology) or a string per node (DOT annotations
built without --dot) puts a run over it. Exits 1 if any run is over budget
or fails.

The campaign run is SIS with a corrupt-only --chaos plan, written to a
temporary file. It uses the generic kernel, which adds no per-edge array,
so the campaign's own memory is what the budget sees.

The fourth run is a clean SIS run on the flat kernel. Its bigger-neighbour
slices hold one (word, mask) group per 64-vertex word a node's bigger
neighbours touch. With vertices numbered at random in space nearly every
neighbour had a word of its own (12 B per edge, ~94 MiB here); with the
graph stored in grid-cell order neighbours share words (~10 MiB of groups,
the largest kernel mirror of the four), and the run fits the same budget.
A numbering that scatters neighbours again puts it over.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

BUDGET_FACTOR = 1.5
BUDGET_BYTES_PER_NODE = 32
BUDGET_SLACK_MIB = 8.0
NARROW_ENTRY_BYTES = 2

NODES = 300000
GRAPH = "udg:%d:0.0055" % NODES
RUNS = (
    ["-p", "smm", "-g", GRAPH, "--start", "random"],
    ["-p", "coloring", "-g", GRAPH],
    ["-p", "sis", "-g", GRAPH, "--kernel", "generic", "--chaos", None],
    ["-p", "sis", "-g", GRAPH, "--kernel", "flat"],
)


def write_plan(path):
    """Corrupt-only plan: 10 events of 100 distinct nodes, 24 rounds apart
    from round 48 (the recovery stream's spacing)."""
    events = [{"at": 48 + 24 * e, "kind": "corrupt",
               "nodes": sorted((e * 7919 + k * 2999) % NODES
                               for k in range(100))}
              for e in range(10)]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"events": events}, f)


def run(cmd):
    """Runs cmd; returns (exit code, peak RSS in MiB, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    out = proc.stdout.read().decode(errors="replace")
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, out


def ledger(path):
    """The gauges of a --metrics dump (its first line is the JSON)."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.loads(f.readline())["gauges"]
    except (OSError, ValueError, KeyError):
        return None


def check(binary, args, metrics):
    """Runs one child; prints its verdict and returns True if it failed."""
    code, peak, out = run([binary] + args + ["--metrics", metrics])
    label = " ".join(args)
    match = re.search(r"graph\s*: (\d+) nodes, (\d+) edges", out)
    gauges = ledger(metrics)
    if code != 0 or match is None or gauges is None:
        print("FAIL %s: exit %d, no report or no ledger\n%s"
              % (label, code, out))
        return True
    n = int(match.group(1))
    entries = gauges["graph_slices_bytes"] / gauges["graph_slice_entry_bytes"]
    graph_mib = (gauges["graph_offsets_bytes"]
                 + NARROW_ENTRY_BYTES * entries) / 2**20
    budget = (BUDGET_FACTOR * graph_mib + BUDGET_BYTES_PER_NODE * n / 2**20
              + BUDGET_SLACK_MIB)
    verdict = "ok" if peak <= budget else "FAIL"
    print("%s %s: peak RSS %.1f MiB, budget %.1f MiB (graph %.1f MiB, "
          "slices of %d B)" % (verdict, label, peak, budget, graph_mib,
                               gauges["graph_slice_entry_bytes"]))
    return peak > budget


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    binary = argv[1]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        plan = os.path.join(tmp, "plan.json")
        write_plan(plan)
        metrics = os.path.join(tmp, "metrics.txt")
        for args in RUNS:
            args = [plan if a is None else a for a in args]
            failed = check(binary, args, metrics) or failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
