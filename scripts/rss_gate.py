#!/usr/bin/env python3
"""Peak-memory gate for the `selfstab` command line.

    scripts/rss_gate.py path/to/selfstab

Runs two 3·10^5-node unit-disk runs as child processes and compares each
child's peak resident set (ru_maxrss) with a budget derived from the size
of the run's one adjacency, the Graph's CSR: 8(n+1) + 8m bytes for n nodes
and m edges, read back from the report. The budget is

    BUDGET_FACTOR × (8(n+1) + 8m) + BUDGET_SLACK_MIB

The CSR itself is 1×; the factor leaves half as much again for the per-node
arrays (points, states, IDs, kernel mirror and caches), and the slack covers
the binary, the C++ runtime and thread stacks. A second copy of the
adjacency (the unit-disk build holding its neighbour lists beside the CSR,
a materialized edge list) or a string per node (DOT annotations built
without --dot) puts a run over it. Exits 1 if any run is over budget or
fails.
"""

import os
import re
import subprocess
import sys

BUDGET_FACTOR = 1.5
BUDGET_SLACK_MIB = 8.0

RUNS = (
    ["-p", "smm", "-g", "udg:300000:0.0055", "--start", "random"],
    ["-p", "coloring", "-g", "udg:300000:0.0055"],
)


def run(cmd):
    """Runs cmd; returns (exit code, peak RSS in MiB, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    out = proc.stdout.read().decode(errors="replace")
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, out


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    binary = argv[1]
    failed = False
    for args in RUNS:
        code, peak, out = run([binary] + args)
        label = " ".join(args)
        match = re.search(r"graph\s*: (\d+) nodes, (\d+) edges", out)
        if code != 0 or match is None:
            print("FAIL %s: exit %d, no report\n%s" % (label, code, out))
            failed = True
            continue
        n, m = int(match.group(1)), int(match.group(2))
        graph_mib = (8 * (n + 1) + 8 * m) / 2**20
        budget = BUDGET_FACTOR * graph_mib + BUDGET_SLACK_MIB
        verdict = "ok" if peak <= budget else "FAIL"
        failed = failed or peak > budget
        print("%s %s: peak RSS %.1f MiB, budget %.1f MiB (graph %.1f MiB)"
              % (verdict, label, peak, budget, graph_mib))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
