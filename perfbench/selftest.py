#!/usr/bin/env python3
"""The benchmark's own tests, at a short length.

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all three) it checks that:
  - two runs with the same seed give identical exact counts (footprint,
    simulated time, IR and instruction counts, plan-cache hits, misses and
    evictions, batch sizes) and identical inputs;
  - a different seed changes the inputs, and every oracle still passes;
  - a deliberately wrong reference drives the failure count above 0.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["nmt-train", "compile-zoo", "serve-mixed"]
# Ops per timed phase: enough to reach every path the oracles check.
OPS = {"nmt-train": 3, "compile-zoo": 6, "serve-mixed": 60}
EXACT_E2E = ["footprint_bytes", "footprint_reduction_x", "sim_overhead_x"]
EXACT_LAYER = [
    "ir.training_nodes", "ir.rewritten_nodes", "core.clone_nodes",
    "executor.active_instrs", "executor.fused_groups", "analysis.error_findings",
    "gpusim.sim_step_ms", "serve.cache_hit_ratio", "serve.cache_evictions",
    "serve.batch_size_mean",
]


def run(workload, seed, trace, *extra):
    cmd = ["python3", os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "120", "--trace", str(trace),
           "--ops", str(OPS[workload]), "--reps", "1", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (" ".join(cmd), out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    info = json.loads(next(l for l in lines if l.startswith("info: "))[len("info: "):])
    return info, json.loads(lines[-1])


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


def values(result, names):
    return {n: result["metrics"][n]["value"] for n in names if n in result["metrics"]}


def test(w):
    i1, e1 = run(w, 1, 0)
    i1b, e1b = run(w, 1, 0)
    _, l1 = run(w, 1, 1)
    _, l1b = run(w, 1, 1)
    i2, e2 = run(w, 2, 0)
    check(e1["correct"] and e1b["correct"] and e2["correct"] and l1["correct"],
          "%s: every oracle passes (seeds 1 and 2)" % w)
    check(values(e1, EXACT_E2E) == values(e1b, EXACT_E2E),
          "%s: same seed, same footprint and simulated overhead" % w)
    check(values(l1, EXACT_LAYER) == values(l1b, EXACT_LAYER),
          "%s: same seed, same layer counts %s" % (w, values(l1, EXACT_LAYER)))
    d1, d2 = i1["config"]["input_digest"], i2["config"]["input_digest"]
    check(d1 == i1b["config"]["input_digest"], "%s: same seed, same inputs" % w)
    check(d1 != d2, "%s: another seed changes the inputs (%s vs %s)" % (w, d1, d2))
    _, bad = run(w, 1, 0, "--wrong-reference")
    check(bad["failed"] > 0 and not bad["correct"],
          "%s: a wrong reference fails %d of %d ops" % (w, bad["failed"], bad["attempted"]))


if __name__ == "__main__":
    for w in sys.argv[1:] or WORKLOADS:
        if w not in WORKLOADS:
            sys.exit("unknown workload %r" % w)
        test(w)
