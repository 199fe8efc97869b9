#!/usr/bin/env python3
"""Check that the benchmark's inputs are reproducible and seed-steady.

    python3 perfbench/steady.py --seeds 1-5

Run from the repository root. For each workload it

  * generates the first seed's inputs twice and requires byte-identical
    files, and
  * runs one short traced run per seed and requires each deterministic
    work count (input size, SAT propagations, simulated node-words) to
    stay within 5% of its median across the seeds.

Runs that alternate seeds then measure the same amount of work, so their
medians are not bimodal. Exits 1 if any check fails.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
from compare import parse_seeds  # noqa: E402

TOLERANCE = 0.05

# Deterministic per-layer counts that set the amount of timed work. A
# sweepd-cache pass is the warm session: it answers every cache hit by
# replaying the stored certificate, and solves nothing.
COUNTS = {
    "sweep-stp": ["aig.input_ands", "sweep.sat_calls", "sat.propagations"],
    "sim-kernel": ["aig.input_ands", "klut.input_luts", "sim.node_words"],
    "sweepd-cache": ["aig.input_ands", "warm.cache.hits", "warm.cache.bytes"],
}


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", default="1-5")
    a = p.parse_args()
    seeds = parse_seeds(a.seeds)
    if len(seeds) < 5:
        p.error("use at least five seeds")
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    exes = run.build()
    tmp = os.path.join(run.build_dir(), "perfbench", f"steady-{os.getpid()}")
    os.makedirs(tmp)
    ok = True
    for w in workloads:
        dirs = [os.path.join(tmp, f"{w}-{k}") for k in (1, 2)]
        for d in dirs:
            run.make_inputs(exes, w, seeds[0], d, run.RUN_DEADLINE_S)
        names = sorted(os.listdir(dirs[0]))
        same = names == sorted(os.listdir(dirs[1])) and not filecmp.cmpfiles(*dirs, names, shallow=False)[1]
        ok &= same
        print(f"{w}: seed {seeds[0]} inputs {'byte-identical' if same else 'DIFFER'} across two generations")
        values = {c: [] for c in COUNTS[w]}
        for s in seeds:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(s),
                 "--seconds", "1", "--trace", "1"],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
            for c in COUNTS[w]:
                values[c].append(metrics[c]["value"])
        for c, v in values.items():
            med = statistics.median(v)
            dev = max(abs(x - med) for x in v) / med
            good = dev <= TOLERANCE
            ok &= good
            print(f"  {c:24} median {med:14.0f}  max deviation {dev:6.2%}  {'ok' if good else 'TOO SPREAD'}")
    shutil.rmtree(tmp)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
