#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload sweep-stp --seed 1 --seconds 12 --trace 0

Run from the repository root. The script builds the benchmark programs
and the sweepd daemon from source with dune (into $CARGO_TARGET_DIR,
default .bench_build), then pins itself to the CPU it is on, writes the
seed's inputs in a separate process (make_inputs.exe), runs the workload
(harness.exe) in a scratch directory of its own, and prints one JSON
object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the spans are also
written as a Chrome trace to <build dir>/perfbench/trace-<workload>-<seed>.json.
A failed output check prints the result line and exits 1; any other
failure exits non-zero without one.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

# A run must end within 180 s once the programs are built.
RUN_DEADLINE_S = 170


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Build the programs; returns absolute paths by short name."""
    targets = ["perfbench/make_inputs.exe", "perfbench/harness.exe", "bin/sweepd.exe"]
    subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir(), "--profile", "release",
         "--cache", "disabled"]
        + targets,
        stdout=sys.stderr,
        check=True,
    )
    return {
        os.path.basename(t)[: -len(".exe")]: os.path.abspath(os.path.join(build_dir(), "default", t))
        for t in targets
    }


def pin_to_one_cpu():
    """Keep this process and all it starts on the CPU it is running on.

    The scheduler may not balance load across the CPUs (on the VM this
    benchmark was written on, cpuset.sched_load_balance is 0), so a
    thread stays where it happened to start. The sweepd daemon runs two
    OCaml domains; a warm pass took 25-45% longer when all its threads
    shared one CPU than when the worker domain's thread sat on the other
    one, and unpinned sweepd-cache runs fell into one mode or the other
    for minutes at a time. Pinned, every run places its threads alike."""
    with open("/proc/self/stat") as f:
        cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def make_inputs(exes, workload, seed, out_dir, timeout):
    subprocess.run([exes["make_inputs"], workload, str(seed), out_dir], check=True, timeout=timeout)


def stop_group(pgid):
    """Kill whatever is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(bench, workload, seed, seconds, trace):
    exes = build()
    pin_to_one_cpu()
    start = time.monotonic()
    base = os.path.abspath(os.path.join(build_dir(), "perfbench"))
    work = os.path.join(base, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = os.path.join(work, "inputs")
    make_inputs(exes, workload, seed, inputs, RUN_DEADLINE_S)
    trace_file = os.path.join(base, f"trace-{workload}-{seed}.json")
    proc = subprocess.Popen(
        [exes["harness"], workload, str(seed), inputs, str(seconds), str(trace),
         exes["sweepd"], trace_file],
        cwd=work,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, RUN_DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        sys.exit(f"run.py: {workload} did not finish in time")
    finally:
        stop_group(proc.pid)
    lines = out.strip().splitlines()
    if not lines:
        sys.exit(f"run.py: harness exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    declared = bench["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        sys.exit(f"run.py: harness metrics do not match BENCHMARK.json: "
                 f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}")
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)
    shutil.rmtree(work, ignore_errors=True)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    try:
        run(bench, a.workload, a.seed, a.seconds, a.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        sys.exit(f"run.py: {e}")


if __name__ == "__main__":
    main()
