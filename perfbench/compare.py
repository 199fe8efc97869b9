#!/usr/bin/env python3
"""Compare two sets of benchmark runs, and print a traced run's layer table.

Run two checkouts (or one against itself) interleaved, then summarize:

    python3 perfbench/compare.py --base ../parent --head . --seeds 1-10 --log runs.jsonl

Each seed runs every workload on both sides, alternating which side goes
first, so drift of the machine over minutes lands on both sides alike.
Afterwards one traced run per workload and side gives the layer table.
The summary prints, per workload and end-to-end metric, each side's
median and quartiles, the quartile spread as a share of the median, and
whether the spread and the head's change stay within the metric's bound
in BENCHMARK.json; it exits 1 if either does not, or if a run failed.

    python3 perfbench/compare.py --log runs.jsonl     # summarize a log again
    python3 perfbench/compare.py --layers trace.json  # one trace's layer table

The log holds one JSON record per run; traces are copied next to it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bench(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root, workload, seed, seconds, trace):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return {"exit": p.returncode, "result": result}


def run_sets(args, bench):
    sides = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    log_dir = os.path.dirname(os.path.abspath(args.log))
    with open(args.log, "a") as log:
        def record(rec):
            log.write(json.dumps(rec) + "\n")
            log.flush()
            r = rec["result"] or {}
            print(f"{rec['side']:4} {rec['workload']:13} seed {rec['seed']:<4} trace {rec['trace']} "
                  f"exit {rec['exit']} failed {r.get('failed')}", file=sys.stderr)

        for i, seed in enumerate(seeds):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for w in workloads:
                for side in order:
                    rec = run_once(sides[side], w, seed, seconds, 0)
                    record(dict(rec, side=side, workload=w, seed=seed, trace=0))
        for w in workloads:
            for side in ["base", "head"]:
                rec = run_once(sides[side], w, seeds[0], seconds, 1)
                build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
                src = os.path.join(sides[side], build, "perfbench", f"trace-{w}-{seeds[0]}.json")
                dst = os.path.join(log_dir, f"trace-{side}-{w}-{seeds[0]}.json")
                if os.path.exists(src):
                    shutil.copyfile(src, dst)
                record(dict(rec, side=side, workload=w, seed=seeds[0], trace=1, trace_file=dst))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarize(records, bench):
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    untraced = [r for r in records if r["trace"] == 0]
    workloads = sorted({r["workload"] for r in untraced})
    sides = [s for s in ("base", "head") if any(r["side"] == s for r in untraced)]
    failed = [r for r in untraced if r["exit"] != 0 or not r["result"] or r["result"]["failed"]]
    print(f"{len(untraced)} untraced runs, {len(failed)} failed or with failed checks")
    all_ok = not failed
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':14} {'side':4} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
              f"{'bound':>6}  verdict")
        for name, m in e2e.items():
            meds = {}
            for side in sides:
                vals = [r["result"]["metrics"][name]["value"] for r in untraced
                        if r["side"] == side and r["workload"] == w and r["result"]]
                if len(vals) < 2:
                    continue
                med, q1, q3, sp = spread(vals)
                meds[side] = med
                noisy = sp > m["bound"]
                all_ok &= not noisy
                print(f"{name:14} {side:4} {len(vals):3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{sp:7.2%} {m['bound']:6.2f}  {'spread above bound' if noisy else ''}")
            if len(meds) == 2 and meds["base"]:
                change = (meds["head"] - meds["base"]) / meds["base"]
                worse = change if m["better"] == "lower" else -change
                ok = worse <= m["bound"]
                all_ok &= ok
                print(f"{'':14} head vs base: {change:+.2%}  {'within bound' if ok else 'WORSE THAN BOUND'}")
    for r in records:
        if r["trace"] == 1 and r.get("trace_file") and os.path.exists(r["trace_file"]):
            walls = [x["result"]["metrics"]["wall_s"]["value"] for x in untraced
                     if x["side"] == r["side"] and x["workload"] == r["workload"] and x["result"]]
            print(f"\n== layers: {r['workload']} ({r['side']}, seed {r['seed']})")
            layer_table(r["trace_file"])
            if walls and r["result"]:
                traced = r["result"]["metrics"]["trace.wall_s"]["value"]
                base = statistics.median(walls)
                print(f"tracing overhead: traced wall {traced:.4f} s vs untraced median {base:.4f} s "
                      f"({(traced - base) / base:+.2%})")
    return all_ok


def layer_table(path):
    """Span tree aggregated by name path: calls, total and self seconds.

    Self time is a span's duration minus its children's. Engine phases
    and server time carried in span args are shown beneath their span,
    with the part they do not cover as "unattributed"."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    child_sum = {}
    for e in events:
        child_sum[e["args"]["parent"]] = child_sum.get(e["args"]["parent"], 0.0) + e["dur"]

    def path_of(e):
        names = []
        while e is not None:
            names.append(e["name"])
            e = by_id.get(e["args"]["parent"])
        return tuple(reversed(names))

    rows = {}
    extra = {}
    for e in events:
        key = path_of(e)
        row = rows.setdefault(key, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += e["dur"] / 1e6
        row[2] += (e["dur"] - child_sum.get(e["args"]["id"], 0.0)) / 1e6
        args = e["args"]
        stats = args.get("report") or (args.get("pass") or {}).get("stats")
        if stats:
            sub = extra.setdefault(key, {})
            for k, v in stats["phases_s"].items():
                if k != "total":
                    sub["engine " + k] = sub.get("engine " + k, 0.0) + v
            if "server_s" in args:
                sub["server"] = sub.get("server", 0.0) + args["server_s"]
    print(f"{'span':44} {'calls':>6} {'total s':>10} {'self s':>10}")
    for key in sorted(rows):
        n, total, self_ = rows[key]
        print(f"{'  ' * (len(key) - 1) + key[-1]:44} {n:6} {total:10.4f} {self_:10.4f}")
        sub = extra.get(key)
        if not sub:
            continue
        pad = "  " * len(key)
        phases = sum(v for k, v in sub.items() if k.startswith("engine "))
        for k, v in sub.items():
            if k.startswith("engine "):
                print(f"{pad + k:44} {'':6} {v:10.4f}")
        if "server" in sub:
            print(f"{pad + 'server (reports wall_s)':44} {'':6} {sub['server']:10.4f}")
            print(f"{pad + 'unattributed: rtt - server':44} {'':6} {total - sub['server']:10.4f}")
            print(f"{pad + 'unattributed: server - engine phases':44} {'':6} {sub['server'] - phases:10.4f}")
        else:
            print(f"{pad + 'unattributed: call - engine phases':44} {'':6} {total - phases:10.4f}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", help="checkout to compare against")
    p.add_argument("--head", help="checkout under test (may equal --base)")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--log", help="JSON-lines log of runs (appended to)")
    p.add_argument("--layers", help="print the layer table of one trace file and exit")
    a = p.parse_args()
    if a.layers:
        layer_table(a.layers)
        return
    if not a.log:
        p.error("--log is required")
    bench = load_bench(os.path.dirname(HERE))
    if a.base or a.head:
        if not (a.base and a.head):
            p.error("--base and --head go together")
        run_sets(a, bench)
    with open(a.log) as f:
        records = [json.loads(line) for line in f if line.strip()]
    sys.exit(0 if summarize(records, bench) else 1)


if __name__ == "__main__":
    main()
