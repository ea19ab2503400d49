#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py            # 2 sets x 10 seeds x every workload
    python3 perfbench/steady.py --traced   # two traced runs a workload, seed 1

The workloads and the length of a run come from BENCHMARK.json.  For
every end-to-end metric on every workload it prints each set's median
and quartiles (statistics.quantiles, n=4), the spread (quartile distance
over the median) and the shift of the second median from the first, in
the metric's worse direction, and says whether both stay within the
bound in BENCHMARK.json.  It also compares the share of failed
operations between the sets.  With --traced it runs each workload traced
twice and says whether every count repeats exactly.  The run record goes
to perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    print(f"  {workload} seed {seed} trace {trace}: {wall:.1f} s, "
          f"correct {result['correct']}, {result['failed']}/{result['attempted']} failed",
          flush=True)
    return result


def compare_sets(bench, sets):
    """Print the per-metric table; return True when every figure is within bounds."""
    ok_all = True
    for wl in bench["workloads"]:
        name = wl["name"]
        print(f"\n{name}")
        print(f"  {'metric':18s} {'set':>3s} {'q1':>12s} {'median':>12s} {'q3':>12s} "
              f"{'spread':>8s}  {'bound':>6s}  verdict")
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            meds = []
            for i, runs in enumerate(sets):
                values = [r["metrics"][key]["value"] for r in runs[name]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                meds.append(med)
                ok = spread <= bound
                ok_all &= ok
                verdict = "ok" if ok else "SPREAD OVER BOUND"
                print(f"  {key:18s} {i + 1:3d} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                      f"{spread:8.2%}  {bound:6.2f}  {verdict}")
            worse = (meds[1] - meds[0]) / meds[0]
            if metric["better"] == "higher":
                worse = -worse
            ok = worse <= bound
            ok_all &= ok
            print(f"  {key:18s} shift of set 2 from set 1, worse direction: {worse:+.2%}  "
                  f"{'ok' if ok else 'SHIFT OVER BOUND'}")
        shares = []
        for runs in sets:
            failed = sum(r["failed"] for r in runs[name])
            attempted = sum(r["attempted"] for r in runs[name])
            shares.append(failed / attempted)
        correct = all(r["correct"] for runs in sets for r in runs[name])
        same = shares[0] == shares[1]
        ok_all &= same and correct
        print(f"  failed share: set 1 {shares[0]:.6g}, set 2 {shares[1]:.6g} "
              f"({'equal' if same else 'DIFFERENT'}); all runs correct: {correct}")
    return ok_all


def traced_pair(bench, workloads, seconds):
    """Two traced runs a workload: counts must repeat exactly."""
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    ok_all = True
    for name in workloads:
        a, b = (one_run(name, 1, seconds, 1) for _ in range(2))
        print(f"\n{name} (seed 1, two traced runs)")
        for key in units:
            va, vb = a["metrics"][key]["value"], b["metrics"][key]["value"]
            exact = units[key] not in ("s", "MB")
            same = va == vb
            if exact:
                ok_all &= same
            note = ("repeats" if same else "DIFFERS") if exact else ""
            print(f"  {key:42s} {va:14.6g} {vb:14.6g} {units[key]:12s} {note}")
    return ok_all


SEEDS = range(1, 11)  # the seeds of each set


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if args.traced:
        return 0 if traced_pair(bench, names, seconds) else 1
    sets = []
    for i in range(2):
        print(f"set {i + 1}", flush=True)
        sets.append({name: [one_run(name, s, seconds, 0) for s in SEEDS] for name in names})
    os.makedirs(OUT_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    with open(os.path.join(OUT_DIR, f"steady-{stamp}.json"), "w") as fh:
        json.dump({"seconds": seconds, "seeds": list(SEEDS), "sets": sets}, fh)
    ok = compare_sets(bench, sets)
    print(f"\n{'STEADY' if ok else 'NOT STEADY'}: {len(SEEDS)} seeds a set, {seconds} s a run")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
