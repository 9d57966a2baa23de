#!/usr/bin/env python3
"""Positive controls and seed checks for the repository benchmark.

    python3 perfbench/controls.py [--seconds S] [--pairs N]

Run from the repository root (it builds through perfbench/run.py). Each
check prints PASS or FAIL; the exit status is the number of failures.

  seed      per workload: the same seed twice gives identical sim_*
            values and completion digest; another seed gives a
            different digest.
  mutation  tc, tsv, upc-planes: a deliberately wrong ISA interpreter
            (--mutation) must be caught, i.e. success_rate < 1. upc is
            run under every mutation and reported, not checked: its
            programs are immune to all of them (see README.md).
  pooling   upc with PULSE_POOLING=off (same simulation, slower host
            path), in alternated pairs: host_ops_per_s must drop by more
            than its bound in BENCHMARK.json, every sim_* bit-identical.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SIM = ("sim_p50_us", "sim_p99_us", "sim_kops", "sim_sat_p99_us")

# The interpreter mutation each workload's programs are sensitive to.
# upc runs only the hash-table find, which branches on equality and
# copies (no ADD, no STORE, no ordered compare), so no interpreter
# mutation changes its answers; see README.md.
MUTATIONS = {
    "tc": "compare-inverted",
    "tsv": "add-off-by-one",
    "upc-planes": "store-drop-byte",
}
ALL_MUTATIONS = ("add-off-by-one", "compare-inverted", "store-drop-byte",
                 "drop-one-branch", "double-join")


def run(workload, seed, seconds, extra=(), env=None):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0", *extra],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    digest = re.search(r"completion digest ([0-9a-f]+)", out.stdout)
    result["digest"] = digest.group(1) if digest else None
    return result


def value(result, name):
    return result["metrics"][name]["value"]


def check(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}", flush=True)
    return 0 if ok else 1


def seed_checks(seconds):
    failures = 0
    for workload in ("upc", "tc", "tsv", "upc-planes"):
        a = run(workload, 1, seconds)
        b = run(workload, 1, seconds)
        c = run(workload, 2, seconds)
        same = all(value(a, m) == value(b, m) for m in SIM)
        failures += check(
            f"seed {workload}",
            same and a["digest"] == b["digest"] != c["digest"],
            f"seed 1 digests {a['digest']} {b['digest']}, seed 2 "
            f"{c['digest']}; sim_* repeat: {same}")
    return failures


def mutation_checks(seconds):
    failures = 0
    for workload, mutation in MUTATIONS.items():
        result = run(workload, 1, seconds, ["--mutation", mutation])
        rate = value(result, "success_rate")
        failures += check(
            f"mutation {workload}", rate < 1.0 and not result["correct"],
            f"{mutation}: success_rate {rate:.4f}, "
            f"{result['failed']} of {result['attempted']} failed")
    for mutation in ALL_MUTATIONS:
        result = run("upc", 1, seconds, ["--mutation", mutation])
        print(f"INFO mutation upc {mutation}: success_rate "
              f"{value(result, 'success_rate'):.4f}, {result['failed']} of "
              f"{result['attempted']} failed", flush=True)
    return failures


def pooling_check(seconds, pairs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"]
                     if m["name"] == "host_ops_per_s")
    off_env = dict(os.environ, PULSE_POOLING="off")
    on, off = [], []
    for i in range(pairs):
        order = [(on, None), (off, off_env)]
        for sink, env in (order if i % 2 == 0 else order[::-1]):
            sink.append(run("upc", 1, seconds, env=env))
    identical = all(value(a, m) == value(b, m)
                    for a in on for b in off for m in SIM)
    on_rate = statistics.median(value(r, "host_ops_per_s") for r in on)
    off_rate = statistics.median(value(r, "host_ops_per_s") for r in off)
    drop = 1.0 - off_rate / on_rate
    return check(
        "pooling upc", identical and drop > bound,
        f"host_ops_per_s median {on_rate:.0f} on vs {off_rate:.0f} off "
        f"({drop:.1%} slower, bound {bound:.0%}) over {pairs} "
        f"alternated pairs; sim_* identical: {identical}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args()
    failures = seed_checks(args.seconds)
    failures += mutation_checks(args.seconds)
    failures += pooling_check(args.seconds, args.pairs)
    return failures


if __name__ == "__main__":
    sys.exit(main())
