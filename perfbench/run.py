#!/usr/bin/env python3
"""Runs one workload of the MAP-IT repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script
  1. builds the libraries, the `mapit` CLI and the harness from source into
     .bench_build/cmake (perfbench/CMakeLists.txt);
  2. generates the workload's inputs from the seed with eval::Experiment,
     cached in .bench_build/inputs by (kind, seed, generator settings);
  3. runs the workload for S seconds and checks its outputs;
  4. prints report lines, then one JSON line: with --trace 0 the end-to-end
     metrics of BENCHMARK.json, with --trace 1 its per-layer metrics, reduced
     from the spans of a traced run (perfbench/reduce.py).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
PERFBENCH = os.path.join(CMAKE_DIR, "perfbench")
MAPIT = os.path.join(CMAKE_DIR, "mapit_tools", "mapit")

sys.dont_write_bytecode = True
sys.path.insert(0, BENCH)
import reduce  # noqa: E402

# Input kinds. Bump GENERATOR_VERSION when generation changes, so cached
# inputs are rebuilt.
GENERATOR_VERSION = 1
WORKLOADS = {
    # workload: (harness command, input kind)
    "cold_snapshot": ("cold", "x4"),
    "ingest_live": ("ingest", "standard"),
    "serve_mix": ("serve", "x4"),
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run(command, timeout):
    """Runs a build or generation step; its output goes to stderr."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout, cwd=ROOT)
    if result.returncode != 0:
        sys.exit(f"perfbench: {command[0]} {command[1]} failed "
                 f"(exit {result.returncode})")


def build():
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        run(["cmake", "-S", BENCH, "-B", CMAKE_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", CMAKE_DIR, "-j", jobs,
         "--target", "perfbench", "mapit_cli"], 840)


def inputs(kind, seed):
    """Directory of generated inputs, generating them on a cache miss."""
    if kind == "x4":
        # The standard Internet probed by 4x the standard 40 monitors.
        settings = {"monitors": 160, "delta_traces": 0, "snapshot": True}
    else:
        # 200,000 traces from further campaigns over the same Internet: 200
        # distinct 1000-trace delta batches, one per batch of a 20 s run.
        settings = {"monitors": 40, "delta_traces": 200_000, "snapshot": False}
    key = json.dumps([GENERATOR_VERSION, kind, settings], sort_keys=True)
    digest = hashlib.sha1(key.encode()).hexdigest()[:12]
    directory = os.path.join(BUILD, "inputs", f"{kind}-seed{seed}-{digest}")
    if os.path.exists(os.path.join(directory, "DONE")):
        return directory
    staging = directory + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    log(f"perfbench: generating {kind} inputs for seed {seed}")
    run([PERFBENCH, "gen", "--seed", str(seed),
         "--monitors", str(settings["monitors"]),
         "--delta-traces", str(settings["delta_traces"]), "--out", staging], 170)
    if settings["snapshot"]:
        files = {name: os.path.join(staging, f"{name}.txt") for name in
                 ("traces", "rib", "relationships", "as2org", "ixps")}
        run([MAPIT, "snapshot", "--threads", "2", "--traces", files["traces"],
             "--rib", files["rib"], "--relationships", files["relationships"],
             "--as2org", files["as2org"], "--ixps", files["ixps"],
             "--out", os.path.join(staging, "snapshot.bin")], 120)
    with open(os.path.join(staging, "DONE"), "w") as f:
        f.write(key + "\n")
    shutil.rmtree(directory, ignore_errors=True)
    os.rename(staging, directory)
    return directory


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    command, kind = WORKLOADS[args.workload]
    directory = inputs(kind, args.seed)

    work = os.path.join(BUILD, "work", args.workload)
    os.makedirs(work, exist_ok=True)
    trace_file = os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}.tsv")
    os.makedirs(os.path.dirname(trace_file), exist_ok=True)
    argv = [PERFBENCH, command, "--inputs", directory, "--mapit", MAPIT,
            "--work", work, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--trace-out", trace_file]
    result = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, timeout=170, cwd=ROOT)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit(f"perfbench: workload {args.workload} failed "
                 f"(exit {result.returncode})")
    outcome = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    measured = outcome["metrics"]
    results_file = os.path.join(BUILD, "results", f"{args.workload}-seed{args.seed}.json")
    if args.trace == 0:
        os.makedirs(os.path.dirname(results_file), exist_ok=True)
        with open(results_file, "w") as f:
            json.dump(outcome, f)
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: measured[name] for name in names}
    else:
        untraced = None
        if os.path.exists(results_file):
            with open(results_file) as f:
                untraced = json.load(f)["metrics"]
        layers = spec["per_layer"]
        values = reduce.reduce(trace_file, [m["name"] for m in layers],
                               untraced=untraced, traced=measured)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in layers}
    for name, value in measured.items():
        print(f"{args.workload}: {name} = {value['value']:.6g} {value['unit']}")
    print(json.dumps({"correct": outcome["correct"],
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
