#!/usr/bin/env python3
"""Span reducer for perfbench traces.

Reads the tab-separated trace a traced run writes (meta, span and counter
lines; see harness/tracing.h), and prints per layer: call count, self time,
CPU time and allocations, the share of the wall time the layer spans cover,
and the tracing overhead when the untraced result of the same workload and
seed is given. Also computes the per-layer metrics BENCHMARK.json names.

    python3 perfbench/reduce.py TRACE.tsv [UNTRACED_RESULT.json]

A span's self time is its duration minus the part of it its child spans
cover. Per-layer figures are medians over runs (repetitions, batches or
passes) of the per-run sums, except `.ns` figures, which are total self time
divided by total calls.
"""

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    meta, spans, counters = {}, [], []
    with open(path) as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "meta":
                meta[fields[1]] = fields[2]
            elif fields[0] == "span":
                name, run, parent, calls, start, end, cpu, allocs, nbytes = fields[1:]
                spans.append({
                    "name": name, "run": int(run), "parent": int(parent),
                    "calls": int(calls), "start": int(start), "end": int(end),
                    "cpu": int(cpu), "allocs": int(allocs), "bytes": int(nbytes),
                })
            elif fields[0] == "counter":
                counters.append((fields[1], int(fields[2]), float(fields[3])))
    return meta, spans, counters


def add_self_times(spans):
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(index)
    for index, span in enumerate(spans):
        covered, reach = 0, span["start"]
        for child in sorted(children[index], key=lambda i: spans[i]["start"]):
            start = max(spans[child]["start"], reach)
            end = min(spans[child]["end"], span["end"])
            if end > start:
                covered += end - start
                reach = end
        span["self"] = span["end"] - span["start"] - covered


def per_run(items, value):
    """Median over runs of the per-run sum of value(item)."""
    sums = defaultdict(float)
    for item in items:
        sums[item["run"]] += value(item)
    return statistics.median(sums.values()) if sums else 0.0


def layer_metric(name, by_name, counters_by_name):
    """Value and unit of one per-layer metric; 0 when its layer did not run."""
    if name in counters_by_name:
        runs = defaultdict(float)
        for run, value in counters_by_name[name]:
            runs[run] += value
        return statistics.median(runs.values())
    layer, _, stat = name.rpartition(".")
    spans = by_name.get(layer, [])
    if not spans:
        return 0.0
    if stat == "ms":
        return per_run(spans, lambda s: s["self"] / 1e6)
    if stat == "cpu_ms":
        return per_run(spans, lambda s: s["cpu"] / 1e6)
    if stat == "allocs":
        return per_run(spans, lambda s: s["allocs"])
    if stat == "ns":
        return sum(s["self"] for s in spans) / max(1, sum(s["calls"] for s in spans))
    raise ValueError(f"unknown per-layer statistic in {name}")


def reduce(path, per_layer=(), untraced=None, traced=None, out=sys.stdout):
    """Prints the layer table; returns {metric: value} for `per_layer` names."""
    meta, spans, counters = load(path)
    add_self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    counters_by_name = defaultdict(list)
    for name, run, value in counters:
        counters_by_name[name].append((run, value))

    print(f"layers of {meta.get('workload', '?')} seed {meta.get('seed', '?')}"
          " (self time; medians per run):", file=out)
    print(f"  {'span':30} {'calls':>9} {'runs':>5} {'self ms/run':>12}"
          f" {'cpu ms/run':>11} {'allocs/run':>11} {'alloc KiB/run':>13}"
          f" {'self ms total':>14}", file=out)
    for name, group in sorted(by_name.items(), key=lambda kv: -sum(s["self"] for s in kv[1])):
        runs = len({s["run"] for s in group})
        print(f"  {name:30} {sum(s['calls'] for s in group):9d} {runs:5d}"
              f" {per_run(group, lambda s: s['self'] / 1e6):12.3f}"
              f" {per_run(group, lambda s: s['cpu'] / 1e6):11.3f}"
              f" {per_run(group, lambda s: s['allocs']):11.0f}"
              f" {per_run(group, lambda s: s['bytes'] / 1024):13.1f}"
              f" {sum(s['self'] for s in group) / 1e6:14.3f}", file=out)

    roots = [s for s in spans if s["parent"] < 0]
    root_names = {s["name"] for s in roots}
    for root in sorted(root_names):
        group = [s for s in roots if s["name"] == root]
        wall = statistics.median(s["end"] - s["start"] for s in group) / 1e6
        own = statistics.median(s["self"] for s in group) / 1e6
        if wall > 0 and any(s["parent"] >= 0 for s in spans):
            print(f"  {root}: layer spans cover {100 * (wall - own) / wall:.1f}%"
                  f" of {wall:.3f} ms per run", file=out)
    if "cli_wall_ms" in meta and "cold.pipeline" in root_names:
        cli = float(meta["cli_wall_ms"])
        # Fastest against fastest: repetitions are bimodal under neighbour
        # interference (see cold.cpp).
        best = min((s for s in roots if s["name"] == "cold.pipeline"),
                   key=lambda s: s["end"] - s["start"])
        covered = (best["end"] - best["start"] - best["self"]) / 1e6
        print(f"  best mapit snapshot wall {cli:.3f} ms: layer spans cover"
              f" {100 * covered / cli:.1f}%; uncovered {cli - covered:.3f} ms ="
              " tracing overhead + CLI start-up and exit", file=out)
    if untraced and traced:
        for name in sorted(set(untraced) & set(traced)):
            a, b = untraced[name]["value"], traced[name]["value"]
            if name in ("op_latency_ms", "op_latency_ms_tail", "op_cpu_ms"):
                print(f"  tracing overhead on {name}: {b - a:+.4f}"
                      f" {traced[name]['unit']} ({b:.4f} traced vs {a:.4f})", file=out)
    elif untraced is None:
        print("  tracing overhead: run the same workload and seed with"
              " --trace 0 first", file=out)
    return {name: layer_metric(name, by_name, counters_by_name) for name in per_layer}


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    untraced = None
    if len(sys.argv) == 3:
        with open(sys.argv[2]) as f:
            untraced = json.load(f)["metrics"]
    reduce(sys.argv[1], untraced=untraced)
