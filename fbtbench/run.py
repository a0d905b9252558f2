#!/usr/bin/env python3
"""fbtgen benchmark: one command, three workloads, every metric by name.

    python3 fbtbench/run.py --workload serve_sweep --seed 1 --seconds 40 \
        --trace 0

Builds the harness (fbtbench/CMakeLists.txt, against ../src) into
.bench_build/fbtbench, generates the workload's inputs from --seed and
--seconds (a fixed number of operations, sized to finish well within that
time on the 4-core build host), runs all of them, verifies the outputs and prints a
readable report followed, on the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced flow and
reports the per-layer metrics instead (see WORKLOADS.md). error_rate is
failed / attempted. --write-goldens records the default seed's per-operation
fingerprints into goldens/.
"""

import argparse
import json
import os
import subprocess
import sys

import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build", "fbtbench")
HARNESS = os.path.join(BUILD, "fbtbench_harness")
GOLDENS = os.path.join(HERE, "goldens")
DEFAULT_SEED = 1
# The harness starts no operation after this many times --seconds, so that a
# much slower program still ends (its unrun operations count as failed).
DEADLINE_FACTOR = 2.5

END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"), ("peak_rss_mb", "MB"),
    ("fault_coverage_pct", "%"), ("tests", "count"), ("seeds", "count"),
]

# The layer calls a serve miss makes when every artifact is cached.
WARM_MISS_CALLS = ("bist.construct", "fault.reduce", "bist.cost", "rtl.emit")

LAYERS = ["circuits", "netlist", "fault", "bist", "rtl", "serve", "glue"]

PER_LAYER = [
    ("netlist.flatten_ms", "ms"), ("fault.collapse_ms", "ms"),
    ("circuits.load_ms", "ms"), ("bist.calibrate_ms", "ms"),
    ("bist.calibrate_ns_per_gate_cycle", "ns"), ("bist.construct_ms", "ms"),
    ("bist.construct_us_per_candidate", "us"),
    ("bist.candidates_tried", "count"), ("bist.candidate_yield", "ratio"),
    ("bist.speculation_waste", "ratio"), ("fault.reduce_ms", "ms"),
    ("fault.reduce_ns_per_test_fault", "ns"),
    ("fault.reduce_kept_ratio", "ratio"),
    ("fault.pack_lane_occupancy", "ratio"), ("rtl.emit_ms", "ms"),
    ("rtl.verilog_bytes", "bytes"), ("serve.request_ms.hit", "ms"),
    ("serve.request_ms.miss", "ms"), ("serve.result_bytes", "bytes"),
    ("serve.hit_ms.drift", "ratio"), ("serve.experiment_hit_ratio", "ratio"),
    ("serve.artifact_hit_ratio", "ratio"), ("serve.overhead_ms", "ms"),
    ("jobs.utilization", "ratio"), ("jobs.steals", "count"),
    ("trace.overhead_pct", "%"),
] + [("share." + layer, "ratio") for layer in LAYERS]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; exits 1 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "fbtbench_harness",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                with open(logfile) as f:
                    log(f.read()[-4000:])
                log("fbtbench: build failed (%s)" % " ".join(cmd))
                sys.exit(1)


def run_harness(spec, seconds, trace, tag):
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    spec_path = os.path.join(runs, tag + ".spec.json")
    raw_path = os.path.join(runs, tag + ".raw.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    env = dict(os.environ, FBT_BENCH_OUT_DIR="")
    # The harness's output is for diagnosis only; the report is ours.
    code = subprocess.call(
        [HARNESS, "--spec", spec_path,
         "--deadline", str(DEADLINE_FACTOR * seconds),
         "--trace", str(trace), "--out", raw_path],
        env=env, stdout=sys.stderr)
    if code != 0:
        log("fbtbench: harness exited with %d" % code)
        sys.exit(1)
    with open(raw_path) as f:
        return json.load(f)


def failures_of(raw):
    """Failed checks and failed operations of a raw result, one entry each."""
    return list(raw["check_failures"]) + [
        "operation %d: %s" % (op["index"], op["error"])
        for op in raw["ops"] if not op["ok"]]


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def golden_path(workload):
    return os.path.join(GOLDENS, workload + ".json")


def check_goldens(workload, seed, ops):
    """Failures of the default seed's fingerprints against the goldens."""
    if seed != DEFAULT_SEED:
        return []
    path = golden_path(workload)
    if not os.path.exists(path):
        return ["no goldens at %s" % os.path.relpath(path, HERE)]
    with open(path) as f:
        golden = json.load(f)["fingerprints"]
    return ["operation %d: fingerprint %s, golden %s"
            % (op["index"], op["fingerprint"], golden[str(op["index"])])
            for op in ops
            if op["ok"] and str(op["index"]) in golden
            and golden[str(op["index"])] != op["fingerprint"]]


def write_goldens(workload, ops):
    os.makedirs(GOLDENS, exist_ok=True)
    with open(golden_path(workload), "w") as f:
        json.dump({"seed": DEFAULT_SEED, "fingerprints": {
            str(op["index"]): op["fingerprint"] for op in ops if op["ok"]}},
            f, indent=1, sort_keys=True)
        f.write("\n")


def end_to_end(raw, spec, report):
    ops = raw["ops"]
    ok = [op for op in ops if op["ok"]]
    lat = [op["latency_ms"] for op in ops]
    # The spec fixes the percentile, so every run compares the same one.
    label, tail_value = stats.tail(lat, spec["tail_percentile"])
    report.append("latency_ms.tail is %s over %d samples%s" % (
        label, len(lat), "" if label != "unresolved" else
        ": too few for a percentile with %d beyond, reported as the median"
        % stats.MIN_BEYOND))
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "ops_per_s": len(ops) / raw["loop_s"],
        "latency_ms.p50": stats.median(lat),
        "latency_ms.tail": tail_value,
        "peak_rss_mb": raw["peak_rss_mb"],
        "fault_coverage_pct": mean([op["coverage_pct"] for op in ok]),
        "tests": mean([op["tests"] for op in ok]),
        "seeds": mean([op["seeds"] for op in ok]),
    }


def per_layer(raw, report, failures):
    """Per-layer metrics from the spans and counters of a traced run.

    A layer the workload bypasses reads 0."""
    spans = raw["spans"]
    v = raw["values"]
    ops = raw["ops"]
    durations = {}
    for name, start, end, _, _ in spans:
        durations.setdefault(name, []).append((end - start) / 1e6)

    def med(name):
        return stats.median(durations[name]) if name in durations else 0.0

    def total(name):
        return sum(durations.get(name, ()))

    m = {name: 0.0 for name, _ in PER_LAYER}
    m["netlist.flatten_ms"] = med("netlist.flatten")
    m["fault.collapse_ms"] = med("fault.collapse")
    m["circuits.load_ms"] = med("circuits.load")
    m["bist.calibrate_ms"] = med("bist.calibrate")
    m["bist.calibrate_ns_per_gate_cycle"] = ratio(
        total("bist.calibrate") * 1e6, v.get("flow.calibrate_gate_cycles", 0))
    m["bist.construct_ms"] = med("bist.construct")
    # Construction spans come from the loop (embedded_block) or from the
    # replayed misses (serve_sweep); count candidates over the same calls.
    built = v.get("replay_counter.bist.segments_built",
                  v.get("counter.bist.segments_built", 0))
    m["bist.construct_us_per_candidate"] = ratio(
        total("bist.construct") * 1e3, built)
    flows = len([op for op in ops if op["kind"] in ("", "miss")])
    if "counter.bist.segments_built" in v and flows:
        m["bist.candidates_tried"] = v["counter.bist.segments_built"] / flows
    m["bist.candidate_yield"] = ratio(v.get("counter.bist.segments_accepted", 0),
                                      v.get("counter.bist.segments_built", 0))
    m["bist.speculation_waste"] = ratio(
        v.get("counter.bist.speculation_wasted", 0),
        v.get("counter.bist.speculated_lanes", 0))
    m["fault.reduce_ms"] = med("fault.reduce")
    m["fault.reduce_ns_per_test_fault"] = ratio(
        total("fault.reduce") * 1e6, v.get("flow.reduce_test_faults", 0))
    m["fault.reduce_kept_ratio"] = ratio(v.get("flow.reduce_kept", 0),
                                         v.get("flow.reduce_groups", 0))
    groups = v.get("counter.fault.pack_groups_simulated", 0)
    if groups:
        m["fault.pack_lane_occupancy"] = 1.0 - (
            v.get("counter.fault.pack_lanes_wasted", 0) / (groups * 64.0))
    m["rtl.emit_ms"] = med("rtl.emit")
    m["rtl.verilog_bytes"] = ratio(v.get("flow.rtl_bytes", 0),
                                   len(durations.get("rtl.emit", ())))

    hits = [op for op in ops if op["kind"] == "hit"]
    misses = [op for op in ops if op["kind"] == "miss"]
    if hits or misses:
        if hits:
            m["serve.request_ms.hit"] = stats.median(
                [op["latency_ms"] for op in hits])
            by_end = sorted(hits, key=lambda op: op["end_s"])
            q = max(1, len(by_end) // 4)
            m["serve.hit_ms.drift"] = ratio(
                stats.median([op["latency_ms"] for op in by_end[-q:]]),
                stats.median([op["latency_ms"] for op in by_end[:q]]))
        if misses:
            m["serve.request_ms.miss"] = stats.median(
                [op["latency_ms"] for op in misses])
        m["serve.result_bytes"] = stats.median(
            [op["result_bytes"] for op in ops if op["ok"]])
        m["serve.experiment_hit_ratio"] = len(hits) / len(ops)
        m["serve.artifact_hit_ratio"] = ratio(
            v.get("serve.artifact_hits", 0),
            v.get("serve.artifact_hits", 0) + v.get("serve.artifact_misses", 0))
        m["serve.overhead_ms"] = v.get("serve.overhead_ms", 0.0)
    if "jobs.workers" in v:
        m["jobs.utilization"] = ratio(
            v["jobs.busy_ms"], v["jobs.workers"] * v["jobs.elapsed_ms"])
        m["jobs.steals"] = v["jobs.steals"]
    if "trace.overhead_ratio" in v:
        m["trace.overhead_pct"] = 100.0 * (v["trace.overhead_ratio"] - 1.0)
        report.append("tracing overhead: %+.2f%%, the median traced/untraced "
                      "time of %d operations, each run untraced at once "
                      "after its traced run" % (m["trace.overhead_pct"],
                                                v["trace.selfcheck_ops"]))

    # Layer self-times: each operation's layers must add up to its span.
    breakdown = stats.op_breakdown([tuple(s) for s in spans])
    layer_ns = {layer: 0 for layer in LAYERS}
    root_ns = 0
    for root, op, duration, layers in breakdown:
        if sum(layers.values()) != duration:
            failures.append("layer self-times of %s op %d sum to %d ns, "
                            "span is %d ns" % (root, op, sum(layers.values()),
                                               duration))
        if root == "flow" and misses:
            continue  # serve_sweep's replays, apportioned below
        root_ns += duration
        for layer, ns in layers.items():
            layer_ns[layer] += ns
    if misses:
        # A handle_line span is opaque: it holds the serve layer and, on a
        # miss, the flow it ran. Charge each miss the replayed flow's mean
        # time in the calls a cache-warm miss makes; serve keeps the rest.
        selfs = stats.self_times([tuple(s) for s in spans])
        replays = len([s for s in spans if s[0] == "flow"])
        for s, ns in zip(spans, selfs):
            if replays and s[0] in WARM_MISS_CALLS:
                charged = ns * len(misses) / replays
                layer_ns[stats.layer_of(s[0])] += charged
                layer_ns["serve"] -= charged
    for layer in LAYERS:
        m["share." + layer] = ratio(layer_ns[layer], root_ns)
    report.append("layer self time, share of the timed operations (%d spans):"
                  % len(spans))
    for layer in LAYERS:
        report.append("  %-9s %10.1f ms  %5.1f%%" % (
            layer, layer_ns[layer] / 1e6, 100 * m["share." + layer]))
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)

    build()
    spec = workloads.make_spec(args.workload, args.seed, args.seconds)
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    raw = run_harness(spec, args.seconds, args.trace, tag)

    ops = raw["ops"]
    failures = failures_of(raw)
    golden_failures = check_goldens(args.workload, args.seed, ops)
    if args.write_goldens and args.seed == DEFAULT_SEED and not args.trace:
        write_goldens(args.workload, ops)
        golden_failures = []
    failures += golden_failures

    report = []
    if args.trace:
        metrics, units = per_layer(raw, report, failures), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(raw, spec, report), dict(END_TO_END)

    # Each failed operation or failed check counts once against error_rate.
    attempted = max(1, len(ops))
    failed = min(attempted, len(failures))
    print("fbtbench %s seed %d, %d operations in %.2f s, trace %d" % (
        args.workload, args.seed, len(ops), raw["loop_s"], args.trace))
    for line in report:
        print(line)
    for name, unit in (PER_LAYER if args.trace else END_TO_END):
        print("  %-36s %14.6g %s" % (name, metrics[name], unit))
    print("error_rate %.6g (%d failed of %d attempted)" % (
        failed / attempted, failed, attempted))
    for f in failures[:20]:
        print("FAILED: " + f)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }))


if __name__ == "__main__":
    main()
