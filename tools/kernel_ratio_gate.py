#!/usr/bin/env python3
"""Gates the time of one kernel against another in a bench_kernels JSON.

    python3 tools/kernel_ratio_gate.py BENCH_kernels.json \\
        --numerator BM_InputCube --denominator BM_BitSimEval64 --max-ratio 20

For every circuit both kernels ran on (benchmark names `<kernel>/<circuit>`,
as BENCHMARK_CAPTURE writes them), prints numerator time / denominator time
and exits 1 when any ratio exceeds --max-ratio or no circuit has both. Both
kernels run on the same runner in the same process, so the ratio does not
depend on the hardware the way an absolute time does.
"""

import argparse
import json
import sys

# google-benchmark time units, in nanoseconds.
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def times_by_circuit(benchmarks, kernel):
    """Real time in ns of each `kernel/<circuit>` iteration run."""
    times = {}
    for bench in benchmarks:
        if bench.get("run_type", "iteration") != "iteration":
            continue  # aggregates of --benchmark_repetitions
        name, _, circuit = bench["name"].partition("/")
        if name == kernel and circuit:
            times[circuit] = bench["real_time"] * UNIT_NS[bench["time_unit"]]
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="bench_kernels --benchmark_out JSON")
    parser.add_argument("--numerator", required=True)
    parser.add_argument("--denominator", required=True)
    parser.add_argument("--max-ratio", type=float, required=True)
    args = parser.parse_args()

    with open(args.report) as f:
        benchmarks = json.load(f)["benchmarks"]
    num = times_by_circuit(benchmarks, args.numerator)
    den = times_by_circuit(benchmarks, args.denominator)
    circuits = sorted(set(num) & set(den))
    if not circuits:
        print(f"no circuit has both {args.numerator} and {args.denominator}")
        return 1
    failed = False
    for circuit in circuits:
        ratio = num[circuit] / den[circuit]
        verdict = "ok" if ratio <= args.max_ratio else "FAIL"
        failed |= ratio > args.max_ratio
        print(f"{circuit}: {args.numerator} {num[circuit]:.0f} ns / "
              f"{args.denominator} {den[circuit]:.0f} ns = {ratio:.2f}x "
              f"(max {args.max_ratio:g}x) {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
