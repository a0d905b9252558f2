"""Workload generators: the inputs of each workload, made from its seed.

Each generator returns a spec (a JSON-ready dict) that the harness reads;
the program under test sees only what the spec holds. The same seed and
run length give the same spec; WORKLOADS.md says why each workload exists.

The run length sets a fixed amount of work, not a deadline: a run serves
every operation of its spec, so a faster program finishes sooner rather
than doing more. serve_sweep's cost per request grows with the daemon's
uptime, and only a fixed count makes every run end at the same uptime.
"""

import json
import random

import stats

# The 18 small ISCAS89 circuits of the circuits registry, s298 ... s1494.
SMALL_ISCAS89 = [
    "s298", "s344", "s349", "s382", "s386", "s444", "s510", "s526", "s641",
    "s713", "s820", "s832", "s953", "s1196", "s1238", "s1423", "s1488",
    "s1494",
]

# Unconstrained flow of bench_flow_smoke: calibration 4x400, L=200, R=Q=2.
FLOW_SMOKE = {
    "cal_sequences": 4, "cal_length": 400, "segment_length": 200,
    "max_segment_failures": 2, "max_sequence_failures": 2,
    "equal_scan": False, "emit_rtl": False,
}

# The embedded-block scenario of Table 4.3 (equal scan partition, RTL
# emitted) at lower effort: calibration 4x400, L=100, R=Q=2. An experiment
# takes about 1.9 s on the 4-core build host, against 4-11 s with Table
# 4.3's effort, so a run holds enough experiments for a steady median (see
# WORKLOADS.md).
EMBEDDED_FLOW = dict(FLOW_SMOKE, segment_length=100, equal_scan=True,
                     emit_rtl=True)

SEED_RANGE = 2 ** 31          # rng seeds the sweep draws lie in [1, 2^31)
PRIME_SEED = SEED_RANGE       # seed of priming and warm-up runs, never drawn
REPEAT_EVERY = 4              # every 4th serve request repeats a line
SERVE_SAMPLE_POOL = 32        # first-occurrence candidates for re-checks
# Operations per second of run length. On the 4-core build host a 40 s run
# serves its 500 requests in about 22 s, and its 20 experiments in about
# 37 s; the deadline (run.py) absorbs a slower host.
SERVE_REQUESTS_PER_S = 12.5
EMBEDDED_SECONDS_PER_EXPERIMENT = 2.0


def request_line(rid, target, rng_seed, flow):
    """An experiment request as a sweeping client sends it: it reads only
    the result, so it asks for no progress stream."""
    config = {k: flow[k] for k in (
        "cal_sequences", "cal_length", "segment_length",
        "max_segment_failures", "max_sequence_failures")}
    config["rng_seed"] = rng_seed
    return json.dumps({"type": "experiment", "id": rid, "target": target,
                       "driver": "buffers", "stream_progress": False,
                       "config": config},
                      separators=(",", ":"))


def operations(seconds, per_second):
    return max(1, int(round(seconds * per_second)))


def serve_sweep(seed, seconds):
    """Every fourth request repeats a seed-chosen earlier line word for word;
    the others draw a fresh rng_seed, cycling through the circuits in
    seed-shuffled rounds so that every seed loads each circuit equally."""
    n = operations(seconds, SERVE_REQUESTS_PER_S)
    rng = random.Random("serve_sweep:%d" % seed)
    requests, meta, first, round_ = [], [], [], []
    for i in range(n):
        if i % REPEAT_EVERY == REPEAT_EVERY - 1:
            j = rng.randrange(i)
            requests.append(requests[j])
            meta.append(meta[j])
            continue
        if not round_:
            round_ = list(SMALL_ISCAS89)
            rng.shuffle(round_)
        target = round_.pop()
        rng_seed = rng.randrange(1, SEED_RANGE)
        requests.append(request_line("r%d" % i, target, rng_seed, FLOW_SMOKE))
        meta.append({"target": target, "rng_seed": rng_seed})
        first.append(i)
    # Misses to recompute: first occurrences, in a seed-chosen order.
    sample = list(first)
    rng.shuffle(sample)
    return {
        "workload": "serve_sweep", "clients": 2, "workers": 2,
        "setup_reps": 3, "flow": FLOW_SMOKE,
        "tail_percentile": stats.tail_percentile(n),
        "prime": [request_line("prime-%s" % c, c, PRIME_SEED, FLOW_SMOKE)
                  for c in SMALL_ISCAS89],
        "requests": requests, "meta": meta,
        "sample": sample[:SERVE_SAMPLE_POOL], "sample_size": 4,
    }


def embedded_block(seed, seconds):
    n = operations(seconds, 1.0 / EMBEDDED_SECONDS_PER_EXPERIMENT)
    rng = random.Random("embedded_block:%d" % seed)
    drivers = ("wb_dma", "wb_conmax")
    return {
        "workload": "embedded_block", "target": "spi", "flow": EMBEDDED_FLOW,
        "drivers": list(drivers),
        "setup_reps": 3,
        "warmup": {"driver": drivers[0], "rng_seed": PRIME_SEED},
        "tail_percentile": stats.tail_percentile(n),
        # Traced operations each followed at once by their untraced twin.
        "overhead_pairs": 3,
        "experiments": [{"driver": drivers[i % 2],
                         "rng_seed": rng.randrange(1, SEED_RANGE)}
                        for i in range(n)],
    }


GENERATORS = {
    "serve_sweep": serve_sweep,
    "embedded_block": embedded_block,
}


def make_spec(workload, seed, seconds):
    return GENERATORS[workload](seed, seconds)
