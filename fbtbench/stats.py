"""Arithmetic of the benchmark report: percentiles, the tail choice, and
span self-times. Pure functions, unit-tested in tests/test_stats.py."""

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p):
    """Linearly interpolated p-th percentile (0 <= p <= 100) of `values`."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def median(values):
    return percentile(values, 50.0)


def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile."""
    return int(n * (100.0 - p) / 100.0 + 1e-9)


def tail_percentile(n, min_beyond=MIN_BEYOND):
    """The highest candidate percentile with at least `min_beyond` of n
    samples beyond it, or None when n < 2 * min_beyond (no candidate
    qualifies).

    A workload fixes its sample count, so this is chosen once per workload
    and every run, on every commit, reports the same percentile.
    """
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def tail(values, p):
    """(label, value) of the tail of `values` at percentile `p`.

    With p None the tail is not resolved: the label is "unresolved" and the
    value falls back to the median, which is the highest percentile too few
    samples estimate steadily.
    """
    if p is None:
        return "unresolved", median(values)
    return "p%g" % p, percentile(values, p)


def self_times(spans):
    """Self time (ns) of each span: its duration minus the part of its
    interval that its children cover. Overlapping children (work that ran
    in parallel) are merged first, so covered time is never counted twice.

    `spans` is a list of (name, start, end, parent, op) with parent an index
    into the list or -1. Returns a list aligned with `spans`.
    """
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        intervals = sorted(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(i, ()))
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_of(name):
    """Layer of a span name: the module before the dot ("bist.construct" ->
    "bist"); an operation's root span ("flow") is the glue between the
    calls."""
    return name.split(".", 1)[0] if "." in name else "glue"


def op_breakdown(spans):
    """Per root span: its duration and the self time of each layer inside it.

    Returns a list of (root_name, op, duration_ns, {layer: self_ns}). The
    layer self-times of one operation sum to its duration whenever no two
    sibling spans overlap.
    """
    selfs = self_times(spans)
    roots = {}
    root_of = []
    for i, s in enumerate(spans):
        r = i if s[3] < 0 else root_of[s[3]]
        root_of.append(r)
        if s[3] < 0:
            roots[i] = (s[0], s[4], s[2] - s[1], {})
    for i, s in enumerate(spans):
        layers = roots[root_of[i]][3]
        layer = layer_of(s[0])
        layers[layer] = layers.get(layer, 0) + selfs[i]
    return [roots[i] for i in sorted(roots)]
