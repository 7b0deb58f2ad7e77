"""Statistics of the benchmark, kept apart from the harness so they can be tested.

Rules implemented here (see perfbench/NOTES.md for why):

* A timing is reported as its median plus the highest percentile that has at
  least ten samples beyond it, together with the sample count.
* The spread of repeated runs is the distance between the first and third
  quartile as a share of the median (``statistics.quantiles(values, n=4)``).
* An open-loop request is timed from when it was due, not from when the
  generator got round to sending it.
* A span's self time is its duration minus the part of it that its child
  spans on the same thread cover.
"""

import statistics

# Percentiles tried from the top; the first one with >= TAIL_MIN_BEYOND
# samples above it is the reported tail. The ladder stops at p99, the tail the
# metrics are named after, so a long run never turns a p99 into a p99.9.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolated percentile ``p`` (0-100) of a non-empty sequence."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail(values):
    """(percentile, value, count) of the highest qualifying tail percentile.

    A percentile qualifies when at least TAIL_MIN_BEYOND samples lie beyond
    it, i.e. count * (1 - p/100) >= TAIL_MIN_BEYOND. With fewer than
    2 * TAIL_MIN_BEYOND samples nothing qualifies and the median is reported
    as the tail.
    """
    n = len(values)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            return p, percentile(values, p), n
    return 50.0, percentile(values, 50.0), n


def quartile_spread(values):
    """(Q3 - Q1) / median, the run-to-run spread the bounds are checked against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def due_latencies(due_ms, done_ms):
    """Per-request latency of an open loop: resolve time minus due time."""
    if len(due_ms) != len(done_ms):
        raise ValueError("due and done series differ in length")
    return [done - due for due, done in zip(due_ms, done_ms)]


def backlog_grows(depths, final_depth, max_final=16):
    """True when an open loop's queue did not keep up with the offered rate.

    `depths` is the queue depth sampled after each submission. The backlog
    grows when the run ends with more than `max_final` jobs queued, or when
    the mean depth over the last quarter of the schedule exceeds twice the
    mean over the first quarter plus four jobs.
    """
    if final_depth > max_final:
        return True
    q = len(depths) // 4
    if q == 0:
        return False
    first = sum(depths[:q]) / q
    last = sum(depths[-q:]) / q
    return last > 2.0 * first + 4.0


def spans_from_trace(trace):
    """Spans of a trace written by the harness, as dicts with name/lane/t0/t1 (µs)."""
    spans = []
    for e in trace.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        t0 = float(args.get("t0", e["ts"]))
        spans.append({"name": e["name"], "lane": int(args.get("lane", 0)),
                      "t0": t0, "t1": t0 + float(e["dur"])})
    return spans


def self_times(spans):
    """Self time in µs per layer (the name up to its first dot).

    Spans on one lane nest; each span's children are the spans it directly
    encloses. Lane 0 holds operation intervals rather than calls and is left
    out.
    """
    by_lane = {}
    for s in spans:
        if s["lane"] != 0:
            by_lane.setdefault(s["lane"], []).append(s)
    totals = {}
    for lane_spans in by_lane.values():
        lane_spans.sort(key=lambda s: (s["t0"], -s["t1"]))
        covered = [0.0] * len(lane_spans)
        stack = []  # indices of open ancestors
        for i, s in enumerate(lane_spans):
            while stack and lane_spans[stack[-1]]["t1"] <= s["t0"]:
                stack.pop()
            if stack:
                covered[stack[-1]] += s["t1"] - s["t0"]
            stack.append(i)
        for s, c in zip(lane_spans, covered):
            layer = s["name"].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (s["t1"] - s["t0"]) - c
    return totals


def _union(intervals):
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return merged


def _length(intervals):
    return sum(b - a for a, b in intervals)


def coverage(spans):
    """Share of the measured operations' time that layer-call spans cover.

    An operation is a lane-0 interval when there are any (an open-loop job
    from due time to resolve), else a `harness.op` span (one closed-loop
    operation). Layer calls are the spans not named `harness.*`; the rest of
    an operation's time is the harness's own, untraced gap.
    """
    ops = [(s["t0"], s["t1"]) for s in spans if s["lane"] == 0]
    if not ops:
        ops = [(s["t0"], s["t1"]) for s in spans if s["name"] == "harness.op"]
    ops = _union(ops)
    calls = _union((s["t0"], s["t1"]) for s in spans
                   if s["lane"] != 0 and not s["name"].startswith("harness."))
    total = _length(ops)
    if total <= 0:
        return 0.0
    covered, j = 0.0, 0
    for a, b in ops:
        while j < len(calls) and calls[j][1] <= a:
            j += 1
        k = j
        while k < len(calls) and calls[k][0] < b:
            covered += min(b, calls[k][1]) - max(a, calls[k][0])
            k += 1
    return covered / total
