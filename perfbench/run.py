#!/usr/bin/env python3
"""Benchmark entry point: builds the harness, runs one workload, prints metrics.

    python3 perfbench/run.py --workload field-codec --seed 7 --seconds 10 --trace 0

Run from the repository root. The harness (perfbench/harness, built with
perfbench/CMakeLists.txt into .bench_build/) writes raw samples; this script
turns them into the metrics named in BENCHMARK.json, checks correctness and
prints one JSON object as the last line of standard output. Everything else
(build output, a readable summary) goes to standard error.

--trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
metrics: it runs an untraced and a traced leg in one process (each half the
run), plus a quarter-length leg with CUSZP2_WORKERS=1 in a second process for
the pool-scaling figure.

Exit status: 0 when every output checked out, 1 when a check failed or the
run was invalid, 2 when the benchmark cannot run here at all.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("field-codec", "service-mixed", "archive-store")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DEADLINE_S = 170.0  # for the harness runs, after the build
# Open-loop validity (service-mixed): the generator's p99 lateness must stay
# under this, and the backlog must not grow (stats.backlog_grows).
LATE_LIMIT_MS = 20.0

# End-to-end metrics, each bounded in BENCHMARK.json. The throughput two are
# the paper's headline figure: original bytes over the codec's modelled
# end-to-end time on its configured device. The host's wall-clock figures
# (codec calls as core.*_gbps, whole operations as latency.*) and the peak
# memory are printed by the per-layer run and on standard error but carry no
# bound: on a shared 4-vCPU host they move between runs of the same code by
# more than the largest bound allowed (see NOTES.md, "Spread").
END_TO_END = (("setup_s", "s"), ("ratio", "x"),
              ("device_compress_gbps", "GB/s"),
              ("device_decompress_gbps", "GB/s"))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---- build and run ----------------------------------------------------------

def build(root):
    src = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [src]:
            shutil.rmtree(build_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", src, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit(2)
    return os.path.join(build_dir, "perfbench_harness")


def run_harness(exe, workdir, args, trace, seconds, deadline, env=None):
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "raw.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--out", out, "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=env)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: harness ran out of time")
        raise SystemExit(1)
    if rc != 0:
        log(f"perfbench: harness exited with {rc}")
        raise SystemExit(1)
    with open(out) as f:
        raw = json.load(f)
    if raw.get("trace_file"):
        with open(raw["trace_file"]) as f:
            raw["trace"] = json.load(f)
    return raw


# ---- metrics ----------------------------------------------------------------

def op_ms(leg, kind):
    """Latency samples of one operation kind: measured calls, or due-to-resolve."""
    s = leg["series"]
    if kind + ".ms" in s:
        return s[kind + ".ms"]
    if kind + ".due_ms" in s:
        return stats.due_latencies(s[kind + ".due_ms"], s[kind + ".done_ms"])
    return []


def med(values):
    return statistics.median(values) if values else 0.0


def tail_of(values):
    return stats.tail(values)[1] if values else 0.0


def gbps(leg, kind):
    """Median over operations of bytes / latency, in GB/s."""
    ms = op_ms(leg, kind)
    nbytes = leg["series"].get(kind + ".bytes", [])
    return med([b / t / 1e6 for b, t in zip(nbytes, ms) if t > 0])


def codec_gbps(leg, kind):
    """Throughput of the codec calls behind one operation kind, in GB/s.

    field-codec: the field set's bytes over the sum of each field's median
    call time. Elsewhere: the median over operations of bytes over the
    codec's part of the operation (`<kind>.codec_ms`: the service's own
    execution time of a job, or the compress / decode call of an archive
    step).
    """
    s = leg["series"]
    prefix = {"write": "core.compress_ms", "read": "core.decompress_ms"}[kind]
    set_ms = per_field_sum(leg, prefix)
    if set_ms:
        return s[kind + ".bytes"][0] / set_ms / 1e6
    return med([b / t / 1e6 for b, t in zip(s.get(kind + ".bytes", []),
                                            s.get(kind + ".codec_ms", []))
                if t > 0])


def device_gbps(leg, kind):
    """Bytes over the modelled end-to-end seconds of every codec call, in GB/s."""
    c = leg["scalars"]
    return ratio_of(c, f"model.{kind}_bytes", f"model.{kind}_s") / 1e9


def program_rss_mb(raw):
    """Peak resident memory of the run net of the inputs the harness holds."""
    return raw["peak_rss_mb"] - raw["input_mb"]


def end_to_end(raw, leg):
    c = leg["scalars"]
    return {
        "setup_s": med(raw["setup_s"]),
        "ratio": c["in_bytes"] / c["kept_bytes"] if c.get("kept_bytes") else 0.0,
        "device_compress_gbps": device_gbps(leg, "write"),
        "device_decompress_gbps": device_gbps(leg, "read"),
    }


def ops_per_s(raw):
    """Operations of every leg over the window they shared."""
    legs = raw["legs"].values()
    wall = max(leg["scalars"].get("wall_s", 0.0) for leg in legs)
    ops = sum(len(op_ms(leg, "write")) + len(op_ms(leg, "read")) for leg in legs)
    return ops / wall if wall else 0.0


def per_field_sum(leg, prefix):
    """Sum over the field set of each field's median (field-codec)."""
    s = leg["series"]
    return sum(med(v) for k, v in s.items() if k.startswith(prefix + ".f"))


def share(c, key, keys):
    total = sum(c.get(k, 0.0) for k in keys)
    return c.get(key, 0.0) / total if total else 0.0


def ratio_of(c, num, den):
    return c[num] / c[den] if c.get(den) else 0.0


def per_layer(raw, one_worker):
    traced, untraced = raw["legs"]["traced"], raw["legs"]["untraced"]
    s, c = traced["series"], traced["scalars"]
    spans = stats.spans_from_trace(raw["trace"])
    selfs = stats.self_times(spans)
    byte_keys = ["bytes.header", "bytes.descriptor", "bytes.dict",
                 "bytes.digest", "bytes.payload"]
    block_keys = ["blocks.fle", "blocks.huffman", "blocks.rle",
                  "blocks.lorenzo_fle"]
    kernel_ms = per_field_sum(traced, "gpusim.kernel_ms")
    set_bytes = s["write.bytes"][0] if kernel_ms else 0.0
    late = stats.due_latencies(s.get("gen.due_ms", []), s.get("gen.sent_ms", []))
    write, read = op_ms(untraced, "write"), op_ms(untraced, "read")
    base_p50 = med(write)
    chunks = c.get("cas.new_chunks", 0.0) + c.get("cas.dedup_chunks", 0.0)
    dispatched = c.get("service.dispatched", 0.0)
    m = [
        ("latency.write_gbps", "GB/s", gbps(untraced, "write")),
        ("latency.read_gbps", "GB/s", gbps(untraced, "read")),
        ("latency.write_p50_ms", "ms", med(write)),
        ("latency.write_p99_ms", "ms", tail_of(write)),
        ("latency.read_p50_ms", "ms", med(read)),
        ("latency.read_p99_ms", "ms", tail_of(read)),
        ("latency.ops_per_s", "1/s", ops_per_s(raw)),
        ("core.compress_gbps", "GB/s", codec_gbps(untraced, "write")),
        ("core.decompress_gbps", "GB/s", codec_gbps(untraced, "read")),
        ("core.compress_ms", "ms", per_field_sum(traced, "core.compress_ms")),
        ("core.decompress_ms", "ms", per_field_sum(traced, "core.decompress_ms")),
        ("core.host_ms", "ms", per_field_sum(traced, "core.host_ms")),
        ("gpusim.kernel_ms", "ms", kernel_ms),
        ("gpusim.dram_bytes_per_elem", "B/elem",
         ratio_of(c, "gpusim.dram_bytes", "gpusim.elems")),
        ("gpusim.achieved_gbps", "GB/s",
         set_bytes / kernel_ms / 1e6 if kernel_ms else 0.0),
        ("scan.lookback_depth_mean", "steps",
         statistics.fmean(s["scan.lookback_depth"]) if s.get("scan.lookback_depth") else 0.0),
        ("common.pool.scaling_x", "x",
         med(op_ms(one_worker["legs"]["untraced"], "write")) / base_p50 if base_p50 else 0.0),
        ("core.header_frac", "frac", share(c, "bytes.header", byte_keys)),
        ("core.descriptor_frac", "frac", share(c, "bytes.descriptor", byte_keys)),
        ("core.digest_frac", "frac", share(c, "bytes.digest", byte_keys)),
        ("core.dict_frac", "frac", share(c, "bytes.dict", byte_keys)),
        ("core.payload_frac", "frac", share(c, "bytes.payload", byte_keys)),
        ("core.overhead_frac", "frac", 1.0 - share(c, "bytes.payload", byte_keys)
         if any(c.get(k) for k in byte_keys) else 0.0),
        ("core.v3_compress_ms", "ms", med(s.get("core.v3_compress_ms", []))),
        ("core.v3_decompress_ms", "ms", med(s.get("core.v3_decompress_ms", []))),
        ("core.range_decompress_ms", "ms", med(s.get("core.range_decompress_ms", []))),
        ("pipeline.share.fle", "frac", share(c, "blocks.fle", block_keys)),
        ("pipeline.share.huffman", "frac", share(c, "blocks.huffman", block_keys)),
        ("pipeline.share.rle", "frac", share(c, "blocks.rle", block_keys)),
        ("pipeline.share.lorenzo_fle", "frac", share(c, "blocks.lorenzo_fle", block_keys)),
        ("service.submit_us", "us", med(s.get("service.submit_us", []))),
        ("service.wait_ms_p50", "ms", med(s.get("service.wait_ms", []))),
        ("service.wait_ms_p99", "ms", tail_of(s.get("service.wait_ms", []))),
        ("service.exec_ms_p50", "ms", med(s.get("service.exec_ms", []))),
        ("service.exec_ms_p99", "ms", tail_of(s.get("service.exec_ms", []))),
        ("service.batch_jobs_mean", "jobs",
         dispatched / c["service.batches"] if c.get("service.batches") else 0.0),
        ("service.launches_per_job", "count",
         c.get("service.batches", 0.0) / dispatched if dispatched else 0.0),
        ("service.queue_depth_max", "jobs", c.get("service.queue_depth_max", 0.0)),
        ("service.queue_depth_final", "jobs", c.get("service.queue_depth_final", 0.0)),
        ("service.rejected", "count", c.get("service.rejected", 0.0)),
        ("service.retries", "count", c.get("service.retries", 0.0)),
        ("cas.put_ms_p50", "ms", med(s.get("cas.put_ms", []))),
        ("cas.put_ms_p99", "ms", tail_of(s.get("cas.put_ms", []))),
        ("cas.get_ms_p50", "ms", med(s.get("cas.get_ms", []))),
        ("cas.get_ms_p99", "ms", tail_of(s.get("cas.get_ms", []))),
        ("cas.save_ms_p50", "ms", med(s.get("cas.save_ms", []))),
        ("cas.save_ms_p99", "ms", tail_of(s.get("cas.save_ms", []))),
        ("cas.dedup_chunk_share", "frac",
         c.get("cas.dedup_chunks", 0.0) / chunks if chunks else 0.0),
        ("cas.bytes_per_logical", "frac",
         ratio_of(c, "cas.physical_bytes", "cas.logical_bytes")),
        ("io.journal_bytes_per_put", "B", ratio_of(c, "io.journal_bytes", "io.journal_puts")),
        ("cas.recover_ms", "ms", c.get("cas.recover_ms", 0.0)),
        ("archive.repeat_share", "frac",
         ratio_of(c, "archive.repeated_steps", "archive.steps")),
        ("trace.overhead_frac", "frac",
         med(op_ms(traced, "write")) / base_p50 - 1.0 if base_p50 else 0.0),
        ("trace.coverage_frac", "frac", stats.coverage(spans)),
    ]
    for layer in ("harness", "datagen", "core", "service", "cas", "metrics"):
        m.append((f"trace.self_s.{layer}", "s", selfs.get(layer, 0.0) * 1e-6))
    m += [
        ("gen.late_ms_p99", "ms", tail_of(late)),
        ("gen_s", "s", raw["gen_s"]),
        ("peak_rss_mb", "MiB", program_rss_mb(raw)),
        ("metrics.max_err_ratio", "frac", raw["max_err_ratio"]),
        ("failed_frac", "frac", raw["failed"] / raw["attempted"]),
    ]
    return m


def invalid_reasons(raw):
    """Why a run cannot be trusted, beyond failed operations."""
    reasons = []
    if raw["attempted"] < 1:
        reasons.append("no operation was checked")
    if raw["failed"]:
        reasons.append(f"{raw['failed']} failed operations: {raw['errors']}")
    if not raw["max_err_ratio"] <= 1.0:
        reasons.append(f"max |err| / bound = {raw['max_err_ratio']}")
    for name, leg in raw["legs"].items():
        s, c = leg["series"], leg["scalars"]
        if "gen.due_ms" not in s:
            continue
        late = stats.due_latencies(s["gen.due_ms"], s["gen.sent_ms"])
        p, late_tail, n = stats.tail(late)
        if late_tail > LATE_LIMIT_MS:
            reasons.append(f"{name}: generator p{p:g} lateness {late_tail:.2f} ms "
                           f"over {LATE_LIMIT_MS} ms (n={n})")
        if stats.backlog_grows(s["service.queue_depth"],
                               c["service.queue_depth_final"]):
            reasons.append(f"{name}: backlog grew (final depth "
                           f"{c['service.queue_depth_final']:g})")
    return reasons


def summarize(raw, leg):
    """Readable lines for standard error: each timing with its tail and count."""
    lines = [f"workload {raw['workload']} seed {raw['seed']}: gen_s "
             f"{raw['gen_s']:.3f}, setup_s runs {[round(x, 4) for x in raw['setup_s']]}",
             f"  memory: peak {raw['peak_rss_mb']:.1f} MiB, of which harness inputs "
             f"{raw['input_mb']:.1f} MiB"]
    for kind in ("write", "read"):
        ms = op_ms(leg, kind)
        if ms:
            p, v, n = stats.tail(ms)
            lines.append(f"  {kind}: p50 {med(ms):.4f} ms, p{p:g} {v:.4f} ms, n={n}")
    for k, v in sorted(raw.get("notes", {}).items()):
        lines.append(f"  {k}: {v}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: run from the repository root (src/ not found)")
        return 2
    exe = build(root)
    deadline = time.monotonic() + DEADLINE_S  # a first build may take longer

    workdir = os.path.join(root, ".bench_build", f"run-{os.getpid()}")
    try:
        if args.trace:
            raw = run_harness(exe, os.path.join(workdir, "main"), args, True,
                              args.seconds, deadline)
            env = dict(os.environ, CUSZP2_WORKERS="1")
            one = run_harness(exe, os.path.join(workdir, "one-worker"), args,
                              False, args.seconds / 4, deadline, env)
            leg = raw["legs"]["traced"]
            metrics = {name: {"value": value, "unit": unit}
                       for name, unit, value in per_layer(raw, one)}
            reasons = invalid_reasons(raw) + invalid_reasons(one)
            attempted = raw["attempted"] + one["attempted"]
            failed = raw["failed"] + one["failed"]
        else:
            raw = run_harness(exe, workdir, args, False, args.seconds, deadline)
            leg = raw["legs"]["untraced"]
            values = end_to_end(raw, leg)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            reasons = invalid_reasons(raw)
            attempted, failed = raw["attempted"], raw["failed"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in summarize(raw, leg):
        log(line)
    for name, m in metrics.items():
        log(f"  {name} = {m['value']:.6g} {m['unit']}")
    for r in reasons:
        log(f"INVALID: {r}")
    correct = not reasons
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
