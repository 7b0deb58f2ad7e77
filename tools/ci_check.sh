#!/usr/bin/env bash
# Tier-1 verification, three times:
#   1. Release         — the configuration the figures and perf numbers use.
#      Runs the full suite (fast + property + bench + cas + durability
#      labels), then the
#      perf-regression harness, which refreshes BENCH_perf.json at the
#      repo root and soft-fails (warns) on modelled-throughput drift.
#   2. Debug + ASan/UBSan — catches lifetime bugs in the arena / stream
#      reuse paths that a Release run would silently survive. Restricted
#      to the fast label: the property sweeps re-run identical codec
#      paths and would dominate sanitizer wall time.
#   3. RelWithDebInfo + ThreadSanitizer — the launcher's tiles race for
#      real (one claim counter per launch, lookback spins across
#      workers), so the fast label, the scan protocols and the
#      service/cluster/CAS/crash drills run under TSan too.
#
# Usage: tools/ci_check.sh [jobs]
# Build trees land in build-ci-release/, build-ci-asan/, build-ci-tsan/
# and build-ci-perfbench/ under the repo root so the default build/
# directory is left untouched.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${1:-$(nproc)}"

run_config() {
  local name="$1"
  local labels="$2"
  shift 2
  local build_dir="${repo_root}/build-ci-${name}"
  echo "==== [${name}] configure ===="
  cmake -B "${build_dir}" -S "${repo_root}" "$@"
  echo "==== [${name}] build ===="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "==== [${name}] ctest (${labels:-all labels}) ===="
  (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}" ${labels})
}

run_config release "" -DCMAKE_BUILD_TYPE=Release

# The SIMD and scalar kernels must be byte-identical drop-ins; run the
# fast label under both dispatch modes so a divergence fails CI rather
# than only the targeted sweep in test_simd.
echo "==== [release] ctest -L fast, CUSZP2_SIMD=scalar ===="
(cd "${repo_root}/build-ci-release" &&
  CUSZP2_SIMD=scalar ctest --output-on-failure -j "${jobs}" -L fast)
echo "==== [release] ctest -L fast, CUSZP2_SIMD=native ===="
(cd "${repo_root}/build-ci-release" &&
  CUSZP2_SIMD=native ctest --output-on-failure -j "${jobs}" -L fast)

# Format-v3 CLI smoke: a shaped field through the auto and pinned-huffman
# pipelines end to end (compress, info, verify) in the shipped binary.
# Guards the --pipeline plumbing and the v3 wire paths as users reach
# them, not only as the unit suites do.
echo "==== [release] cuszp2 --pipeline auto/huffman smoke ===="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT
python3 - "${smoke_dir}/in.f32" <<'PYEOF'
import struct, sys
# Alternating zero / skewed-noise-with-spikes blocks: shaped so the auto
# selector mixes pipelines and pinned huffman has residuals worth coding.
vals, q = [], 0
for b in range(64):
    for i in range(32):
        if b % 2:
            q += (i * 7919) % 3 - 1 + (37 if i == 10 else 0) \
                 - (53 if i == 20 else 0)
        vals.append(q * 0.02)
open(sys.argv[1], "wb").write(struct.pack("<%df" % len(vals), *vals))
PYEOF
for p in auto huffman; do
  "${repo_root}/build-ci-release/tools/cuszp2" compress \
    "${smoke_dir}/in.f32" "${smoke_dir}/out-${p}.czp2" \
    --abs 0.01 --pipeline "${p}"
  "${repo_root}/build-ci-release/tools/cuszp2" info \
    "${smoke_dir}/out-${p}.czp2"
  "${repo_root}/build-ci-release/tools/cuszp2" verify \
    "${smoke_dir}/in.f32" "${smoke_dir}/out-${p}.czp2"
done

# The structured decode fuzzer with a second seed, in the release build
# too: the ASan leg below replays seed 1, this varies the mutants every
# reader (strict, block range, replaceBlocks, salvage) has to survive.
echo "==== [release] fuzz_decode (500 structured mutants, seed 7) ===="
"${repo_root}/build-ci-release/tools/fuzz_decode" 500 7

# The ASan leg pins scalar: the sanitizer instruments the scalar loops
# (the semantic reference), and the vector intrinsics would only slow the
# already-expensive pass without adding coverage ASan can act on.
CUSZP2_SIMD=scalar \
  run_config asan "-L fast" -DCMAKE_BUILD_TYPE=Debug -DCUSZP2_SANITIZE=ON

# The pipeline label (selector, per-block wire framing, mixed-stream
# salvage) is cheap and touches fresh v3 decode paths — run it under the
# sanitizer too, not only in the release pass above.
echo "==== [asan] ctest -L pipeline ===="
(cd "${repo_root}/build-ci-asan" &&
  ctest --output-on-failure -j "${jobs}" -L pipeline)

# The cas label (content-addressed store: dedup refcounts, GC races,
# compaction round-trip proofs, chaos drill) runs in the release full
# pass above; repeat it explicitly there so a red cas build is named in
# the log, and run it under the sanitizer — the refcount/GC paths are
# exactly where lifetime bugs hide from a Release run.
echo "==== [release] ctest -L cas ===="
(cd "${repo_root}/build-ci-release" &&
  ctest --output-on-failure -j "${jobs}" -L cas)
echo "==== [asan] ctest -L cas ===="
(cd "${repo_root}/build-ci-asan" &&
  ctest --output-on-failure -j "${jobs}" -L cas)

echo "==== [asan] fuzz_decode (500 structured mutants, v1/v2/v3 pool) ===="
"${repo_root}/build-ci-asan/tools/fuzz_decode" 500 1

# The soak already runs inside the asan ctest pass (test_service carries
# the fast label); the explicit invocation keeps a red service build from
# hiding inside a 600-test wall of output.
echo "==== [asan] service soak (4 tenants x 200 jobs) ===="
"${repo_root}/build-ci-asan/tests/test_service" \
  --gtest_filter='ServiceSoak.*'

# Seeded chaos drill: deterministic fault schedule (stalls, wedges, bit
# flips, aborts, arena exhaustion) against a live multi-tenant service.
# Every ticket must resolve, healthy jobs byte-identically, and the
# recovery counters must match across two in-process runs. Release runs
# the full schedule; the sanitizer build runs the trimmed one.
echo "==== [release] chaos soak (seed 20260805) ===="
"${repo_root}/build-ci-release/tools/chaos_soak" --seed 20260805
echo "==== [asan] chaos soak (seed 20260805, fast) ===="
"${repo_root}/build-ci-asan/tools/chaos_soak" --seed 20260805 --fast

# Cluster failover soak: 4 shards x 8 tenants under a seeded shard-kill
# schedule. The drill hard-fails unless every ticket resolves within its
# timeout, every completed job is byte-identical to the fault-free serial
# run, the replicated archive repairs a lost primary bit-exactly, and the
# full ClusterStats snapshot matches across two same-seed runs. Release
# runs two seeds to vary the kill pattern; the sanitizer leg runs the
# trimmed schedule.
echo "==== [release] cluster soak (seed 20260805) ===="
"${repo_root}/build-ci-release/tools/chaos_soak" --cluster --seed 20260805
echo "==== [release] cluster soak (seed 777) ===="
"${repo_root}/build-ci-release/tools/chaos_soak" --cluster --seed 777
echo "==== [asan] cluster soak (seed 20260805, fast) ===="
"${repo_root}/build-ci-asan/tools/chaos_soak" --cluster --seed 20260805 --fast

# CAS soak: seeded put/get/erase/gc churn against the content-addressed
# store with compaction sweeps that abort mid-migration on a seeded
# schedule. The drill hard-fails unless every live object decodes back
# byte- (or element-) exactly, no stale compaction commit lands, the
# sealed save/load round trip serves identical bytes, and the full
# StoreStats + CompactionStats snapshot matches across two same-seed
# runs. Two seeds in release vary the kill pattern; ASan runs trimmed.
echo "==== [release] cas soak (seed 20260805) ===="
"${repo_root}/build-ci-release/tools/chaos_soak" --cas --seed 20260805
echo "==== [release] cas soak (seed 777) ===="
"${repo_root}/build-ci-release/tools/chaos_soak" --cas --seed 777
echo "==== [asan] cas soak (seed 20260805, fast) ===="
"${repo_root}/build-ci-asan/tools/chaos_soak" --cas --seed 20260805 --fast

# Durability label (journal wire format, torn tails, crash-plan purity,
# store/service/cluster recovery units) runs in the release full pass
# above; name it explicitly so a red durability build stands out, and
# repeat it under the sanitizer — replay walks attacker-shaped (torn,
# zero-filled, garbage) byte streams, exactly where ASan earns its keep.
echo "==== [release] ctest -L durability ===="
(cd "${repo_root}/build-ci-release" &&
  ctest --output-on-failure -j "${jobs}" -L durability)
echo "==== [asan] ctest -L durability ===="
(cd "${repo_root}/build-ci-asan" &&
  ctest --output-on-failure -j "${jobs}" -L durability)

# Crash drill: enumerate EVERY injectable crash point (write/sync/rename/
# dirsync on the store and job journals) over a scripted churn workload,
# restart from the torn disk image, and hard-fail unless recovery passes
# checkInvariants + verifyAll with every acknowledged op intact and the
# run fingerprint bit-identical across two same-seed passes. Two seeds in
# release vary the tear bytes; ASan runs the trimmed point set.
echo "==== [release] crash drill (seed 20260809) ===="
"${repo_root}/build-ci-release/tools/crash_drill" --seed 20260809
echo "==== [release] crash drill (seed 4242) ===="
"${repo_root}/build-ci-release/tools/crash_drill" --seed 4242
echo "==== [asan] crash drill (seed 20260809, fast) ===="
"${repo_root}/build-ci-asan/tools/crash_drill" --seed 20260809 --fast

# ThreadSanitizer leg. Scalar SIMD like the ASan leg: TSan reasons about
# the memory accesses, which the vector and scalar paths make alike.
CUSZP2_SIMD=scalar \
  run_config tsan "-L fast" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCUSZP2_SANITIZE=thread
echo "==== [tsan] test_scan (lookback / chained-scan protocols) ===="
"${repo_root}/build-ci-tsan/tests/test_scan"
echo "==== [tsan] cluster soak (seed 20260805, fast) ===="
"${repo_root}/build-ci-tsan/tools/chaos_soak" --cluster --seed 20260805 --fast
echo "==== [tsan] cas soak (seed 20260805, fast) ===="
"${repo_root}/build-ci-tsan/tools/chaos_soak" --cas --seed 20260805 --fast
echo "==== [tsan] crash drill (seed 20260809, fast) ===="
"${repo_root}/build-ci-tsan/tools/crash_drill" --seed 20260809 --fast

# The repo benchmark's statistics (perfbench/stats.py: quartiles,
# pair wins, backlog and spread rules) have their own unit tests.
echo "==== perfbench stats unit tests ===="
(cd "${repo_root}" && python3 -m unittest discover -s perfbench)

# The benchmark harness (perfbench/harness/*.cpp) compiles against the
# library headers but sits outside the tier-1 build, so a header change
# could break it without any red test. Build it (no run: a short timed
# run can trip the open-loop validity rules for reasons unrelated to the
# code).
echo "==== perfbench harness build ===="
cmake -S "${repo_root}/perfbench" -B "${repo_root}/build-ci-perfbench" \
  -DCMAKE_BUILD_TYPE=Release
cmake --build "${repo_root}/build-ci-perfbench" -j "${jobs}" \
  --target perfbench_harness

echo "==== [release] perf_regression -> BENCH_perf.json ===="
(cd "${repo_root}" && "${repo_root}/build-ci-release/bench/perf_regression" \
  "${repo_root}/BENCH_perf.json")

# Every scenario row must declare a wall-clock budget: a row without one
# escapes the perf.wall_budget soft-warn entirely, so a missing budget is
# a hard failure (new scenarios must add a kWallBudgets entry).
echo "==== BENCH_perf.json wall-budget completeness ===="
python3 - "${repo_root}/BENCH_perf.json" <<'PYEOF'
import json, sys
rows = json.load(open(sys.argv[1]))
missing = [r["name"] for r in rows
           if r.get("wall_budget_ms", 0) <= 0 or "wall_ms_median" not in r]
if missing:
    sys.exit("ci_check: rows missing wall_ms_median budget: %s"
             % ", ".join(missing))
print("all %d rows carry wall budgets" % len(rows))
PYEOF

echo "==== ci_check: all configurations passed ===="
