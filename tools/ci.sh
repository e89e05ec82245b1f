#!/usr/bin/env bash
# One-command CI matrix:
#   1. tier-1: default configure + build + ctest (the ROADMAP verify step)
#   2. chaos: the fault-injection suite (`ctest -L chaos`) over 10 fixed
#      FANSTORE_FAULT_SEED values, plus the membership-churn suite
#      (`ctest -L churn`) over 5 fixed FANSTORE_CHURN_SEED values; both
#      repeated under TSan in pass 4
#   3. ASan/UBSan: FANSTORE_SANITIZE=address;undefined configure + ctest
#   4. TSan: FANSTORE_SANITIZE=thread + FANSTORE_DEBUG_LOCKORDER=ON + ctest
#      + the chaos seed sweep again under TSan
#   5. clang-tidy over src/ (skipped when clang-tidy is not installed)
#
# Usage: tools/ci.sh [--tier1-only]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
jobs="$(nproc 2> /dev/null || echo 4)"

run_pass() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [$name] configure ($dir) ===="
  cmake -B "$dir" -S . "$@"
  echo "==== [$name] build ===="
  cmake --build "$dir" -j "$jobs"
  echo "==== [$name] ctest ===="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

# Chaos suite over a fixed seed list: every seed yields a different (but
# deterministic) fault schedule, so the sweep covers 10 distinct adversity
# mixes. On failure the offending seed is printed — replay it locally with
#   FANSTORE_FAULT_SEED=<seed> ctest --test-dir <dir> -L chaos
chaos_seeds=(1 2 3 5 8 13 21 34 55 89)
run_chaos_seeds() {
  local name="$1" dir="$2"
  for seed in "${chaos_seeds[@]}"; do
    echo "==== [$name] ctest -L chaos (FANSTORE_FAULT_SEED=$seed) ===="
    if ! FANSTORE_FAULT_SEED="$seed" \
        ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L chaos; then
      echo "ci.sh: chaos suite FAILED under FANSTORE_FAULT_SEED=$seed ($name)" >&2
      echo "ci.sh: replay with: FANSTORE_FAULT_SEED=$seed ctest --test-dir $dir -L chaos" >&2
      exit 1
    fi
  done
}

# Membership-churn suite over fixed seeds: each seed drives a different
# (deterministic) join/leave/kill schedule plus fault-plan adversity in the
# churn sweep test. On failure the seed is printed — replay it with
#   FANSTORE_CHURN_SEED=<seed> ctest --test-dir <dir> -L churn
churn_seeds=(1 7 42 1999 31337)
run_churn_seeds() {
  local name="$1" dir="$2"
  for seed in "${churn_seeds[@]}"; do
    echo "==== [$name] ctest -L churn (FANSTORE_CHURN_SEED=$seed) ===="
    if ! FANSTORE_CHURN_SEED="$seed" \
        ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L churn; then
      echo "ci.sh: churn suite FAILED under FANSTORE_CHURN_SEED=$seed ($name)" >&2
      echo "ci.sh: replay with: FANSTORE_CHURN_SEED=$seed ctest --test-dir $dir -L churn" >&2
      exit 1
    fi
  done
}

run_pass "tier-1" build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

run_chaos_seeds "chaos" build

run_churn_seeds "churn" build

# Labeled quick passes: the observability + stress subset (`ctest -L obs` /
# `-L stress`), the chunked-container subset (`ctest -L chunked`) and the
# codec subset (`ctest -L codec`: round trips, the LZ4 boundary sweep and
# the corruption fuzzer with its out-of-span write guards) on their own, as
# the fast signals to rerun while iterating on obs/ or compress/.
echo "==== [labels] ctest -L 'obs|stress' ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L 'obs|stress'
echo "==== [labels] ctest -L chunked ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L chunked
echo "==== [labels] ctest -L codec ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L codec
echo "==== [labels] ctest -L plan ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L plan
echo "==== [labels] ctest -L ipc ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L ipc
echo "==== [labels] ctest -L tiered ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L tiered
echo "==== [labels] ctest -L cluster ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L cluster
echo "==== [labels] ctest -L lint ===="
ctest --test-dir build --output-on-failure -j "$jobs" -L lint

# fanstore-lint over all of src/ (DESIGN.md §9): fails on any finding that
# is neither inline-suppressed nor baselined with a justification in
# tools/lint/baseline.txt. (Also runs as the `fanstore_lint_src` ctest, but
# an explicit invocation keeps the findings readable in the CI log.)
echo "==== [lint] fanstore-lint src/ ===="
build/tools/lint/fanstore-lint \
  --inventory src/obs/metric_names.inc \
  --design DESIGN.md \
  --baseline tools/lint/baseline.txt \
  src

# Hot-path perf smoke: quick sharded single-flight cache and FanStoreFs
# read-path thread sweep. Catches gross concurrency regressions; the quick
# numbers go to /tmp so the committed BENCH_hotpath.json keeps the full
# run (`build/bench/bench_hotpath` without --quick records it).
# Since the observability PR it also cross-checks the metrics registry
# against the bench's own op/loader bookkeeping and exits non-zero on any
# disagreement.
echo "==== [bench] bench_hotpath --quick ===="
build/bench/bench_hotpath --quick --json /tmp/BENCH_hotpath_quick.json

# Chunked-container smoke: parallel whole-file decode + the partial-pread
# acceptance check (a 64 KiB pread must decode <= 2 chunks, verified via the
# "chunked.*" counters; non-zero exit on violation). Run without --quick for
# the recorded BENCH_chunked.json numbers.
echo "==== [bench] bench_chunked --quick ===="
build/bench/bench_chunked --quick --json /tmp/BENCH_chunked_quick.json

# Virtual-clock benches against their committed files: the virtual clock
# charges decode from the committed codec-speed table and nothing in the
# virtual world reads a wall clock, so a full run reproduces the committed
# JSON byte for byte, header included, apart from `git_rev`. A diff means a
# changed number (or a model change nobody re-recorded) and fails CI. The
# files were recorded on a 4-core host; the header's hardware_concurrency
# stays in the diff, so a run on another host says so first.
#   bench_clairvoyant (DESIGN.md §10): reactive prefetch vs plan-driven
#     prefetch + Belady eviction at 8, 64 and 512 ranks; exits non-zero if
#     clairvoyant is ever slower than reactive or Belady's hit rate fails to
#     beat FIFO's.
#   bench_tiered (DESIGN.md §12): plain-RAM-only vs the four-tier stack
#     across RAM-budget fractions; enforces the tier accounting identity and
#     the "tiered beats plain at cache = 1/8 dataset" epoch-time gate.
check_committed_bench() {
  local name="$1"
  echo "==== [bench] $name (full run, diffed against BENCH_$name.json) ===="
  "build/bench/bench_$name" --json "/tmp/BENCH_${name}_ci.json"
  if ! diff <(grep -v '"git_rev"' "BENCH_$name.json") \
            <(grep -v '"git_rev"' "/tmp/BENCH_${name}_ci.json"); then
    echo "ci.sh: bench_$name differs from the committed BENCH_$name.json" >&2
    exit 1
  fi
}
check_committed_bench clairvoyant
check_committed_bench tiered

# Socket front-door smoke (DESIGN.md §11): the event-driven server over a
# warm FanStoreFs at a few client counts over UDS. Exits non-zero unless
# every request is answered on the loop thread (share 1.0) and no client
# sees an error, on any host. Run without --quick for the recorded
# BENCH_ipc.json numbers.
echo "==== [bench] bench_ipc --quick ===="
build/bench/bench_ipc --quick --json /tmp/BENCH_ipc_quick.json

# Sharded-metadata smoke (DESIGN.md §13): full replication (rf = ranks) vs
# the consistent-hash-sharded namespace (rf = 2), both through the same push
# exchange, at 8 and 64 ranks in-process (512 ranks modeled analytically).
# The per-rank exchange-bytes gate, the zero-RPC gate for full-replication
# lookups and the 64-rank build wall-time gate (sharded no slower than
# full) are enforced on every host. Bytes per rank and the lookup RPC share
# are protocol properties, so a second run in a new process must replay
# them exactly. Run without --quick for the committed BENCH_cluster.json
# numbers.
echo "==== [bench] bench_cluster --quick (twice, must replay) ===="
build/bench/bench_cluster --quick --json /tmp/BENCH_cluster_quick.json
build/bench/bench_cluster --quick --json /tmp/BENCH_cluster_replay.json
cluster_columns='"(bytes_per_rank|lookup_rpc_share)": [0-9.]+'
if ! diff <(grep -oE "$cluster_columns" /tmp/BENCH_cluster_quick.json) \
          <(grep -oE "$cluster_columns" /tmp/BENCH_cluster_replay.json); then
  echo "ci.sh: bench_cluster did not replay across processes" >&2
  exit 1
fi

if [ "${1:-}" = "--tier1-only" ]; then
  echo "ci.sh: tier-1 pass complete (sanitizer matrix skipped)"
  exit 0
fi

# Dense-interleaving stress tests give the sanitizers something to bite on;
# the whole suite runs under each sanitizer regardless.
ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1" \
  run_pass "asan+ubsan" build-asan "-DFANSTORE_SANITIZE=address;undefined"

TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  run_pass "tsan" build-tsan "-DFANSTORE_SANITIZE=thread" \
  -DFANSTORE_DEBUG_LOCKORDER=ON

# The chaos sweep again with every race under TSan's eye (the injector's
# kill/restart and delayed-delivery paths are the interesting interleavings).
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  run_chaos_seeds "tsan-chaos" build-tsan

# And the membership-churn sweep with TSan watching the daemon loops that
# serve the cluster requests, rebalance pushes, and client-side resolves
# interleave.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  run_churn_seeds "tsan-churn" build-tsan

tools/run-clang-tidy.sh build

echo "ci.sh: all passes green"
