#!/usr/bin/env bash
# Tier-1 verification, the per-subsystem tiers, the concurrency-sensitive
# suites under TSan, and the kernel and serving suites under ASan+UBSan.
#
# Usage: tools/check.sh [--fast | plans | oracle | shard | feature | ha | dynamic | jit | asan |
#                        chaos]...
#
#   (default)  configure + build + full ctest in ./build; the benchmark smoke
#              (gsbench built standalone in ./build/gsbench from
#              bench/gsbench, `ctest -L bench` runs every workload briefly
#              and checks its outputs); the plans tier; every row of TIERS
#              below except --fast, in order (which includes a fixed-seed
#              fuzz drawing every dimension together); then the threaded
#              suites (pipeline, serving, device accounting) under TSan with
#              pass-boundary verification (GS_VERIFY_PASSES=1).
#   TIER...    runs each named tier, in the order given. Unknown names exit 2.
#
# A row of TIERS runs, in order and skipping "-" columns: the build targets
# in ./build, `ctest -L <label>`, each TSan suite built in ./build-tsan
# (-DGS_SANITIZE=thread), each ASan suite built in ./build-asan
# (-DGS_SANITIZE=address, which adds UBSan with undefined behaviour fatal),
# and a fixed-seed `fuzz_passes` run. Each build directory is configured
# once per invocation. Everything is seeded, so a failure reproduces exactly;
# the fuzzer prints a minimized `--repro` line.
#
#   --fast     tier-1 restricted to `ctest -L fast` (no soak/chaos tests).
#   plans      for every Table-2 algorithm, compile + serialize + reload the
#              plan and require bit-identical samples from the restored
#              artifact (gsampler_cli --verify-plan), saving each under
#              build/plans/ so a --load-plan run can pick them up; then
#              serve 16 requests through a registry endpoint
#              (gsampler_cli --serve), which fails on any failed request.
#              The layer-wise algorithms (LADIES, AS-GCN, FastGCN) also
#              round-trip on the UVA-resident PP graph, whose kernels
#              charge the UVA cache.
#   oracle     optimized-vs-reference checks for every algorithm plus the
#              primitive distribution tests, then a 200-draw pass fuzz.
#   shard      edge-cut owner goldens and byte accounting, the
#              sharded-vs-single bit-identity oracle through the sharded
#              server, exchange accounting, the shard-sweep smoke (seed
#              pools from OwnerOf); four clients on a 4-shard server under
#              TSan; fuzz differencing 2-shard edge-cut serving against
#              single-device.
#   feature    hot-set cache semantics and the gather bit-identity oracle
#              across algorithms, shards and coalesced serving; concurrent
#              tenants sharing one cache under TSan; fuzz differencing cached
#              gathers against the eager lookup under every admission policy.
#   ha         failover bit-identity, degraded coverage, health
#              state-machine goldens, recovery re-admission; concurrent
#              failover under TSan; fuzz with one drawn shard permanently
#              dead and 2 replicas, still bit-identical to a single device
#              and failing over once per batch homed on the dead shard.
#   dynamic    versioned snapshots, the plan cache's resident plan across
#              epochs + background replanning, the snapshot-equivalence
#              oracle, the live-server mutation soak; the ingest thread
#              racing serving workers and the replanner under TSan; the
#              suite under ASan+UBSan, where a cache entry replaced while
#              in-flight groups still hold its session is a use-after-free;
#              fuzz requiring every maintained epoch to sample
#              bit-identically to a from-scratch reload.
#   jit        region extraction, kernel-cache reuse + corruption recovery,
#              compile-fault demotion, the JIT-vs-interpreter oracle (fused
#              goldens included); serving workers racing the per-plan
#              compile under TSan; fuzz differencing native kernels against
#              the interpreter. The fuzzer's minimizer drops jit first, so a
#              repro that survives without it is a plain interpreter bug.
#   asan       the sparse kernel, executor, engine, pass, plan and serving
#              suites and the chaos soak under ASan+UBSan: labeled
#              super-batch ids, merged kernels, the request scatter, where an
#              out-of-range id is a memory error; node sets that a
#              launch-free row_ids shares with its matrix and that outlive
#              the sample's freed value; and the retry ladder and watchdog
#              cancellation.
#   chaos      the gs::fault suites (test_fault + the chaos soak) under
#              TSan: the deterministic-injection racing workout.
#
# Exits non-zero on the first failing step.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

# tier|ctest label|build targets|TSan suites|ASan suites|fuzz_passes arguments
# ("-" = none). The row named "default" runs only in the default run.
TIERS=(
  "--fast|fast|all|-|-|-"
  "oracle|oracle|test_oracle fuzz_passes|-|-|--seeds 200"
  "shard|shard|test_partition test_shard fuzz_passes serving_throughput|test_shard|-|--seeds 100 --shards 2"
  "feature|feature|test_feature fuzz_passes|test_feature|-|--seeds 100 --features"
  "ha|ha|test_ha fuzz_passes|test_ha|-|--seeds 60 --shards 2 --kill-shard"
  "dynamic|dynamic|test_dyn fuzz_passes gsampler_cli|test_dyn|test_dyn|--seeds 100 --mutate"
  "jit|jit|test_jit test_fused fuzz_passes|test_jit|-|--seeds 60 --jit"
  "asan|-|-|-|test_sparse_kernels test_sparse_sampling test_sparse_batch test_executor test_engine test_passes test_plan test_serving test_fault_soak|-"
  "default|-|fuzz_passes|-|-|--seeds 40 --shards 2 --kill-shard --features --mutate --jit"
  "chaos|-|-|test_fault test_fault_soak|-|-"
)

# Builds targets in directory $1 configured with GS_SANITIZE=$2 ("" = none);
# each directory is configured once per invocation.
CONFIGURED=" "
build_in() {
  local dir=$1 sanitize=$2
  shift 2
  if [[ $CONFIGURED != *" $dir "* ]]; then
    cmake -B "$dir" -S . -DGS_SANITIZE="$sanitize" >/dev/null
    CONFIGURED+="$dir "
  fi
  cmake --build "$dir" -j "$JOBS" --target "$@"
}
build() { build_in build "" "$@"; }

# Builds one sanitizer column's suites ("-" = none) in directory $3 under
# GS_SANITIZE=$4 and runs each.
run_sanitized() {
  local name=$1 title=$2 dir=$3 sanitize=$4 suites=$5 suite
  [[ $suites != - ]] || return 0
  echo "== $name: $suites under $title =="
  build_in "$dir" "$sanitize" $suites
  for suite in $suites; do
    "./$dir/tests/$suite"
  done
}

# Prints the TIERS row a command-line tier name selects (`oracle` or
# `--oracle`; `--fast` only with its dashes); fails when none does.
tier_row() {
  local row name
  for row in "${TIERS[@]}"; do
    name=${row%%|*}
    if [[ $name != default && ($1 == "$name" || $1 == "--$name") ]]; then
      echo "$row"
      return 0
    fi
  done
  return 1
}

# Runs one TIERS row. Its columns hold space-separated lists, word-split on
# purpose when passed on.
run_tier() {
  local name label targets tsan asan fuzz
  IFS='|' read -r name label targets tsan asan fuzz <<<"$1"
  if [[ $targets != - ]]; then
    echo "== $name: build $targets =="
    build $targets
  fi
  if [[ $label != - ]]; then
    echo "== $name: ctest -L $label =="
    (cd build && ctest -L "$label" --output-on-failure -j "$JOBS")
  fi
  run_sanitized "$name" TSan build-tsan thread "$tsan"
  run_sanitized "$name" ASan+UBSan build-asan address "$asan"
  if [[ $fuzz != - ]]; then
    echo "== $name: fuzz_passes $fuzz =="
    ./build/tools/fuzz_passes $fuzz
  fi
}

run_plans() {
  echo "== plans: round-trip and serve every algorithm =="
  build gsampler_cli
  mkdir -p build/plans
  local alg
  for alg in $(./build/tools/gsampler_cli --list | sed -n 's/^algorithms: //p'); do
    ./build/tools/gsampler_cli --algorithm "$alg" --dataset PD --scale 0.1 \
      --verify-plan --save-plan "build/plans/$alg.plan"
    ./build/tools/gsampler_cli --algorithm "$alg" --dataset PD --scale 0.05 --serve --requests 16
  done
  for alg in LADIES AS-GCN FastGCN; do
    ./build/tools/gsampler_cli --algorithm "$alg" --dataset PP --scale 0.05 --verify-plan
  done
}

# Every argument must name a tier before anything runs, so a typo cannot
# turn a run into a partial one.
for arg in "$@"; do
  if [[ $arg != plans && $arg != --plans ]] && ! tier_row "$arg" >/dev/null; then
    echo "unknown tier: $arg (usage: tools/check.sh [--fast | plans | oracle | shard |" \
      "feature | ha | dynamic | jit | asan | chaos]...)" >&2
    exit 2
  fi
done

if (($# > 0)); then
  for arg in "$@"; do
    if [[ $arg == plans || $arg == --plans ]]; then
      run_plans
    else
      run_tier "$(tier_row "$arg")"
    fi
    echo "check.sh: ${arg#--} tier green"
  done
  exit 0
fi

echo "== tier-1: configure + build + full ctest =="
build all
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== bench: build gsbench + smoke-run every workload =="
cmake -S bench/gsbench -B build/gsbench >/dev/null
cmake --build build/gsbench -j "$JOBS" --target gsbench
ctest --test-dir build/gsbench -L bench --output-on-failure

run_plans
for row in "${TIERS[@]}"; do
  [[ ${row%%|*} == --fast ]] || run_tier "$row"
done

echo "== TSan: threaded suites (pass-boundary verification on) =="
build_in build-tsan thread test_pipeline test_serving test_serving_soak test_device
export GS_VERIFY_PASSES=1
./build-tsan/tests/test_pipeline
./build-tsan/tests/test_serving
./build-tsan/tests/test_serving_soak
./build-tsan/tests/test_device --gtest_filter='Allocator.*'
unset GS_VERIFY_PASSES

echo "check.sh: all green"
