#!/usr/bin/env bash
# Smoke test for tools/fuzz_passes (ctest `fuzz_passes`): a few draws over
# every dimension at once, a --repro of one full line that must report each
# differential ok, and bad usage that must exit 2 instead of fuzzing nothing.
#
# Usage: tests/fuzz_passes_smoke.sh path/to/fuzz_passes

set -euo pipefail
fuzz=$1

"$fuzz" --seeds 4 --shards 2 --kill-shard --features --mutate --jit

line='algo=GraphSAGE nodes=200 edges=2000 gseed=1 weighted=1 batches=4 batch_size=8'
line+=' fusion=1 preproc=1 layout=1 greedy=1 super_batch=1 seed=1 profile=v100 pass_limit=-1'
line+=' shards=2 features=1 admission=frequency-ema replicas=2 kill=1 mutate=1'
line+=' mutations=2 mseed=1 jit=1'
out=$("$fuzz" --repro "$line")
for want in 'oracle[GraphSAGE]: ok' \
  'shard differential: 2-shard bit-identical' \
  'feature differential: frequency-ema bit-identical and deterministic' \
  'mutate differential: 2 batches snapshot-equivalent' \
  'jit differential: native kernels bit-identical'; do
  if ! grep -qxF -- "$want" <<<"$out"; then
    printf 'repro output lacks "%s":\n%s\n' "$want" "$out" >&2
    exit 1
  fi
done

expect_usage_error() {
  local status=0
  "$fuzz" "$@" >/dev/null 2>&1 || status=$?
  if [[ $status != 2 ]]; then
    echo "fuzz_passes $* exited $status, want 2 (bad usage)" >&2
    exit 1
  fi
}
expect_usage_error --seeds abc
expect_usage_error --seeds -3
expect_usage_error --kill-shard
expect_usage_error --shards 1 --kill-shard
expect_usage_error --repro 'algo=GraphSAGE shard=2'
expect_usage_error --repro "$line cut=edge"  # the retired partition-kind key

echo "fuzz_passes smoke: ok"
