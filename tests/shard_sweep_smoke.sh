#!/usr/bin/env bash
# Smoke test for bench/serving_throughput's shard sweep (ctest
# `serving_throughput_shards`): a short 2-shard sweep must charge no
# exchange on one shard, some on two, and none at hop 0, whose seeds all
# live on the request's home shard. Hop 1 draws GraphSAGE {10, 5}'s 5 slots
# per remote node, so it may ship at most their picks: 5 x (4-byte slot
# index + 8-byte weighted edge) = 60 bytes per remote node. Every column is
# on the model clock, so a second run must print the identical table.
#
# Usage: tests/shard_sweep_smoke.sh path/to/serving_throughput

set -euo pipefail
bench=$1

out=$("$bench" --shards=2 --requests=20 --scale=0.05)
again=$("$bench" --shards=2 --requests=20 --scale=0.05)
if [[ $out != "$again" ]]; then
  echo "shard sweep is not reproducible; two runs printed:" >&2
  diff <(printf '%s\n' "$out") <(printf '%s\n' "$again") >&2 || true
  exit 1
fi
python3 -c '
import sys
exchange, hops, table = {}, {}, None
for line in sys.argv[1].splitlines():
    if "capacity(r/s)" in line:
        table = exchange
    elif line.startswith("per-hop exchange"):
        table = hops
    cells = [c.split() for c in line.split("|")]
    if table is None or len(cells) < 2 or not cells[0] or not cells[0][0].isdigit():
        continue
    # shard rows: shards | capacity speedup | p50 p95 | bytes us
    # hop rows:   hop | frontier_nodes remote_nodes bytes us
    table[int(cells[0][0])] = int(cells[3][0]) if table is exchange else (
        int(cells[1][1]), int(cells[1][2]))
if exchange.get(1) != 0:
    sys.exit("1-shard exchange bytes %r, want 0" % exchange.get(1))
if not exchange.get(2, 0) > 0:
    sys.exit("2-shard exchange bytes %r, want > 0" % exchange.get(2))
if hops.get(0, (None,))[0] != 0:
    sys.exit("hop-0 remote nodes %r, want 0" % (hops.get(0),))
remote, hop_bytes = hops.get(1, (0, 0))
if not remote > 0 or hop_bytes > remote * 5 * (4 + 8):
    sys.exit("hop 1 ships %r bytes for %r remote nodes, want at most 60 per node"
             % (hop_bytes, remote))
' "$out" || { printf '%s\n' "$out" >&2; exit 1; }

echo "shard sweep smoke: ok"
