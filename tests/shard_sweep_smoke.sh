#!/usr/bin/env bash
# Smoke test for bench/serving_throughput's shard sweep (ctest
# `serving_throughput_shards`): a short 2-shard sweep must charge no
# exchange on one shard, some on two, and none at hop 0, whose seeds all
# live on the request's home shard.
#
# Usage: tests/shard_sweep_smoke.sh path/to/serving_throughput

set -euo pipefail
bench=$1

out=$("$bench" --shards=2 --requests=20 --scale=0.05)
python3 -c '
import sys
exchange, remote, table = {}, {}, None
for line in sys.argv[1].splitlines():
    if "capacity(r/s)" in line:
        table = exchange
    elif line.startswith("per-hop exchange"):
        table = remote
    cells = [c.split() for c in line.split("|")]
    if table is None or len(cells) < 2 or not cells[0] or not cells[0][0].isdigit():
        continue
    # shard rows: shards | capacity speedup | p50 p95 | bytes us
    # hop rows:   hop | frontier_nodes remote_nodes bytes us
    table[int(cells[0][0])] = int(cells[3][0]) if table is exchange else int(cells[1][1])
if exchange.get(1) != 0:
    sys.exit("1-shard exchange bytes %r, want 0" % exchange.get(1))
if not exchange.get(2, 0) > 0:
    sys.exit("2-shard exchange bytes %r, want > 0" % exchange.get(2))
if remote.get(0) != 0:
    sys.exit("hop-0 remote nodes %r, want 0" % remote.get(0))
' "$out" || { printf '%s\n' "$out" >&2; exit 1; }

echo "shard sweep smoke: ok"
