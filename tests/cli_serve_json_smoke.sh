#!/usr/bin/env bash
# Smoke test for gsampler_cli's serve --json line (ctest
# `gsampler_cli_serve_json`): a short mutating serve run must print one
# JSON object whose `server` counters account for every request and every
# mutation epoch.
#
# Usage: tests/cli_serve_json_smoke.sh path/to/gsampler_cli

set -euo pipefail
cli=$1

out=$("$cli" --dataset PD --scale 0.05 --serve --requests 30 --mutate-stream 2 --json)
python3 -c '
import json, sys
server = json.loads(sys.argv[1].splitlines()[-1])["server"]
answered = (server["completed"] + server["failed"] + server["rejected"] +
            server["deadline_exceeded"])
if not (server["received"] == 30 == answered):
    sys.exit("received %d, answered %d, want 30 each" % (server["received"], answered))
if server["graph_epochs"] != 2:
    sys.exit("graph_epochs %d, want 2" % server["graph_epochs"])
' "$out"

echo "gsampler_cli serve json smoke: ok"
