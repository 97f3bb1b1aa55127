#!/usr/bin/env bash
# Smoke test for gsampler_cli's serve --json line (ctest
# `gsampler_cli_serve_json`): a short mutating serve run must print one
# JSON object whose `server` counters account for every request and every
# mutation epoch. A second run serves feature rows over the mutating
# endpoint, and every completed request must carry them.
#
# Usage: tests/cli_serve_json_smoke.sh path/to/gsampler_cli

set -euo pipefail
cli=$1

# Checks one run's JSON line; "features" as $2 also requires every
# completed request to have gathered features.
check() {
  python3 -c '
import json, sys
server = json.loads(sys.argv[1].splitlines()[-1])["server"]
answered = (server["completed"] + server["failed"] + server["rejected"] +
            server["deadline_exceeded"])
if not (server["received"] == 30 == answered):
    sys.exit("received %d, answered %d, want 30 each" % (server["received"], answered))
if server["graph_epochs"] != 2:
    sys.exit("graph_epochs %d, want 2" % server["graph_epochs"])
if sys.argv[2] == "features" and server["feature_requests"] != server["completed"]:
    sys.exit("feature_requests %d, want completed (%d)" %
             (server["feature_requests"], server["completed"]))
' "$1" "$2"
}

# Each run is captured before it is checked, so that `set -e` fails the test
# when the CLI exits non-zero (it does when any request failed).
out=$("$cli" --dataset PD --scale 0.05 --serve --requests 30 --mutate-stream 2 --json)
check "$out" plain
out=$("$cli" --dataset PD --scale 0.05 --serve --requests 30 --mutate-stream 2 --features --json)
check "$out" features

echo "gsampler_cli serve json smoke: ok"
