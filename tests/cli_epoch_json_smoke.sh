#!/usr/bin/env bash
# Smoke test for gsampler_cli's epoch report (ctest
# `gsampler_cli_epoch_json`): on a UVA graph at a fixed super-batch of 4,
# the text-mode epoch lines' PCIe values must sum to the --json line's
# `pcie_mb` (within 0.1 MB per epoch of rounding), `super_batch` must be
# the group size the epochs ran at, and the model clock must be reported.
#
# Usage: tests/cli_epoch_json_smoke.sh path/to/gsampler_cli

set -euo pipefail
cli=$1
flags=(--algorithm LADIES --dataset PP --scale 0.05 --super-batch 4 --epochs 3)

text=$("$cli" "${flags[@]}")
json=$("$cli" "${flags[@]}" --json)
python3 -c '
import json, re, sys
text, line = sys.argv[1], sys.argv[2].splitlines()[-1]
run = json.loads(line)
epochs = [float(mb) for mb in re.findall(r"^epoch \d+: .*PCIe ([0-9.]+) MB$", text, re.M)]
if len(epochs) != 3:
    sys.exit("want 3 epoch lines, got %d:\n%s" % (len(epochs), text))
if abs(sum(epochs) - run["pcie_mb"]) > 0.1 * len(epochs):
    sys.exit("epoch PCIe %s sums to %.1f MB, json pcie_mb %.1f" %
             (epochs, sum(epochs), run["pcie_mb"]))
if run["super_batch"] != 4:
    sys.exit("super_batch %d, want 4 (the --super-batch flag)" % run["super_batch"])
if not run.get("model_ns", 0) > 0:
    sys.exit("model_ns missing or not positive: %s" % line)
' "$text" "$json"

echo "gsampler_cli epoch json smoke: ok"
