#!/usr/bin/env bash
# Smoke-run the ten paper experiment binaries (Tables I–II, Figs 3–4 and
# the six ablations) at 2 replicates each.
#
# Each binary runs from a fresh temporary directory, because it writes
# results/<name>.json into the current directory. The script fails on a
# non-zero exit, or when a results file is missing or records a failed
# replicate (`extra.failures > 0`). It checks that the experiments run,
# not that their numbers match the paper.
#
# Run from anywhere after `cargo build --release --workspace --bins`.
set -euo pipefail

bins="$(cd "$(dirname "$0")/.." && pwd)/target/release"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

for exp in table1 table2 fig3 fig4 ablation_joint ablation_label_noise \
  ablation_monge ablation_partial ablation_randomization ablation_sinkhorn; do
  echo "== $exp"
  "$bins/$exp" 2
  if ! jq -e '.extra.failures == 0' "results/$exp.json" >/dev/null; then
    echo "FAIL: $exp recorded failed replicates (or wrote no results file)" >&2
    exit 1
  fi
done
echo "all ten experiments ran with 0 failed replicates"
