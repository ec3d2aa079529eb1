#!/usr/bin/env bash
# Regenerates the blessed per-(scenario, seed) driver outputs under
# tests/golden/ that tests/golden_check.sh compares against. Run after an
# intentional behavior change (or a builder-image change -- the outputs are
# byte-exact within one image only) and commit the result.
#
#   tools/bless_goldens.sh [path/to/harvest_sim]
set -euo pipefail

BIN=${1:-build/harvest_sim}
GOLDEN_DIR="$(cd "$(dirname "$0")/.." && pwd)/tests/golden"
SCALE=0.05  # must match tests/golden_check.sh
SEED=42

mkdir -p "$GOLDEN_DIR"
for scenario in $("$BIN" --list-names); do
  out="$GOLDEN_DIR/$scenario.seed$SEED.json"
  "$BIN" --scenario="$scenario" --seed="$SEED" --scale="$SCALE" --threads=2 \
    --out="$out" 2>/dev/null
  echo "blessed $out"
done
