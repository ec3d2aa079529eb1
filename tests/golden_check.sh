#!/usr/bin/env bash
# Layout check for one blessed result; CMakeLists.txt registers one CTest per
# file under tests/golden. harvest_sim renders only deterministic fields, so
# its output must `cmp` equal to the golden, with no filter, at
# --threads=2 (the bless layout), 1 and 8. The threads=1 and threads=8 runs
# also export their fleets with --dump-traces: the two exports must be
# byte-identical, and replaying the threads=1 export with --set trace_dir=
# must reproduce the golden in every field but the provenance pair
# ("trace_source", "overrides").
#
# A difference is a behavior change: a regression, or an intentional change
# to re-bless with tools/bless_goldens.sh. Goldens are byte-exact within one
# builder image only (libm transcendentals; see DESIGN.md).
#
#   tests/golden_check.sh path/to/harvest_sim tests/golden/SCENARIO.seedN.json
set -euo pipefail

BIN=${1:?usage: golden_check.sh /path/to/harvest_sim /path/to/SCENARIO.seedN.json}
GOLDEN=${2:?golden file}
SCALE=0.05  # must match tools/bless_goldens.sh

base=$(basename "$GOLDEN" .json)  # e.g. dc9_testbed.seed42
run=("$BIN" --scenario="${base%.seed*}" --seed="${base##*.seed}" --scale="$SCALE")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
fail() {
  echo "FAIL: $base: $*" >&2
  status=1
}

# check LAYOUT ARG...: one run with the extra arguments, cmp-equal to the golden.
check() {
  local layout=$1
  shift
  if ! "${run[@]}" "$@" --out="$tmp/out.json" 2>"$tmp/stderr"; then
    cat "$tmp/stderr" >&2
    fail "harvest_sim failed at $layout"
  elif cmp -s "$GOLDEN" "$tmp/out.json"; then
    echo "OK: $base at $layout"
  else
    fail "differs from $GOLDEN at $layout (if intended, run tools/bless_goldens.sh)"
  fi
}

check "threads=2" --threads=2
for threads in 1 8; do
  check "threads=$threads" --threads="$threads" --dump-traces="$tmp/traces$threads"
done

exports=$(cd "$tmp/traces1" && ls -- *.trace)
if [ "$exports" != "$(cd "$tmp/traces8" && ls -- *.trace)" ]; then
  fail "threads=1 and threads=8 exported different trace files"
fi
for name in $exports; do
  cmp -s "$tmp/traces1/$name" "$tmp/traces8/$name" ||
    fail "exported $name differs between threads=1 and threads=8"
done

if ! "${run[@]}" --threads=2 --set trace_dir="$tmp/traces1" --out="$tmp/replay.json" \
    2>"$tmp/stderr"; then
  cat "$tmp/stderr" >&2
  fail "harvest_sim failed replaying the threads=1 export"
elif python3 - "$GOLDEN" "$tmp/replay.json" <<'PY'; then
import json
import sys

golden, replay = (json.load(open(path)) for path in sys.argv[1:])
for doc in (golden, replay):
    del doc["trace_source"], doc["overrides"]
sys.exit(golden != replay)
PY
  echo "OK: $base replayed from its threads=1 export ($(echo $exports))"
else
  fail "replaying the threads=1 export differs from the golden"
fi
exit $status
