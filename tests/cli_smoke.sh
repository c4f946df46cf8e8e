#!/usr/bin/env bash
# End-to-end checks of the tracon CLI's argument validation and run
# summary.
#
# Usage: cli_smoke.sh TRACON_BINARY GOLDEN_TRACE
#
#   1. a bad run-shape flag of `dynamic` (both engines), `record` or
#      `replay` exits 1 with a message naming the flag, before any
#      set-up work: every rejected command also carries `--host bogus`,
#      which the set-up would reject first if it had started;
#   2. the edge values that stay valid (--hours 0.001, --threads 0,
#      --shards 0) still run;
#   3. when the FIFO baseline completes nothing, both engines print
#      "normalized n/a" (never nan, never a made-up ratio); a longer run
#      still prints the ratio with three decimals.
set -euo pipefail

TRACON=$1
GOLDEN=$2

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

expect_rejected() {  # FLAG CMD...: exit 1 and a message naming --FLAG
  local flag=$1
  shift
  local rc=0
  "$TRACON" "$@" --host bogus > out.log 2> err.log || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL: exit code $rc (want 1): tracon $*"
    cat err.log
    exit 1
  fi
  grep -q -- "flag --$flag " err.log || {
    echo "FAIL: error does not name --$flag: tracon $*"
    cat err.log
    exit 1
  }
}

echo "== bad run-shape flags fail before the set-up =="
for engine in "" "--threads 1"; do
  # $engine is deliberately unquoted: empty, or one flag and its value.
  # shellcheck disable=SC2086
  {
    expect_rejected machines dynamic $engine --machines -5
    expect_rejected machines dynamic $engine --machines 0
    expect_rejected lambda dynamic $engine --lambda 0
    expect_rejected lambda dynamic $engine --lambda -3
    expect_rejected hours dynamic $engine --hours 0
    expect_rejected hours dynamic $engine --hours nan
    expect_rejected queue dynamic $engine --queue -1
    expect_rejected queue dynamic $engine --queue 0
  }
done
expect_rejected threads dynamic --threads -1
expect_rejected shards dynamic --threads 2 --shards -1
expect_rejected machines record --machines -5 --out a.jsonl --store runs
expect_rejected hours record --hours -1 --out a.jsonl --store runs
expect_rejected machines replay --trace "$GOLDEN" --machines 0 --store runs
expect_rejected queue replay --trace "$GOLDEN" --queue -1 --store runs

echo "== a horizon FIFO cannot finish a task in prints n/a =="
"$TRACON" dynamic --machines 4 --lambda 6 --hours 0.001 > legacy.log
"$TRACON" dynamic --machines 4 --lambda 6 --hours 0.001 --threads 0 \
    --shards 0 > sharded.log
for log in legacy.log sharded.log; do
  grep -q "(FIFO 0, normalized n/a)" "$log" || {
    echo "FAIL: $log lacks 'normalized n/a'"
    cat "$log"
    exit 1
  }
  if grep -qiw "nan" "$log"; then
    echo "FAIL: $log prints nan"
    cat "$log"
    exit 1
  fi
done

echo "== a longer run still prints the ratio =="
"$TRACON" dynamic --machines 4 --lambda 6 --hours 0.1 > ratio.log
grep -Eq "normalized [0-9]+\.[0-9]{3}\)" ratio.log || {
  echo "FAIL: no three-decimal normalized ratio"
  cat ratio.log
  exit 1
}

echo "cli_smoke: all checks passed"
