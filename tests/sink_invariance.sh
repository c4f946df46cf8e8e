#!/usr/bin/env bash
# Every sink only records: turning on any export flag, or all of them,
# must not change the simulated run.
#
# Usage: sink_invariance.sh TRACON_BINARY
#
# For `tracon dynamic --machines 64 --hours 0.5 --seed 42`, with and
# without --rebalance, flat and with --threads 4 --shards 4, each run
# adds one sink flag (or every one of them at once) to --metrics-out.
# Its stdout summary and every sim.* and sched.* counter of its metrics
# JSON must equal those of the --metrics-out-only run.
set -euo pipefail

TRACON=$1

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

SINKS=(
  "--metrics-csv metrics.csv"
  "--series-out series.jsonl"
  "--snapshot-interval 7"
  "--decisions-out decisions.jsonl"
  "--spans-out spans.jsonl"
  "--trace-out trace.json"
  "--trace-jsonl trace.jsonl"
  "--events-jsonl events.jsonl"
  "--trace events.csv"
)

# run NAME FLAGS...: the run's summary (stdout without the "written to"
# lines) and its sim.*/sched.* counters, in NAME.summary/NAME.counters.
run() {
  local name=$1
  shift
  "$TRACON" dynamic --machines 64 --hours 0.5 --seed 42 "$@" \
      --metrics-out "$name.json" > "$name.log"
  grep -v " written to " "$name.log" > "$name.summary"
  sed -n '/^  "counters": {/,/^  }/p' "$name.json" |
      grep -E '^    "(sim|sched)\.' > "$name.counters"
}

for shape in flat:"" sharded:"--threads 4 --shards 4"; do
  for mode in plain:"" rebalance:"--rebalance"; do
    label="${shape%%:*}/${mode%%:*}"
    # $extra is deliberately unquoted: empty, or flags and values.
    extra="${shape#*:} ${mode#*:}"
    echo "== $label =="
    # shellcheck disable=SC2086
    run base $extra
    grep -q "completed" base.summary
    test -s base.counters
    for i in "${!SINKS[@]}" all; do
      if [ "$i" = all ]; then sink="${SINKS[*]}"; else sink="${SINKS[$i]}"; fi
      # shellcheck disable=SC2086
      run sink $extra $sink
      if ! cmp -s base.summary sink.summary ||
          ! cmp -s base.counters sink.counters; then
        echo "FAIL ($label): '$sink' changed the run"
        diff base.summary sink.summary || true
        diff base.counters sink.counters || true
        exit 1
      fi
    done
  done
done

echo "sink_invariance: all checks passed"
