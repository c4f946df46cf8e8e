#!/usr/bin/env bash
# End-to-end checks of the tracon CLI's argument validation and run
# summary.
#
# Usage: cli_smoke.sh TRACON_BINARY GOLDEN_TRACE
#
#   1. a bad flag value of `dynamic` (flat or sharded), `record`,
#      `replay`, `hierarchy` or `static` exits 1 with a message naming
#      the flag, before any set-up work: every rejected command also
#      carries `--host bogus`, which the set-up would reject first if it
#      had started; so do the rejected flag combinations, and so does a
#      flag the subcommand does not read (misspelt or retired);
#   2. the edge values that stay valid (--hours 0.001, --threads 0,
#      --shards 0) still run;
#   3. when the FIFO baseline completes nothing, flat and sharded runs
#      print "normalized n/a" (never nan, never a made-up ratio); a
#      longer run still prints the ratio with three decimals;
#   4. one shard is one system: `--threads N` on a cluster that resolves
#      to one shard prints exactly the flag-free run's stdout, and
#      --scheduler mix --confidence-weighting runs flat and sharded;
#   5. `breakdown --window` and `attribution --top` reject NaN, negative
#      and overflowing values; valid ones print tests/data/cli_* exactly,
#      and so do the `--json` reports of `attribution`, `critical-path`
#      and `timeline`;
#   6. the task-event CSV (--trace), the task-event JSONL
#      (--events-jsonl) and the snapshot series (--series-out) of a
#      small run, flat and on 2 shards, match tests/data/task_events_*
#      and tests/data/series_* byte for byte. The 601 s interval never
#      lands on a 5 s scheduling round, so no window closes on a tie;
#   7. the decision and span logs of a small rebalancing
#      confidence-weighted MIX run, flat and on 2 shards, match
#      tests/data/decisions_* and tests/data/spans_* byte for byte
#      after the header line (its fingerprint carries the build stamp).
#      Together they hold every record kind of both logs;
#   8. an export the disk cannot take (/dev/full, where it exists)
#      fails the run: exit 1, a "cannot write" line per file and no
#      "written to" line;
#   9. `timeline`, `attribution` and `breakdown` name what their log
#      source lacks: exit 1 for a file they cannot open, an unknown run
#      id or a stored run without the log, exit 2 with the usage line
#      when no source is given;
#  10. `timeline --json` prints accuracy counts as the integers the
#      series file stores (a total past 10^6 included) and its other
#      numbers as they round-trip;
#  11. the log readers refuse, with exit 1 and a message, a line nested
#      200,000 levels deep, a negative series window and a decision
#      record whose app index no integer type holds;
#  12. `replay` refuses, naming the line, a trace whose first arrival
#      precedes t = 0;
#  13. an export file that cannot be opened, or a regular file two
#      exports name, fails the run before the set-up: a 10^5-machine,
#      100 h `dynamic` exits 1 at once, and `record` and `replay` fail
#      before their --host is read.
set -euo pipefail

TRACON=$1
GOLDEN=$2
DATA=$(dirname "$GOLDEN")

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

expect_failure() {  # CODE MESSAGE CMD...: exit CODE, an error with MESSAGE
  local code=$1
  local message=$2
  shift 2
  local rc=0
  "$TRACON" "$@" > out.log 2> err.log || rc=$?
  if [ "$rc" -ne "$code" ]; then
    echo "FAIL: exit code $rc (want $code): tracon $*"
    cat err.log
    exit 1
  fi
  grep -qF -- "$message" err.log || {
    echo "FAIL: error lacks '$message': tracon $*"
    cat err.log
    exit 1
  }
}

expect_error() {  # MESSAGE CMD...: exit 1 and an error containing MESSAGE
  local message=$1
  shift
  expect_failure 1 "$message" "$@" --host bogus
}

expect_rejected() {  # FLAG CMD...: exit 1 and a message naming --FLAG
  local flag=$1
  shift
  expect_error "flag --$flag " "$@"
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

echo "== every other flag fails before the set-up too =="
for cmd in "dynamic" "dynamic --threads 2" "record --out a.jsonl --store runs"; do
  # shellcheck disable=SC2086
  {
    expect_rejected accuracy-window $cmd --accuracy-window -1 --series-out f
    expect_rejected accuracy-window $cmd --accuracy-window 0
    expect_rejected snapshot-interval $cmd --snapshot-interval 0
    expect_rejected snapshot-interval $cmd --snapshot-interval -5
    expect_rejected rebalance-interval $cmd --rebalance --rebalance-interval 0
    expect_rejected rebalance-max-moves $cmd --rebalance \
        --rebalance-max-moves -1
    expect_rejected migration-interference $cmd --rebalance \
        --migration-interference 2
    expect_rejected migration-downtime $cmd --rebalance \
        --migration-downtime -1
    expect_rejected working-set $cmd --rebalance --working-set 0
    expect_rejected scheduler $cmd --scheduler bogus
    expect_rejected objective $cmd --objective bogus
    expect_error "requires --scheduler mix" $cmd --confidence-weighting
  }
done
expect_rejected accuracy-window replay --trace "$GOLDEN" --accuracy-window 0 \
    --store runs
expect_error "requires --threads 1" dynamic --threads 2 --prof
expect_rejected routing hierarchy --routing bogus
expect_rejected managers hierarchy --managers -1
expect_rejected machines hierarchy --machines 0
expect_rejected lambda hierarchy --lambda -10
expect_rejected threads hierarchy --threads -1
expect_rejected machines static --machines -3
expect_rejected scheduler static --scheduler bogus

echo "== a flag the subcommand does not read fails before the set-up =="
expect_error "unknown flags --bogus, --confidence-weightng for tracon dynamic" \
    dynamic --machines 8 --hours 0.05 --confidence-weightng --bogus 3
expect_error "unknown flag --candidate-index for tracon dynamic" dynamic \
    --candidate-index
expect_error "unknown flag --shard for tracon dynamic" dynamic --threads 2 \
    --shard 4
expect_error "unknown flag --decisons for tracon record" record \
    --out a.jsonl --store runs --decisons
expect_error "unknown flag --threads for tracon record" record \
    --out a.jsonl --store runs --threads 2
expect_error "unknown flag --shedulr for tracon replay" replay \
    --trace "$GOLDEN" --store runs --shedulr mix
expect_error "unknown flag --manager for tracon hierarchy" hierarchy \
    --manager 2
expect_error "unknown flag --machine for tracon static" static --machine 4

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

echo "== one shard is one system, however it is invoked =="
"$TRACON" dynamic --machines 64 --hours 0.5 > flat.log
"$TRACON" dynamic --machines 64 --hours 0.5 --threads 3 > threads.log
cmp flat.log threads.log || {
  echo "FAIL: a 1-shard --threads run differs from the flag-free run"
  diff flat.log threads.log
  exit 1
}

echo "== the confidence ensemble runs flat and sharded =="
for engine in "" "--threads 2"; do
  # shellcheck disable=SC2086
  "$TRACON" dynamic --machines 4 --lambda 6 --hours 0.1 --scheduler mix \
      --confidence-weighting $engine > confidence.log
  grep -q "completed" confidence.log || {
    echo "FAIL: no summary from a --confidence-weighting $engine run"
    cat confidence.log
    exit 1
  }
done

echo "== breakdown --window and attribution --top are validated =="
"$TRACON" dynamic --machines 4 --lambda 6 --hours 0.5 --spans-out spans.jsonl \
    --decisions-out decisions.jsonl > provenance.log
expect_rejected window breakdown --spans spans.jsonl --window nan --json
expect_rejected window breakdown --spans spans.jsonl --window -60
expect_error "must fit in uint64_t" breakdown --spans spans.jsonl \
    --window 1e-300
expect_rejected top attribution --decisions decisions.jsonl --top -1
"$TRACON" breakdown --spans spans.jsonl --window 600 --json > breakdown.json
diff breakdown.json "$DATA/cli_breakdown_window600.json"
"$TRACON" attribution --decisions decisions.jsonl --top 3 > attribution.txt
diff attribution.txt "$DATA/cli_attribution_top3.txt"

echo "== the --json reports keep their bytes =="
"$TRACON" attribution --decisions decisions.jsonl --top 3 --json \
    > attribution.json
diff attribution.json "$DATA/cli_attribution_top3.json"
"$TRACON" critical-path --spans spans.jsonl --json > critical_path.json
diff critical_path.json "$DATA/cli_critical_path.json"
"$TRACON" timeline --series "$DATA/series_flat.jsonl" --json \
    > timeline_flat.json
diff timeline_flat.json "$DATA/cli_timeline_series_flat.json"

echo "== the tracer's exports and the series keep their bytes =="
for shape in flat:"" 2shards:"--threads 2 --shards 2"; do
  name=${shape%%:*}
  # shellcheck disable=SC2086
  "$TRACON" dynamic --machines 4 --lambda 6 --hours 0.5 \
      --snapshot-interval 601 ${shape#*:} --trace "events_$name.csv" \
      --events-jsonl "events_$name.jsonl" --series-out "series_$name.jsonl" \
      --trace-out "trace_$name.json" --trace-jsonl "trace_$name.jsonl" \
      > "golden_$name.log"
  diff "events_$name.csv" "$DATA/task_events_$name.csv"
  diff "events_$name.jsonl" "$DATA/task_events_$name.jsonl"
  diff "series_$name.jsonl" "$DATA/series_$name.jsonl"
  # The Chrome trace and the trace JSONL carry no build stamp: whole-file.
  diff "trace_$name.json" "$DATA/trace_$name.json"
  diff "trace_$name.jsonl" "$DATA/trace_$name.jsonl"
done

echo "== decision and span logs keep their bytes =="
for shape in flat:"" 2shards:"--threads 2 --shards 2"; do
  name=${shape%%:*}
  # shellcheck disable=SC2086
  "$TRACON" dynamic --machines 8 --lambda 16 --hours 0.25 --rebalance \
      --scheduler mix --confidence-weighting --seed 42 ${shape#*:} \
      --decisions-out "decisions_$name.jsonl" \
      --spans-out "spans_$name.jsonl" > "provenance_$name.log"
  for log in decisions spans; do
    diff <(tail -n +2 "${log}_$name.jsonl") \
        <(tail -n +2 "$DATA/${log}_$name.jsonl")
  done
done

echo "== a failed export write fails the run =="
if [ -e /dev/full ]; then
  rc=0
  "$TRACON" dynamic --machines 8 --lambda 16 --hours 0.25 \
      --decisions-out /dev/full --spans-out /dev/full \
      --metrics-out /dev/full > full.log 2> full.err || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL: exit code $rc (want 1) writing exports to /dev/full"
    cat full.log full.err
    exit 1
  fi
  for what in "metrics JSON" "decision log" "span log"; do
    grep -q "cannot write $what file '/dev/full'" full.err || {
      echo "FAIL: no write error for the $what"
      cat full.err
      exit 1
    }
  done
  if grep -q "written to" full.log; then
    echo "FAIL: a failed write still reports success"
    cat full.log
    exit 1
  fi
else
  echo "skipped: this system has no /dev/full"
fi

echo "== an export file that cannot be opened fails before the set-up =="
# The run itself would take hours: every export path is opened first.
rc=0
timeout 60 "$TRACON" dynamic --machines 100000 --lambda 100000 --hours 100 \
    --metrics-out missing/dir/metrics.json > out.log 2> err.log || rc=$?
if [ "$rc" -ne 1 ] || ! grep -qF \
    "cannot open metrics JSON file 'missing/dir/metrics.json'" err.log; then
  echo "FAIL: exit code $rc (want 1) for an export in a missing directory"
  cat err.log
  exit 1
fi
expect_error "cannot open span log file 'missing/spans.jsonl'" \
  record --hours 0.01 --out a.jsonl --store runs --spans-out missing/spans.jsonl
# Two exports open at once would overwrite each other's bytes.
expect_error "cannot open metrics CSV file 'same.out': --metrics-out writes it" \
  dynamic --metrics-out same.out --metrics-csv same.out
expect_error "cannot open decision log file 'missing/decisions.jsonl'" \
  replay --trace "$GOLDEN" --store runs --decisions-out missing/decisions.jsonl

echo "== the log readers name what their source lacks =="
"$TRACON" record --machines 4 --lambda 6 --hours 0.01 --out bare.jsonl \
    --store runs > bare.log
bare=$(sed -n 's/^stored run //p' bare.log)
[ -n "$bare" ] || {
  echo "FAIL: record printed no run id"
  cat bare.log
  exit 1
}
for cmd in timeline attribution breakdown; do
  expect_failure 1 "no run matches id prefix 'nope' in store 'runs'" \
      $cmd nope --store runs
done
expect_failure 1 "cannot open series file 'missing.jsonl'" \
    timeline --series missing.jsonl
expect_failure 1 "cannot open decision log 'missing.jsonl'" \
    attribution --decisions missing.jsonl
expect_failure 1 "cannot open span log 'missing.jsonl'" \
    breakdown --spans missing.jsonl
expect_failure 1 "run $bare has no stored metrics series (record it with \
--snapshot-interval)" timeline "$bare" --store runs
expect_failure 1 "run $bare has no stored decision log (record it with \
--decisions)" attribution "$bare" --store runs
expect_failure 1 "run $bare has no stored span log (record it with --spans)" \
    breakdown "$bare" --store runs
expect_failure 2 "usage: tracon timeline (--series FILE | <run-id-prefix>" \
    timeline
expect_failure 2 "usage: tracon attribution (--decisions FILE |" attribution
expect_failure 2 "usage: tracon breakdown (--spans FILE |" breakdown

echo "== timeline --json prints counts as integers =="
sed '2s/"total": 29,/"total": 1234567,/' "$DATA/series_flat.jsonl" \
    > crafted.jsonl
grep -q '"total": 1234567,' crafted.jsonl || {
  echo "FAIL: the crafted series lacks its window-0 total"
  exit 1
}
"$TRACON" timeline --series crafted.jsonl --metric model.nlm.iops --json \
    > timeline.json
for field in '"count": 29, "total": 1234567,' \
    '"mean_abs": 0.16527868369497292,' '"interval_s": 601,'; do
  grep -qF -- "$field" timeline.json || {
    echo "FAIL: timeline --json lacks $field"
    cat timeline.json
    exit 1
  }
done

echo "== the log readers refuse malformed nesting and numbers =="
{
  head -n 1 "$DATA/series_flat.jsonl"
  printf '%*s\n' 200000 '' | tr ' ' '['
} > deep.jsonl
expect_failure 1 "nesting deeper than 256 levels" timeline --series deep.jsonl
sed '2s/"window": 0,/"window": -1,/' "$DATA/series_flat.jsonl" \
    > negative.jsonl
sed '2s/"app": [0-9]*,/"app": 1e300,/' "$DATA/decisions_flat.jsonl" \
    > huge.jsonl
grep -q '"window": -1,' negative.jsonl && grep -q '"app": 1e300,' huge.jsonl || {
  echo "FAIL: the crafted logs lack their malformed numbers"
  exit 1
}
expect_failure 1 '"window" is not a non-negative integer: -1' \
    timeline --series negative.jsonl
expect_failure 1 '"app" is not a non-negative integer: 1e+300' \
    attribution --decisions huge.jsonl

echo "== a replayed arrival before t = 0 is refused =="
sed -E '2s/"time_s": [0-9.e+-]+/"time_s": -500/' "$GOLDEN" > early.jsonl
grep -q '"time_s": -500,' early.jsonl || {
  echo "FAIL: the crafted trace lacks its negative arrival"
  exit 1
}
expect_failure 1 "arrival trace line 2: arrival time_s is negative" \
    replay --trace early.jsonl --store runs

echo "cli_smoke: all checks passed"
