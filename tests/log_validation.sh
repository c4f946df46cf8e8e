#!/usr/bin/env bash
# One validator per log schema: the readers people use refuse exactly
# what telemetry_check refuses.
#
# Usage: log_validation.sh TRACON_BINARY TELEMETRY_CHECK_BINARY DATA_DIR
#
#   1. on every committed series, decision and span golden
#      (DATA_DIR/{series,decisions,spans}_{flat,2shards}.jsonl),
#      telemetry_check and the log's tracon readers exit 0: `timeline`
#      for the series, `attribution` and `explain 0` for the decisions,
#      `breakdown` and `critical-path` for the spans;
#   2. on one mutant per structural rule, each a one-line edit of a flat
#      golden, telemetry_check and every reader of that log exit 1 with
#      a message naming the rule. The rules live in the schema's reader
#      (obs::parse_metrics_series, parse_decision_log, parse_span_log)
#      or, for a task's span chain and its accounting, obs::breakdown;
#      telemetry_check only drives them.
set -euo pipefail

TRACON=$1
CHECK=$2
DATA=$3

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

readers() {  # LOG: the commands that read a log of kind LOG, FILE last
  case $1 in
    series) echo "$CHECK --series|$TRACON timeline --series" ;;
    decisions)
      echo "$CHECK --decisions|$TRACON attribution --decisions|$TRACON explain 0 --decisions"
      ;;
    spans)
      echo "$CHECK --spans|$TRACON breakdown --spans|$TRACON critical-path --spans"
      ;;
  esac
}

run_readers() {  # LOG FILE CODE MESSAGE: every reader exits CODE, naming MESSAGE
  local log=$1 file=$2 code=$3 message=$4 cmd rc
  IFS='|' read -ra cmds <<< "$(readers "$log")"
  for cmd in "${cmds[@]}"; do
    rc=0
    # $cmd is deliberately unquoted: a binary and its flags.
    # shellcheck disable=SC2086
    $cmd "$file" > out.log 2> err.log || rc=$?
    if [ "$rc" -ne "$code" ]; then
      echo "FAIL: exit code $rc (want $code): $cmd $file"
      cat err.log
      exit 1
    fi
    if [ -n "$message" ] && ! grep -qF -- "$message" err.log; then
      echo "FAIL: error lacks '$message': $cmd $file"
      cat err.log
      exit 1
    fi
  done
}

echo "== every golden passes every reader =="
for log in series decisions spans; do
  for shape in flat 2shards; do
    run_readers "$log" "$DATA/${log}_$shape.jsonl" 0 ""
  done
done

first_line() {  # FILE PATTERN: number of the first line holding PATTERN
  grep -n -m1 -F -- "$2" "$1" | cut -d: -f1
}

# LOG NAME LINE SED MESSAGE: applies the sed -E expression SED to line
# LINE of the flat LOG golden, then expects every reader of the mutant
# to refuse it, naming MESSAGE.
refuse() {
  local log=$1 name=$2 line=$3 expr=$4 message=$5
  local golden="$DATA/${log}_flat.jsonl"
  sed -E "${line}${expr}" "$golden" > "$name.jsonl"
  if cmp -s "$golden" "$name.jsonl"; then
    echo "FAIL: mutant $name changed nothing"
    exit 1
  fi
  echo "-- $name"
  run_readers "$log" "$name.jsonl" 1 "$message"
}

echo "== each series rule, broken once =="
refuse series interval-zero 1 's/"interval_s": [0-9.e+]+/"interval_s": 0/' \
    '"interval_s" is not positive'
refuse series index-skips 3 's/"window": 1,/"window": 2,/' \
    'window indices run consecutively from 0'
refuse series gap-between-windows 3 's/"t_start": [0-9.e+]+/"t_start": 602/' \
    'does not tile'
refuse series window-backwards 2 's/"t_end": [0-9.e+]+/"t_end": 0/' \
    'does not end after it starts'
refuse series longer-than-interval 2 's/"t_end": [0-9.e+]+/"t_end": 700/' \
    'spans more than interval_s'
refuse series negative-delta 2 \
    's/"sim.tasks.arrived": ([0-9]+)/"sim.tasks.arrived": -\1/' \
    'has a negative delta'
refuse series counter-not-integer 2 \
    's/"sim.tasks.arrived": [0-9]+/"sim.tasks.arrived": 1.5/' \
    'counter "sim.tasks.arrived" is not a non-negative integer'
refuse series count-over-total 2 \
    's/"count": [0-9]+, "total"/"count": 999999999, "total"/' \
    'count exceeds its lifetime total'
refuse series count-not-integer 2 \
    's/"count": [0-9]+, "total": [0-9]+/"count": 1.5, "total": 1e300/' \
    'accuracy entry "count" is not a non-negative integer'

echo "== each decision rule, broken once =="
D=$DATA/decisions_flat.jsonl
migration=$(first_line "$D" '"kind": "migration"')
outcome=$(first_line "$D" '"kind": "outcome"')
refuse decisions time-backwards 3 's/"t": [0-9.e+-]+/"t": 1/' \
    'record time runs backwards'
refuse decisions no-families 2 \
    '{s/"families": \[[^]]*\], "weights": \[[^]]*\]/"families": [], "weights": []/; s/"by_family": \[[^]]*\]/"by_family": []/g}' \
    'decision names no model family'
refuse decisions weights-short 2 's/"weights": \[[^,]+, /"weights": [/' \
    'do not match its families'
refuse decisions by-family-short 2 's/"by_family": \[[^,]+, /"by_family": [/' \
    'do not match its families'
refuse decisions migration-onto-own-host "$migration" \
    's/"from_machine": ([0-9]+)(.*)"machine": [0-9]+/"from_machine": \1\2"machine": \1/' \
    'migration does not name two distinct machines'
refuse decisions negative-copy "$migration" \
    's/"copy_s": [0-9.e+]+/"copy_s": -1.28/' 'cost "copy_s" is negative'
refuse decisions migration-undecided "$migration" \
    's/"task": [0-9]+/"task": 999999/' \
    'migration for task 999999 joins no earlier decision'
refuse decisions outcome-undecided "$outcome" \
    's/"task": [0-9]+/"task": 999999/' \
    'outcome for task 999999 joins no earlier decision'

echo "== each span rule, broken once =="
S=$DATA/spans_flat.jsonl
running=$(first_line "$S" '"kind": "running"')
copy=$(first_line "$S" '"kind": "migration_copy"')
freeze=$(first_line "$S" '"kind": "migration_freeze"')
completed=$(first_line "$S" '"kind": "completed"')
refuse spans factor-zero "$running" 's/"factor": [0-9.e+-]+/"factor": 0/' \
    '"factor" is not positive'
refuse spans copy-factor-above-one "$copy" \
    's/"copy_factor": [0-9.e+-]+/"copy_factor": 1.5/' \
    '"copy_factor" is not in (0, 1]'
# A freeze span deleted leaves a gap in its task's chain.
refuse spans chain-gap "$freeze" 'd' 'spans do not tile (gap or overlap)'
# A completed marker twice: the second follows the first.
refuse spans span-after-completion "$completed" 'p' \
    'has a span after its completed marker'
# At a speed of 1e17 a running span's components round to 0 seconds.
refuse spans components-miss-latency "$running" \
    's/"factor": [0-9.e+-]+/"factor": 1e17/' \
    'components do not sum to its end-to-end latency'

echo "log_validation: all checks passed"
