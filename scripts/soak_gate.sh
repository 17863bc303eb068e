#!/usr/bin/env bash
# soak_gate.sh — the soak gate: every chaos soak (TestChaosSoak,
# TestChaosSoakDurable and the three TestChaosSoakReplicated rows) twenty
# times at GOMAXPROCS 1, 2 and 8. The contract is zero lost acknowledged
# writes and zero unclassified errors on every run.
#
# Prints one summary line per test and core count (PASS and FAIL counts),
# how many replicated rows logged and how many of those fenced a stale
# write (staleFences > 0), then the totals: the body of a
# ledger/SOAK_<n>.txt. A failing run's whole output, loss timeline
# included, follows the summary. Exits non-zero if any run failed.
#
# About 30 minutes on 2 vCPU.
set -uo pipefail
cd "$(dirname "$0")/.."

logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

status=0
runs=0 passed=0 soaks=0 soaks_ok=0
for p in 1 2 8; do
  log="$logs/gomaxprocs-$p.log"
  start=$(date +%s)
  GOMAXPROCS=$p go test ./internal/bench -run TestChaosSoak -count=20 -timeout 30m -v >"$log" 2>&1 || status=1
  took=$(($(date +%s) - start))

  # Top-level results are unindented; subtest results are indented.
  for t in $(sed -n 's/^--- \(PASS\|FAIL\): \([A-Za-z0-9_]*\) .*/\2/p' "$log" | sort -u); do
    ok=$(grep -c "^--- PASS: $t " "$log")
    bad=$(grep -c "^--- FAIL: $t " "$log")
    line="GOMAXPROCS=$p $t PASS $ok"
    [ "$bad" -gt 0 ] && line="$line FAIL $bad"
    echo "$line"
    runs=$((runs + ok + bad)) passed=$((passed + ok))
  done
  rows=$(grep -c 'staleFences=' "$log")
  fenced=$(grep -c 'staleFences=[1-9]' "$log")
  echo "GOMAXPROCS=$p TestChaosSoakReplicated rows (full, drops only, stand-ins) logged $rows, with staleFences > 0: $fenced"
  sub_ok=$(grep -c '^    --- PASS: TestChaosSoakReplicated/' "$log")
  sub_bad=$(grep -c '^    --- FAIL: TestChaosSoakReplicated/' "$log")
  flat_ok=$(grep -c '^--- PASS: TestChaosSoak\(Durable\)\? ' "$log")
  flat_bad=$(grep -c '^--- FAIL: TestChaosSoak\(Durable\)\? ' "$log")
  soaks=$((soaks + sub_ok + sub_bad + flat_ok + flat_bad)) soaks_ok=$((soaks_ok + sub_ok + flat_ok))
  echo "# GOMAXPROCS=$p took ${took}s"
done
echo "# $passed of $runs test runs PASS ($soaks_ok of $soaks soak runs counting the replicated rows)."

for p in 1 2 8; do
  log="$logs/gomaxprocs-$p.log"
  grep -q -- '--- FAIL' "$log" || grep -q '^FAIL' "$log" || continue
  echo
  echo "# GOMAXPROCS=$p failures:"
  # Print each top-level run that failed, from its === RUN line on.
  awk '
    /^=== RUN   [^\/]*$/ { if (failed) printf "%s", buf; buf = ""; failed = 0 }
    { buf = buf $0 "\n" }
    /--- FAIL/ { failed = 1 }
    END { if (failed) printf "%s", buf }
  ' "$log"
  # A build error or a timeout panic has no --- FAIL line: show the tail.
  grep -q -- '--- FAIL' "$log" || tail -n 40 "$log"
done
exit $status
