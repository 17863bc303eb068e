#!/usr/bin/env bash
# examples_smoke.sh — runs every example under examples/ with `go run`.
#
# Each must exit 0 and print something, and print the same output on a
# second run. pipeline's two ingest-queue workers deliver out of time
# order; its live view is the same every run because a channel answers
# Latest with its newest reading, not the last to arrive.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for ex in cattle indexquery pipeline quickstart shm; do
  go run "./examples/$ex" >"$out/$ex.1"
  if [ ! -s "$out/$ex.1" ]; then
    echo "examples smoke: examples/$ex printed nothing"; exit 1
  fi
  go run "./examples/$ex" >"$out/$ex.2"
  if ! diff -u "$out/$ex.1" "$out/$ex.2"; then
    echo "examples smoke: examples/$ex printed different output on a second run"; exit 1
  fi
  echo "examples smoke: examples/$ex ok ($(wc -l <"$out/$ex.1") lines)"
done
