#!/usr/bin/env bash
# repl_smoke.sh — end-to-end replicated-state smoke test.
#
# Boots a 3-silo shmserver cluster with 3-way replicated actor state
# (W=2, R=2, fast anti-entropy sweeps), drives load, then gracefully
# stops one silo, DESTROYS its entire store directory, and restarts it.
# The cluster must: repair the wiped replica from its peers (divergent
# keys > 0 on the anti-entropy counters), serve a second load run with
# zero errors (quorum reads converge around the rebuilt replica), and
# report replica health through /cluster/prom and shmtop.
set -euo pipefail
cd "$(dirname "$0")/.."

L1=${L1:-127.0.0.1:7401}
L2=${L2:-127.0.0.1:7402}
L3=${L3:-127.0.0.1:7403}
O1=${O1:-127.0.0.1:9401}
O2=${O2:-127.0.0.1:9402}
O3=${O3:-127.0.0.1:9403}
SILOS=silo-1,silo-2,silo-3

bin=$(mktemp -d)
data=$(mktemp -d)
pid1= pid2= pid3=
cleanup() {
  for p in "$pid1" "$pid2" "$pid3"; do
    [ -n "$p" ] && kill "$p" 2>/dev/null || true
  done
  for p in "$pid1" "$pid2" "$pid3"; do
    [ -n "$p" ] && wait "$p" 2>/dev/null || true
  done
  rm -rf "$bin" "$data"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/shmserver ./cmd/shmload ./cmd/shmtop

start_silo() { # name listen obs peers extra...
  local name=$1 listen=$2 obs=$3 peers=$4; shift 4
  "$bin/shmserver" -name "$name" -listen "$listen" -silos "$SILOS" -peers "$peers" \
    -store "$data/$name" -durable -replicas 3 -read-quorum 2 -write-quorum 2 \
    -sweep-every 500ms -introspect "$obs" "$@" &
}

wait_obs() { # url
  for _ in $(seq 50); do
    curl -sf "http://$1/obs" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "repl smoke: $1 never came up"; return 1
}

start_silo silo-1 "$L1" "$O1" "silo-2=$L2,silo-3=$L3" \
  -history -history-every 500ms -obs-peers "silo-2=$O2,silo-3=$O3"
pid1=$!
start_silo silo-2 "$L2" "$O2" "silo-1=$L1,silo-3=$L3"
pid2=$!
start_silo silo-3 "$L3" "$O3" "silo-1=$L1,silo-2=$L2"
pid3=$!
wait_obs "$O1"; wait_obs "$O2"; wait_obs "$O3"

peers="silo-1=$L1,silo-2=$L2,silo-3=$L3"
"$bin/shmload" -name loadclient -silos "$SILOS" -peers "$peers" \
  -replicas 3 -read-quorum 2 -write-quorum 2 \
  -sensors 20 -duration 3s -warmup 1s -queries=true

# Gracefully stop silo-2: its activations persist through the write
# quorum (their state lands on peer replicas too), and its WAL gets a
# final sync barrier.
kill -TERM "$pid2"
wait "$pid2" 2>/dev/null || true
pid2=

# Total storage loss: silo-2's WAL and snapshots are gone.
rm -rf "$data/silo-2"

start_silo silo-2 "$L2" "$O2" "silo-1=$L1,silo-3=$L3"
pid2=$!
wait_obs "$O2"

# Let a few anti-entropy rounds run: peers push silo-2's lost keys back.
sleep 3

# Second load run must converge through quorum reads around the rebuilt
# replica: zero errors, same population.
out2=$("$bin/shmload" -name loadclient -silos "$SILOS" -peers "$peers" \
  -replicas 3 -read-quorum 2 -write-quorum 2 \
  -sensors 20 -duration 3s -warmup 1s -queries=true)
echo "$out2"
echo "$out2" | grep -q "errors:" && { echo "repl smoke: post-wipe load saw errors"; exit 1; }

sleep 1 # one aggregator round past the load

prom=$(curl -sf "http://$O1/cluster/prom")
echo "$prom" | grep -E '^aodb_cluster_replication_' || true
echo "$prom" | grep -Eq '^aodb_cluster_replication_antientropy_sweeps [1-9]' \
  || { echo "repl smoke: no anti-entropy sweeps ran"; exit 1; }
echo "$prom" | grep -Eq '^aodb_cluster_replication_antientropy_divergent_keys [1-9]' \
  || { echo "repl smoke: wiped replica was never repaired by anti-entropy"; exit 1; }

frame=$("$bin/shmtop" -cluster "http://$O1" -once -k 5)
echo "$frame" | grep -q "REPLICATION" || { echo "repl smoke: shmtop missing replica-health line"; exit 1; }
echo "$frame" | grep -q "3/3 silos up" || { echo "repl smoke: not all silos up"; exit 1; }

echo "repl smoke: OK"
