#!/usr/bin/env bash
# timeline_smoke.sh — end-to-end flight-recorder smoke test.
#
# Boots a 3-silo shmserver cluster with SWIM gossip, live rebalancing,
# 3-way replication, and the causal flight recorder (-journal) on every
# silo, puts it under shmload, then SIGKILLs silo-3 mid-run. The
# survivors must: suspect and declare the victim dead, shrink the
# replication ring, freeze anomaly captures (flight-*.json) to disk, and
# — once silo-3 rejoins — live-migrate actors back onto it. Finally
# shmtop -trace merges every surviving journal into one timeline and the test
# asserts the whole incident reads in causal order:
#
#   member-suspect -> member-dead -> ring-change -> migrate-activate
#
# which is exactly the property HLC stamping buys: cause sorts before
# effect across silos, no matter whose wall clock was ahead.
set -euo pipefail
cd "$(dirname "$0")/.."

L1=${L1:-127.0.0.1:7601}
L2=${L2:-127.0.0.1:7602}
L3=${L3:-127.0.0.1:7603}
O1=${O1:-127.0.0.1:9601}
O2=${O2:-127.0.0.1:9602}
O3=${O3:-127.0.0.1:9603}

bin=$(mktemp -d)
data=$(mktemp -d)
pid1= pid2= pid3= loadpid=
cleanup() {
  for p in "$loadpid" "$pid1" "$pid2" "$pid3"; do
    [ -n "$p" ] && kill "$p" 2>/dev/null || true
  done
  for p in "$loadpid" "$pid1" "$pid2" "$pid3"; do
    [ -n "$p" ] && wait "$p" 2>/dev/null || true
  done
  rm -rf "$bin" "$data"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/shmserver ./cmd/shmload ./cmd/shmtop

start_silo() { # name listen obs seeds extra...
  local name=$1 listen=$2 obs=$3 seeds=$4; shift 4
  "$bin/shmserver" -name "$name" -listen "$listen" -silos silo-1,silo-2,silo-3 \
    -gossip -seeds "$seeds" -rebalance -rebalance-every 1s \
    -store "$data/$name" -replicas 3 -sweep-every 500ms \
    -journal -journal-size 16384 -journal-capture-dir "$data/$name/captures" \
    -introspect "$obs" "$@" &
}

wait_obs() { # url
  for _ in $(seq 50); do
    curl -sf "http://$1/obs" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "timeline smoke: $1 never came up"; return 1
}

wait_metric() { # regex what
  for _ in $(seq 150); do
    curl -sf "http://$O1/cluster/prom" 2>/dev/null | grep -Eq "$1" && return 0
    sleep 0.2
  done
  echo "timeline smoke: timed out waiting for $2"; return 1
}

# silo-1 aggregates; with gossip on, its aggregator discovers scrape
# targets from the membership view (no -obs-peers list), which is itself
# part of what this test exercises.
start_silo silo-1 "$L1" "$O1" "silo-2=$L2" -history -history-every 500ms
pid1=$!
start_silo silo-2 "$L2" "$O2" "silo-1=$L1"
pid2=$!
start_silo silo-3 "$L3" "$O3" "silo-1=$L1"
pid3=$!
wait_obs "$O1"; wait_obs "$O2"; wait_obs "$O3"
wait_metric '^aodb_cluster_gossip_members_alive 9' "view convergence on 3 silos"

# Sustained load so the cluster has activations to lose, fail over, and
# rebalance. The client follows gossip; mid-run errors while silo-3 is
# down are expected and tolerated.
"$bin/shmload" -name loadclient -silos silo-1,silo-2,silo-3 \
  -peers "silo-1=$L1,silo-2=$L2,silo-3=$L3" -gossip -seeds "silo-1=$L1" \
  -sensors 2000 -duration 25s -warmup 1s -queries=true >"$data/load.out" 2>&1 &
loadpid=$!
sleep 3

# The incident: silo-3 dies without a goodbye.
kill -9 "$pid3"; wait "$pid3" 2>/dev/null || true; pid3=
echo "timeline smoke: killed silo-3"

# Survivors must converge on the death: each of the 2 remaining members
# reports 1 dead, and the aggregator sums their gauges.
wait_metric '^aodb_cluster_gossip_members_dead 2' "silo-3 declared dead"

# member-dead is anomalous: a survivor must have frozen its ring to disk
# — the window around the crash, preserved across the crash.
sleep 1
if ! ls "$data"/silo-1/captures/flight-*.json "$data"/silo-2/captures/flight-*.json 2>/dev/null | grep -q .; then
  echo "timeline smoke: no anomaly capture written by any survivor"; exit 1
fi
echo "timeline smoke: anomaly capture present"

# Recovery: silo-3 rejoins off a seed; the rebalancers migrate actors
# whose consistent-hash home is silo-3 back onto it. The cumulative
# migrations counter can't distinguish pre-kill shedding from the
# post-rejoin wave, so wait for the activation event to land in the
# rejoined silo's own journal.
start_silo silo-3 "$L3" "$O3" "silo-1=$L1"
pid3=$!
wait_obs "$O3"
wait_metric '^aodb_cluster_gossip_members_alive 9' "silo-3 rejoining the view"
for _ in $(seq 150); do
  curl -sf "http://$O3/events?kind=migrate-activate" 2>/dev/null | grep -q migrate-activate && break
  sleep 0.2
done
curl -sf "http://$O3/events?kind=migrate-activate" | grep -q migrate-activate \
  || { echo "timeline smoke: no migrate-activate on rejoined silo-3"; exit 1; }

wait "$loadpid" || true; loadpid=
cat "$data/load.out"

# Merge the cluster's journals (via the aggregator silo-1 discovered
# from gossip) and assert the incident reads in causal order.
timeline=$("$bin/shmtop" -trace -cluster "http://$O1")
echo "--- merged timeline (tail) ---"
echo "$timeline" | tail -25

order=$(echo "$timeline" | awk '
  /member-suspect/ && /silo-3/    && !s { s=NR }
  s && /member-dead/ && /silo-3/  && !d { d=NR }
  d && /ring-change/              && !r { r=NR }
  r && /migrate-activate/         && !m { m=NR }
  END { print s+0, d+0, r+0, m+0 }')
read -r s d r m <<<"$order"
for phase in "member-suspect:$s" "member-dead:$d" "ring-change:$r" "migrate-activate:$m"; do
  [ "${phase##*:}" -gt 0 ] || { echo "timeline smoke: ${phase%%:*} missing from merged timeline (s=$s d=$d r=$r m=$m)"; exit 1; }
done
echo "timeline smoke: causal order holds (suspect@$s -> dead@$d -> ring-change@$r -> migrate-activate@$m)"

# The dead window must also be visible in shmtop's TIMELINE panel, and
# filters must narrow to the incident.
"$bin/shmtop" -cluster "http://$O1" -once -k 5 -events 10 | grep -q "TIMELINE" \
  || { echo "timeline smoke: shmtop missing TIMELINE panel"; exit 1; }
"$bin/shmtop" -trace -cluster "http://$O1" -kind member-dead | grep -q "member-dead" \
  || { echo "timeline smoke: shmtop -trace -kind filter broken"; exit 1; }

echo "timeline smoke: OK"
