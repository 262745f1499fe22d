#!/bin/sh
# cluster_smoke.sh: end-to-end smoke test of the multi-node control
# plane. The paper's §6.3 tree runs as three real WAL-backed gpsd hop
# daemons (node3 striped, -shards 2) behind a gpsd -topology
# coordinator, and the script proves the cluster's three acceptance
# claims:
#
#   1. Admitting the four Table 2 sessions over their Figure 2 routes
#      through the coordinator returns end-to-end bounds bit-identical
#      to an offline internal/network CRST analysis of the same
#      admission prefix (gpsdload -topology does the Float64bits
#      comparison and exits nonzero on any divergence).
#   2. A hop that dies mid-prepare (node3 restarted with an armed
#      -crashpoint cluster.prepare@1: SIGKILL after the prepare is
#      journaled, before the reply) fails the admit closed: the
#      coordinator answers 503, and the surviving hops' folded WAL
#      state — session count and Σφ, down to the used-capacity bits —
#      is identical to before the attempt.
#   3. The killed hop restarts with the in-doubt prepare still in its
#      WAL; once the prepare's TTL deadline has passed, recovery
#      expires it, the daemon matches walcheck's per-stripe offline
#      analyses bit for bit, and the striped audit chains prove
#      inclusion per stripe (-verify-proof N -proof-stripe K).
#   4. The coordinator itself is durable (-coord-wal-dir): SIGKILLed
#      and restarted, it folds its route journal back, serves
#      RouteBounds bit-identical to walcheck's offline fold of the same
#      journal, and releases a session its previous life admitted.
#   5. A lost commit ack no longer strands hop capacity: a hop that
#      dies after journaling a commit (cluster.commit crashpoint)
#      leaves an unjournaled session behind, and the next coordinator
#      restart's orphan reconcile releases it once it outlives the
#      prepare TTL.
#
# Every daemon is drained with SIGTERM at the end and must exit 0.
set -eu

GO=${GO:-go}
DIR=$(mktemp -d)
P1=
P2=
P3=
PC=
trap 'for p in "$P1" "$P2" "$P3" "$PC"; do
          [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
      done; rm -rf "$DIR"' EXIT

"$GO" build -o "$DIR/gpsd" ./cmd/gpsd
"$GO" build -o "$DIR/gpsdload" ./tools/gpsdload
"$GO" build -o "$DIR/walcheck" ./tools/walcheck

# start_daemon ADDRFILE [gpsd flags...]: boots gpsd and waits for the
# bound address; leaves DPID/DADDR set.
start_daemon() {
    af=$1
    shift
    rm -f "$af"
    "$DIR/gpsd" -addr-file "$af" "$@" >>"$DIR/gpsd.log" 2>&1 &
    DPID=$!
    i=0
    while [ ! -s "$af" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "cluster-smoke: gpsd never wrote $af" >&2
            cat "$DIR/gpsd.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    DADDR=$(cat "$af")
}

# drain PID: SIGTERM and require a clean exit.
drain() {
    kill -TERM "$1"
    wait "$1" || {
        echo "cluster-smoke: daemon $1 exited nonzero after SIGTERM" >&2
        cat "$DIR/gpsd.log" >&2
        exit 1
    }
}

# state_line WALDIR: the offline fold's one-line state summary
# (sessions, used-capacity bits) — the pre/post comparison key for the
# fail-closed claim, one line per stripe.
state_line() {
    "$DIR/walcheck" -wal-dir "$1" -rate 1 | grep 'sessions='
}

# metric HOST NAME: one counter/gauge value from /metrics.
metric() {
    curl -sf "http://$1/metrics" | sed -n "s/^$2 //p"
}

echo "cluster-smoke: booting the Figure 2 tree: three hop daemons + coordinator"
start_daemon "$DIR/a1" -addr 127.0.0.1:0 -rate 1 \
    -wal-dir "$DIR/wal1" -wal-sync always -shards 1
P1=$DPID A1=$DADDR
start_daemon "$DIR/a2" -addr 127.0.0.1:0 -rate 1 \
    -wal-dir "$DIR/wal2" -wal-sync always -shards 1
P2=$DPID A2=$DADDR
start_daemon "$DIR/a3" -addr 127.0.0.1:0 -rate 1 \
    -wal-dir "$DIR/wal3" -wal-sync always -shards 2
P3=$DPID A3=$DADDR

cat >"$DIR/topo.json" <<EOF
{"nodes": [
  {"name": "node1", "url": "http://$A1", "rate": 1},
  {"name": "node2", "url": "http://$A2", "rate": 1},
  {"name": "node3", "url": "http://$A3", "rate": 1}
]}
EOF
# Short TTL so the in-doubt prepare of step 3 (and the orphaned commit
# of step 6) expires within the run; -coord-wal-dir makes every
# committed admit durable for the restart of step 5.
start_daemon "$DIR/ac" -addr 127.0.0.1:0 -topology "$DIR/topo.json" \
    -prepare-ttl 2s -hop-timeout 1s \
    -coord-wal-dir "$DIR/walc" -wal-sync always
PC=$DPID AC=$DADDR

echo "cluster-smoke: step 1: admit the Table 2 set end to end, bit-compare against offline CRST"
"$DIR/gpsdload" -topology "$DIR/topo.json" -url "http://$AC"

echo "cluster-smoke: step 2: kill node3 mid-prepare, require fail-closed rollback"
PRE1=$(state_line "$DIR/wal1")
PRE2=$(state_line "$DIR/wal2")

# Restart node3 on its recorded port with the crashpoint armed: the
# next cluster prepare is journaled, then the process SIGKILLs itself
# before replying — the coordinator sees a severed connection.
drain "$P3"
P3=
start_daemon "$DIR/a3" -addr "$A3" -wal-dir "$DIR/wal3" -rate 1 \
    -wal-sync always -crashpoint cluster.prepare@1
P3=$DPID

CODE=$(curl -s -o "$DIR/resp" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' \
    -d '{"name":"probe","rho":0.05,"lambda":1,"alpha":5,"delay":200,"eps":0.5,"route":[0,2]}' \
    "http://$AC/v1/cluster/admit")
if [ "$CODE" != 503 ]; then
    echo "cluster-smoke: admit through the dying hop answered HTTP $CODE, want 503:" >&2
    cat "$DIR/resp" >&2
    exit 1
fi
grep -q '"retry":true' "$DIR/resp" || {
    echo "cluster-smoke: 503 reply does not mark the abort retryable: $(cat "$DIR/resp")" >&2
    exit 1
}
wait "$P3" 2>/dev/null || true # the crashpoint SIGKILLed it
P3=

# Surviving hops: folded WAL state bit-identical to pre-admit (the
# probe's prepare+abort must cancel exactly), live state matching the
# fold, and exactly one coordinator-driven abort on node1.
POST1=$(state_line "$DIR/wal1")
POST2=$(state_line "$DIR/wal2")
if [ "$PRE1" != "$POST1" ] || [ "$PRE2" != "$POST2" ]; then
    echo "cluster-smoke: surviving hop state changed across the failed admit:" >&2
    echo "  node1 pre:  $PRE1"  >&2
    echo "  node1 post: $POST1" >&2
    echo "  node2 pre:  $PRE2"  >&2
    echo "  node2 post: $POST2" >&2
    exit 1
fi
"$DIR/walcheck" -wal-dir "$DIR/wal1" -rate 1 -url "http://$A1"
"$DIR/walcheck" -wal-dir "$DIR/wal2" -rate 1 -url "http://$A2"
ABORTS=$(metric "$A1" gpsd_cluster_aborts_total)
if [ "$ABORTS" != 1 ]; then
    echo "cluster-smoke: node1 gpsd_cluster_aborts_total = $ABORTS, want 1" >&2
    exit 1
fi
CABORTS=$(metric "$AC" gpsd_coord_partition_aborts_total)
CSESS=$(metric "$AC" gpsd_coord_sessions)
if [ "$CABORTS" != 1 ] || [ "$CSESS" != 4 ]; then
    echo "cluster-smoke: coordinator partition_aborts=$CABORTS sessions=$CSESS, want 1 and 4" >&2
    exit 1
fi

echo "cluster-smoke: step 3: restart node3 past the TTL, require recovery to expire the in-doubt prepare"
sleep 2.5
start_daemon "$DIR/a3" -addr "$A3" -wal-dir "$DIR/wal3" -rate 1 -wal-sync always
P3=$DPID
EXPIRES=$(metric "$A3" gpsd_cluster_expires_total)
if [ "$EXPIRES" != 1 ]; then
    echo "cluster-smoke: node3 gpsd_cluster_expires_total = $EXPIRES, want 1" >&2
    exit 1
fi
out=$("$DIR/walcheck" -wal-dir "$DIR/wal3" -rate 1 -url "http://$A3")
echo "$out"
case "$out" in
*"walcheck: striped: 2 stripes"*) ;;
*)
    echo "cluster-smoke: walcheck did not fold $DIR/wal3 as 2 stripes" >&2
    exit 1
    ;;
esac

# Striped audit proofs are per stripe: every cluster session shares one
# ρ/φ class (RPPS sets φ = ρ, so the shard key ratio is always 1) and
# stripe 0 owns every decision; its chain must prove seq 1. Asking for
# a striped proof without naming the stripe must be refused.
"$DIR/walcheck" -wal-dir "$DIR/wal3" -rate 1 -verify-proof 1 -proof-stripe 0
if "$DIR/walcheck" -wal-dir "$DIR/wal3" -rate 1 -verify-proof 1 2>/dev/null; then
    echo "cluster-smoke: striped -verify-proof without -proof-stripe must fail" >&2
    exit 1
fi

echo "cluster-smoke: step 4: release one session end to end over the coordinator API"
RELEASED=$(curl -sf -X DELETE "http://$AC/v1/cluster/sessions/4")
case "$RELEASED" in
*'"released":true'*) ;;
*)
    echo "cluster-smoke: release failed: $RELEASED" >&2
    exit 1
    ;;
esac
"$DIR/walcheck" -wal-dir "$DIR/wal2" -rate 1 -url "http://$A2"
"$DIR/walcheck" -wal-dir "$DIR/wal3" -rate 1 -url "http://$A3"

# sessions WALDIR: the offline fold's live session count.
sessions_of() {
    state_line "$1" | sed -n 's/.*sessions=\([0-9]*\).*/\1/p'
}

echo "cluster-smoke: step 5: kill -9 the coordinator, restart it from its journal"
kill -9 "$PC"
wait "$PC" 2>/dev/null || true
PC=
start_daemon "$DIR/ac" -addr "$AC" -topology "$DIR/topo.json" \
    -prepare-ttl 2s -hop-timeout 1s \
    -coord-wal-dir "$DIR/walc" -wal-sync always
PC=$DPID

# The restarted coordinator must hold the three surviving sessions and
# serve RouteBounds bit-identical to walcheck's offline fold+analysis
# of the journal it recovered from.
CSESS=$(metric "$AC" gpsd_coord_sessions)
if [ "$CSESS" != 3 ]; then
    echo "cluster-smoke: restarted coordinator has $CSESS sessions, want 3" >&2
    exit 1
fi
"$DIR/walcheck" -wal-dir "$DIR/walc" -topology "$DIR/topo.json" -url "http://$AC"

# And it can release a session its previous life admitted: the
# journaled hop ids are live.
RELEASED=$(curl -sf -X DELETE "http://$AC/v1/cluster/sessions/1")
case "$RELEASED" in
*'"released":true'*) ;;
*)
    echo "cluster-smoke: previous-life release failed: $RELEASED" >&2
    exit 1
    ;;
esac
CSESS=$(metric "$AC" gpsd_coord_sessions)
if [ "$CSESS" != 2 ]; then
    echo "cluster-smoke: coordinator has $CSESS sessions after previous-life release, want 2" >&2
    exit 1
fi

echo "cluster-smoke: step 6: lose a commit ack, require the orphan reconcile to reclaim the hop capacity"
# node1 journals the probe's commit and SIGKILLs itself before replying:
# the coordinator's retry and abort both hit a dead socket, so the admit
# fails closed while the commit stays durable on the hop.
PRE1=$(sessions_of "$DIR/wal1")
drain "$P1"
P1=
start_daemon "$DIR/a1" -addr "$A1" -wal-dir "$DIR/wal1" -rate 1 \
    -wal-sync always -crashpoint cluster.commit@1
P1=$DPID

CODE=$(curl -s -o "$DIR/resp" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' \
    -d '{"name":"ack-lost","rho":0.05,"lambda":1,"alpha":5,"delay":200,"eps":0.5,"route":[0]}' \
    "http://$AC/v1/cluster/admit")
if [ "$CODE" != 503 ]; then
    echo "cluster-smoke: admit with a lost commit ack answered HTTP $CODE, want 503" >&2
    cat "$DIR/resp" >&2
    exit 1
fi
CRETRIES=$(metric "$AC" gpsd_coord_commit_retries_total)
if [ "$CRETRIES" != 1 ]; then
    echo "cluster-smoke: gpsd_coord_commit_retries_total = $CRETRIES, want 1" >&2
    exit 1
fi
wait "$P1" 2>/dev/null || true # the crashpoint SIGKILLed it
P1=

# Reboot node1: the committed-but-unacked session is in its WAL, live
# and stranded — exactly the leak the orphan reconcile exists for.
start_daemon "$DIR/a1" -addr "$A1" -wal-dir "$DIR/wal1" -rate 1 -wal-sync always
P1=$DPID
STRANDED=$(sessions_of "$DIR/wal1")
if [ "$STRANDED" != $((PRE1 + 1)) ]; then
    echo "cluster-smoke: node1 folds to $STRANDED sessions after the lost ack, want $((PRE1 + 1))" >&2
    exit 1
fi

# Let the stranded session outlive the prepare TTL on node1's clock,
# then restart the coordinator: reconcile keeps every journaled session
# (their hop sessions exist) and orphan-releases the unjournaled one.
sleep 2.5
kill -9 "$PC"
wait "$PC" 2>/dev/null || true
PC=
start_daemon "$DIR/ac" -addr "$AC" -topology "$DIR/topo.json" \
    -prepare-ttl 2s -hop-timeout 1s \
    -coord-wal-dir "$DIR/walc" -wal-sync always
PC=$DPID
ORPHANS=$(metric "$AC" gpsd_coord_orphan_releases_total)
if [ "$ORPHANS" != 1 ]; then
    echo "cluster-smoke: gpsd_coord_orphan_releases_total = $ORPHANS, want 1" >&2
    exit 1
fi
POST1=$(sessions_of "$DIR/wal1")
if [ "$POST1" != "$PRE1" ]; then
    echo "cluster-smoke: node1 folds to $POST1 sessions after the orphan sweep, want $PRE1" >&2
    exit 1
fi
"$DIR/walcheck" -wal-dir "$DIR/wal1" -rate 1 -url "http://$A1"
"$DIR/walcheck" -wal-dir "$DIR/walc" -topology "$DIR/topo.json" -url "http://$AC"

drain "$PC"
PC=
drain "$P1"
P1=
drain "$P2"
P2=
drain "$P3"
P3=

echo "cluster-smoke: OK"
