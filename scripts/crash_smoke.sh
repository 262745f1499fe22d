#!/bin/sh
# crash_smoke.sh: end-to-end crash-recovery smoke test of the WAL path.
# Three kill/recover/verify iterations plus a corruption-rejection
# check:
#
#   1. Boot gpsd with one shard (-shards 1: a one-stripe WAL, its
#      segments at the top of the directory), churn it
#      with gpsdload, SIGKILL the daemon mid-churn from outside
#      (gpsdload -kill-pid). Recover the log offline with walcheck,
#      restart gpsd on the same directory, and require the recovered
#      daemon to match walcheck's fresh offline analysis bit for bit
#      (-url mode).
#   2. Same loop, but the daemon kills itself at an armed torn-append
#      crashpoint (-crashpoint wal.append.torn@N): half a record is
#      synced to disk before the kill. The torn fragment must be reported
#      and truncated, and recovery must still verify.
#   3. A copy of the crashed log gets one interior byte flipped;
#      walcheck must refuse it with exit 2 (typed corruption), never
#      silently truncate interior damage.
#   4. A STRIPED WAL (-shards 4) is SIGKILLed mid-churn. walcheck must
#      fold all four stripes offline, and a flag-less restart must adopt
#      the striped layout by itself and come back bit-identical to the
#      per-stripe offline analyses.
#   5. A striped primary with a warm standby (-follow) is SIGKILLed
#      mid-churn; the standby (whose mirror is the same stripe set,
#      shipped under one manifest) is promoted (POST /v1/promote) and
#      the promoted daemon must match walcheck's fresh offline analysis
#      of the MIRRORED stripes bit for bit — failover is just crash
#      recovery on the other machine, striped or not.
#
# Every recovered daemon is then drained with SIGTERM and must exit 0.
set -eu

GO=${GO:-go}
RATE=2000
DIR=$(mktemp -d)
GPSD_PID=
STANDBY_PID=
trap 'for p in "$GPSD_PID" "$STANDBY_PID"; do
          [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
      done; rm -rf "$DIR"' EXIT

"$GO" build -o "$DIR/gpsd" ./cmd/gpsd
"$GO" build -o "$DIR/gpsdload" ./tools/gpsdload
"$GO" build -o "$DIR/walcheck" ./tools/walcheck

# start_gpsd WALDIR [extra flags...]: boots gpsd on an ephemeral port
# against WALDIR and leaves ADDR/GPSD_PID set.
start_gpsd() {
    wal=$1
    shift
    rm -f "$DIR/addr"
    "$DIR/gpsd" -addr 127.0.0.1:0 -addr-file "$DIR/addr" -rate "$RATE" \
        -wal-dir "$wal" -wal-sync always -snapshot-every 64 "$@" \
        >>"$DIR/gpsd.log" 2>&1 &
    GPSD_PID=$!
    i=0
    while [ ! -s "$DIR/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "crash-smoke: gpsd never wrote $DIR/addr" >&2
            cat "$DIR/gpsd.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR=$(cat "$DIR/addr")
}

# recover_and_verify WALDIR: offline walcheck, restart gpsd on the same
# log, bit-compare live vs offline, SIGTERM drain.
recover_and_verify() {
    wal=$1
    "$DIR/walcheck" -wal-dir "$wal" -rate "$RATE"
    start_gpsd "$wal"
    "$DIR/walcheck" -wal-dir "$wal" -rate "$RATE" -url "http://$ADDR"
    kill -TERM "$GPSD_PID"
    wait "$GPSD_PID" || {
        echo "crash-smoke: recovered gpsd exited nonzero after SIGTERM" >&2
        cat "$DIR/gpsd.log" >&2
        exit 1
    }
    GPSD_PID=
}

echo "crash-smoke: iteration 1: external SIGKILL mid-churn (one-stripe WAL)"
WAL1="$DIR/wal1"
start_gpsd "$WAL1" -shards 1
"$DIR/gpsdload" -url "http://$ADDR" -sessions 120 -workers 4 \
    -duration "${SMOKE_DURATION:-2s}" -kill-pid "$GPSD_PID" \
    -kill-after 500ms -scrape=false
wait "$GPSD_PID" 2>/dev/null || true
GPSD_PID=
recover_and_verify "$WAL1"

echo "crash-smoke: iteration 2: self-kill at torn-append crashpoint"
WAL2="$DIR/wal2"
start_gpsd "$WAL2" -shards 1 -crashpoint wal.append.torn@40
# The daemon dies during the ramp (40th logged mutation), so the load
# run is short and tolerant: no kill flag, no scrape of a dead daemon.
"$DIR/gpsdload" -url "http://$ADDR" -sessions 120 -workers 4 \
    -duration 1s -churn 0 -scrape=false
wait "$GPSD_PID" 2>/dev/null || true
GPSD_PID=

# The torn fragment the crashpoint synced must be visible to recovery.
out=$("$DIR/walcheck" -wal-dir "$WAL2" -rate "$RATE")
echo "$out"
case "$out" in
*" 0 torn bytes"*)
    echo "crash-smoke: expected a torn tail after wal.append.torn" >&2
    exit 1
    ;;
esac

# Interior corruption check on a copy taken before recovery truncates
# the tail: flip bytes inside the FIRST frame (valid frames follow it),
# which must be refused with the typed corruption exit, not truncated.
CORRUPT="$DIR/walcorrupt"
cp -r "$WAL2" "$CORRUPT"
SEG=$(ls "$CORRUPT"/wal-*.seg | head -n 1)
printf '\377\377\377\377' |
    dd of="$SEG" bs=1 seek=24 count=4 conv=notrunc 2>/dev/null
set +e
"$DIR/walcheck" -wal-dir "$CORRUPT" -rate "$RATE"
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
    echo "crash-smoke: walcheck exit $rc on interior corruption, want 2" >&2
    exit 1
fi

recover_and_verify "$WAL2"

echo "crash-smoke: iteration 3: external SIGKILL mid-churn (striped WAL, -shards 4)"
WALS="$DIR/wal-striped"
start_gpsd "$WALS" -shards 4
"$DIR/gpsdload" -url "http://$ADDR" -sessions 120 -workers 4 \
    -duration "${SMOKE_DURATION:-2s}" -kill-pid "$GPSD_PID" \
    -kill-after 500ms -scrape=false
wait "$GPSD_PID" 2>/dev/null || true
GPSD_PID=

# The offline fold must engage striped mode and walk all four stripes;
# the restart below takes no -shards flag — the recorded layout alone
# must bring the daemon back sharded.
out=$("$DIR/walcheck" -wal-dir "$WALS" -rate "$RATE")
echo "$out"
case "$out" in
*"walcheck: striped: 4 stripes"*) ;;
*)
    echo "crash-smoke: walcheck did not fold $WALS as 4 stripes" >&2
    exit 1
    ;;
esac
recover_and_verify "$WALS"

echo "crash-smoke: iteration 4: SIGKILL striped primary mid-churn, promote warm standby"
WAL3="$DIR/wal3"
WAL3F="$DIR/wal3f"
start_gpsd "$WAL3" -shards 4
PRIMARY_PID=$GPSD_PID
PADDR=$ADDR
rm -f "$DIR/addr-f"
"$DIR/gpsd" -addr 127.0.0.1:0 -addr-file "$DIR/addr-f" -rate "$RATE" \
    -wal-dir "$WAL3F" -follow "http://$PADDR" -follower-id crash-smoke \
    -pull-interval 25ms >>"$DIR/gpsd.log" 2>&1 &
STANDBY_PID=$!
i=0
while [ ! -s "$DIR/addr-f" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "crash-smoke: standby never wrote $DIR/addr-f" >&2
        cat "$DIR/gpsd.log" >&2
        exit 1
    fi
    sleep 0.1
done
FADDR=$(cat "$DIR/addr-f")

"$DIR/gpsdload" -url "http://$PADDR" -sessions 120 -workers 4 \
    -duration "${SMOKE_DURATION:-2s}" -kill-pid "$PRIMARY_PID" \
    -kill-after 700ms -scrape=false
wait "$PRIMARY_PID" 2>/dev/null || true
GPSD_PID=

PROMOTE=$(curl -sf -X POST "http://$FADDR/v1/promote")
case "$PROMOTE" in
*'"promoted":true'*) ;;
*)
    echo "crash-smoke: promotion failed: $PROMOTE" >&2
    cat "$DIR/gpsd.log" >&2
    exit 1
    ;;
esac

# The promoted daemon's live state must match an offline fold of the
# mirrored stripe set — the same bit-identity contract recovery holds
# locally, shard by shard.
"$DIR/walcheck" -wal-dir "$WAL3F" -rate "$RATE" -url "http://$FADDR"
kill -TERM "$STANDBY_PID"
wait "$STANDBY_PID" || {
    echo "crash-smoke: promoted gpsd exited nonzero after SIGTERM" >&2
    cat "$DIR/gpsd.log" >&2
    exit 1
}
STANDBY_PID=

echo "crash-smoke: OK"
