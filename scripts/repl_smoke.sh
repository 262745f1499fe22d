#!/bin/sh
# repl_smoke.sh: end-to-end smoke test of WAL shipping, warm-standby
# failover, and the Merkle-verifiable audit trail:
#
#   1. Boot a WAL-backed primary gpsd and a warm standby following it
#      (-follow), churn the primary with gpsdload, and wait for the
#      standby to ack the primary's head (replication lag gauges reach
#      zero on the standby's /metrics).
#   2. SIGKILL the primary — no drain, no warning — and POST
#      /v1/promote to the standby. The promoted daemon must answer
#      admission traffic, and walcheck -url must find its live state
#      bit-identical to a fresh offline analysis of the MIRRORED log.
#   3. walcheck -verify-proof on the promoted node's log must prove a
#      shipped decision is in the Merkle audit history under the trail
#      head (pristine log: exit 0).
#   4. waltamper flips one byte inside a shipped decision frame AND
#      repairs the frame CRC, so every per-frame integrity check still
#      passes; walcheck must reject the log with exit 1 — the AUDIT
#      layer, not the CRC layer (exit 2), is what catches it.
set -eu

GO=${GO:-go}
RATE=2000
DIR=$(mktemp -d)
PRIMARY_PID=
STANDBY_PID=
trap 'for p in "$PRIMARY_PID" "$STANDBY_PID"; do
          [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
      done; rm -rf "$DIR"' EXIT

"$GO" build -o "$DIR/gpsd" ./cmd/gpsd
"$GO" build -o "$DIR/gpsdload" ./tools/gpsdload
"$GO" build -o "$DIR/walcheck" ./tools/walcheck
"$GO" build -o "$DIR/waltamper" ./tools/waltamper

wait_addr() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "repl-smoke: no address file $1; daemon log:" >&2
            cat "$DIR/gpsd.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    cat "$1"
}

WALP="$DIR/wal-primary"
WALF="$DIR/wal-standby"

echo "repl-smoke: booting primary and warm standby"
# Pinned to one shard: steps 3-4 prove inclusion in its ONE Merkle
# audit chain (-verify-proof with no -proof-stripe), where several
# shards would each keep their own. crash_smoke.sh covers the
# multi-stripe failover path.
"$DIR/gpsd" -addr 127.0.0.1:0 -addr-file "$DIR/addr-p" -rate "$RATE" \
    -wal-dir "$WALP" -wal-sync always -snapshot-every 64 -shards 1 \
    >>"$DIR/gpsd.log" 2>&1 &
PRIMARY_PID=$!
PADDR=$(wait_addr "$DIR/addr-p")

"$DIR/gpsd" -addr 127.0.0.1:0 -addr-file "$DIR/addr-f" -rate "$RATE" \
    -wal-dir "$WALF" -follow "http://$PADDR" -follower-id smoke \
    -pull-interval 50ms >>"$DIR/gpsd.log" 2>&1 &
STANDBY_PID=$!
FADDR=$(wait_addr "$DIR/addr-f")

echo "repl-smoke: churning the primary"
"$DIR/gpsdload" -url "http://$PADDR" -sessions 200 -workers 4 \
    -duration "${SMOKE_DURATION:-2s}" -scrape=false

# The standby must converge: its own metrics report the primary head it
# last saw and the seq it has verified and acked.
i=0
while :; do
    m=$(curl -sf "http://$FADDR/metrics" || true)
    ack=$(printf '%s\n' "$m" | awk '$1=="gpsd_repl_ack_seq"{print $2}')
    head=$(printf '%s\n' "$m" | awk '$1=="gpsd_repl_primary_head_seq"{print $2}')
    if [ -n "$ack" ] && [ -n "$head" ] && [ "$ack" -gt 0 ] && [ "$ack" -eq "$head" ]; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "repl-smoke: standby never caught up (ack=$ack head=$head)" >&2
        cat "$DIR/gpsd.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "repl-smoke: standby acked head seq $ack"

# A standby does not decide: admission traffic is refused with 503.
rc=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    -d '{"name":"probe","rho":0.01,"lambda":1,"alpha":1,"delay":40,"eps":0.001}' \
    "http://$FADDR/v1/admit")
if [ "$rc" -ne 503 ]; then
    echo "repl-smoke: standby answered admit with $rc, want 503" >&2
    exit 1
fi

echo "repl-smoke: SIGKILL primary, promoting standby"
kill -9 "$PRIMARY_PID"
wait "$PRIMARY_PID" 2>/dev/null || true
PRIMARY_PID=

PROMOTE=$(curl -sf -X POST "http://$FADDR/v1/promote")
echo "repl-smoke: promote: $PROMOTE"
case "$PROMOTE" in
*'"promoted":true'*) ;;
*)
    echo "repl-smoke: promotion did not report promoted:true" >&2
    cat "$DIR/gpsd.log" >&2
    exit 1
    ;;
esac
ACK=$(printf '%s' "$PROMOTE" | sed -n 's/.*"ack_seq":\([0-9][0-9]*\).*/\1/p')
if [ -z "$ACK" ] || [ "$ACK" -eq 0 ]; then
    echo "repl-smoke: promotion acked seq $ACK, want > 0" >&2
    exit 1
fi

echo "repl-smoke: verifying promoted epoch against the mirrored log"
"$DIR/walcheck" -wal-dir "$WALF" -rate "$RATE" -url "http://$FADDR"

echo "repl-smoke: proving shipped decision seq $ACK is in the audit history"
"$DIR/walcheck" -wal-dir "$WALF" -rate "$RATE" -verify-proof "$ACK"

# The promoted node serves: one real admission must succeed. (After the
# bit-identity check — this mutation moves the log past the verified
# snapshot above.)
rc=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    -d '{"name":"post-promote","rho":0.01,"lambda":1,"alpha":1,"delay":40,"eps":0.001}' \
    "http://$FADDR/v1/admit")
if [ "$rc" -ne 200 ]; then
    echo "repl-smoke: promoted standby answered admit with $rc, want 200" >&2
    cat "$DIR/gpsd.log" >&2
    exit 1
fi

kill -TERM "$STANDBY_PID"
wait "$STANDBY_PID" || {
    echo "repl-smoke: promoted gpsd exited nonzero after SIGTERM" >&2
    cat "$DIR/gpsd.log" >&2
    exit 1
}
STANDBY_PID=

# The adversary: flip a byte inside a shipped decision frame and repair
# the frame CRC. The log decodes cleanly everywhere — only the Merkle
# audit layer can notice, and it must (exit 1, not the CRC-corruption
# exit 2).
TAMPER="$DIR/wal-tampered"
cp -r "$WALF" "$TAMPER"
TSEQ=$("$DIR/waltamper" -wal-dir "$TAMPER")
echo "repl-smoke: tampered decision frame at seq $TSEQ (frame CRC repaired)"
set +e
"$DIR/walcheck" -wal-dir "$TAMPER" -rate "$RATE" -verify-proof "$TSEQ"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "repl-smoke: walcheck exit $rc on a CRC-repaired tamper, want 1 (audit mismatch)" >&2
    exit 1
fi

echo "repl-smoke: OK"
