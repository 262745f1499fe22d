package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/replication"
	"repro/internal/source"
	"repro/internal/wal"
)

// TestPromoteEveryPrefix is the failover acceptance test, mirroring
// TestCrashRecoveryEveryPrefix across the replication boundary: the
// same seeded churn runs against a WAL-backed primary with an audit
// sink and a Source mounted over HTTP, a warm-standby follower pulls
// the mirror after EVERY acknowledged mutation, and every mirror
// prefix — each one a possible kill-the-primary instant — must promote
// into a daemon whose first epoch is bit-identical to the offline
// wal.Read + AnalyzeServer fold of that shipped history.
func TestPromoteEveryPrefix(t *testing.T) {
	const rate = 150.0
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	l, rec, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	audit, err := replication.OpenAudit(walDir, replication.AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { audit.Close() })
	d := newTestDaemon(t, Config{
		Rate:          rate,
		MaxEpochAge:   time.Hour,
		Log:           l,
		Recovered:     rec,
		SnapshotEvery: 7,
		Audit:         audit,
	})

	// Production watermark topology: the primary never prunes a segment
	// the follower has not acked or the audit trail has not made
	// durable, so the manifest the follower sees is always fetchable.
	src := &replication.Source{
		Dir:    walDir,
		NodeID: "primary-test",
		Logs:   []*wal.Log{l},
		Audits: []*replication.Audit{audit},
	}
	t.Cleanup(src.HoldPrunes(time.Hour))
	mux := http.NewServeMux()
	src.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	mirror := filepath.Join(dir, "mirror")
	fol, err := replication.NewFollower(replication.FollowerOptions{
		ID:         "standby",
		PrimaryURL: ts.URL,
		Dir:        mirror,
		Rand:       rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	rng := source.NewRNG(42)
	var ids []uint64
	var prefixes []string
	for step := 0; step < 40; step++ {
		if len(ids) > 0 && rng.Float64() < 0.35 {
			k := rng.Intn(len(ids))
			ok, err := d.Release(ids[k])
			if err != nil || !ok {
				t.Fatalf("step %d release: ok=%v err=%v", step, ok, err)
			}
			ids = append(ids[:k], ids[k+1:]...)
		} else {
			res, err := d.Admit(testTypes[rng.Intn(len(testTypes))])
			if err != nil {
				t.Fatalf("step %d admit: %v", step, err)
			}
			if res.Admitted {
				ids = append(ids, res.ID)
			}
		}
		// Quiesce the snapshotter and flush the audit trail so the pull
		// sees a stable directory — the same barrier the recovery test
		// uses before copying, extended to the audit file.
		if err := d.exec(func() {}); err != nil {
			t.Fatal(err)
		}
		d.snapWG.Wait()
		if err := audit.Flush(); err != nil {
			t.Fatalf("step %d audit flush: %v", step, err)
		}
		if err := fol.PullOnce(ctx); err != nil {
			t.Fatalf("step %d pull: %v", step, err)
		}
		if head := l.NextSeq() - 1; fol.AckSeq() != head {
			t.Fatalf("step %d: follower acked %d, primary head %d", step, fol.AckSeq(), head)
		}
		p := filepath.Join(dir, fmt.Sprintf("prefix-%02d", step))
		copyDir(t, mirror, p)
		prefixes = append(prefixes, p)
	}

	// Every shipped prefix promotes to the offline ground truth. This is
	// the whole failover claim: a SIGKILL of the primary at any
	// acknowledged instant leaves the standby able to take over with the
	// exact epoch a fresh fold of the history produces.
	for i, p := range prefixes {
		verifyRecoveredPrefix(t, p, rate, i)
	}

	// The shipped audit trail is the primary's, byte-for-byte: it must
	// recheck internally and cross-check against the mirrored frames.
	trail, err := replication.ReadAuditTrail(mirror)
	if err != nil {
		t.Fatalf("mirrored audit trail: %v", err)
	}
	if trail == nil {
		t.Fatal("mirror carries no audit trail")
	}
	if _, err := trail.Recheck(); err != nil {
		t.Fatalf("mirrored audit recheck: %v", err)
	}
	if n, err := replication.CrossCheckWAL(mirror, trail); err != nil {
		t.Fatalf("mirrored audit cross-check: %v", err)
	} else if n == 0 {
		t.Fatal("mirrored audit cross-check covered no frames")
	}
}
