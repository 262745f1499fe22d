package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// writeHistory populates dir with n ops in one (or more) segments and
// returns the ops as appended.
func writeHistory(t *testing.T, dir string, n int, segBytes int64) []Op {
	t.Helper()
	l, _, err := Open(dir, Options{Sync: SyncAlways, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	ops := testOps(n)
	appendAll(t, l, ops)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return ops
}

func sortedSegs(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	sort.Strings(segs)
	return segs
}

// frameBounds returns the [start,end) file offsets of every frame in a
// segment, walking the same layout the decoder reads.
func frameBounds(t *testing.T, data []byte) [][2]int {
	t.Helper()
	var out [][2]int
	off := segHeaderLen
	for off < len(data) {
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		end := off + frameHeader + plen
		if plen > maxRecord || end > len(data) {
			t.Fatalf("frame walk broke at offset %d", off)
		}
		out = append(out, [2]int{off, end})
		off = end
	}
	return out
}

func TestCorruptAndTornTailTable(t *testing.T) {
	cases := []struct {
		name string
		// mutate damages the newest segment's bytes; returns the new
		// contents (nil means delete the file).
		mutate   func(t *testing.T, data []byte) []byte
		wantOps  func(total int) int // ops recovered when tolerated
		wantTorn bool                // TornBytes must be > 0
		wantErr  bool                // errors.Is(err, ErrCorrupt)
	}{
		{
			name: "torn mid final record",
			mutate: func(t *testing.T, data []byte) []byte {
				fb := frameBounds(t, data)
				last := fb[len(fb)-1]
				return data[:last[0]+frameHeader+3] // cut inside the payload
			},
			wantOps:  func(n int) int { return n - 1 },
			wantTorn: true,
		},
		{
			name: "torn inside final frame header",
			mutate: func(t *testing.T, data []byte) []byte {
				fb := frameBounds(t, data)
				last := fb[len(fb)-1]
				return data[:last[0]+3]
			},
			wantOps:  func(n int) int { return n - 1 },
			wantTorn: true,
		},
		{
			name: "bit flip in final record",
			mutate: func(t *testing.T, data []byte) []byte {
				fb := frameBounds(t, data)
				last := fb[len(fb)-1]
				data[last[0]+frameHeader+2] ^= 0x40
				return data
			},
			wantOps:  func(n int) int { return n - 1 },
			wantTorn: true,
		},
		{
			name: "implausible length at tail",
			mutate: func(t *testing.T, data []byte) []byte {
				fb := frameBounds(t, data)
				last := fb[len(fb)-1]
				binary.LittleEndian.PutUint32(data[last[0]:], maxRecord+7)
				return data
			},
			wantOps:  func(n int) int { return n - 1 },
			wantTorn: true,
		},
		{
			name: "trailing garbage after valid frames",
			mutate: func(t *testing.T, data []byte) []byte {
				return append(data, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
			},
			wantOps:  func(n int) int { return n },
			wantTorn: true,
		},
		{
			name: "bit flip mid log is hard corruption",
			mutate: func(t *testing.T, data []byte) []byte {
				fb := frameBounds(t, data)
				mid := fb[len(fb)/2]
				data[mid[0]+frameHeader+2] ^= 0x40
				return data
			},
			wantErr: true,
		},
		{
			name: "missing interior record is a sequence gap",
			mutate: func(t *testing.T, data []byte) []byte {
				fb := frameBounds(t, data)
				mid := fb[len(fb)/2]
				return append(data[:mid[0]], data[mid[1]:]...)
			},
			wantErr: true,
		},
		{
			name: "bad segment magic",
			mutate: func(t *testing.T, data []byte) []byte {
				data[0] ^= 0x20
				return data
			},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ops := writeHistory(t, dir, 12, 0)
			seg := sortedSegs(t, dir)[0]
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			mutated := tc.mutate(t, data)
			if err := os.WriteFile(seg, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			rec, err := Read(dir)
			// ReadOps walks the same segments under the same rules.
			raw, rawErr := ReadOps(dir, 0)
			if tc.wantErr {
				for _, r := range []struct {
					fn  string
					err error
				}{{"Read", err}, {"ReadOps", rawErr}} {
					if !errors.Is(r.err, ErrCorrupt) {
						t.Fatalf("%s error = %v, want ErrCorrupt", r.fn, r.err)
					}
					var ce *CorruptError
					if !errors.As(r.err, &ce) {
						t.Fatalf("%s error %T is not *CorruptError", r.fn, r.err)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if rawErr != nil {
				t.Fatalf("ReadOps: %v", rawErr)
			}
			if got, want := len(rec.Ops), tc.wantOps(len(ops)); got != want {
				t.Fatalf("recovered %d ops, want %d", got, want)
			}
			if !reflect.DeepEqual(raw, rec.Ops) {
				t.Fatalf("ReadOps returned %d ops, Read recovered %d; they differ", len(raw), len(rec.Ops))
			}
			if tc.wantTorn && rec.TornBytes <= 0 {
				t.Fatalf("TornBytes = %d, want > 0", rec.TornBytes)
			}
		})
	}
}

func TestCorruptionInOlderSegmentIsAlwaysHard(t *testing.T) {
	// A truncated tail is only tolerable in the newest segment; the same
	// damage in an older one means interior history is gone.
	dir := t.TempDir()
	writeHistory(t, dir, 60, 256)
	segs := sortedSegs(t, dir)
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Read(dir)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read error = %v, want ErrCorrupt", err)
	}
}

func TestMissingSegmentBetweenSnapshotsIsHard(t *testing.T) {
	// Deleting the only snapshot after pruning leaves a log that starts
	// past seq 1 with no state covering the gap.
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ops := testOps(10)
	appendAll(t, l, ops[:6])
	st := State{}
	if err := Replay(&st, mustSeq(ops[:6])); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, ops[6:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Snapshot rotated to a fresh segment and pruned the covered one,
	// so the log now starts at seq 7; dropping the snapshot leaves no
	// state reaching back to it.
	if segs := sortedSegs(t, dir); len(segs) != 1 {
		t.Fatalf("snapshot left %d segments, want the covered one pruned: %v", len(segs), segs)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	for _, s := range snaps {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	_, err = Read(dir)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read error = %v, want ErrCorrupt", err)
	}
}

func TestOpenTruncatesTornTailAndResumesCleanly(t *testing.T) {
	dir := t.TempDir()
	ops := writeHistory(t, dir, 12, 0)
	seg := sortedSegs(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	fb := frameBounds(t, data)
	last := fb[len(fb)-1]
	if err := os.WriteFile(seg, data[:last[0]+frameHeader+1], 0o644); err != nil {
		t.Fatal(err)
	}

	l, rec, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("Open over torn tail: %v", err)
	}
	if len(rec.Ops) != len(ops)-1 || rec.TornBytes <= 0 {
		t.Fatalf("recovered %d ops, torn %d bytes; want %d ops and torn > 0",
			len(rec.Ops), rec.TornBytes, len(ops)-1)
	}
	// The torn op's sequence number is reused by the next append.
	more := testOps(3)
	appendAll(t, l, more)
	if more[0].Seq != rec.Ops[len(rec.Ops)-1].Seq+1 {
		t.Fatalf("resumed at seq %d after recovered seq %d", more[0].Seq, rec.Ops[len(rec.Ops)-1].Seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Ops) != len(ops)-1+len(more) {
		t.Fatalf("recovered %d ops after resume, want %d", len(rec2.Ops), len(ops)-1+len(more))
	}
}

func TestOpenDiscardsTornHeaderSegment(t *testing.T) {
	// A crash between creating a fresh segment and syncing its header
	// leaves a file shorter than the header; Open must recreate it.
	dir := t.TempDir()
	ops := writeHistory(t, dir, 6, 0)
	segs := sortedSegs(t, dir)
	// Forge a newer segment with only half a header.
	next := segName(uint64(len(ops)) + 1)
	if err := os.WriteFile(filepath.Join(dir, next), []byte("GPSW"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("Open over torn-header segment: %v", err)
	}
	if len(rec.Ops) != len(ops) {
		t.Fatalf("recovered %d ops, want %d", len(rec.Ops), len(ops))
	}
	more := testOps(2)
	appendAll(t, l, more)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(dir); err != nil {
		t.Fatalf("Read after resume: %v", err)
	}
	_ = segs
}
