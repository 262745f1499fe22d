package wal

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func stripeOp(seq, id uint64, g float64) Op {
	return Op{Seq: seq, Kind: KindAdmit, ID: id, Name: "s", Rho: 0.5, Lambda: 1, Alpha: 1, Delay: 10, Eps: 1e-3, G: g}
}

// TestStripedOpenRecoverFold pins the striped lifecycle: a fresh open
// creates the stripes file and the per-stripe logs, each stripe is an
// independent sequence space, and both reopen (adopting the recorded
// count) and the read-only fold recover every stripe's state exactly.
func TestStripedOpenRecoverFold(t *testing.T) {
	dir := t.TempDir()
	const n = 3
	logs, recs, err := OpenStriped(dir, n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != n || len(recs) != n {
		t.Fatalf("got %d logs, %d recs, want %d", len(logs), len(recs), n)
	}
	if got, err := StripeCount(dir); err != nil || got != n {
		t.Fatalf("StripeCount = %d, %v, want %d", got, err, n)
	}
	// Each stripe gets a different op count so the fold cannot mix them
	// up; ids are bit-packed shard-in-low-bits like the sharded daemon's.
	for i, l := range logs {
		for k := 0; k <= i; k++ {
			id := uint64(n*(k+1) + i)
			if err := l.Append([]Op{stripeOp(uint64(k+1), id, 0.25*float64(i+1))}); err != nil {
				t.Fatalf("stripe %d append %d: %v", i, k, err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("stripe %d close: %v", i, err)
		}
	}

	check := func(tag string, recs []*Recovered) {
		t.Helper()
		if len(recs) != n {
			t.Fatalf("%s: %d stripes recovered, want %d", tag, len(recs), n)
		}
		for i, rec := range recs {
			st, err := rec.SessionSet()
			if err != nil {
				t.Fatalf("%s: stripe %d fold: %v", tag, i, err)
			}
			if len(st.Sessions) != i+1 {
				t.Fatalf("%s: stripe %d has %d sessions, want %d", tag, i, len(st.Sessions), i+1)
			}
			wantUsed := 0.0
			for range st.Sessions {
				wantUsed += 0.25 * float64(i+1)
			}
			if math.Float64bits(st.Used) != math.Float64bits(wantUsed) {
				t.Fatalf("%s: stripe %d used %v, want %v", tag, i, st.Used, wantUsed)
			}
			for _, s := range st.Sessions {
				if int(s.ID)%n != i {
					t.Fatalf("%s: stripe %d holds id %d (shard %d's)", tag, i, s.ID, s.ID%uint64(n))
				}
			}
		}
	}

	recs2, err := ReadStriped(dir)
	if err != nil {
		t.Fatal(err)
	}
	check("ReadStriped", recs2)

	// Reopen with n=0 adopts the recorded count; the recovery matches.
	logs, recs, err = OpenStriped(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("reopen", recs)
	for _, l := range logs {
		l.Close()
	}
}

func TestStripedOpenCountMismatch(t *testing.T) {
	dir := t.TempDir()
	logs, _, err := OpenStriped(dir, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range logs {
		l.Close()
	}
	if _, _, err := OpenStriped(dir, 5, Options{}); err == nil {
		t.Fatal("reopening 2 stripes as 5 must fail")
	}
	if _, _, err := OpenStriped(t.TempDir(), 0, Options{}); err == nil {
		t.Fatal("fresh striped open with no count must fail")
	}
	if _, _, err := OpenStriped(dir, 1, Options{}); err == nil {
		t.Fatal("reopening 2 stripes as 1 must fail")
	}

	// A fresh one-stripe open is a plain directory: no stripes file, the
	// log at top level.
	one := t.TempDir()
	logs, _, err = OpenStriped(one, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if logs[0].Dir() != one {
		t.Fatalf("one-stripe log opened in %s, want %s", logs[0].Dir(), one)
	}
	logs[0].Close()
	if _, err := os.Stat(filepath.Join(one, StripesFileName)); !os.IsNotExist(err) {
		t.Fatalf("fresh one-stripe open wrote a stripes file (stat err %v)", err)
	}
	if got, err := StripeCount(one); err != nil || got != 1 {
		t.Fatalf("StripeCount after a one-stripe open = %d, %v, want 1", got, err)
	}
}

// TestStripedRefusesFlat pins the layout rule: a directory with no
// stripes file is stripe 0 of 1, so a flat log opens and reads as one
// stripe with its history intact, and it cannot be re-striped.
func TestStripedRefusesFlat(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Op{stripeOp(1, 1, 0.5)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if n, err := StripeCount(dir); err != nil || n != 1 {
		t.Fatalf("StripeCount = %d, %v, want 1", n, err)
	}
	if _, _, err := OpenStriped(dir, 2, Options{}); err == nil || !strings.Contains(err.Error(), "refusing to stripe") {
		t.Fatalf("OpenStriped over a flat log: %v, want a refusal", err)
	}
	recs, err := ReadStriped(dir)
	if err != nil || len(recs) != 1 || len(recs[0].Ops) != 1 {
		t.Fatalf("ReadStriped over a flat log = %d stripes, %v, want one stripe holding its op", len(recs), err)
	}
	for _, n := range []int{0, 1} {
		logs, recs, err := OpenStriped(dir, n, Options{})
		if err != nil {
			t.Fatalf("OpenStriped(flat, %d): %v", n, err)
		}
		if len(logs) != 1 || logs[0].Dir() != dir || len(recs[0].Ops) != 1 || logs[0].NextSeq() != 2 {
			t.Fatalf("OpenStriped(flat, %d) = %d logs, want the flat log resumed at seq 2", n, len(logs))
		}
		logs[0].Close()
	}
	if _, err := os.Stat(filepath.Join(dir, StripesFileName)); !os.IsNotExist(err) {
		t.Fatalf("opening a flat log wrote a stripes file (stat err %v)", err)
	}
}

func TestReadStripesCorruptAndAbsent(t *testing.T) {
	if n, err := readStripes(filepath.Join(t.TempDir(), "nowhere")); n != 0 || err != nil {
		t.Fatalf("absent dir: %d, %v, want 0, nil", n, err)
	}
	if n, err := StripeCount(filepath.Join(t.TempDir(), "nowhere")); n != 0 || err != nil {
		t.Fatalf("absent dir StripeCount: %d, %v, want 0, nil", n, err)
	}
	// No gpsd writes a stripes file for one stripe: a recorded 1 would
	// recover an empty stripe-00 over a top-level history.
	for _, bad := range []string{"", "zero", "0", "1", "-1", "1048577"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, StripesFileName), []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readStripes(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("stripes file %q: %v, want corruption", bad, err)
		}
		if _, _, err := OpenStriped(dir, 0, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("OpenStriped over stripes file %q: %v, want corruption", bad, err)
		}
	}
}
