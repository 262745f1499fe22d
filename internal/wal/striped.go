package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Striped layout: a WAL directory holds N independent stripes, each a
// complete single-writer Log with its own segment chain, snapshots, and
// sequence space; each shard writer of gpsd owns exactly one. The
// layout rule is one line: a directory with a top-level "stripes" file
// recording N >= 2 holds stripe-00/, stripe-01/, ...; a directory with
// no "stripes" file IS stripe 0 of 1, its segments and snapshots at top
// level. Every single-writer directory ever written (one-shard hops,
// coordinator journals, their standby mirrors) is therefore already a
// one-stripe WAL and opens unchanged, and a fresh one-stripe open
// writes no marker. Stripe counts are fixed at creation: the open
// paths refuse to re-stripe an existing history.

// StripesFileName is the top-level marker recording the stripe count.
const StripesFileName = "stripes"

// StripeDirName returns stripe i's subdirectory name in an N >= 2
// layout.
func StripeDirName(i int) string { return fmt.Sprintf("stripe-%02d", i) }

// StripeDir returns stripe i's directory in an n-stripe WAL under dir:
// dir itself when n is 1.
func StripeDir(dir string, n, i int) string {
	if n == 1 {
		return dir
	}
	return filepath.Join(dir, StripeDirName(i))
}

// maxStripes bounds the stripe count to something a hostile "stripes"
// file cannot turn into a directory bomb.
const maxStripes = 1 << 10

// readStripes reports the count recorded in dir's "stripes" file, 0
// when there is none (including when dir does not exist yet). Only
// layouts of two or more stripes write the file, so a recorded 1 is
// corruption: reading it would recover an empty stripe-00 and silently
// drop whatever history sits at top level.
func readStripes(dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, StripesFileName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: reading stripes file: %w", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil || n < 2 || n > maxStripes {
		return 0, fmt.Errorf("%w: stripes file holds %q, want 2..%d", ErrCorrupt, strings.TrimSpace(string(data)), maxStripes)
	}
	return n, nil
}

// StripeCount reports how many stripes the WAL under dir holds: the
// recorded count of a striped directory, 1 for a directory holding
// top-level segments or snapshots, and 0 when dir holds no log yet
// (missing, empty, or only non-log files such as a coordinator marker).
func StripeCount(dir string) (int, error) {
	if n, err := readStripes(dir); err != nil || n > 0 {
		return n, err
	}
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		if !e.IsDir() && (IsSegmentName(e.Name()) || IsSnapshotName(e.Name())) {
			return 1, nil
		}
	}
	return 0, nil
}

// writeStripesFile persists the stripe count durably (tmp, fsync,
// rename, fsync dir) before any stripe is created, so a crash between
// stripe creations still recovers as a striped directory.
func writeStripesFile(dir string, n int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, StripesFileName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "%d\n", n); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, StripesFileName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// OpenStriped opens (creating if needed) the WAL under dir and returns
// the per-stripe logs and recovery states in stripe order. An existing
// log keeps its stripe count, which n must match (or be 0 to adopt);
// a fresh directory takes n stripes, and a fresh n of 1 is a plain
// single-directory log with no "stripes" file.
func OpenStriped(dir string, n int, o Options) ([]*Log, []*Recovered, error) {
	existing, err := StripeCount(dir)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case existing == 1 && n > 1:
		return nil, nil, fmt.Errorf("wal: %s holds a one-stripe log; refusing to stripe over it", dir)
	case existing > 0 && n != 0 && n != existing:
		return nil, nil, fmt.Errorf("wal: %s has %d stripes, asked for %d", dir, existing, n)
	case existing == 0 && n < 1:
		return nil, nil, fmt.Errorf("wal: fresh open of %s needs a stripe count, got %d", dir, n)
	case existing == 0 && n > maxStripes:
		return nil, nil, fmt.Errorf("wal: %d stripes, max %d", n, maxStripes)
	case existing == 0 && n > 1:
		if err := writeStripesFile(dir, n); err != nil {
			return nil, nil, fmt.Errorf("wal: writing stripes file: %w", err)
		}
	}
	if existing > 0 {
		n = existing
	}
	logs := make([]*Log, n)
	recs := make([]*Recovered, n)
	for i := 0; i < n; i++ {
		l, rec, err := Open(StripeDir(dir, n, i), o)
		if err != nil {
			for j := 0; j < i; j++ {
				logs[j].Close()
			}
			return nil, nil, fmt.Errorf("wal: stripe %d: %w", i, err)
		}
		logs[i], recs[i] = l, rec
	}
	return logs, recs, nil
}

// ReadStriped recovers every stripe read-only, in stripe order. A
// directory with no "stripes" file reads as one stripe (empty when it
// holds no log).
func ReadStriped(dir string) ([]*Recovered, error) {
	n, err := readStripes(dir)
	if err != nil {
		return nil, err
	}
	n = max(n, 1)
	recs := make([]*Recovered, n)
	for i := 0; i < n; i++ {
		rec, err := Read(StripeDir(dir, n, i))
		if err != nil {
			return nil, fmt.Errorf("wal: stripe %d: %w", i, err)
		}
		recs[i] = rec
	}
	return recs, nil
}
