package main

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/ebb"
	"repro/internal/wal"
)

// requiredRate is the GPS weight gpsd assigns a session type: the rate
// its declared target needs (admission.RequiredRate, the daemon's own
// sizing rule).
func requiredRate(t sessionType) (float64, error) {
	return admission.RequiredRate(ebb.Process{Rho: t.Rho, Lambda: t.Lambda, Alpha: t.Alpha},
		admission.Target{Delay: t.Delay, Eps: t.Eps})
}

// typeRates returns the required rate of every palette entry.
func typeRates(pal []sessionType) ([]float64, error) {
	gs := make([]float64, len(pal))
	for i, t := range pal {
		g, err := requiredRate(t)
		if err != nil {
			return nil, fmt.Errorf("palette %s: %w", t.Name, err)
		}
		gs[i] = g
	}
	return gs, nil
}

// stageState builds the admitted-set state of n sessions with the given
// palette indexes, ids 1..n in admission order, exactly as a daemon that
// admitted them one by one would hold it: Used is the running sum in
// admission order and NextID the last assigned id.
func stageState(pal []sessionType, gs []float64, types []int) wal.State {
	st := wal.State{NextID: uint64(len(types)), Sessions: make([]wal.SessionRecord, len(types))}
	for i, k := range types {
		t := pal[k]
		st.Sessions[i] = wal.SessionRecord{
			ID: uint64(i + 1), Name: t.Name,
			Rho: t.Rho, Lambda: t.Lambda, Alpha: t.Alpha,
			Delay: t.Delay, Eps: t.Eps, G: gs[k],
		}
		st.Used += gs[k]
	}
	return st
}

// stageWAL writes st as the snapshot of a fresh flat WAL directory, so
// a gpsd booted on it recovers the whole population without replaying
// a single op.
func stageWAL(dir string, st wal.State) error {
	l, rec, err := wal.Open(dir, wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		return fmt.Errorf("staging WAL: %w", err)
	}
	if rec.State.Seq != 0 || len(rec.Ops) != 0 || len(rec.State.Sessions) != 0 {
		l.Close()
		return fmt.Errorf("staging WAL: %s is not empty", dir)
	}
	st.Seq = l.NextSeq() - 1
	if err := l.Snapshot(st); err != nil {
		l.Close()
		return fmt.Errorf("staging snapshot: %w", err)
	}
	return l.Close()
}
