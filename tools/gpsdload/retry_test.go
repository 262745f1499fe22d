package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prom"
)

// TestBackoffEqualJitterBounds: every sleep lands in (d/2, d] where d
// is the jitter window — max(base<<i, Retry-After hint) capped at max —
// for every attempt index and hint shape.
func TestBackoffEqualJitterBounds(t *testing.T) {
	r := newRetrier(10, 100*time.Millisecond, 5*time.Second, 7)
	r.sleep = func(time.Duration) {}
	for i := 0; i < 10; i++ {
		for _, hint := range []time.Duration{0, time.Second, 10 * time.Second} {
			d := r.base << uint(i)
			if d > r.max {
				d = r.max
			}
			if hint > d {
				d = hint
			}
			if d > r.max {
				d = r.max
			}
			for trial := 0; trial < 50; trial++ {
				got := r.backoff(i, hint)
				if got <= d/2 || got > d {
					t.Fatalf("attempt %d hint %v: backoff %v outside (%v, %v]", i, hint, got, d/2, d)
				}
			}
		}
	}
}

// TestBackoffDeterministicUnderSeed: the jitter stream is the seeded
// RNG's — two retriers with the same seed sleep the identical sequence,
// different seeds diverge. This is what lets a recorded load run be
// replayed exactly.
func TestBackoffDeterministicUnderSeed(t *testing.T) {
	a := newRetrier(5, 50*time.Millisecond, time.Second, 42)
	b := newRetrier(5, 50*time.Millisecond, time.Second, 42)
	c := newRetrier(5, 50*time.Millisecond, time.Second, 43)
	same, allEqual := true, true
	for i := 0; i < 20; i++ {
		av, bv, cv := a.backoff(i%4, 0), b.backoff(i%4, 0), c.backoff(i%4, 0)
		if av != bv {
			same = false
		}
		if av != cv {
			allEqual = false
		}
	}
	if !same {
		t.Fatal("same seed produced different backoff sequences")
	}
	if allEqual {
		t.Fatal("different seeds produced the identical backoff sequence")
	}
}

// TestBackoffHonorsRetryAfterFloor: a server hint above the exponential
// floor raises the whole window — the client never comes back sooner
// than half the hint.
func TestBackoffHonorsRetryAfterFloor(t *testing.T) {
	r := newRetrier(3, 10*time.Millisecond, 10*time.Second, 1)
	for trial := 0; trial < 100; trial++ {
		if got := r.backoff(0, 2*time.Second); got <= time.Second {
			t.Fatalf("hint 2s: backoff %v under half the hint", got)
		}
	}
}

// TestDoRetryOn429: a daemon shedding twice with Retry-After then
// accepting sees exactly three requests; the recorded sleeps honor the
// hint; the shed counter still reflects both 429s (retries do not hide
// backpressure from the report).
func TestDoRetryOn429(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := newTestClient(ts.URL, 5)
	var slept []time.Duration
	c.retry.sleep = func(d time.Duration) { slept = append(slept, d) }

	resp, _, err := c.doRetry(func() *http.Request {
		req, _ := http.NewRequest(http.MethodGet, c.base+"/x", nil)
		return req
	}, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("doRetry: status %v err %v", resp.StatusCode, err)
	}
	if hits.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3", hits.Load())
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	for i, d := range slept {
		// Hint 1s dominates the floor: each sleep is in (500ms, 1s].
		if d <= 500*time.Millisecond || d > time.Second {
			t.Fatalf("sleep %d = %v outside (500ms, 1s]", i, d)
		}
	}
	if c.cnt.shed.Load() != 2 {
		t.Fatalf("shed counter %d, want 2 (retries must not hide backpressure)", c.cnt.shed.Load())
	}
}

// TestDoRetryExhaustsAttempts: a daemon that never stops shedding gets
// exactly `attempts` requests, and the final 429 is returned to the
// caller.
func TestDoRetryExhaustsAttempts(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := newTestClient(ts.URL, 3)
	c.retry.sleep = func(time.Duration) {}
	resp, _, err := c.doRetry(func() *http.Request {
		req, _ := http.NewRequest(http.MethodGet, c.base+"/x", nil)
		return req
	}, nil)
	if err != nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted retry: status %v err %v, want the final 429", resp.StatusCode, err)
	}
	if hits.Load() != 3 {
		t.Fatalf("server saw %d requests, want exactly the 3 attempts", hits.Load())
	}
}

// TestDoRetryStopAborts: once the stop flag flips (the kill harness),
// no further attempts are made even though retries remain.
func TestDoRetryStopAborts(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusTooEarly)
	}))
	defer ts.Close()

	c := newTestClient(ts.URL, 10)
	c.retry.sleep = func(time.Duration) {}
	resp, _, err := c.doRetry(func() *http.Request {
		req, _ := http.NewRequest(http.MethodGet, c.base+"/x", nil)
		return req
	}, func() bool { return true })
	if err != nil || resp.StatusCode != http.StatusTooEarly {
		t.Fatalf("stopped retry: status %v err %v", resp.StatusCode, err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d requests after stop, want 1", hits.Load())
	}
}

func newTestClient(base string, attempts int) *client {
	return &client{
		base:  base,
		hc:    &http.Client{Timeout: 5 * time.Second},
		cnt:   &counters{},
		lat:   prom.NewSummary(),
		retry: newRetrier(attempts, 10*time.Millisecond, 5*time.Second, 99),
	}
}
