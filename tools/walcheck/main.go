// Command walcheck is the offline half of the crash-recovery contract:
// it reads a gpsd write-ahead log directory stripe by stripe (newest
// valid snapshot + replayable suffix, tolerating a torn tail, refusing
// interior corruption), folds each stripe's history into its shard's
// admitted session set, re-derives the per-shard capacities with the
// same deterministic ledger.BootCapacities split gpsd computes on boot
// (the whole rate for a one-stripe directory), and runs a fresh
// offline gpsmath.AnalyzeServer per shard at its capacity — the ground
// truth a recovered daemon's first epochs must match bit for bit.
//
//	walcheck -wal-dir ./wal -rate 2000              # inspect + analyze
//	walcheck -wal-dir ./wal -rate 2000 -url http://127.0.0.1:7070
//	walcheck -wal-dir ./wal -rate 2000 -verify-proof 1234 -expect-head <hex>
//
// With -url it verifies a live daemon against that ground truth: rate,
// shard count, session count, the running Σφ folded in shard index
// order (compared by IEEE-754 bit pattern, not approximately), every
// shard's feasible partition H_1..H_L by session id, and a sample of
// per-session tail bounds. The capacity reconstruction assumes the
// daemon booted from exactly this WAL state: a shard that has refilled
// its ledger slice since boot runs at a different capacity than the
// boot split implies. Any divergence exits 1; interior log corruption
// exits 2 with the typed *wal.CorruptError rendered.
// scripts/crash_smoke.sh drives both modes around a SIGKILL.
//
// Each stripe holds a Merkle audit trail (audit.log, written by a
// WAL-backed gpsd): walcheck rechecks its seal chain and re-hashes
// every decision frame still on disk against its leaf. -verify-proof N
// additionally builds and folds the inclusion-and-extension proof for
// the op at sequence N of one stripe's chain (-proof-stripe, required
// when there are several), proving the record is in the history and the
// history is append-only under the attested head (-expect-head, or the
// trail's own recomputed head). scripts/repl_smoke.sh drives this
// around a primary kill + follower promotion.
package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/ebb"
	"repro/internal/gpsmath"
	"repro/internal/ledger"
	"repro/internal/replication"
	"repro/internal/wal"
)

func main() {
	walDir := flag.String("wal-dir", "", "WAL directory to read (required)")
	rate := flag.Float64("rate", 0, "link rate the daemon runs at (required; the analysis depends on it)")
	url := flag.String("url", "", "base URL of a running gpsd to verify against the offline analysis")
	samples := flag.Int("samples", 8, "per-session bound endpoints to verify when -url is set")
	verifyProof := flag.Uint64("verify-proof", 0, "prove the decision at this op sequence is in the Merkle audit history and the history is append-only (0 = off)")
	expectHead := flag.String("expect-head", "", "hex audit head recorded out of band; proofs and the trail must fold to exactly this head")
	proofStripe := flag.Int("proof-stripe", -1, "stripe whose audit chain -verify-proof/-expect-head apply to (sequences are per-stripe; required with several stripes)")
	topoPath := flag.String("topology", "", "topology JSON the coordinator ran over (coordinator journals; required to analyze or verify)")
	flag.Parse()
	if *walDir == "" {
		flag.Usage()
		os.Exit(1)
	}

	// A coordinator journal is a different animal: route records folded
	// from empty, analyzed against a topology rather than a single rate.
	// The layouts are mutually refusing — hop flags here, -topology on
	// the hop paths below.
	if isCoord, err := wal.IsCoordDir(*walDir); err != nil {
		log.Printf("walcheck: CORRUPT: %v", err)
		os.Exit(2)
	} else if isCoord {
		if *rate != 0 || *proofStripe >= 0 {
			log.Fatalf("walcheck: %s holds a coordinator journal; -rate and -proof-stripe apply to hop WALs (use -topology)", *walDir)
		}
		coordMain(*walDir, *topoPath, *url, *samples, *verifyProof, *expectHead)
		return
	}
	if *topoPath != "" {
		log.Fatalf("walcheck: -topology applies to coordinator journals; %s holds a hop WAL", *walDir)
	}
	if !(*rate > 0) {
		flag.Usage()
		os.Exit(1)
	}

	recs, err := wal.ReadStriped(*walDir)
	if err != nil {
		if errors.Is(err, wal.ErrCorrupt) {
			log.Printf("walcheck: CORRUPT: %v", err)
			os.Exit(2)
		}
		log.Fatalf("walcheck: %v", err)
	}
	stripes := len(recs)
	// Every stripe has its own audit chain and sequence space: a proof
	// request must name the stripe it speaks about unless there is one.
	if *proofStripe < 0 && (*verifyProof != 0 || *expectHead != "") {
		if stripes > 1 {
			log.Fatalf("walcheck: %s has one audit chain per stripe; add -proof-stripe N to say which one -verify-proof/-expect-head apply to", *walDir)
		}
		*proofStripe = 0
	}
	if *proofStripe >= stripes {
		log.Fatalf("walcheck: -proof-stripe %d, but the layout has %d stripe(s)", *proofStripe, stripes)
	}

	sts := make([]wal.State, stripes)
	useds := make([]float64, stripes)
	var replayed, sessions int
	var torn int64
	for i, rec := range recs {
		st, err := rec.SessionSet()
		if err != nil {
			if errors.Is(err, wal.ErrCorrupt) {
				log.Printf("walcheck: CORRUPT: stripe %d: %v", i, err)
				os.Exit(2)
			}
			log.Fatalf("walcheck: stripe %d: %v", i, err)
		}
		sts[i], useds[i] = st, st.Used
		replayed += len(rec.Ops)
		sessions += len(st.Sessions)
		torn += rec.TornBytes
		fmt.Printf("walcheck: %s: snapshot seq %d, %d replayed ops, %d torn bytes, %d corrupt snapshots skipped\n",
			wal.StripeDir(*walDir, stripes, i), rec.State.Seq, len(rec.Ops), rec.TornBytes, rec.SkippedSnapshots)
	}

	caps, err := ledger.BootCapacities(useds, *rate, 0)
	if err != nil {
		log.Fatalf("walcheck: boot capacity split: %v", err)
	}
	used := 0.0
	ans := make([]*gpsmath.Analysis, stripes)
	for i := range sts {
		used += useds[i] // shard index order, exactly the composed health fold
		ans[i] = analyze(sts[i], caps[i])
		sizes := []int{}
		if ans[i] != nil {
			for _, c := range ans[i].Partition.Classes {
				sizes = append(sizes, len(c))
			}
		}
		fmt.Printf("walcheck: %s: sessions=%d used=%g (bits %#x) next-id=%d capacity=%g partition: %d classes, sizes %v\n",
			wal.StripeDir(*walDir, stripes, i), len(sts[i].Sessions), useds[i], math.Float64bits(useds[i]), sts[i].NextID, caps[i], len(sizes), sizes)
	}
	fmt.Printf("walcheck: striped: %d stripes, %d sessions, %d replayed ops, %d torn bytes, composed used=%g (bits %#x)\n",
		stripes, sessions, replayed, torn, used, math.Float64bits(used))

	for i := range stripes {
		proof, head := uint64(0), ""
		if i == *proofStripe {
			proof, head = *verifyProof, *expectHead
		}
		auditCheck(wal.StripeDir(*walDir, stripes, i), proof, head)
	}

	if *url == "" {
		return
	}
	if err := verify(*url, sts, ans, used, *rate, *samples); err != nil {
		log.Fatalf("walcheck: MISMATCH: %v", err)
	}
	fmt.Println("walcheck: OK: live daemon matches the per-stripe offline analyses bit for bit")
}

// verify compares a live daemon against the per-stripe ground truth:
// the composed health document, then each shard's partition and
// sampled bounds against its own stripe's analysis. Floats survive Go's
// JSON round-trip exactly (shortest representation that parses back to
// the same float64), so == on the decoded values is a bit-pattern
// comparison.
func verify(base string, sts []wal.State, ans []*gpsmath.Analysis, used, rate float64, samples int) error {
	hc := &http.Client{Timeout: 10 * time.Second}

	var health struct {
		Status   string  `json:"status"`
		Sessions int     `json:"sessions"`
		Used     float64 `json:"used"`
		Rate     float64 `json:"rate"`
		Shards   int     `json:"shards"`
	}
	if err := getJSON(hc, base+"/healthz", &health); err != nil {
		return err
	}
	if health.Rate != rate {
		return fmt.Errorf("daemon rate %v, walcheck invoked with %v — the analyses are not comparable", health.Rate, rate)
	}
	if health.Shards != len(sts) {
		return fmt.Errorf("daemon runs %d shard(s), WAL directory holds %d stripe(s)", health.Shards, len(sts))
	}
	sessions := 0
	for _, st := range sts {
		sessions += len(st.Sessions)
	}
	if health.Sessions != sessions {
		return fmt.Errorf("daemon has %d sessions, WAL stripes imply %d", health.Sessions, sessions)
	}
	if math.Float64bits(health.Used) != math.Float64bits(used) {
		return fmt.Errorf("daemon Σφ bits %#x, WAL stripes fold to %#x", math.Float64bits(health.Used), math.Float64bits(used))
	}

	for shard := range sts {
		var part struct {
			Sessions int        `json:"sessions"`
			Classes  [][]string `json:"classes"`
		}
		if err := getJSON(hc, fmt.Sprintf("%s/v1/partition?shard=%d", base, shard), &part); err != nil {
			return err
		}
		if part.Sessions != len(sts[shard].Sessions) {
			return fmt.Errorf("shard %d: daemon has %d sessions, stripe implies %d", shard, part.Sessions, len(sts[shard].Sessions))
		}
		want := [][]string{}
		if ans[shard] != nil {
			for _, class := range ans[shard].Partition.Classes {
				ids := make([]string, len(class))
				for k, i := range class {
					ids[k] = strconv.FormatUint(sts[shard].Sessions[i].ID, 10)
				}
				want = append(want, ids)
			}
		}
		if !reflect.DeepEqual(part.Classes, want) {
			return fmt.Errorf("shard %d partition differs:\nlive    %v\noffline %v", shard, part.Classes, want)
		}
	}

	if samples <= 0 {
		return nil
	}
	for shard, st := range sts {
		if ans[shard] == nil {
			continue
		}
		step := len(st.Sessions) / samples
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(st.Sessions); i += step {
			if err := verifyBounds(hc, base, st.Sessions[i], i, ans[shard]); err != nil {
				return fmt.Errorf("shard %d: %w", shard, err)
			}
		}
	}
	return nil
}

// auditCheck verifies the Merkle audit trail three ways: the stored
// seals against a chain recomputed from the leaf records (append-only),
// every decision frame still on disk against its leaf (a flipped frame
// byte is caught even if the flipper fixed the frame CRC — the WAL's
// CRC catches accidents, this catches rewrites), and, with
// -verify-proof, one record's full inclusion-and-extension proof folded
// independently and compared against the attested head. Mismatches exit
// 1; structural trail corruption exits 2.
func auditCheck(dir string, proofSeq uint64, expectHead string) {
	trail, err := replication.ReadAuditTrail(dir)
	if err != nil {
		log.Printf("walcheck: CORRUPT: %v", err)
		os.Exit(2)
	}
	if trail == nil {
		if proofSeq != 0 || expectHead != "" {
			log.Fatalf("walcheck: %s has no audit trail to verify", dir)
		}
		return
	}

	head, err := trail.Recheck()
	if err != nil {
		log.Printf("walcheck: AUDIT MISMATCH: %v", err)
		os.Exit(1)
	}
	checked, err := replication.CrossCheckWAL(dir, trail)
	if err != nil {
		log.Printf("walcheck: AUDIT MISMATCH: %v", err)
		os.Exit(1)
	}
	fmt.Printf("walcheck: audit: %d leaves from seq %d, %d sealed batches of %d, %d frames cross-checked, head %s\n",
		len(trail.Leaves), trail.GenesisSeq+1, trail.SealedBatches, trail.BatchN, checked, hex.EncodeToString(head[:]))

	attested := head
	if expectHead != "" {
		b, err := hex.DecodeString(expectHead)
		if err != nil || len(b) != len(attested) {
			log.Fatalf("walcheck: -expect-head is not a %d-byte hex digest", len(attested))
		}
		copy(attested[:], b)
		if head != attested {
			log.Printf("walcheck: AUDIT MISMATCH: trail folds to %x, recorded head is %s", head[:], expectHead)
			os.Exit(1)
		}
	}

	if proofSeq == 0 {
		return
	}
	leaves := trail.LeafHashes()
	proof, err := replication.ProveInclusion(trail.GenesisSeq, trail.BatchN, leaves, proofSeq)
	if err != nil {
		log.Fatalf("walcheck: %v", err)
	}
	if got := replication.VerifyProof(proof); got != attested {
		log.Printf("walcheck: PROOF REJECTED: seq %d folds to %x, attested head is %x", proofSeq, got[:], attested[:])
		os.Exit(1)
	}
	fmt.Printf("walcheck: OK: seq %d is in the audited history (%d siblings, %d later batches) and the history is append-only under head %s\n",
		proofSeq, len(proof.Siblings), len(proof.Later), hex.EncodeToString(attested[:]))
}

// analyze runs the fresh offline analysis over the folded session set,
// under exactly the options the daemon builds epochs with. Nil for an
// empty set (the daemon publishes no analysis then either).
func analyze(st wal.State, rate float64) *gpsmath.Analysis {
	if len(st.Sessions) == 0 {
		return nil
	}
	srv := gpsmath.Server{Rate: rate, Sessions: make([]gpsmath.Session, len(st.Sessions))}
	for i, s := range st.Sessions {
		srv.Sessions[i] = gpsmath.Session{
			Name: s.Name, Phi: s.G,
			Arrival: ebb.Process{Rho: s.Rho, Lambda: s.Lambda, Alpha: s.Alpha},
		}
	}
	an, err := gpsmath.AnalyzeServer(srv, gpsmath.Options{Independent: true, Xi: gpsmath.XiOptimal})
	if err != nil {
		log.Fatalf("walcheck: offline AnalyzeServer over the recovered set: %v", err)
	}
	return an
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return json.Unmarshal(body, v)
}

// verifyBounds checks one session's served tail bounds against the
// offline analysis at the daemon's default evaluation points (the
// declared target delay and the backlog the guaranteed rate clears).
func verifyBounds(hc *http.Client, base string, s wal.SessionRecord, i int, an *gpsmath.Analysis) error {
	var got struct {
		G           float64 `json:"g"`
		Theorem     string  `json:"theorem"`
		Q           float64 `json:"q"`
		BacklogProb float64 `json:"backlog_prob"`
		Delay       float64 `json:"delay"`
		DelayProb   float64 `json:"delay_prob"`
		AchievedEps float64 `json:"achieved_eps"`
		MeetsTarget bool    `json:"meets_target"`
	}
	if err := getJSON(hc, base+"/v1/bounds/"+strconv.FormatUint(s.ID, 10), &got); err != nil {
		return fmt.Errorf("bounds for %d: %w", s.ID, err)
	}
	b := an.PartitionBound(i)
	t := admission.Target{Delay: s.Delay, Eps: s.Eps}
	dly := t.Delay
	q := b.G * dly
	achieved := an.BestDelayTailValue(i, t.Delay)
	check := func(name string, gotV, wantV float64) error {
		if math.Float64bits(gotV) != math.Float64bits(wantV) {
			return fmt.Errorf("session %d %s: live %v (bits %#x) vs offline %v (bits %#x)",
				s.ID, name, gotV, math.Float64bits(gotV), wantV, math.Float64bits(wantV))
		}
		return nil
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"g", got.G, b.G},
		{"q", got.Q, q},
		{"backlog_prob", got.BacklogProb, an.BestBacklogTailValue(i, q)},
		{"delay", got.Delay, dly},
		{"delay_prob", got.DelayProb, an.BestDelayTailValue(i, dly)},
		{"achieved_eps", got.AchievedEps, achieved},
	} {
		if err := check(c.name, c.got, c.want); err != nil {
			return err
		}
	}
	if got.MeetsTarget != (achieved <= t.Eps) {
		return fmt.Errorf("session %d meets_target: live %v vs offline %v", s.ID, got.MeetsTarget, achieved <= t.Eps)
	}
	if got.Theorem != b.Theorem {
		return fmt.Errorf("session %d theorem: live %q vs offline %q", s.ID, got.Theorem, b.Theorem)
	}
	return nil
}
