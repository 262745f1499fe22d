package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// Family sets (name and type) each metric writer renders. A role
// serves the union of its writers' sets.
const (
	nodeFamilies = `
gpsd_admits_total counter
gpsd_cluster_aborts_total counter
gpsd_cluster_commit_retries_total counter
gpsd_cluster_commits_total counter
gpsd_cluster_compensations_total counter
gpsd_cluster_expires_total counter
gpsd_cluster_prepare_rejects_total counter
gpsd_cluster_prepares_total counter
gpsd_epoch_age_seconds gauge
gpsd_epoch_delta_fallbacks_total counter
gpsd_epoch_delta_rebuilds_total counter
gpsd_epoch_full_rebuilds_total counter
gpsd_epoch_orderings_total counter
gpsd_epoch_rebuild_failures_total counter
gpsd_epoch_rebuild_seconds_total_nanos counter
gpsd_epoch_rebuilds_total counter
gpsd_epoch_selfcheck_failures_total counter
gpsd_epoch_selfchecks_total counter
gpsd_epoch_seq gauge
gpsd_handler_latency_seconds summary
gpsd_http_responses_total counter
gpsd_ledger_refills_total counter
gpsd_ledger_returns_total counter
gpsd_queue_depth gauge
gpsd_rate_cache_hits_total counter
gpsd_rate_cache_misses_total counter
gpsd_rebuild_duration_seconds summary
gpsd_rejects_total counter
gpsd_release_misses_total counter
gpsd_releases_total counter
gpsd_sessions gauge
gpsd_sessions_degraded gauge
gpsd_sessions_guaranteed gauge
gpsd_sessions_infeasible gauge
gpsd_shed_total counter
gpsd_targets_met gauge
gpsd_utilization gauge
gpsd_wal_append_failures_total counter
gpsd_wal_appends_total counter
gpsd_wal_recovered_ops_total counter
gpsd_wal_snapshot_failures_total counter
gpsd_wal_snapshots_total counter`
	shardFamilies = `
gpsd_ledger_budget gauge
gpsd_ledger_cas_retries_total counter
gpsd_ledger_reserve_rejects_total counter
gpsd_ledger_reserved gauge
gpsd_shard_capacity gauge
gpsd_shard_decision_latency_seconds summary
gpsd_shard_epoch_age_seconds gauge
gpsd_shard_epoch_delta_rebuilds_total counter
gpsd_shard_epoch_full_rebuilds_total counter
gpsd_shard_ledger_refills_total counter
gpsd_shard_ledger_returns_total counter
gpsd_shard_queue_depth gauge
gpsd_shard_sessions gauge
gpsd_shards gauge`
	sourceFamilies = `
gpsd_audit_fatal gauge
gpsd_repl_acks_total counter
gpsd_repl_fetches_total counter
gpsd_repl_followers gauge
gpsd_repl_shipped_bytes_total counter`
	followerFamilies = `
gpsd_repl_ack_seq gauge
gpsd_repl_acks_sent_total counter
gpsd_repl_diverged gauge
gpsd_repl_primary_head_seq gauge
gpsd_repl_promoted gauge
gpsd_repl_pull_errors_total counter
gpsd_repl_pulls_total counter
gpsd_repl_received_bytes_total counter
gpsd_repl_seconds_behind gauge
gpsd_repl_segments_behind gauge`
	coordFamilies = `
gpsd_coord_admits_total counter
gpsd_coord_commit_retries_total counter
gpsd_coord_orphan_releases_total counter
gpsd_coord_partition_aborts_total counter
gpsd_coord_reconcile_drops_total counter
gpsd_coord_rejects_total counter
gpsd_coord_releases_total counter
gpsd_coord_sessions gauge`
)

// TestExpositionContract scrapes every serving shape and holds its
// /metrics to the text format's contract — each family has exactly one
// HELP and one TYPE line, its samples follow them contiguously, every
// value parses as a float — and to its family set. Each case also
// names sample lines the smoke scripts and gpsdload read. The journaled
// coordinator serves its route journal's audit and shipping families,
// like a WAL-backed hop.
func TestExpositionContract(t *testing.T) {
	ackAll := `{"follower_id":"f","ack_seq":0,"stripe_seqs":[0,0]}`
	cases := []struct {
		name    string
		build   func(t *testing.T) http.Handler
		ack     string // posted to /v1/repl/ack before the scrape
		want    []string
		samples []string
	}{
		{"daemon", bareDaemon, "", []string{nodeFamilies},
			[]string{`gpsd_http_responses_total{class="5xx"} 0`}},
		{"sharded-1", shardedNode(1), "", []string{nodeFamilies, shardFamilies},
			[]string{`gpsd_rate_cache_hits_total 0`, `gpsd_shards 1`}},
		{"sharded-2", shardedNode(2), "", []string{nodeFamilies, shardFamilies},
			[]string{`gpsd_shard_sessions{shard="1"} 0`}},
		{"hop", hopRole, "", []string{nodeFamilies, shardFamilies, sourceFamilies},
			[]string{`gpsd_audit_fatal 0`, `gpsd_cluster_aborts_total 0`, `gpsd_repl_followers 0`}},
		{"hop-acked", hopRole, ackAll, []string{nodeFamilies, shardFamilies, sourceFamilies, "gpsd_repl_min_acked_seq gauge"},
			[]string{`gpsd_repl_min_acked_seq 0`}},
		{"standby", standbyNode, "", []string{followerFamilies},
			[]string{`gpsd_repl_ack_seq 0`, `gpsd_repl_primary_head_seq 0`}},
		{"coordinator-journal", coordinatorNode, "", []string{coordFamilies, sourceFamilies},
			[]string{`gpsd_coord_sessions 0`, `gpsd_audit_fatal 0`}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := c.build(t)
			if c.ack != "" {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/repl/ack", strings.NewReader(c.ack)))
				if rec.Code != http.StatusOK {
					t.Fatalf("ack: %d %s", rec.Code, rec.Body)
				}
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			text := rec.Body.String()
			got := checkExposition(t, text)
			want := map[string]string{}
			for _, set := range c.want {
				for _, line := range strings.Split(strings.TrimSpace(set), "\n") {
					f := strings.Fields(line)
					want[f[0]] = f[1]
				}
			}
			for name, typ := range want {
				if got[name] != typ {
					t.Errorf("family %s: type %q, want %q", name, got[name], typ)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("unexpected family %s", name)
				}
			}
			lines := strings.Split(text, "\n")
			sort.Strings(lines)
			for _, s := range c.samples {
				if i := sort.SearchStrings(lines, s); i == len(lines) || lines[i] != s {
					t.Errorf("sample %q missing", s)
				}
			}
		})
	}
}

// checkExposition fails t on every breach of the exposition contract
// in text and returns its family→type map.
func checkExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	types, helps := map[string]string{}, map[string]int{}
	cur := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			if help == "" {
				t.Errorf("family %s: empty HELP", name)
			}
			helps[name]++
			cur = name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[0] != cur {
				t.Errorf("TYPE line %q does not follow its family's HELP", line)
				continue
			}
			if _, dup := types[cur]; dup {
				t.Errorf("family %s: second TYPE line", cur)
			}
			types[cur] = f[1]
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Errorf("malformed sample %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("sample %q: value does not parse: %v", line, err)
		}
		name, _, _ := strings.Cut(line[:i], "{")
		if types[cur] == "summary" {
			name = strings.TrimSuffix(name, "_count")
		}
		if name != cur {
			t.Errorf("sample %q outside its family's block (inside %q)", line, cur)
		}
	}
	for name, n := range helps {
		if n != 1 {
			t.Errorf("family %s: %d HELP lines", name, n)
		}
		if types[name] == "" {
			t.Errorf("family %s: no TYPE line", name)
		}
	}
	return types
}

func bareDaemon(t *testing.T) http.Handler {
	d, err := server.New(server.Config{Rate: 1000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close(context.Background()) })
	return server.NewHandler(d)
}

func shardedNode(n int) func(t *testing.T) http.Handler {
	return func(t *testing.T) http.Handler {
		s, err := server.NewSharded(server.Config{Rate: 1000}, n, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close(context.Background()) })
		return server.NewHandler(s)
	}
}

// handlerOf serves r and drains it when the test ends.
func handlerOf(t *testing.T, r *role, err error) http.Handler {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := r.close(ctx); err != nil {
			t.Error(err)
		}
	})
	return r.mux
}

func hopRole(t *testing.T) http.Handler {
	_, r, err := bootPrimary(config{rate: 1000, walDir: t.TempDir(), walSync: "batch", shards: 2}, nil)
	return handlerOf(t, r, err)
}

func standbyNode(t *testing.T) http.Handler {
	primary := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(primary.Close)
	r, err := standbyRole(config{follow: primary.URL, walDir: t.TempDir(), followerID: "test"}, nil, &swapHandler{})
	return handlerOf(t, r, err)
}

func coordinatorNode(t *testing.T) http.Handler {
	hop := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(hop.Close)
	topo := filepath.Join(t.TempDir(), "topo.json")
	spec := fmt.Sprintf(`{"nodes": [{"name": "node1", "url": %q, "rate": 1}]}`, hop.URL)
	if err := os.WriteFile(topo, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := coordinatorRole(config{topology: topo, coordWALDir: t.TempDir(), walSync: "batch"}, nil)
	return handlerOf(t, r, err)
}
