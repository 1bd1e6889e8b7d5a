package main

import (
	"bufio"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"memtx/internal/kv"
	"memtx/internal/kvload"
	"memtx/internal/server"
)

// servedFamilies are the metric families a durable stmkvd serves: the
// store's (stmkv_*), the server's (stmkvd_*) and the log's (stmkvd_wal_*).
// Dashboards and CI's kv-smoke greps match these names, so a change here is
// a change to the daemon's interface.
var servedFamilies = []string{
	"stmkv_buckets_per_shard", "stmkv_cm_outcomes_total", "stmkv_cm_sleep_ns_total",
	"stmkv_cm_sleeps_total", "stmkv_cm_spins_total", "stmkv_cm_waits_total",
	"stmkv_cross_commits_total", "stmkv_cross_publish_redos_total", "stmkv_cross_retries_total",
	"stmkv_ops_total", "stmkv_reader_fallbacks_total", "stmkv_shard_lsn",
	"stmkv_shard_tx_aborts_total", "stmkv_shard_tx_commits_total", "stmkv_shard_tx_starts_total",
	"stmkv_shards", "stmkv_tx_aborts_total", "stmkv_tx_commits_total", "stmkv_tx_starts_total",
	"stmkvd_cmd_deadline_total", "stmkvd_commands_total", "stmkvd_connections_active",
	"stmkvd_connections_total", "stmkvd_degraded_mode", "stmkvd_diskfull_total",
	"stmkvd_panics_recovered_total", "stmkvd_protocol_errors_total",
	"stmkvd_read_batch_fallbacks_total", "stmkvd_read_batched_commands_total",
	"stmkvd_read_batches_total", "stmkvd_readonly_total", "stmkvd_shed_total",
	"stmkvd_slow_client_evictions_total", "stmkvd_txns_inflight", "stmkvd_txns_queued",
	"stmkvd_wal_append_bytes_total", "stmkvd_wal_append_queue_depth", "stmkvd_wal_appends_total",
	"stmkvd_wal_durable_lsn", "stmkvd_wal_failed", "stmkvd_wal_fsyncs_total",
	"stmkvd_wal_group_max", "stmkvd_wal_group_records_total", "stmkvd_wal_quarantined",
	"stmkvd_wal_replay_records_total", "stmkvd_wal_replay_snapshot_pairs_total",
	"stmkvd_wal_rotations_total", "stmkvd_wal_scrub_corrupt_total",
	"stmkvd_wal_scrub_passes_total", "stmkvd_wal_scrub_segments_total",
	"stmkvd_wal_scrub_snapshots_total", "stmkvd_wal_snapshot_bytes_total",
	"stmkvd_wal_snapshot_dirty_pairs_total", "stmkvd_wal_snapshot_duration_ns_total",
	"stmkvd_wal_snapshot_last_ns", "stmkvd_wal_snapshot_reused_pairs_total",
	"stmkvd_wal_snapshot_skips_total", "stmkvd_wal_snapshots_incremental_total",
	"stmkvd_wal_snapshots_total", "stmkvd_wal_torn_tails_total",
	"stmkvd_wal_truncated_segments_total", "stmkvd_wal_writev_max_records",
	"stmkvd_wal_writev_records_total", "stmkvd_wal_writev_total",
	"stmkvd_write_batch_fallbacks_total", "stmkvd_write_batched_commands_total",
	"stmkvd_write_batches_total",
}

// TestMetricsPageHasNoEmptyFamilies scrapes exactly what -serve-metrics
// serves for a durable store behind a running server, after some traffic:
// every # TYPE family must carry at least one sample, and the families must
// be the daemon's own.
func TestMetricsPageHasNoEmptyFamilies(t *testing.T) {
	store, _, err := kv.Open(kv.Config{Shards: 4, Buckets: 64}, kv.DurableConfig{
		Dir: t.TempDir(), FsyncBatch: 8, FsyncInterval: time.Millisecond, IncrementalSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
		if err := store.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	c, err := kvload.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set([]byte("a"), []byte("5")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Transfer([]byte("a"), []byte("b"), 1); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	metricsHandler(store, srv, false).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}

	samples := map[string]int{}
	var families []string
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name := strings.Fields(f)[0]
			families = append(families, name)
			samples[name] += 0
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		name, _, _ := strings.Cut(strings.Fields(line)[0], "{")
		if _, ok := samples[name]; !ok { // a histogram's series
			name = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		}
		samples[name]++
	}
	for _, f := range families {
		if samples[f] == 0 {
			t.Errorf("family %s has HELP/TYPE but no sample", f)
		}
	}
	sort.Strings(families)
	if got, want := strings.Join(families, "\n"), strings.Join(servedFamilies, "\n"); got != want {
		t.Errorf("served families differ from the daemon's list:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
