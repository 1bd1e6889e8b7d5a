package kv

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

// walMetric digs one counter/gauge out of the manager's metric export.
func walMetric(t *testing.T, s *Store, name string) uint64 {
	t.Helper()
	for _, m := range s.WAL().ObsMetrics() {
		if m.Name == name && len(m.Labels) == 0 {
			return m.Value
		}
	}
	t.Fatalf("metric %s not exported", name)
	return 0
}

// dumpStore renders the store's full contents as a deterministic sorted
// "key=value" byte blob, the differential unit for recovery comparisons.
func dumpStore(t *testing.T, s *Store) []byte {
	t.Helper()
	var lines []string
	for sid := range s.shards {
		pairs, err := s.collectShardPairs(sid)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range pairs {
			lines = append(lines, fmt.Sprintf("%q=%q", kv[0], kv[1]))
		}
	}
	sort.Strings(lines)
	var buf bytes.Buffer
	for _, l := range lines {
		buf.WriteString(l)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// incrementalWorkload drives a deterministic three-phase write/delete mix,
// checkpointing between phases via step.
func incrementalWorkload(t *testing.T, s *Store, step func(phase int)) {
	t.Helper()
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	for i := 0; i < 800; i++ {
		s.Set(key(i), []byte(fmt.Sprintf("v1-%05d", i)))
	}
	step(1)
	for i := 0; i < 120; i++ {
		s.Set(key(i*3), []byte(fmt.Sprintf("v2-%05d", i)))
	}
	for i := 0; i < 40; i++ {
		s.Delete(key(i * 7))
	}
	step(2)
	for i := 780; i < 900; i++ {
		s.Set(key(i), []byte(fmt.Sprintf("v3-%05d", i)))
	}
	for i := 0; i < 25; i++ {
		s.Delete(key(i * 11))
	}
	step(3)
}

// TestIncrementalRecoveryMatchesFull is the differential check: the same
// deterministic workload, checkpointed through incremental merge snapshots in
// one directory and full-scan snapshots in another, must recover to
// byte-identical state.
func TestIncrementalRecoveryMatchesFull(t *testing.T) {
	dirInc, dirFull := t.TempDir(), t.TempDir()
	cfg := Config{Shards: 4, Buckets: 64}
	dcfg := func(dir string, incr bool) DurableConfig {
		return DurableConfig{Dir: dir, FsyncBatch: 1, IncrementalSnapshots: incr, fullSnapshotEvery: 100}
	}

	run := func(dir string, incr bool) {
		s, _, err := Open(cfg, dcfg(dir, incr))
		if err != nil {
			t.Fatal(err)
		}
		incrementalWorkload(t, s, func(int) {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
		closeStore(t, s)
	}
	run(dirInc, true)
	run(dirFull, false)

	sInc, statsInc, err := Open(cfg, dcfg(dirInc, true))
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, sInc)
	sFull, _, err := Open(cfg, dcfg(dirFull, false))
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, sFull)

	if statsInc.SnapshotPairs == 0 {
		t.Fatal("incremental store recovered without snapshot pairs")
	}
	got, want := dumpStore(t, sInc), dumpStore(t, sFull)
	if !bytes.Equal(got, want) {
		t.Fatalf("incremental-chain recovery diverges from full-snapshot recovery:\nincremental %d bytes, full %d bytes", len(got), len(want))
	}
}

// TestIncrementalCheckpointSerializesOnlyDirty pins the point of the feature:
// after a small delta on a large store, the next checkpoint must merge (not
// rescan) — carrying the unchanged pairs from the previous snapshot and
// serializing only the dirty keys — and write far fewer fresh bytes than the
// full snapshot did.
func TestIncrementalCheckpointSerializesOnlyDirty(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Config{Shards: 4, Buckets: 64},
		DurableConfig{Dir: dir, FsyncBatch: 1, IncrementalSnapshots: true, fullSnapshotEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	const total = 2000
	for i := 0; i < total; i++ {
		s.Set(key(i), bytes.Repeat([]byte{'x'}, 64))
	}
	// First checkpoint: no previous snapshot, so it must fall back to a full
	// scan even with incremental snapshots enabled.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := walMetric(t, s, "stmkvd_wal_snapshots_incremental_total"); got != 0 {
		t.Fatalf("first checkpoint counted as incremental (%d)", got)
	}
	fullBytes := walMetric(t, s, "stmkvd_wal_snapshot_bytes_total")

	// Small delta: rewrite a handful, delete a couple.
	const rewrites, deletes = 12, 3
	for i := 0; i < rewrites; i++ {
		s.Set(key(i*50), []byte("rewritten"))
	}
	for i := 0; i < deletes; i++ {
		s.Delete(key(1000 + i))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := walMetric(t, s, "stmkvd_wal_snapshots_incremental_total"); got != 4 {
		t.Fatalf("expected 4 incremental shard checkpoints, got %d", got)
	}
	dirty := walMetric(t, s, "stmkvd_wal_snapshot_dirty_pairs_total")
	reused := walMetric(t, s, "stmkvd_wal_snapshot_reused_pairs_total")
	if dirty != rewrites {
		t.Fatalf("incremental checkpoints serialized %d dirty pairs, want %d", dirty, rewrites)
	}
	if reused != total-rewrites-deletes {
		t.Fatalf("incremental checkpoints reused %d pairs, want %d", reused, total-rewrites-deletes)
	}
	incrBytes := walMetric(t, s, "stmkvd_wal_snapshot_bytes_total") - fullBytes
	// The merged file is still full-size on disk, but the *newly serialized*
	// pair payload is tiny; bytes written are dominated by the carried-over
	// stream, so just sanity-bound: the incremental pass must not exceed the
	// full pass (it rewrote the same state minus deletions).
	if incrBytes > fullBytes {
		t.Fatalf("incremental checkpoint wrote %d bytes > full %d", incrBytes, fullBytes)
	}
	closeStore(t, s)

	// The merged snapshot chain must recover the exact post-delta state.
	s2, stats, err := Open(Config{Shards: 4, Buckets: 64},
		DurableConfig{Dir: dir, FsyncBatch: 1, IncrementalSnapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s2)
	if stats.SnapshotPairs != total-deletes {
		t.Fatalf("recovered %d snapshot pairs, want %d", stats.SnapshotPairs, total-deletes)
	}
	if v, ok := s2.Get(key(0)); !ok || string(v) != "rewritten" {
		t.Fatalf("key-0 = %q %v after recovery, want rewritten", v, ok)
	}
	if _, ok := s2.Get(key(1000)); ok {
		t.Fatal("deleted key survived the incremental merge")
	}
	if got := s2.Len(); got != total-deletes {
		t.Fatalf("recovered store has %d keys, want %d", got, total-deletes)
	}
}

// TestIncrementalFullCadence verifies the periodic full-scan fallback: with
// fullSnapshotEvery=2 every other checkpoint per shard must be a full scan.
func TestIncrementalFullCadence(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Config{Shards: 2, Buckets: 64},
		DurableConfig{Dir: dir, FsyncBatch: 1, IncrementalSnapshots: true, fullSnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s)
	for round := 0; round < 6; round++ {
		for i := 0; i < 32; i++ {
			s.Set([]byte(fmt.Sprintf("r%d-k%03d", round, i)), []byte("v"))
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	snaps := walMetric(t, s, "stmkvd_wal_snapshots_total")
	incr := walMetric(t, s, "stmkvd_wal_snapshots_incremental_total")
	// Cadence per shard: full (no prev), incr, full, incr, full, incr.
	if snaps != 12 {
		t.Fatalf("%d shard checkpoints, want 12", snaps)
	}
	if incr != 6 {
		t.Fatalf("%d incremental checkpoints with fullSnapshotEvery=2, want 6", incr)
	}
}

// TestDirtyOverflowFallsBackToFullScan forces the dirty set past its cap and
// checks the next checkpoint is a full scan that still recovers everything.
func TestDirtyOverflowFallsBackToFullScan(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Config{Shards: 1, Buckets: 64},
		DurableConfig{Dir: dir, FsyncBatch: 1, IncrementalSnapshots: true, fullSnapshotEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	s.Set([]byte("seed"), []byte("1"))
	if err := s.Checkpoint(); err != nil { // full: no previous snapshot
		t.Fatal(err)
	}
	// Simulate overflow directly (writing 128k keys would dominate the test):
	// an overflowed set means the tracking lost keys, so the next checkpoint
	// must not trust it.
	sh := &s.shards[0]
	sh.dmu.Lock()
	sh.dirty = nil
	sh.dirtyOver = true
	sh.dmu.Unlock()
	s.Set([]byte("after-overflow"), []byte("2"))
	before := walMetric(t, s, "stmkvd_wal_snapshots_incremental_total")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := walMetric(t, s, "stmkvd_wal_snapshots_incremental_total"); got != before {
		t.Fatal("overflowed dirty set was checkpointed incrementally")
	}
	closeStore(t, s)

	s2, _, err := Open(Config{Shards: 1, Buckets: 64},
		DurableConfig{Dir: dir, FsyncBatch: 1, IncrementalSnapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s2)
	if v, ok := s2.Get([]byte("after-overflow")); !ok || string(v) != "2" {
		t.Fatalf("after-overflow = %q %v, want 2", v, ok)
	}
}
