package kv

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"memtx"
	"memtx/internal/wal"
)

func testDurableConfig(dir string) DurableConfig {
	return DurableConfig{Dir: dir, FsyncBatch: 1}
}

func openTestStore(t *testing.T, dir string) (*Store, *RecoveryStats) {
	t.Helper()
	s, stats, err := Open(Config{Shards: 4, Buckets: 64}, testDurableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	return s, stats
}

func closeStore(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir)
	for i := 0; i < 200; i++ {
		s.Set([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d", i)))
	}
	for i := 0; i < 200; i += 3 {
		s.Delete([]byte(fmt.Sprintf("k%04d", i)))
	}
	if !s.CompareAndSet([]byte("k0001"), []byte("v0001"), []byte("swapped")) {
		t.Fatal("CAS did not swap")
	}
	// A CAS that does not swap must leave no trace in the log.
	if s.CompareAndSet([]byte("k0002"), []byte("wrong"), []byte("bad")) {
		t.Fatal("CAS swapped on mismatch")
	}
	want := s.Len()
	closeStore(t, s)

	s2, stats := openTestStore(t, dir)
	defer closeStore(t, s2)
	if stats.Records == 0 {
		t.Fatalf("no records replayed: %+v", stats)
	}
	if got := s2.Len(); got != want {
		t.Fatalf("reopened store has %d keys, want %d", got, want)
	}
	if v, ok := s2.Get([]byte("k0001")); !ok || string(v) != "swapped" {
		t.Fatalf("k0001 = %q %v, want swapped", v, ok)
	}
	if v, ok := s2.Get([]byte("k0002")); !ok || string(v) != "v0002" {
		t.Fatalf("k0002 = %q %v, want v0002", v, ok)
	}
	if _, ok := s2.Get([]byte("k0003")); ok {
		t.Fatal("deleted key survived reopen")
	}
}

// crossPair returns two keys that hash to different shards.
func crossPair(t *testing.T, s *Store) ([]byte, []byte) {
	t.Helper()
	a := []byte("acct-a")
	for i := 0; i < 1000; i++ {
		b := []byte(fmt.Sprintf("acct-b%03d", i))
		if s.KeyShard(b) != s.KeyShard(a) {
			return a, b
		}
	}
	t.Fatal("no cross-shard pair found")
	return nil, nil
}

func TestDurableCrossShardReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir)
	a, b := crossPair(t, s)
	s.Set(a, []byte("100"))
	s.Set(b, []byte("100"))
	// Cross-shard transfers: the pair's sum must survive any reboot.
	for i := 0; i < 50; i++ {
		err := s.Run(nil, memtx.TxOptions{}, [][]byte{a, b}, false, nil, func(t *Tx) error {
			if _, err := t.Add(a, -1); err != nil {
				return err
			}
			_, err := t.Add(b, 1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	closeStore(t, s)

	s2, stats := openTestStore(t, dir)
	defer closeStore(t, s2)
	if stats.Records == 0 {
		t.Fatalf("no records replayed: %+v", stats)
	}
	va, _ := s2.Get(a)
	vb, _ := s2.Get(b)
	if string(va) != "50" || string(vb) != "150" {
		t.Fatalf("transfer state %s/%s, want 50/150", va, vb)
	}
}

func TestDurableCheckpointTruncatesAndReplays(t *testing.T) {
	dir := t.TempDir()
	s, err := func() (*Store, error) {
		st, _, err := Open(Config{Shards: 2, Buckets: 64},
			DurableConfig{Dir: dir, FsyncBatch: 1, SegmentBytes: 512})
		return st, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Set([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d", i)))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Small segments: the checkpoint must have truncated covered ones.
	truncated := false
	for _, m := range s.WAL().ObsMetrics() {
		if m.Name == "stmkvd_wal_truncated_segments_total" && m.Value > 0 {
			truncated = true
		}
	}
	if !truncated {
		t.Fatal("checkpoint truncated no segments")
	}
	// Writes after the checkpoint replay over the snapshot on reboot.
	for i := 0; i < 20; i++ {
		s.Set([]byte(fmt.Sprintf("post%02d", i)), []byte("x"))
	}
	want := s.Len()
	closeStore(t, s)

	s2, _, err := Open(Config{Shards: 2, Buckets: 64}, testDurableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s2)
	if got := s2.Len(); got != want {
		t.Fatalf("after checkpoint+replay: %d keys, want %d", got, want)
	}
	if v, ok := s2.Get([]byte("post07")); !ok || string(v) != "x" {
		t.Fatalf("post-checkpoint write lost: %q %v", v, ok)
	}
}

func TestDurableSnapshotNewerThanLogTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir)
	for i := 0; i < 50; i++ {
		s.Set([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := s.Len()
	closeStore(t, s)

	// Delete every log segment, leaving only snapshots: the snapshot covers
	// LSNs past the (now empty) log tail, and recovery must come up at the
	// snapshot's LSN rather than replaying from scratch.
	segs, _ := filepath.Glob(filepath.Join(wal.LogDir(dir), "*.seg"))
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}

	s2, stats := openTestStore(t, dir)
	defer closeStore(t, s2)
	if stats.SnapshotPairs == 0 {
		t.Fatalf("no snapshot pairs loaded: %+v", stats)
	}
	if got := s2.Len(); got != want {
		t.Fatalf("snapshot-only recovery: %d keys, want %d", got, want)
	}
	// New writes must land at LSNs past the snapshot, and a second reopen
	// must see them.
	s2.Set([]byte("after"), []byte("reboot"))
	closeStore(t, s2)
	s3, _ := openTestStore(t, dir)
	defer closeStore(t, s3)
	if v, ok := s3.Get([]byte("after")); !ok || string(v) != "reboot" {
		t.Fatalf("post-recovery write lost: %q %v", v, ok)
	}
}

func TestDurableShardCountChangeRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir)
	closeStore(t, s)
	if _, _, err := Open(Config{Shards: 8, Buckets: 64}, testDurableConfig(dir)); err == nil {
		t.Fatal("shard count change accepted")
	}
}

func TestDurableShardLSNMetric(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, dir)
	defer closeStore(t, s)
	s.Set([]byte("k"), []byte("v"))
	found := false
	for _, m := range s.ObsMetrics() {
		if m.Name == "stmkv_shard_lsn" && m.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("stmkv_shard_lsn gauge missing or zero everywhere")
	}
}

func TestDurablePeriodicCheckpointer(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Config{Shards: 2, Buckets: 64},
		DurableConfig{Dir: dir, FsyncBatch: 1, SnapshotEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Set([]byte("k"), []byte("v"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		var snaps uint64
		for _, m := range s.WAL().ObsMetrics() {
			if m.Name == "stmkvd_wal_snapshots_total" {
				snaps = m.Value
			}
		}
		if snaps > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpointer wrote no snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	closeStore(t, s)
}

// TestDeferredSyncBatch drives writes through the deferred-durability path:
// commits return before their records are durable, and Wait makes them so.
func TestDeferredSyncBatch(t *testing.T) {
	dir := t.TempDir()
	// Nothing syncs a log until someone calls Sync, so durability advances
	// only through Wait — the batch just has to be too large to fill. The
	// interval stays small: it bounds how long Wait's group leader lingers.
	s, _, err := Open(Config{Shards: 4, Buckets: 64},
		DurableConfig{Dir: dir, FsyncBatch: 1 << 20, FsyncInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s)

	sb := s.NewSyncBatch()
	if sb == nil {
		t.Fatal("NewSyncBatch returned nil on a durable store")
	}
	if sb.Pending() {
		t.Fatal("fresh SyncBatch reports pending")
	}
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("d%04d", i))
		err := s.Run(nil, memtx.TxOptions{}, [][]byte{key}, false, sb, func(tx *Tx) error {
			tx.Set(key, []byte("v"))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := crossPair(t, s)
	err = s.Run(nil, memtx.TxOptions{}, [][]byte{a, b}, false, sb, func(tx *Tx) error {
		tx.Set(a, []byte("1"))
		tx.Set(b, []byte("2"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sb.Pending() {
		t.Fatal("SyncBatch not pending after deferred commits")
	}
	l := s.WAL().Log()
	if l.SyncedLSN() >= l.AppendedLSN() {
		t.Fatal("every record already durable before Wait; deferral did not defer")
	}

	if err := sb.Wait(); err != nil {
		t.Fatal(err)
	}
	if sb.Pending() {
		t.Fatal("SyncBatch still pending after Wait")
	}
	if l.SyncedLSN() != l.AppendedLSN() {
		t.Fatalf("synced %d != appended %d after Wait", l.SyncedLSN(), l.AppendedLSN())
	}
	// A second Wait with nothing noted is a no-op.
	if err := sb.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestDeferredSyncNilStore checks the nil-SyncBatch contract: a store
// without a WAL hands out nil, and the Defer entry points still run the
// transaction (callers hold one batch unconditionally).
func TestDeferredSyncNilStore(t *testing.T) {
	s := New(Config{Shards: 2, Buckets: 16})
	sb := s.NewSyncBatch()
	if sb != nil {
		t.Fatal("NewSyncBatch non-nil without a WAL")
	}
	if sb.Pending() {
		t.Fatal("nil SyncBatch pending")
	}
	if err := sb.Wait(); err != nil {
		t.Fatal(err)
	}
	err := s.Run(nil, memtx.TxOptions{}, [][]byte{[]byte("k")}, false, sb, func(tx *Tx) error {
		tx.Set([]byte("k"), []byte("v"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("deferred write lost: %q %v", v, ok)
	}
}

// TestCheckpointSyncsLogBeforeSnapshot pins the snapshot durability ordering:
// a checkpoint must make the log durable through every record whose effects
// its scan could have observed *before* the snapshot lands. Otherwise a crash
// after the rename but before the group fsync would recover snapshot state
// (e.g. one shard's half of a cross-shard transfer) backed by no durable
// record anywhere. Deferred commits leave records appended-but-unsynced, so
// the checkpoint itself must close the gap.
func TestCheckpointSyncsLogBeforeSnapshot(t *testing.T) {
	dir := t.TempDir()
	// Nothing syncs until someone calls Sync (batch too large to fill); the
	// small interval only bounds how long a group leader lingers.
	s, _, err := Open(Config{Shards: 4, Buckets: 64},
		DurableConfig{Dir: dir, FsyncBatch: 1 << 20, FsyncInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s)

	sb := s.NewSyncBatch()
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("cp%04d", i))
		err := s.Run(nil, memtx.TxOptions{}, [][]byte{key}, false, sb, func(tx *Tx) error {
			tx.Set(key, []byte("v"))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := crossPair(t, s)
	err = s.Run(nil, memtx.TxOptions{}, [][]byte{a, b}, false, sb, func(tx *Tx) error {
		tx.Set(a, []byte("1"))
		tx.Set(b, []byte("2"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l := s.WAL().Log()
	if l.SyncedLSN() >= l.AppendedLSN() {
		t.Fatal("every record already durable before the checkpoint; nothing to test")
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Quiescent store: the scan observed every published effect, so the log
	// must now be durable through its full appended prefix.
	if l.SyncedLSN() < l.AppendedLSN() {
		t.Fatalf("snapshot written with synced %d < appended %d — snapshot may hold non-durable effects",
			l.SyncedLSN(), l.AppendedLSN())
	}
	if err := sb.Wait(); err != nil {
		t.Fatal(err)
	}
}
