package kv

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"memtx/internal/wal"
	"memtx/internal/wal/walfs"
)

// TestCrossShardCommitAppendsOneRecord pins the store-wide log's encoding of
// a cross-shard commit: one record, one LSN, carrying every participant's ops
// — so a crash keeps the whole transaction or none of it and the commit waits
// on one fsync.
func TestCrossShardCommitAppendsOneRecord(t *testing.T) {
	mem := walfs.NewMem()
	s, _, err := Open(Config{Shards: 2, Buckets: 64}, DurableConfig{Dir: "wal", FS: mem, FsyncBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 2)
	for probe := 0; keys[0] == nil || keys[1] == nil; probe++ {
		k := []byte(fmt.Sprintf("k%03d", probe))
		keys[s.KeyShard(k)] = k
	}
	const commits = 3
	before := walMetric(t, s, "stmkvd_wal_appends_total")
	for i := 0; i < commits; i++ {
		err := s.AtomicKeys(keys, func(t *Tx) error {
			for _, k := range keys {
				t.Set(k, []byte(fmt.Sprint(i)))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := walMetric(t, s, "stmkvd_wal_appends_total") - before; got != commits {
		t.Fatalf("%d cross-shard commits appended %d records, want one each", commits, got)
	}
	closeStore(t, s)

	sc, err := wal.ScanLog(mem, wal.LogDir("wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Records) != commits {
		t.Fatalf("log holds %d records, want %d", len(sc.Records), commits)
	}
	for _, rec := range sc.Records {
		if len(rec.Ops) != 2 || s.KeyShard(rec.Ops[0].Key) == s.KeyShard(rec.Ops[1].Key) {
			t.Fatalf("record %d holds %d ops, want one per participant shard", rec.LSN, len(rec.Ops))
		}
	}
}

// TestLoneDurableWriteDoesNotLinger: a write with no other writer in flight
// is acknowledged after its own fsync, not after the group window — there is
// nobody the window could wait for.
func TestLoneDurableWriteDoesNotLinger(t *testing.T) {
	const interval = 200 * time.Millisecond
	s, _, err := Open(Config{Shards: 4, Buckets: 64},
		DurableConfig{Dir: "wal", FS: walfs.NewMem(), FsyncBatch: 8, FsyncInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s)
	// Best of a few: scheduling noise only ever adds time.
	best := time.Hour
	for i := 0; i < 3; i++ {
		start := time.Now()
		s.Set([]byte(fmt.Sprintf("lone-%d", i)), []byte("v"))
		best = min(best, time.Since(start))
	}
	if best >= 50*time.Millisecond {
		t.Fatalf("a lone durable Set took %v at best with FsyncBatch 8 and a %v interval: the group window lingered", best, interval)
	}
}

// TestCheckpointKeepsPeerShardRecords pins truncation of the shared log:
// when one shard's checkpoint lands and another's fails, segments holding the
// failed shard's uncovered records must survive, and a reopen must recover
// them — truncation goes only as far as the lowest coverage over all shards.
func TestCheckpointKeepsPeerShardRecords(t *testing.T) {
	flt := walfs.NewFault(walfs.NewMem())
	cfg := Config{Shards: 2, Buckets: 64}
	dcfg := DurableConfig{Dir: "wal", FS: flt, FsyncBatch: 1, SegmentBytes: 512}
	s, _, err := Open(cfg, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave both shards' writes so every segment mixes them.
	var onShard [2][][]byte
	for probe := 0; len(onShard[0]) < 40 || len(onShard[1]) < 40; probe++ {
		k := []byte(fmt.Sprintf("key-%04d", probe))
		sid := s.KeyShard(k)
		if len(onShard[sid]) < 40 {
			onShard[sid] = append(onShard[sid], k)
		}
	}
	write := func(from, to int) {
		for i := from; i < to; i++ {
			for sid := range onShard {
				s.Set(onShard[sid][i], []byte(fmt.Sprintf("v%d", i)))
			}
		}
	}
	write(0, 20)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	write(20, 40)
	// Shard 1's snapshot directory fails: shard 0 checkpoints past every
	// record, shard 1 stays at its first snapshot.
	flt.FailPath(wal.ShardDir("wal", 1), syscall.EIO)
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint with shard 1's directory failing returned nil")
	}
	flt.ClearPathFaults()
	segs, err := flt.ReadDir(wal.LogDir("wal"))
	if err != nil {
		t.Fatal(err)
	}
	closeStore(t, s)

	s, _, err = Open(cfg, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s)
	for sid := range onShard {
		for i, k := range onShard[sid] {
			if v, ok := s.Get(k); !ok || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("shard %d key %s = (%q, %v) after reopen with %d segments: a checkpoint truncated records another shard's snapshot does not cover",
					sid, k, v, ok, len(segs))
			}
		}
	}
	// Once every shard checkpoints, the shared segments do go.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := walMetric(t, s, "stmkvd_wal_truncated_segments_total"); n == 0 {
		t.Fatal("no segment truncated once every shard's snapshot covered the log")
	}
}

// walGoroutines counts the live goroutines started by Open or by the wal
// package — the census below must not see other tests' stragglers.
func walGoroutines() int {
	buf := make([]byte, 1<<20)
	for n := runtime.Stack(buf, true); n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("created by memtx/internal/kv.Open")) ||
			bytes.Contains(g, []byte("created by memtx/internal/wal.")) {
			count++
		}
	}
	return count
}

// TestDurableStoreGoroutines is the goroutine census: a durable store runs one
// appender for its one log and nothing else (no checkpointer or scrubber
// asked for) whatever its shard count, so durability waits have no worker to
// be handed to.
func TestDurableStoreGoroutines(t *testing.T) {
	const shards = 16
	base := walGoroutines()
	s, _, err := Open(Config{Shards: shards, Buckets: 64},
		DurableConfig{Dir: "wal", FS: walfs.NewMem(), FsyncBatch: 8, FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s)
	// Recovery's scan goroutines have signalled completion but may not have
	// exited yet; give them a moment.
	var got int
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if got = walGoroutines() - base; got == 1 {
			return
		}
	}
	t.Fatalf("Open started %d goroutines for %d shards, want one appender", got, shards)
}

// TestIdleShardCheckpointIsSkipped: a checkpoint of a shard with nothing
// appended since the snapshot on disk writes nothing; one write makes exactly
// that shard's next checkpoint real; and every step recovers identically.
func TestIdleShardCheckpointIsSkipped(t *testing.T) {
	for _, incr := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incr), func(t *testing.T) {
			cfg := Config{Shards: 4, Buckets: 64}
			dcfg := DurableConfig{Dir: t.TempDir(), FsyncBatch: 1, IncrementalSnapshots: incr}
			open := func() *Store {
				s, _, err := Open(cfg, dcfg)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			counters := func(s *Store) (snaps, bytes uint64) {
				return walMetric(t, s, "stmkvd_wal_snapshots_total"), walMetric(t, s, "stmkvd_wal_snapshot_bytes_total")
			}
			checkpoint := func(s *Store) {
				t.Helper()
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			// reopen closes s and recovers a new store, which must hold the
			// same contents.
			reopen := func(s *Store) *Store {
				t.Helper()
				want := dumpStore(t, s)
				closeStore(t, s)
				s = open()
				if got := dumpStore(t, s); !bytes.Equal(got, want) {
					t.Fatalf("recovered contents differ: %d bytes, want %d", len(got), len(want))
				}
				return s
			}

			s := open()
			for i := 0; i < 100; i++ {
				s.Set([]byte(fmt.Sprintf("key-%03d", i)), []byte("v"))
			}
			checkpoint(s)
			snaps1, bytes1 := counters(s)
			if snaps1 != 4 {
				t.Fatalf("first checkpoint wrote %d snapshots, want 4", snaps1)
			}
			checkpoint(s)
			if snaps, bytes := counters(s); snaps != snaps1 || bytes != bytes1 {
				t.Fatalf("idle checkpoint wrote %d snapshots / %d bytes", snaps-snaps1, bytes-bytes1)
			}

			// The recovered store starts idle too: its logs reopen at the
			// snapshots' LSNs.
			s = reopen(s)
			checkpoint(s)
			if snaps, bytes := counters(s); snaps != 0 || bytes != 0 {
				t.Fatalf("idle checkpoint after recovery wrote %d snapshots / %d bytes", snaps, bytes)
			}

			s.Set([]byte("key-000"), []byte("rewritten"))
			checkpoint(s)
			if snaps, bytes := counters(s); snaps != 1 || bytes == 0 {
				t.Fatalf("checkpoint after one write wrote %d snapshots / %d bytes, want the written shard's only", snaps, bytes)
			}
			s = reopen(s)
			if v, ok := s.Get([]byte("key-000")); !ok || string(v) != "rewritten" {
				t.Fatalf("key-000 = %q %v after recovery, want rewritten", v, ok)
			}

			// Writes to one shard, then two checkpoints: the idle shards'
			// old snapshots must not pin the log, so every segment wholly
			// below the second checkpoint is gone and only the active one
			// remains.
			s.Set([]byte("key-000"), []byte("again"))
			checkpoint(s)
			s.Set([]byte("key-000"), []byte("and again"))
			checkpoint(s)
			if segs, err := filepath.Glob(filepath.Join(wal.LogDir(dcfg.Dir), "*.seg")); err != nil || len(segs) != 1 {
				t.Fatalf("segments after checkpoints of a one-shard write stream: %v (%v), want only the active one", segs, err)
			}
			closeStore(t, s)
		})
	}
}
