package kv

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"memtx/internal/wal/walfs"
)

// slowSyncFS is a walfs.FS whose files take delay to fsync.
type slowSyncFS struct {
	walfs.FS
	delay time.Duration
}

func (fs slowSyncFS) Create(path string, excl bool) (walfs.File, error) {
	f, err := fs.FS.Create(path, excl)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, fs.delay}, nil
}

type slowSyncFile struct {
	walfs.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestCrossShardDurabilityWaitsOverlap pins the point of posting before
// waiting: a commit spanning two shards pays about one fsync, not two — both
// shards' appenders are fsyncing while the committer waits on the first.
func TestCrossShardDurabilityWaitsOverlap(t *testing.T) {
	const (
		syncDelay = 20 * time.Millisecond
		interval  = time.Millisecond
	)
	s, _, err := Open(Config{Shards: 2, Buckets: 64}, DurableConfig{
		Dir: "wal", FS: slowSyncFS{walfs.NewMem(), syncDelay}, FsyncBatch: 8, FsyncInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s)
	keys := make([][]byte, 2)
	for probe := 0; keys[0] == nil || keys[1] == nil; probe++ {
		k := []byte(fmt.Sprintf("k%03d", probe))
		keys[s.KeyShard(k)] = k
	}
	commit := func() time.Duration {
		start := time.Now()
		err := s.AtomicKeys(keys, func(t *Tx) error {
			for _, k := range keys {
				t.Set(k, []byte("v"))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	commit() // not timed: Open's flush of the fresh logs may still be in flight
	// Best of a few tries: scheduling noise only ever adds time, and two
	// back-to-back fsyncs can never take less than 2x the delay.
	best := time.Hour
	for try := 0; try < 5; try++ {
		if took := commit(); took < best {
			best = took
		}
	}
	if limit := syncDelay*16/10 + interval; best >= limit {
		t.Fatalf("two-shard commit took %v at best, want under %v: the shards' %v fsyncs did not overlap", best, limit, syncDelay)
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
// appender per shard and nothing else (no checkpointer or scrubber asked
// for), so durability waits have no worker to be handed to.
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
		if got = walGoroutines() - base; got == shards {
			return
		}
	}
	t.Fatalf("Open started %d goroutines for %d shards, want one appender per shard", got, shards)
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
			closeStore(t, s)
		})
	}
}
