package wal

import (
	"memtx/internal/wal/walfs"

	"fmt"
	"sync"
	"testing"
	"time"

	"memtx/internal/chaos"
)

// pipelineChaos slows appends and fsyncs at random so the pipeline's reorder
// window — records parked in the queue while the appender is mid-write or
// mid-fsync — stays open as long as possible.
func pipelineChaos(t *testing.T, seed uint64) {
	t.Helper()
	cfg := chaos.Config{Seed: seed}
	cfg.Points[chaos.WALAppend] = chaos.PointConfig{DelayPPM: 300_000, MaxDelay: 100 * time.Microsecond}
	cfg.Points[chaos.WALFsync] = chaos.PointConfig{DelayPPM: 500_000, MaxDelay: 300 * time.Microsecond}
	chaos.Enable(chaos.New(cfg))
	t.Cleanup(chaos.Disable)
}

// TestPipelineLSNOrderMatchesReservation is the pipeline's core ordering
// property: under concurrent committers, a tiny queue (so enqueuers hit
// backpressure), injected delays, and tiny segments (so batches straddle
// rotations), the on-disk record sequence must be exactly the reservation
// order — strictly ascending LSNs with no gaps — and each LSN's payload must
// be the one written by the goroutine that reserved it.
func TestPipelineLSNOrderMatchesReservation(t *testing.T) {
	pipelineChaos(t, 0x9e3779b97f4a7c15)
	dir := t.TempDir()
	l := openTestLog(t, Options{
		Dir:           dir,
		FsyncBatch:    4,
		FsyncInterval: time.Millisecond,
		SegmentBytes:  512,
	})
	l.mu.Lock()
	l.queueCap = 8 // tiny queue: enqueuers hit back-pressure
	l.mu.Unlock()

	const (
		workers = 8
		perW    = 200
	)
	keyOf := func(w, i int) string { return fmt.Sprintf("w%02d-i%04d", w, i) }
	lsns := make([][]uint64, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lsns[w] = make([]uint64, perW)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				lsn, err := l.AppendCommit([]Op{{Key: []byte(keyOf(w, i)), Val: []byte{byte(w)}}})
				if err != nil {
					errs[w] = err
					return
				}
				lsns[w][i] = lsn
				// Sync intermittently so group leaders and pure enqueuers mix.
				if i%17 == 0 {
					if err := l.Sync(lsn); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	sc, err := ScanLog(walfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	const total = workers * perW
	if len(sc.Records) != total || sc.TornTail {
		t.Fatalf("scan: %d records (want %d), torn %v", len(sc.Records), total, sc.TornTail)
	}
	byLSN := make(map[uint64]string, total)
	for i, rec := range sc.Records {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d: on-disk order does not match reservation order", i, rec.LSN)
		}
		byLSN[rec.LSN] = string(rec.Ops[0].Key)
	}
	for w := 0; w < workers; w++ {
		for i, lsn := range lsns[w] {
			if got, want := byLSN[lsn], keyOf(w, i); got != want {
				t.Fatalf("LSN %d holds %q, but the reservation was for %q", lsn, got, want)
			}
		}
	}
	if l.writevCalls.Load() == 0 {
		t.Fatal("pipeline wrote no vectored batches")
	}
}

// TestPipelineSyncCoversQueue pins the checkpoint barrier's dependency: when
// Sync(lsn) returns, every record up to lsn must be durable on disk even if
// it was still parked in the append queue when Sync was called — the
// checkpointer syncs the observed LSN with commits racing through the queue,
// and a Sync that ignored queued records would let a snapshot outrun its log.
func TestPipelineSyncCoversQueue(t *testing.T) {
	pipelineChaos(t, 0xdeadbeefcafe)
	dir := t.TempDir()
	// A huge batch target and no interval: nothing fsyncs until a Sync asks.
	l := openTestLog(t, Options{Dir: dir, FsyncBatch: 1 << 20})

	const n = 300
	var last uint64
	for i := 0; i < n; i++ {
		lsn, err := l.AppendCommit(testOps(i))
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if err := l.Sync(last); err != nil {
		t.Fatal(err)
	}
	if got := l.SyncedLSN(); got < last {
		t.Fatalf("synced LSN %d < appended %d after Sync", got, last)
	}
	if l.fsyncs.Load() == 0 {
		t.Fatal("Sync completed without an fsync")
	}
	// The log is still open; the scan must already see everything synced.
	sc, err := ScanLog(walfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Records) != n || sc.LastLSN != last {
		t.Fatalf("after Sync(%d): scan found %d records, last %d — queued records escaped the sync", last, len(sc.Records), sc.LastLSN)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
