package wal

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitScaling drives concurrent append+Sync writers through one
// shard log and checks that group commit actually amortizes: with more
// writers than the batch, each fsync must cover several records. Absolute
// throughput depends on the disk, so only the grouping ratio is asserted.
func TestGroupCommitScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent group-commit scaling")
	}
	for _, tc := range []struct {
		writers, batch int
		minGroup       float64
	}{
		{1, 8, 1},  // a lone writer cannot group
		{8, 8, 2},  // the batch can fill; groups must form
		{32, 8, 2}, // extra writers ride along past the batch target
	} {
		dir := t.TempDir()
		m, _, err := Recover(Options{Dir: dir, FsyncBatch: tc.batch, FsyncInterval: 200 * time.Microsecond}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(1); err != nil {
			t.Fatal(err)
		}
		l := m.Log()
		var ops atomic.Uint64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < tc.writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				op := []Op{{Key: []byte("key"), Val: []byte("value-0123456789")}}
				for {
					select {
					case <-stop:
						return
					default:
					}
					lsn, err := l.AppendCommit(op)
					if err != nil {
						t.Error(err)
						return
					}
					if err := l.Sync(lsn); err != nil {
						t.Error(err)
						return
					}
					ops.Add(1)
				}
			}()
		}
		time.Sleep(300 * time.Millisecond)
		close(stop)
		wg.Wait()
		n, fs := ops.Load(), l.fsyncs.Load()
		grp := 0.0
		if fs > 0 {
			grp = float64(l.flushedRecs.Load()) / float64(fs)
		}
		t.Logf("writers=%d batch=%d: %d syncs, %d fsyncs, %.1f records/fsync", tc.writers, tc.batch, n, fs, grp)
		if fs == 0 || n == 0 {
			t.Fatalf("writers=%d batch=%d: no progress (%d syncs, %d fsyncs)", tc.writers, tc.batch, n, fs)
		}
		if grp < tc.minGroup {
			t.Errorf("writers=%d batch=%d: %.1f records/fsync, want >= %.0f", tc.writers, tc.batch, grp, tc.minGroup)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
