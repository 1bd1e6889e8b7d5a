package wal

import (
	"sync"
	"testing"
	"time"
)

// TestGroupWindow pins the appender's group window: it opens on the first
// unsatisfied durability request and closes when FsyncBatch records are
// waiting or FsyncInterval has passed — at once when the options rule out
// lingering — and a request that is already durable never opens one.
func TestGroupWindow(t *testing.T) {
	// syncAll runs n concurrent append+Sync writers and returns how long the
	// slowest took.
	syncAll := func(t *testing.T, l *Log, n int) time.Duration {
		t.Helper()
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				lsn, err := l.AppendCommit(testOps(i))
				if err == nil {
					err = l.Sync(lsn)
				}
				errs[i] = err
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}

	t.Run("batch full closes the window", func(t *testing.T) {
		const interval = time.Second
		l := openTestLog(t, Options{FsyncBatch: 8, FsyncInterval: interval})
		defer l.Close()
		if took := syncAll(t, l, 8); took >= interval/4 {
			t.Fatalf("8 writers at batch 8 took %v: the full batch did not close the %v window", took, interval)
		}
		if got := l.fsyncs.Load(); got == 0 || got > 2 {
			t.Fatalf("%d fsyncs for one full batch, want 1 or 2", got)
		}
	})

	t.Run("interval closes the window", func(t *testing.T) {
		const interval = 30 * time.Millisecond
		l := openTestLog(t, Options{FsyncBatch: 8, FsyncInterval: interval})
		defer l.Close()
		if took := syncAll(t, l, 3); took < interval {
			t.Fatalf("3 writers at batch 8 returned after %v, before the %v window closed", took, interval)
		}
		if got := l.fsyncs.Load(); got == 0 || got > 2 {
			t.Fatalf("%d fsyncs for one partial batch, want 1 or 2", got)
		}
	})

	t.Run("batch 1 does not linger", func(t *testing.T) {
		const interval = time.Second
		l := openTestLog(t, Options{FsyncBatch: 1, FsyncInterval: interval})
		defer l.Close()
		if took := syncAll(t, l, 1); took >= interval/4 {
			t.Fatalf("batch 1 sync took %v with a %v interval: it lingered", took, interval)
		}
		if got := l.fsyncs.Load(); got != 1 {
			t.Fatalf("%d fsyncs for one batch-1 commit, want 1", got)
		}
	})

	t.Run("batch 0 fsyncs only on Flush", func(t *testing.T) {
		l := openTestLog(t, Options{FsyncBatch: 0, FsyncInterval: time.Second})
		defer l.Close()
		if took := syncAll(t, l, 4); took >= time.Second/4 {
			t.Fatalf("batch 0 sync took %v: it lingered", took)
		}
		if got := l.fsyncs.Load(); got != 0 {
			t.Fatalf("batch 0 issued %d fsyncs before Flush", got)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := l.fsyncs.Load(); got != 1 {
			t.Fatalf("Flush issued %d fsyncs, want 1", got)
		}
	})

	t.Run("durable lsn does not wake the appender", func(t *testing.T) {
		l := openTestLog(t, Options{FsyncBatch: 8, FsyncInterval: time.Millisecond})
		defer l.Close()
		lsn, err := l.AppendCommit(testOps(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
		before := l.fsyncs.Load()
		for i := 0; i < 3; i++ {
			if err := l.Sync(lsn); err != nil {
				t.Fatal(err)
			}
		}
		// Outlast a window, had one been opened.
		time.Sleep(5 * time.Millisecond)
		if got := l.fsyncs.Load(); got != before {
			t.Fatalf("re-syncing a durable LSN issued %d more fsyncs", got-before)
		}
		l.mu.Lock()
		open := !l.windowEnd.IsZero()
		l.mu.Unlock()
		if open {
			t.Fatal("re-syncing a durable LSN opened a group window")
		}
	})
}
