package wal

import (
	"sync"
	"testing"
	"time"
)

// TestGroupWindow pins the appender's group window: it opens on the first
// unsatisfied durability request and closes when FsyncBatch records are
// waiting, when every appended record is requested, or when FsyncInterval has
// passed — at once when the options rule out lingering — and a request that
// is already durable never opens one.
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
		// Nine records are appended before anyone syncs, and only the first
		// eight are requested, concurrently. The newest record stays
		// unrequested, so the last-request rule cannot fire: only the batch
		// rule (eight records waiting) closes the window before the interval.
		const interval = time.Second
		l := openTestLog(t, Options{FsyncBatch: 8, FsyncInterval: interval})
		defer l.Close()
		lsns := make([]uint64, 9)
		for i := range lsns {
			lsn, err := l.AppendCommit(testOps(i))
			if err != nil {
				t.Fatal(err)
			}
			lsns[i] = lsn
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = l.Sync(lsns[i])
			}(i)
		}
		wg.Wait()
		took := time.Since(start)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if took >= interval/4 {
			t.Fatalf("8 syncs at batch 8 took %v: the full batch did not close the %v window", took, interval)
		}
		if got := l.fsyncs.Load(); got != 1 {
			t.Fatalf("%d fsyncs for one full batch, want 1", got)
		}
	})

	t.Run("lone request does not linger", func(t *testing.T) {
		const interval = time.Second
		l := openTestLog(t, Options{FsyncBatch: 8, FsyncInterval: interval})
		defer l.Close()
		if took := syncAll(t, l, 1); took >= interval/4 {
			t.Fatalf("a lone append+Sync took %v with a %v interval: the window waited for writers that do not exist", took, interval)
		}
		if got := l.fsyncs.Load(); got != 1 {
			t.Fatalf("%d fsyncs for one lone commit, want 1", got)
		}
	})

	// appendTwo appends two records and returns their LSNs.
	appendTwo := func(t *testing.T, l *Log) (uint64, uint64) {
		t.Helper()
		r1, err := l.AppendCommit(testOps(1))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := l.AppendCommit(testOps(2))
		if err != nil {
			t.Fatal(err)
		}
		return r1, r2
	}

	t.Run("interval closes the window", func(t *testing.T) {
		const interval = 30 * time.Millisecond
		l := openTestLog(t, Options{FsyncBatch: 8, FsyncInterval: interval})
		defer l.Close()
		r1, r2 := appendTwo(t, l)
		start := time.Now()
		if err := l.Sync(r1); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < interval {
			t.Fatalf("Sync(r1) returned after %v with r2 appended but unrequested, before the %v window closed", took, interval)
		}
		if got := l.fsyncs.Load(); got != 1 {
			t.Fatalf("%d fsyncs for one window, want 1", got)
		}
		if got := l.SyncedLSN(); got < r2 {
			t.Fatalf("synced LSN %d after the window: its fsync did not cover r2 (%d)", got, r2)
		}
	})

	t.Run("last request closes the window", func(t *testing.T) {
		const interval = time.Second
		l := openTestLog(t, Options{FsyncBatch: 8, FsyncInterval: interval})
		defer l.Close()
		r1, r2 := appendTwo(t, l)
		start := time.Now()
		errc := make(chan error, 1)
		go func() {
			time.Sleep(5 * time.Millisecond)
			errc <- l.Sync(r2)
		}()
		if err := l.Sync(r1); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took >= interval/4 {
			t.Fatalf("Sync(r1) and Sync(r2) took %v: the window outlived its last visible writer's request (interval %v)", took, interval)
		}
		if got := l.fsyncs.Load(); got != 1 {
			t.Fatalf("%d fsyncs for both requests, want 1", got)
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
