package wal

import (
	"memtx/internal/wal/walfs"

	"fmt"
	"sync"
	"testing"
	"time"
)

func testOps(i int) []Op {
	return []Op{{Key: []byte(fmt.Sprintf("key-%05d", i)), Val: []byte(fmt.Sprintf("val-%05d", i))}}
}

func openTestLog(t *testing.T, opts Options) *Log {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	l, err := openLog(opts.Dir, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLogAppendSyncScan(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, FsyncBatch: 1})
	for i := 0; i < 10; i++ {
		lsn, err := l.AppendCommit(testOps(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
		if l.SyncedLSN() < lsn {
			t.Fatalf("synced %d < lsn %d", l.SyncedLSN(), lsn)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := ScanLog(walfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Records) != 10 || sc.LastLSN != 10 || sc.TornTail {
		t.Fatalf("scan: %d records, last %d, torn %v", len(sc.Records), sc.LastLSN, sc.TornTail)
	}
	for i, rec := range sc.Records {
		if rec.LSN != uint64(i+1) || string(rec.Ops[0].Key) != fmt.Sprintf("key-%05d", i) {
			t.Fatalf("record %d: %+v", i, rec)
		}
	}
}

func TestLogGroupCommitBatches(t *testing.T) {
	l := openTestLog(t, Options{FsyncBatch: 8, FsyncInterval: 50 * time.Millisecond})
	const n = 64
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
	fsyncs := l.fsyncs.Load()
	if fsyncs == 0 || fsyncs >= n {
		t.Fatalf("expected grouped fsyncs, got %d for %d commits", fsyncs, n)
	}
	if got := l.flushedRecs.Load(); got != n {
		t.Fatalf("flushed %d records, want %d", got, n)
	}
	if l.maxGroup.Load() < 2 {
		t.Fatalf("max group %d, expected >= 2", l.maxGroup.Load())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogNoFsyncMode(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, FsyncBatch: 0})
	lsn, err := l.AppendCommit(testOps(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(lsn); err != nil {
		t.Fatal(err)
	}
	if got := l.fsyncs.Load(); got != 0 {
		t.Fatalf("no-fsync mode issued %d fsyncs", got)
	}
	// Close still makes everything durable for a clean shutdown.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.fsyncs.Load() == 0 {
		t.Fatal("Close did not fsync")
	}
	sc, err := ScanLog(walfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Records) != 1 {
		t.Fatalf("scan found %d records", len(sc.Records))
	}
}

func TestLogRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	l := openTestLog(t, Options{Dir: dir, FsyncBatch: 1, SegmentBytes: 128})
	var last uint64
	for i := 0; i < 20; i++ {
		lsn, err := l.AppendCommit(testOps(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if l.rotations.Load() == 0 {
		t.Fatal("no rotations despite tiny segment size")
	}
	names, err := segNames(walfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("expected several segments, got %v", names)
	}
	// Everything is covered: all but the active segment should go.
	if err := l.Truncate(last); err != nil {
		t.Fatal(err)
	}
	after, err := segNames(walfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 {
		t.Fatalf("truncate left %v", after)
	}
	if l.truncatedSeg.Load() != uint64(len(names)-1) {
		t.Fatalf("truncated %d, want %d", l.truncatedSeg.Load(), len(names)-1)
	}
	// The surviving log still scans clean.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanLog(walfs.OS(), dir); err != nil {
		t.Fatal(err)
	}
}

func TestLogTruncatePartialCoverage(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir, FsyncBatch: 1, SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		lsn, err := l.AppendCommit(testOps(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := segNames(walfs.OS(), dir)
	// Cover only up to just before the third segment: segments 1..2 get
	// deleted, later ones must survive.
	if len(names) < 4 {
		t.Fatalf("need >= 4 segments, got %v", names)
	}
	covered := names[2] - 1
	if err := l.Truncate(covered); err != nil {
		t.Fatal(err)
	}
	after, _ := segNames(walfs.OS(), dir)
	if len(after) != len(names)-2 || after[0] != names[2] {
		t.Fatalf("truncate(%d): before %v after %v", covered, names, after)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := ScanLog(walfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Records[0].LSN != names[2] || sc.LastLSN != 20 {
		t.Fatalf("post-truncate scan: first %d last %d", sc.Records[0].LSN, sc.LastLSN)
	}
}
