package wal

import (
	"errors"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"memtx/internal/wal/walfs"
)

func countSyncs(ops []walfs.Op) int {
	n := 0
	for _, op := range ops {
		if op.Kind == walfs.OpSync {
			n++
		}
	}
	return n
}

// TestFsyncFailureWedgesLog is the fsyncgate regression: one failed fsync —
// with the kernel dropping the dirty pages — must wedge the log permanently.
// The log never re-fsyncs, never advances SyncedLSN, and every later append
// or sync fails with the original error; recovery sees only what was durable
// before the failure.
func TestFsyncFailureWedgesLog(t *testing.T) {
	inner := walfs.NewRecordingMem()
	flt := walfs.NewFault(inner)
	dir := LogDir("wal")
	l, err := openLog(dir, 1, Options{FS: flt, FsyncBatch: 1})
	if err != nil {
		t.Fatal(err)
	}

	lsn1, err := l.AppendCommit(testOps(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(lsn1); err != nil {
		t.Fatal(err)
	}
	syncsBefore := countSyncs(inner.Journal())

	flt.FailNextSync(dir, syscall.EIO, true)
	lsn2, err := l.AppendCommit(testOps(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(lsn2); err == nil {
		t.Fatal("sync after injected fsync failure returned nil")
	} else if !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync error %v does not unwrap to EIO", err)
	}

	if !l.Wedged() {
		t.Fatal("log not wedged after fsync failure")
	}
	if ferr := l.Failed(); !errors.Is(ferr, syscall.EIO) {
		t.Fatalf("Failed() = %v, want EIO chain", ferr)
	}
	if got := l.SyncedLSN(); got != lsn1 {
		t.Fatalf("SyncedLSN = %d after failed fsync, want pinned at %d", got, lsn1)
	}

	// The wedge is sticky: appends and syncs keep failing with the original
	// error and the log never issues another fsync (re-syncing after a failed
	// fsync would report pages durable that the kernel already dropped).
	if _, aerr := l.AppendCommit(testOps(3)); aerr == nil {
		if serr := l.Sync(lsn2 + 1); serr == nil || !errors.Is(serr, syscall.EIO) {
			t.Fatalf("append+sync on wedged log: sync err %v, want EIO chain", serr)
		}
	} else if !errors.Is(aerr, syscall.EIO) {
		t.Fatalf("append on wedged log: %v, want EIO chain", aerr)
	}
	if serr := l.Sync(lsn2); serr == nil || !errors.Is(serr, syscall.EIO) {
		t.Fatalf("re-sync on wedged log: %v, want EIO chain", serr)
	}
	if got := countSyncs(inner.Journal()); got != syncsBefore {
		t.Fatalf("log issued %d fsyncs after the failure (had %d); a wedged log must never re-fsync", got, syncsBefore)
	}
	if got := l.SyncedLSN(); got != lsn1 {
		t.Fatalf("SyncedLSN moved to %d on a wedged log", got)
	}
	l.Close()

	// Recovery sees exactly the pre-failure durable state: record 1 only —
	// record 2's pages were dropped with the failed fsync.
	sc, err := ScanLog(inner, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Records) != 1 || sc.Records[0].LSN != lsn1 {
		t.Fatalf("recovered %d records (last %d), want only record %d", len(sc.Records), sc.LastLSN, lsn1)
	}
}

// TestFsyncFailureFailsGroupOnce drives a full group-commit batch into one
// failing fsync: every waiter in the group gets the failure exactly once
// (their Sync returns the error), and none is ever resurrected by a later
// retry.
func TestFsyncFailureFailsGroupOnce(t *testing.T) {
	inner := walfs.NewMem()
	flt := walfs.NewFault(inner)
	dir := LogDir("wal")
	const group = 4
	l, err := openLog(dir, 1, Options{FS: flt, FsyncBatch: group, FsyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	flt.FailNextSync(dir, syscall.EIO, true)

	errs := make(chan error, group)
	for i := 0; i < group; i++ {
		go func(i int) {
			lsn, err := l.AppendCommit(testOps(i))
			if err == nil {
				err = l.Sync(lsn)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < group; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a group-commit waiter got a nil error from the failed fsync")
			}
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("waiter error %v does not unwrap to EIO", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("group-commit waiter hung after fsync failure")
		}
	}
	if got := l.SyncedLSN(); got != 0 {
		t.Fatalf("SyncedLSN = %d after a failed group fsync, want 0", got)
	}
	if !l.Wedged() {
		t.Fatal("log not wedged after group fsync failure")
	}
	l.Close()
}

// TestMidLogCorruptionStopsReplay flips one byte in a sealed (non-final)
// segment and asserts replay refuses the log with ErrCorrupt — a distinct,
// diagnosable failure — rather than silently truncating history: the
// corrupted file keeps its size, and the scrubber flags the same segment.
func TestMidLogCorruptionStopsReplay(t *testing.T) {
	mem := walfs.NewMem()
	dir := LogDir("wal")
	l, err := openLog(dir, 1, Options{FS: mem, FsyncBatch: 1, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SegmentBytes 1 rotates after every record: each record seals its own
	// segment.
	for i := 0; i < 6; i++ {
		lsn, err := l.AppendCommit(testOps(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := segNames(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 4 {
		t.Fatalf("only %d segments; rotation did not seal middle segments", len(names))
	}
	victim := filepath.Join(dir, segName(names[1]))
	b, err := mem.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := mem.WriteFile(victim, b); err != nil {
		t.Fatal(err)
	}
	sizeBefore, _ := mem.Size(victim)

	_, err = ScanLog(mem, dir)
	if err == nil {
		t.Fatal("replay over a corrupt sealed segment returned nil")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay error %v is not ErrCorrupt", err)
	}
	if size, _ := mem.Size(victim); size != sizeBefore {
		t.Fatalf("replay truncated the corrupt segment (%d -> %d bytes); corruption must never be silently repaired", sizeBefore, size)
	}
}

// TestScrubQuarantinesCorruptSegment corrupts a sealed segment of a live log
// and runs a scrub pass: the bad file must be quarantined (moved aside, bytes
// intact, the active segment untouched), replay must then succeed over the
// remaining segments, and a second pass must find nothing new.
func TestScrubQuarantinesCorruptSegment(t *testing.T) {
	mem := walfs.NewMem()
	opts := Options{Dir: "wal", FS: mem, FsyncBatch: 1, SegmentBytes: 1}
	m, sc, err := Recover(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(sc.LastLSN + 1); err != nil {
		t.Fatal(err)
	}
	// SegmentBytes 1 seals a segment per record.
	for i := 0; i < 6; i++ {
		lsn, err := m.Log().AppendCommit(testOps(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Log().Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}

	dir := LogDir("wal")
	names, err := segNames(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 4 {
		t.Fatalf("only %d segments", len(names))
	}
	victim := filepath.Join(dir, segName(names[1]))
	b, err := mem.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := mem.WriteFile(victim, b); err != nil {
		t.Fatal(err)
	}

	if got := m.ScrubOnce(); got != 1 {
		t.Fatalf("ScrubOnce found %d corrupt files, want 1", got)
	}

	// The corrupt bytes moved aside intact for forensics.
	q, err := mem.ReadFile(victim + quarantineSuffix)
	if err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if string(q) != string(b) {
		t.Fatal("quarantined file does not hold the corrupt bytes")
	}
	if _, err := mem.ReadFile(victim); !walfs.IsNotExist(err) {
		t.Fatalf("corrupt segment still under its segment name: %v", err)
	}

	// Replay skips the quarantined file and loses exactly its record.
	after, err := ScanLog(mem, dir)
	if err != nil {
		t.Fatalf("replay after quarantine: %v", err)
	}
	if len(after.Records) != 5 {
		t.Fatalf("recovered %d records after quarantining one segment, want 5", len(after.Records))
	}

	// A second pass finds nothing new.
	if got := m.ScrubOnce(); got != 0 {
		t.Fatalf("second ScrubOnce found %d corrupt files, want 0", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
