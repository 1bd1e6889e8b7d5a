package wal

import (
	"memtx/internal/wal/walfs"

	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeSegment writes records to a fresh log and returns the dir.
func writeRecords(t *testing.T, dir string, n int) {
	t.Helper()
	l, err := openLog(dir, 1, Options{Dir: dir, FsyncBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
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
}

func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := segNames(walfs.OS(), dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("segNames: %v %v", names, err)
	}
	return filepath.Join(dir, segName(names[len(names)-1]))
}

func chopTail(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func TestScanTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	writeRecords(t, dir, 10)
	// Chop a few bytes off the last record: a mid-write crash artifact.
	chopTail(t, lastSegment(t, dir), 5)
	sc, err := ScanLog(walfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.TornTail || sc.TornBytes == 0 {
		t.Fatalf("tear not detected: %+v", sc)
	}
	if len(sc.Records) != 9 || sc.LastLSN != 9 {
		t.Fatalf("scan kept %d records, last %d", len(sc.Records), sc.LastLSN)
	}
	// The tear was truncated from the file: a second scan is clean.
	sc2, err := ScanLog(walfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.TornTail || len(sc2.Records) != 9 {
		t.Fatalf("second scan: %+v", sc2)
	}
}

func TestScanTruncatedCRC(t *testing.T) {
	dir := t.TempDir()
	writeRecords(t, dir, 3)
	// Flip a byte inside the last record's payload so the CRC fails with the
	// length intact.
	path := lastSegment(t, dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := ScanLog(walfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.TornTail || len(sc.Records) != 2 {
		t.Fatalf("CRC tear: %+v", sc)
	}
}

func TestScanEmptySegment(t *testing.T) {
	dir := t.TempDir()
	writeRecords(t, dir, 3)
	// A crash right after rotation (or right after boot) leaves an empty
	// active segment; the scan must shrug it off.
	if err := os.WriteFile(filepath.Join(dir, segName(100)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := ScanLog(walfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if sc.TornTail || len(sc.Records) != 3 || sc.LastLSN != 3 {
		t.Fatalf("empty segment scan: %+v", sc)
	}
}

func TestScanEmptyDir(t *testing.T) {
	sc, err := ScanLog(walfs.OS(), filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Records) != 0 || sc.LastLSN != 0 {
		t.Fatalf("missing dir scan: %+v", sc)
	}
}

func TestScanMidLogCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, 1, Options{Dir: dir, FsyncBatch: 1, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		lsn, aerr := l.AppendCommit(testOps(i))
		if aerr != nil {
			t.Fatal(aerr)
		}
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := segNames(walfs.OS(), dir)
	if len(names) < 3 {
		t.Fatalf("need several segments, got %v", names)
	}
	// A tear in a non-last segment is not a crash artifact — rotation fsyncs
	// the old segment before the new one exists — so it must hard-fail.
	chopTail(t, filepath.Join(dir, segName(names[0])), 3)
	if _, err := ScanLog(walfs.OS(), dir); err == nil {
		t.Fatal("mid-log corruption scanned clean")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(covered uint64, n int) {
		err := WriteSnapshot(walfs.OS(), dir, covered, func(emit func(k, v []byte) error) error {
			for i := 0; i < n; i++ {
				if err := emit([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d-%d", i, covered))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	write(10, 100)
	write(25, 150)
	got := map[string]string{}
	covered, pairs, ok, err := LoadSnapshot(walfs.OS(), dir, func(k, v []byte) error {
		got[string(k)] = string(v)
		return nil
	})
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if covered != 25 || pairs != 150 || len(got) != 150 {
		t.Fatalf("covered %d pairs %d len %d", covered, pairs, len(got))
	}
	if got["k0007"] != "v0007-25" {
		t.Fatalf("stale pair: %q", got["k0007"])
	}
	// The older snapshot was removed once the newer one landed.
	names, _ := snapNames(walfs.OS(), dir)
	if len(names) != 1 || names[0] != 25 {
		t.Fatalf("snapshots on disk: %v", names)
	}
}

func TestSnapshotCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	ok1 := func(emit func(k, v []byte) error) error { return emit([]byte("a"), []byte("old")) }
	if err := WriteSnapshot(walfs.OS(), dir, 5, ok1); err != nil {
		t.Fatal(err)
	}
	// Forge a newer, corrupt snapshot (bit rot: valid name, bad frame).
	if err := os.WriteFile(filepath.Join(dir, snapName(9)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	covered, _, ok, err := LoadSnapshot(walfs.OS(), dir, func(k, v []byte) error {
		got = append(got, string(k)+"="+string(v))
		return nil
	})
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if covered != 5 || len(got) != 1 || got[0] != "a=old" {
		t.Fatalf("fallback load: covered=%d got=%v", covered, got)
	}
}

func TestSnapshotNoneIsOK(t *testing.T) {
	_, _, ok, err := LoadSnapshot(walfs.OS(), t.TempDir(), func(k, v []byte) error { return nil })
	if err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
}

func TestSnapshotTmpFileIgnored(t *testing.T) {
	dir := t.TempDir()
	// A crash mid-snapshot leaves only the .tmp; it must not be loaded.
	if err := os.WriteFile(filepath.Join(dir, snapName(7)+".tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, ok, err := LoadSnapshot(walfs.OS(), dir, func(k, v []byte) error { return nil })
	if err != nil || ok {
		t.Fatalf("tmp snapshot loaded: ok=%v err=%v", ok, err)
	}
}
