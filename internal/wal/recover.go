package wal

import (
	"errors"
	"fmt"
	"path/filepath"

	"memtx/internal/wal/walfs"
)

// ErrCorrupt marks mid-log corruption: a bad frame or malformed record that
// the torn-tail rule cannot explain away. Replay stops with it instead of
// silently truncating; the scrubber quarantines the segment that carries it.
var ErrCorrupt = errors.New("wal: corrupt log")

// Scan is the result of scanning the log directory.
type Scan struct {
	// Records holds every decoded record, in LSN order. Ops alias the
	// segment buffers held alive by the scan; apply them before dropping it.
	Records []Record
	// LastLSN is the highest record LSN seen (0 if none).
	LastLSN uint64
	// TornBytes counts bytes truncated from the tail of the last segment.
	TornBytes int64
	// TornTail reports whether a torn tail record was found and truncated.
	TornTail bool
}

// ScanLog reads every log segment in dir, in order, validating frames and
// enforcing strictly increasing LSNs across the whole log (gaps are legal —
// a reboot over a snapshot newer than the log tail leaves one, and so does a
// segment the scrubber quarantined). A bad frame
// at the tail of the *last* segment is the normal crash artifact: it is
// truncated from the file and the scan succeeds. A bad frame anywhere else,
// or a non-monotonic LSN, is corruption (ErrCorrupt) and fails the scan.
func ScanLog(fsys walfs.FS, dir string) (*Scan, error) {
	sc := &Scan{}
	names, err := segNames(fsys, dir)
	if err != nil {
		if walfs.IsNotExist(err) {
			return sc, nil
		}
		return nil, err
	}
	for i, first := range names {
		last := i == len(names)-1
		path := filepath.Join(dir, segName(first))
		b, err := fsys.ReadFile(path)
		if err != nil {
			return nil, err
		}
		off := 0
		for {
			payload, rest, ok, ferr := NextFrame(b[off:])
			if ferr != nil {
				if !last {
					return nil, fmt.Errorf("%w: %s: bad frame at offset %d (not the last segment): %v", ErrCorrupt, path, off, ferr)
				}
				sc.TornBytes = int64(len(b) - off)
				sc.TornTail = true
				if err := fsys.Truncate(path, int64(off)); err != nil {
					return nil, err
				}
				break
			}
			if !ok {
				break
			}
			rec, derr := DecodeRecord(payload)
			if derr != nil {
				// The frame CRC passed but the payload is malformed — that is
				// corruption (or a version skew), not a torn tail.
				return nil, fmt.Errorf("%w: %s: bad record at offset %d: %v", ErrCorrupt, path, off, derr)
			}
			if rec.LSN < first || rec.LSN <= sc.LastLSN {
				return nil, fmt.Errorf("%w: %s: record lsn %d out of order (segment start %d, previous %d)", ErrCorrupt, path, rec.LSN, first, sc.LastLSN)
			}
			sc.Records = append(sc.Records, rec)
			sc.LastLSN = rec.LSN
			off = len(b) - len(rest)
		}
	}
	return sc, nil
}
