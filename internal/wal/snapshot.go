package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"memtx/internal/wal/walfs"
)

const (
	snapSuffix = ".snap"
	snapMagic  = 0x73746d6b767773_31 // "stmkvws1"
	// snapPairFrameBytes batches pairs so a large snapshot is many modest
	// frames rather than one giant one.
	snapPairFrameBytes = 32 << 10
)

func snapName(lsn uint64) string {
	return fmt.Sprintf("%020d%s", lsn, snapSuffix)
}

func parseSnapName(name string) (uint64, bool) {
	s, ok := strings.CutSuffix(name, snapSuffix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// ErrNoPrevSnapshot reports that an incremental snapshot found no previous
// valid snapshot to merge into; the caller falls back to a full checkpoint.
var ErrNoPrevSnapshot = errors.New("wal: no previous snapshot to merge into")

// snapStats describes one written snapshot file.
type snapStats struct {
	bytes  int64  // file bytes written
	total  uint64 // pairs in the file
	reused uint64 // pairs streamed unchanged from the previous snapshot
}

// WriteSnapshot writes a checkpoint covering every record with LSN <= covered
// for one shard: pairs are streamed through emit, framed in batches, and the
// file lands atomically (tmp + fsync + rename + dir fsync), so a valid .snap
// is always complete. Older snapshots are removed after the new one is
// durable.
func WriteSnapshot(fsys walfs.FS, dir string, covered uint64, pairs func(emit func(key, val []byte) error) error) error {
	_, err := writeSnapshotFile(fsys, dir, covered, pairs)
	return err
}

// writeSnapshotMerge writes an incremental checkpoint at covered: the
// previous snapshot's pairs are streamed through unchanged — except keys for
// which skip returns true, whose stale values must not survive — and pairs
// then emits the live values of the dirty keys (a dirty key that was deleted
// is simply never re-emitted). Returns ErrNoPrevSnapshot when no valid
// previous snapshot exists.
//
// Correctness leans on the same idempotence rule as recovery: dirty values
// are read after covered was fixed, so they may already reflect records
// > covered — those records stay in the log (truncation never passes
// covered) and replay them over the snapshot harmlessly.
func writeSnapshotMerge(fsys walfs.FS, dir string, covered uint64, skip func(key []byte) bool, pairs func(emit func(key, val []byte) error) error) (snapStats, error) {
	prevLSN, _, ok, err := LoadSnapshot(fsys, dir, func(_, _ []byte) error { return nil })
	if err != nil {
		return snapStats{}, err
	}
	if !ok || prevLSN > covered {
		return snapStats{}, ErrNoPrevSnapshot
	}
	var reused uint64
	st, err := writeSnapshotFile(fsys, dir, covered, func(emit func(key, val []byte) error) error {
		prev := filepath.Join(dir, snapName(prevLSN))
		if _, err := readSnapshot(fsys, prev, prevLSN, func(k, v []byte) error {
			if skip(k) {
				return nil
			}
			reused++
			return emit(k, v)
		}); err != nil {
			return err
		}
		return pairs(emit)
	})
	st.reused = reused
	return st, err
}

func writeSnapshotFile(fsys walfs.FS, dir string, covered uint64, pairs func(emit func(key, val []byte) error) error) (snapStats, error) {
	final := filepath.Join(dir, snapName(covered))
	tmp := final + ".tmp"
	f, err := fsys.Create(tmp, false)
	if err != nil {
		return snapStats{}, err
	}
	defer fsys.Remove(tmp) // no-op once renamed

	var st snapStats
	var buf []byte
	buf, start := beginFrame(buf)
	buf = binary.LittleEndian.AppendUint64(buf, covered)
	buf = append(buf, byte(kindSnapHeader))
	buf = binary.LittleEndian.AppendUint64(buf, snapMagic)
	buf = sealFrame(buf, start)

	// Pair frames carry no count — the frame length bounds the body, and
	// pairs are decoded until it is exhausted.
	var total uint64
	var pbuf []byte
	var npairs int
	pstart := 0
	openPairs := func() {
		pbuf, pstart = beginFrame(pbuf)
		pbuf = binary.LittleEndian.AppendUint64(pbuf, covered)
		pbuf = append(pbuf, byte(kindSnapPairs))
		npairs = 0
	}
	flushPairs := func() error {
		if npairs == 0 {
			pbuf = pbuf[:0]
			return nil
		}
		pbuf = sealFrame(pbuf, pstart)
		_, err := f.Write(pbuf)
		st.bytes += int64(len(pbuf))
		pbuf = pbuf[:0]
		return err
	}
	openPairs()
	emit := func(key, val []byte) error {
		pbuf = binary.AppendUvarint(pbuf, uint64(len(key)))
		pbuf = append(pbuf, key...)
		pbuf = binary.AppendUvarint(pbuf, uint64(len(val)))
		pbuf = append(pbuf, val...)
		npairs++
		total++
		if len(pbuf)-pstart >= snapPairFrameBytes {
			if err := flushPairs(); err != nil {
				return err
			}
			openPairs()
		}
		return nil
	}

	if _, err := f.Write(buf); err != nil {
		f.Close()
		return st, err
	}
	st.bytes += int64(len(buf))
	if err := pairs(emit); err != nil {
		f.Close()
		return st, err
	}
	if err := flushPairs(); err != nil {
		f.Close()
		return st, err
	}

	buf = buf[:0]
	buf, start = beginFrame(buf)
	buf = binary.LittleEndian.AppendUint64(buf, covered)
	buf = append(buf, byte(kindSnapFooter))
	buf = binary.LittleEndian.AppendUint64(buf, total)
	buf = sealFrame(buf, start)
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return st, err
	}
	st.bytes += int64(len(buf))
	st.total = total
	if err := f.Sync(); err != nil {
		f.Close()
		return st, err
	}
	if err := f.Close(); err != nil {
		return st, err
	}
	if err := fsys.Rename(tmp, final); err != nil {
		return st, err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return st, err
	}
	// The new snapshot is durable; older ones are dead weight. One the
	// scrubber quarantined concurrently is already gone.
	names, err := snapNames(fsys, dir)
	if err != nil {
		return st, err
	}
	for _, n := range names {
		if n < covered {
			if err := fsys.Remove(filepath.Join(dir, snapName(n))); err != nil && !walfs.IsNotExist(err) {
				return st, err
			}
		}
	}
	return st, nil
}

// snapNames lists snapshot LSNs in dir, ascending.
func snapNames(fsys walfs.FS, dir string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []uint64
	for _, name := range ents {
		if n, ok := parseSnapName(name); ok {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names, nil
}

// LoadSnapshot opens the newest valid snapshot in dir and streams its pairs
// through emit, returning the covered LSN and pair count. A snapshot that
// fails validation (bad frame, wrong magic, footer count mismatch) is skipped
// in favor of the next older one — the rename protocol makes that shape disk
// corruption, not a normal crash artifact. ok is false when no valid
// snapshot exists.
func LoadSnapshot(fsys walfs.FS, dir string, emit func(key, val []byte) error) (covered uint64, pairs uint64, ok bool, err error) {
	names, err := snapNames(fsys, dir)
	if err != nil {
		if walfs.IsNotExist(err) {
			return 0, 0, false, nil
		}
		return 0, 0, false, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		covered = names[i]
		path := filepath.Join(dir, snapName(covered))
		// Validate the whole file before emitting anything, so a corrupt
		// snapshot cannot half-apply before the fallback to an older one.
		if _, verr := readSnapshot(fsys, path, covered, func(_, _ []byte) error { return nil }); verr != nil {
			continue
		}
		pairs, err = readSnapshot(fsys, path, covered, emit)
		if err != nil {
			return 0, 0, false, err
		}
		return covered, pairs, true, nil
	}
	return 0, 0, false, nil
}

func readSnapshot(fsys walfs.FS, path string, covered uint64, emit func(key, val []byte) error) (uint64, error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var total, counted uint64
	sawHeader, sawFooter := false, false
	for {
		payload, rest, ok, err := NextFrame(b)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		b = rest
		if len(payload) < minPayloadLen {
			return 0, errors.New("wal: short snapshot frame")
		}
		lsn, kind, body := payloadHeader(payload)
		if lsn != covered {
			return 0, fmt.Errorf("wal: snapshot frame lsn %d != %d", lsn, covered)
		}
		switch kind {
		case kindSnapHeader:
			if sawHeader || len(body) != 8 || binary.LittleEndian.Uint64(body) != snapMagic {
				return 0, errors.New("wal: bad snapshot header")
			}
			sawHeader = true
		case kindSnapPairs:
			if !sawHeader || sawFooter {
				return 0, errors.New("wal: snapshot pairs out of order")
			}
			for len(body) > 0 {
				var key, val []byte
				var err error
				if key, body, err = decodeBytes(body); err != nil {
					return 0, err
				}
				if val, body, err = decodeBytes(body); err != nil {
					return 0, err
				}
				if err := emit(key, val); err != nil {
					return 0, err
				}
				counted++
			}
		case kindSnapFooter:
			if !sawHeader || sawFooter || len(body) != 8 {
				return 0, errors.New("wal: bad snapshot footer")
			}
			total = binary.LittleEndian.Uint64(body)
			sawFooter = true
		default:
			return 0, fmt.Errorf("wal: unexpected snapshot frame kind %d", kind)
		}
	}
	if !sawHeader || !sawFooter {
		return 0, errors.New("wal: incomplete snapshot")
	}
	if counted != total {
		return 0, fmt.Errorf("wal: snapshot pair count %d != footer %d", counted, total)
	}
	return counted, nil
}
