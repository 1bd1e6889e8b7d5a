// Package wal is stmkvd's durability subsystem: one store-wide write-ahead
// log with group commit, per-shard snapshot checkpoints, and crash recovery.
//
// Every committed write-set — single-shard or cross-shard — is appended as one
// CRC-framed, length-prefixed record carrying a store-wide monotonic LSN and
// the transaction's full op list. Ops carry their keys, and a key's shard is
// its hash, so records need no shard tag: recovery scans the log once and
// partitions the ops by shard. Commits park on the log's group-commit
// machinery (Sync), which fsyncs once per group — bounded by
// Options.FsyncBatch and Options.FsyncInterval, and closed early once no
// appended record lies past the highest requested LSN — and wakes every waiter
// the fsync covered. Durability is prefix-shaped: a group fsync covers a
// prefix of LSNs, and a torn tail is truncated at the first bad frame, so a
// cross-shard commit is either wholly in the recovered log or wholly absent.
//
// The log is segmented; each shard keeps its own snapshot files, and a
// segment is deletable (Truncate) once every shard's snapshot covers all of
// its records.
//
// The record format (all integers little-endian):
//
//	frame   := u32 payload-length | u32 CRC-32C(payload) | payload
//	payload := u64 lsn | u8 kind | body
//
//	commit  body := uvarint nops | op…
//	op           := u8 opcode (0 = set, 1 = del) | uvarint klen | key | set only: uvarint vlen | val
//
// Snapshot files reuse the frame: a header frame, pair frames (batches of
// key/value pairs), and a footer frame carrying the total pair count, all
// stamped with the LSN the snapshot covers. A snapshot is written to a
// temporary name, fsynced, and renamed into place, so a valid .snap file is
// always complete.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// RecordKind tags a record payload.
type RecordKind uint8

const (
	// KindCommit is a committed write-set, on one shard or several. (Kind 2
	// was the per-participant cross-shard copy of the per-shard-log layout;
	// it is never written and decodes as an unknown kind.)
	KindCommit RecordKind = 1

	kindSnapHeader RecordKind = 3
	kindSnapPairs  RecordKind = 4
	kindSnapFooter RecordKind = 5
)

// Op is one logical write effect: set key to val, or delete key. Effects are
// absolute (a CAS that swapped is recorded as the set it performed), so
// replaying a record over state that already contains it is idempotent.
type Op struct {
	Del bool
	Key []byte
	Val []byte
}

// Record is one decoded log record. Key/value slices alias the decoded
// buffer and are valid only while it is.
type Record struct {
	LSN uint64
	Ops []Op
}

const (
	frameHeaderLen = 8 // u32 length + u32 crc
	// minPayloadLen is the smallest well-formed payload: lsn + kind.
	minPayloadLen = 9
	// maxPayloadLen rejects absurd lengths before allocating: a frame
	// claiming more than this is treated as a torn tail, not a record.
	maxPayloadLen = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn reports a frame that ends mid-record or fails its CRC — the shape a
// crash mid-append leaves at the tail of a segment.
var ErrTorn = errors.New("wal: torn record")

const (
	opSet byte = 0
	opDel byte = 1
)

// beginFrame reserves the frame header and returns the payload start offset.
func beginFrame(dst []byte) ([]byte, int) {
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	return dst, len(dst)
}

// sealFrame backfills the length and CRC for the payload written since
// beginFrame.
func sealFrame(dst []byte, payloadStart int) []byte {
	payload := dst[payloadStart:]
	binary.LittleEndian.PutUint32(dst[payloadStart-8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[payloadStart-4:], crc32.Checksum(payload, crcTable))
	return dst
}

func appendOp(dst []byte, op Op) []byte {
	if op.Del {
		dst = append(dst, opDel)
		dst = binary.AppendUvarint(dst, uint64(len(op.Key)))
		return append(dst, op.Key...)
	}
	dst = append(dst, opSet)
	dst = binary.AppendUvarint(dst, uint64(len(op.Key)))
	dst = append(dst, op.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(op.Val)))
	return append(dst, op.Val...)
}

// appendCommitPayload is the one encoder of a commit record's payload:
// lsn | kind | op list.
func appendCommitPayload(dst []byte, lsn uint64, ops []Op) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, byte(KindCommit))
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for _, op := range ops {
		dst = appendOp(dst, op)
	}
	return dst
}

// AppendCommitRecord appends one framed commit record to dst.
func AppendCommitRecord(dst []byte, lsn uint64, ops []Op) []byte {
	dst, start := beginFrame(dst)
	return sealFrame(appendCommitPayload(dst, lsn, ops), start)
}

// NextFrame splits b into the first frame's payload and the rest. A clean end
// (len(b) == 0) returns ok=false with a nil error; anything that ends
// mid-frame or fails its CRC returns ErrTorn.
func NextFrame(b []byte) (payload, rest []byte, ok bool, err error) {
	if len(b) == 0 {
		return nil, nil, false, nil
	}
	if len(b) < frameHeaderLen {
		return nil, nil, false, ErrTorn
	}
	n := int(binary.LittleEndian.Uint32(b))
	crc := binary.LittleEndian.Uint32(b[4:])
	if n < minPayloadLen || n > maxPayloadLen || n > len(b)-frameHeaderLen {
		return nil, nil, false, ErrTorn
	}
	payload = b[frameHeaderLen : frameHeaderLen+n]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, nil, false, ErrTorn
	}
	return payload, b[frameHeaderLen+n:], true, nil
}

// payloadHeader splits a payload into its LSN, kind, and body.
func payloadHeader(payload []byte) (lsn uint64, kind RecordKind, body []byte) {
	return binary.LittleEndian.Uint64(payload), RecordKind(payload[8]), payload[9:]
}

func decodeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("wal: bad uvarint")
	}
	return v, b[n:], nil
}

func decodeBytes(b []byte) ([]byte, []byte, error) {
	n, b, err := decodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, errors.New("wal: byte string overruns payload")
	}
	return b[:n], b[n:], nil
}

func decodeOps(b []byte) ([]Op, error) {
	n, b, err := decodeUvarint(b)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b)) { // each op is at least one byte
		return nil, fmt.Errorf("wal: op count %d overruns payload", n)
	}
	ops := make([]Op, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(b) == 0 {
			return nil, errors.New("wal: truncated op")
		}
		code := b[0]
		b = b[1:]
		var op Op
		switch code {
		case opSet:
			if op.Key, b, err = decodeBytes(b); err != nil {
				return nil, err
			}
			if op.Val, b, err = decodeBytes(b); err != nil {
				return nil, err
			}
		case opDel:
			op.Del = true
			if op.Key, b, err = decodeBytes(b); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("wal: unknown opcode %d", code)
		}
		ops = append(ops, op)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after ops", len(b))
	}
	return ops, nil
}

// DecodeRecord decodes a commit payload (as returned by NextFrame). Ops alias
// the payload. Any other kind is rejected: snapshot kinds never appear in a
// log segment.
func DecodeRecord(payload []byte) (Record, error) {
	if len(payload) < minPayloadLen {
		return Record{}, errors.New("wal: payload too short")
	}
	lsn, kind, body := payloadHeader(payload)
	if kind != KindCommit {
		return Record{}, fmt.Errorf("wal: unexpected record kind %d", kind)
	}
	ops, err := decodeOps(body)
	if err != nil {
		return Record{}, err
	}
	return Record{LSN: lsn, Ops: ops}, nil
}
