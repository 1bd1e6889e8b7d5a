package kv

import (
	"fmt"
	"strconv"

	"memtx/internal/engine"
)

// hashKey is FNV-1a 64 with a splitmix-style finalizer. The store slices the
// low 16 bits for the shard index and bits 16+ for the bucket index, so both
// ranges need well-mixed entropy.
func hashKey(k []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range k {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Packed byte records: word 0 holds the byte length, words 1.. hold the
// payload in little-endian 8-byte chunks. They are written only while
// transaction-local and never mutated after publication.

// allocBytes packs b into a fresh transaction-local record. All stores are
// barrier-free (the record is private until commit).
func allocBytes(raw engine.Txn, b []byte) engine.Handle {
	r := raw.Alloc(1+(len(b)+7)/8, 0)
	raw.LogForUndoWord(r, 0)
	raw.StoreWord(r, 0, uint64(len(b)))
	for i := 0; i < len(b); i += 8 {
		var w uint64
		for j := 0; j < 8 && i+j < len(b); j++ {
			w |= uint64(b[i+j]) << (8 * uint(j))
		}
		raw.LogForUndoWord(r, 1+i/8)
		raw.StoreWord(r, 1+i/8, w)
	}
	return r
}

// openRec opens byte record r and returns its payload length.
func openRec(raw engine.Txn, r engine.Handle) int {
	raw.OpenForRead(r)
	return int(raw.LoadWord(r, 0))
}

// appendRec is the one byte-record decoder: it appends the n payload bytes of
// record r, already opened, to dst.
func appendRec(raw engine.Txn, dst []byte, r engine.Handle, n int) []byte {
	for i := 0; i < n; i += 8 {
		w := raw.LoadWord(r, 1+i/8)
		for j := 0; j < 8 && i+j < n; j++ {
			dst = append(dst, byte(w>>(8*uint(j))))
		}
	}
	return dst
}

// readBytes unpacks a byte record into a fresh slice.
func readBytes(raw engine.Txn, r engine.Handle) []byte {
	n := openRec(raw, r)
	return appendRec(raw, make([]byte, 0, n), r, n)
}

// appendRecBlob appends a byte record to dst in the wire blob form
// "$<len>:<bytes>" without any intermediate buffer: the length is read from
// word 0 first, so the prefix can be emitted before the payload words are
// decoded straight into dst.
func appendRecBlob(raw engine.Txn, dst []byte, r engine.Handle) []byte {
	n := openRec(raw, r)
	dst = append(dst, '$')
	dst = strconv.AppendUint(dst, uint64(n), 10)
	dst = append(dst, ':')
	return appendRec(raw, dst, r, n)
}

// recInt parses a byte record as a decimal integer. The record is decoded
// into a stack buffer that fits any int64; only a longer value (leading
// zeros, say) spills to the heap.
func recInt(raw engine.Txn, r engine.Handle) (int64, error) {
	var buf [20]byte
	n := openRec(raw, r)
	return ParseInt(appendRec(raw, buf[:0], r, n))
}

// recEqual compares a byte record against b without unpacking into a slice.
func recEqual(raw engine.Txn, r engine.Handle, b []byte) bool {
	if openRec(raw, r) != len(b) {
		return false
	}
	for i := 0; i < len(b); i += 8 {
		var w uint64
		for j := 0; j < 8 && i+j < len(b); j++ {
			w |= uint64(b[i+j]) << (8 * uint(j))
		}
		if raw.LoadWord(r, 1+i/8) != w {
			return false
		}
	}
	return true
}

// ParseInt parses a value as decimal text, the integer convention shared by
// Tx.Int/Add and the server's INCR and TRANSFER commands.
func ParseInt(b []byte) (int64, error) {
	v, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		// Formatting a copy keeps b from escaping, so recInt's stack
		// buffer stays on the stack.
		return 0, fmt.Errorf("kv: value %q is not an integer", string(b))
	}
	return v, nil
}

// FormatInt renders v in the decimal text convention.
func FormatInt(v int64) []byte {
	return strconv.AppendInt(nil, v, 10)
}
