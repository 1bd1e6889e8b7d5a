package kv

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

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

// Entries: a key and its value live in one immutable byte record
// (engine.Txn.AllocBytes), the key's length as a uvarint, the key, then the
// value. An entry is complete before the StoreRef that publishes it and is
// never written again, so a lookup reads it with LoadBytes, with no open and
// no read-log entry, and an overwrite publishes a new entry.

// allocEntry allocates the entry for key and val in raw's engine. The parts
// are assembled in the Tx, which lives on the heap already, so passing them
// through the interface call allocates nothing more than the record.
func (t *Tx) allocEntry(raw engine.Txn, key, val []byte) engine.Handle {
	n := binary.PutUvarint(t.klen[:], uint64(len(key)))
	t.parts = [3][]byte{t.klen[:n], key, val}
	e := raw.AllocBytes(t.parts[:]...)
	t.parts = [3][]byte{} // do not pin the caller's buffers
	return e
}

// splitEntry splits an entry's payload into its key and value.
func splitEntry(e string) (key, val string) {
	var n uint64
	i := 0
	for shift := 0; ; shift += 7 {
		c := e[i]
		i++
		n |= uint64(c&0x7f) << shift
		if c < 0x80 {
			break
		}
	}
	return e[i : i+int(n)], e[i+int(n):]
}

// ParseInt parses a value as decimal text, the integer convention shared by
// Tx.Int/Add and the server's INCR and TRANSFER commands.
func ParseInt(b []byte) (int64, error) { return parseValue(string(b)) }

// parseValue is ParseInt for a value read from an entry.
func parseValue(v string) (int64, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		// Formatting a copy keeps v from escaping, so ParseInt's
		// conversion of its argument can stay on the stack.
		return 0, fmt.Errorf("kv: value %q is not an integer", strings.Clone(v))
	}
	return n, nil
}

// FormatInt renders v in the decimal text convention.
func FormatInt(v int64) []byte {
	return strconv.AppendInt(nil, v, 10)
}
