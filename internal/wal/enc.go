package wal

import (
	"encoding/binary"
	"sync"
)

// Enc is a pooled, pre-encoded log record: one complete frame whose payload
// body is rendered by the committer *before* it enters any critical section.
// The LSN field is stamped when the record is reserved (under the log mutex)
// and the CRC is sealed by the appender goroutine that writes the frame, so
// the commit critical section carries none of the encoding or checksum cost.
type Enc struct {
	buf []byte // frame header (unsealed) | lsn (unstamped) | kind | body
}

// maxPooledEnc bounds the buffers the pool retains; an oversized record's
// buffer is dropped on release rather than pinning memory (mirrors the
// engine slab's oversized-release rule).
const maxPooledEnc = 64 << 10

var encPool = sync.Pool{New: func() any { return new(Enc) }}

// EncodeCommit renders a commit record into a pooled Enc, its LSN zero until
// stamped at reservation.
func EncodeCommit(ops []Op) *Enc {
	e := encPool.Get().(*Enc)
	b, _ := beginFrame(e.buf[:0])
	e.buf = appendCommitPayload(b, 0, ops)
	return e
}

// stamp writes the reserved LSN into the frame payload.
func (e *Enc) stamp(lsn uint64) {
	binary.LittleEndian.PutUint64(e.buf[frameHeaderLen:], lsn)
}

// lsn reads back the stamped LSN.
func (e *Enc) lsn() uint64 {
	return binary.LittleEndian.Uint64(e.buf[frameHeaderLen:])
}

// seal backfills the frame length and CRC; the frame is complete after.
func (e *Enc) seal() {
	e.buf = sealFrame(e.buf, frameHeaderLen)
}

// Release returns the Enc to the pool. Callers release an Enc they encoded
// but never appended (the commit failed first); appended Encs are owned and
// released by the log.
func (e *Enc) Release() {
	if cap(e.buf) > maxPooledEnc {
		return
	}
	encPool.Put(e)
}
