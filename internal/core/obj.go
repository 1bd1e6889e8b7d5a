// Package core implements the paper's software transactional memory: a
// direct-update, object-based STM with eager ownership acquisition for
// updates, optimistic version-validated reads, per-word undo logging, a
// runtime duplicate-log filter, and GC-style log compaction.
//
// Layout of the design (mirroring the PLDI 2006 system):
//
//   - Every object carries one STM word (Obj.meta), a uint64 holding
//     version<<2 | dirty<<1 | owned. An unowned word holds the object's
//     version; an owned word keeps the version it displaced, so a reader of
//     an owned object learns the version it must validate against without
//     following any pointer.
//   - OpenForUpdate CASes the owned bit on, then stores its transaction id in
//     the object's owner field; updates happen in place, guarded by per-word
//     undo-log entries used for rollback. The owner field exists only for the
//     owner's own "do I hold this already?" check.
//   - The STM word sits in a 32-byte header (meta, owner, id, creator) next
//     to the object's fields. An object of at most 2 words and 2 refs is
//     one 64-byte allocation, one cache line: header, then the words and
//     refs at fixed offsets (smallObj). Any other shape is the header and
//     two slice headers, 80 bytes, with the fields in separate arrays
//     (largeObj). The shape lives in the top bits of the id word (largeBit,
//     and a small object's word and ref counts), so a barrier reaches a
//     field from the handle with no slice header in between, and an index
//     beyond the shape panics.
//   - OpenForRead records the version seen; the read log is validated at
//     commit (and optionally mid-transaction, since the design is not
//     opaque). A read-only transaction consults the duplicate filter only
//     once its read log holds roFilterFrom entries: a short one pays one
//     log entry per duplicate instead of a filter probe per open.
//   - Commit releases ownership by clearing the owner field and then storing
//     the word at version+1; rollback restores the logged words first. A
//     rollback that actually wrote to the object (dirty bit set) also
//     increments the version so that concurrent readers which may have
//     observed dirty data fail validation.
package core

import (
	"sync/atomic"
	"unsafe"
)

// Obj is the header of a transactional object managed by the direct-update
// engine: the STM word, the owner field, the identity and the creator, 32
// bytes. The object's scalar words and reference fields follow the header in
// the same allocation (smallObj, largeObj); handles point at the header.
//
// Fields are atomics because the direct-update design deliberately lets
// optimistic readers race with in-place writers; the race is resolved by
// commit-time validation, and atomics make it well-defined under the Go
// memory model.
//
// Only newObj makes objects: the shape bits in tag must describe the
// allocation behind the header, which the field accessors convert to.
type Obj struct {
	// meta is the STM word: version<<verShift | dirtyBit | ownedBit. Only
	// the owner changes an owned word (markDirty, release); everyone else
	// changes it only by CASing the owned bit onto an unowned word.
	meta atomic.Uint64
	// owner is the owning transaction's id, or 0 while the object is
	// unowned and between a winner's CAS and its owner store. The owner
	// clears it *before* it publishes the release, so the next owner's CAS
	// happens after the clear; with transaction ids never reused,
	// owner == t.id therefore holds exactly while t owns the object.
	// Beyond diagnostics, only that self-check reads it.
	owner   atomic.Uint64
	tag     uint64 // id | shape bits; unique, for log filtering and diagnostics
	creator uint64 // id of the allocating transaction, 0 if allocated outside
}

// The STM word's encoding.
const (
	ownedBit = 1 << 0 // set while a transaction owns the object
	dirtyBit = 1 << 1 // set by the owner before its first in-place write
	verShift = 2      // the version occupies the remaining bits
)

// The shape encoding in Obj.tag: the low idBits bits are the id (a counter
// that draws 2^59 ids does not run out in practice); above them, largeBit says
// the fields are slices (largeObj), and otherwise two 2-bit counts give a
// smallObj's words and refs in use.
const (
	idBits     = 59
	idMask     = 1<<idBits - 1
	refsShift  = idBits     // smallObj: refs in use, 0..2
	wordsShift = idBits + 2 // smallObj: words in use, 0..2
	largeBit   = 1 << 63
)

// smallObj is an object of at most 2 words and 2 refs: the header and its
// fields in one 64-byte allocation, which the allocator places on one cache
// line. Every txds node, bank account and kv bucket header has this shape.
type smallObj struct {
	Obj
	w [2]atomic.Uint64
	r [2]atomic.Pointer[Obj]
}

// largeObj is any other shape: the header and two slice headers (80 bytes),
// with the fields in separately allocated arrays.
type largeObj struct {
	Obj
	w []atomic.Uint64
	r []atomic.Pointer[Obj]
}

// newObj allocates an object at version 1.
func newObj(id, creator uint64, nwords, nrefs int) *Obj {
	var o *Obj
	if nwords <= len(smallObj{}.w) && nrefs <= len(smallObj{}.r) {
		o = &new(smallObj).Obj
		id |= uint64(nwords)<<wordsShift | uint64(nrefs)<<refsShift
	} else {
		l := &largeObj{
			w: make([]atomic.Uint64, nwords),
			r: make([]atomic.Pointer[Obj], nrefs),
		}
		o = &l.Obj
		id |= largeBit
	}
	o.tag, o.creator = id, creator
	o.meta.Store(1 << verShift)
	return o
}

// small and large view the allocation behind the header; the caller has
// checked largeBit.
func (o *Obj) small() *smallObj { return (*smallObj)(unsafe.Pointer(o)) }
func (o *Obj) large() *largeObj { return (*largeObj)(unsafe.Pointer(o)) }

// ID returns the object's unique identity. IDs are drawn from per-allocator
// blocks of a global counter and never reused; ids may have gaps but are
// always unique (see engine.IDAlloc).
func (o *Obj) ID() uint64 { return o.tag & idMask }

// NumWords returns the number of scalar fields.
func (o *Obj) NumWords() int { return len(o.words()) }

// NumRefs returns the number of reference fields.
func (o *Obj) NumRefs() int { return len(o.refs()) }

// words returns the scalar fields: a small object's inline array cut to its
// shape, so that an index beyond the shape panics with the runtime's index
// error as a large object's slice does, or a large object's slice. For a
// small object no slice header is loaded: the fields sit at fixed offsets
// from the header.
func (o *Obj) words() []atomic.Uint64 {
	if o.tag&largeBit != 0 {
		return o.large().w
	}
	return o.small().w[:o.tag>>wordsShift&3]
}

// refs returns the reference fields, as words does the scalar ones.
func (o *Obj) refs() []atomic.Pointer[Obj] {
	if o.tag&largeBit != 0 {
		return o.large().r
	}
	return o.small().r[:o.tag>>refsShift&3]
}

// ownedBy reports whether transaction id owns o, given a word w loaded
// from o.meta.
func (o *Obj) ownedBy(w, id uint64) bool {
	return w&ownedBit != 0 && o.owner.Load() == id
}

// release gives up the owner's hold on o at the given version. The owner
// field is cleared before the word is published: the next owner CASes the
// published word, so its own owner store lands after this clear.
func (o *Obj) release(version uint64) {
	o.owner.Store(0)
	o.meta.Store(version << verShift)
}

// readEntry is a read-log record: the object and the version current when it
// was opened for read.
type readEntry struct {
	obj  *Obj
	seen uint64
}

// undoEntry is an undo-log record for a single word or reference field.
type undoEntry struct {
	obj     *Obj
	idx     int32
	isRef   bool
	oldWord uint64
	oldRef  *Obj
}
