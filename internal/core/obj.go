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
//   - OpenForRead records the version seen; the read log is validated at
//     commit (and optionally mid-transaction, since the design is not
//     opaque).
//   - Commit releases ownership by clearing the owner field and then storing
//     the word at version+1; rollback restores the logged words first. A
//     rollback that actually wrote to the object (dirty bit set) also
//     increments the version so that concurrent readers which may have
//     observed dirty data fail validation.
package core

import "sync/atomic"

// Obj is a transactional object managed by the direct-update engine: a fixed
// number of scalar words and reference fields, plus the STM word.
//
// Fields are atomics because the direct-update design deliberately lets
// optimistic readers race with in-place writers; the race is resolved by
// commit-time validation, and atomics make it well-defined under the Go
// memory model.
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
	id      uint64 // unique, for log filtering and diagnostics
	creator uint64 // id of the allocating transaction, 0 if allocated outside
	words   []atomic.Uint64
	refs    []atomic.Pointer[Obj]
}

// The STM word's encoding.
const (
	ownedBit = 1 << 0 // set while a transaction owns the object
	dirtyBit = 1 << 1 // set by the owner before its first in-place write
	verShift = 2      // the version occupies the remaining bits
)

// ID returns the object's unique identity. IDs are drawn from per-allocator
// blocks of a global counter and never reused; ids may have gaps but are
// always unique (see engine.IDAlloc).
func (o *Obj) ID() uint64 { return o.id }

// NumWords returns the number of scalar fields.
func (o *Obj) NumWords() int { return len(o.words) }

// NumRefs returns the number of reference fields.
func (o *Obj) NumRefs() int { return len(o.refs) }

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

// smallObj holds an object whose fields fit inline, so that header, words
// and refs are one allocation: every txds node, bank account and kv bucket
// header is at most 2 words and 2 refs. Larger shapes keep separately
// allocated slices.
type smallObj struct {
	Obj
	w [2]atomic.Uint64
	r [2]atomic.Pointer[Obj]
}

// newObj allocates an object at version 1.
func newObj(id, creator uint64, nwords, nrefs int) *Obj {
	var o *Obj
	if nwords <= len(smallObj{}.w) && nrefs <= len(smallObj{}.r) {
		s := new(smallObj)
		o = &s.Obj
		o.words, o.refs = s.w[:nwords], s.r[:nrefs]
	} else {
		o = &Obj{
			words: make([]atomic.Uint64, nwords),
			refs:  make([]atomic.Pointer[Obj], nrefs),
		}
	}
	o.id, o.creator = id, creator
	o.meta.Store(1 << verShift)
	return o
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
