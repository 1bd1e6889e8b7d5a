// Package core implements the paper's software transactional memory: a
// direct-update, object-based STM with eager ownership acquisition for
// updates, optimistic version-validated reads, per-word undo logging, a
// runtime duplicate-log filter, and GC-style log compaction.
//
// Layout of the design (mirroring the PLDI 2006 system):
//
//   - Every object carries an STM word (Obj.meta) holding either a version
//     number or a pointer to the owning transaction's update-log entry.
//   - OpenForUpdate CASes the STM word from a version record to an ownership
//     record; updates then happen in place, guarded by per-word undo-log
//     entries used for rollback.
//   - OpenForRead records the version seen; the read log is validated at
//     commit (and optionally mid-transaction, since the design is not
//     opaque).
//   - Commit releases ownership by publishing a version record with the
//     version incremented by one; rollback restores the logged words first.
//     A rollback that actually wrote to the object also increments the
//     version so that concurrent readers which may have observed dirty data
//     fail validation.
package core

import "sync/atomic"

// Obj is a transactional object managed by the direct-update engine: a fixed
// number of scalar words and reference fields, plus the STM metadata word.
//
// Fields are atomics because the direct-update design deliberately lets
// optimistic readers race with in-place writers; the race is resolved by
// commit-time validation, and atomics make it well-defined under the Go
// memory model.
type Obj struct {
	meta    atomic.Pointer[ownership]
	id      uint64 // unique, for log filtering and diagnostics
	creator uint64 // id of the allocating transaction, 0 if allocated outside
	words   []atomic.Uint64
	refs    []atomic.Pointer[Obj]
}

// ID returns the object's unique identity. IDs are drawn from per-allocator
// blocks of a global counter and never reused; ids may have gaps but are
// always unique (see engine.IDAlloc).
func (o *Obj) ID() uint64 { return o.id }

// NumWords returns the number of scalar fields.
func (o *Obj) NumWords() int { return len(o.words) }

// NumRefs returns the number of reference fields.
func (o *Obj) NumRefs() int { return len(o.refs) }

// ownership is the STM word's target. Exactly one of the two shapes is used:
//
//   - version record: ownerID == 0, version holds the object's version;
//   - ownership record: ownerID != 0 identifies the owning transaction and
//     entry points at its update-log entry for the object.
//
// Records are immutable once published, so a reader that loaded the pointer
// can examine the fields without further synchronization.
type ownership struct {
	version uint64
	ownerID uint64
	entry   *updateEntry
}

// updateEntry is an update-log record: everything needed to release or roll
// back one owned object. All three STM-word records an entry can publish are
// embedded by value — ownMeta (published at open), newMeta (published on
// commit or dirty rollback), and oldMeta (published on clean rollback) — so
// OpenForUpdate, Commit, and rollback perform no per-record allocation.
//
// Lifetime rule: entries are served from a per-transaction slab (chunks of
// slabChunk entries, one make per chunk). Because the published &e.newMeta /
// &e.oldMeta records escape into object headers and stay reachable for as
// long as the object lives, a chunk can never be recycled once any of its
// entries has been published; only the untouched tail of the current chunk
// carries over to the next attempt. oldMeta holds a *copy* of the displaced
// version record rather than a pointer to it, so an entry never references a
// previous owner's entry (or slab chunk) — otherwise each object would pin
// the slab chunks of its entire update history. For the same reason obj is
// cleared once the entry is released (only the owner reads it): a chunk
// pinned by one live object must not keep its other entries' objects alive.
type updateEntry struct {
	obj     *Obj
	oldMeta ownership // copy of the displaced version record (published on clean abort)
	newMeta ownership // pre-built {version+1} record published on commit
	ownMeta ownership // the ownership record published at open time
	dirty   bool      // true once any field of obj has been undo-logged
}

// release gives up ownership on rollback: at version+1 if the object was
// written, so optimistic readers that may have seen the transient values
// fail validation, else at its original version.
func (e *updateEntry) release() {
	if e.dirty {
		e.obj.meta.Store(&e.newMeta)
	} else {
		e.obj.meta.Store(&e.oldMeta)
	}
	e.obj = nil
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
