// Package core implements the paper's software transactional memory: a
// direct-update, object-based STM with eager ownership acquisition for
// updates, optimistic version-validated reads, per-word undo logging, a
// runtime duplicate-log filter, exact per-owner undo marks on large objects,
// and GC-style log compaction.
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
//   - The third shape is an immutable byte record (bytesObj): the header,
//     the payload's length and the payload in one pointer-free allocation
//     that the garbage collector does not scan. AllocBytes fills it before
//     any other transaction can reach it and nothing writes it afterwards,
//     so LoadBytes reads it with no open and no read-log entry. Its shape
//     bits claim 3 words and 3 refs, a count the small shape cannot hold,
//     so a word or ref access on a record panics in words/refs' own slice
//     bound, with no branch of its own on that path.
//   - LogForUndoWord and LogForUndoRef drop an entry for a field the
//     transaction has already logged. On a large object the test is exact:
//     the words array's spare capacity holds a stamp and one bit per field
//     (largeObj.mark), so an array written all over logs each field once.
//     Small objects use the duplicate-log filter, a direct-mapped table
//     that may forget a key and log it again.
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
	"fmt"
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

	// bytesShape marks a byte record: small-object counts that exceed the
	// inline arrays.
	bytesShape = 3<<wordsShift | 3<<refsShift
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
// with the fields in separately allocated arrays. The words array's spare
// capacity holds the owner's undo marks (marks).
type largeObj struct {
	Obj
	w []atomic.Uint64
	r []atomic.Pointer[Obj]
}

// marks returns a large object's undo marks, kept in the words array beyond
// its length: a stamp, then one bit per field, 2i for word i and 2i+1 for ref
// i. The bits belong to the transaction whose mark stamp (Txn.mark) the stamp
// holds; stamps are ids and never reused, so any other stamp means "no field
// marked", and neither commit nor release clears them. Only the object's
// owner reads or writes the marks, with plain loads and stores: the next
// owner's CAS on the STM word follows the last owner's release of it, which
// orders the hand-off.
func (l *largeObj) marks() []uint64 {
	spare := l.w[len(l.w):cap(l.w)]
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(spare))), len(spare))
}

// mark records field key (2i or 2i+1) as undo-logged under stamp and reports
// whether it already was.
func (l *largeObj) mark(stamp, key uint64) bool {
	m := l.marks()
	if m[0] != stamp {
		clear(m[1:])
		m[0] = stamp
	}
	b, bit := &m[1+key/64], uint64(1)<<(key%64)
	if *b&bit != 0 {
		return true
	}
	*b |= bit
	return false
}

// unmark forgets field key's mark, whatever the stamp: a bit under another
// stamp is cleared with the rest when a transaction takes the marks.
func (l *largeObj) unmark(key uint64) {
	l.marks()[1+key/64] &^= uint64(1) << (key % 64)
}

// newObj allocates an object at version 1.
func newObj(id, creator uint64, nwords, nrefs int) *Obj {
	var o *Obj
	if nwords <= len(smallObj{}.w) && nrefs <= len(smallObj{}.r) {
		o = &new(smallObj).Obj
		id |= uint64(nwords)<<wordsShift | uint64(nrefs)<<refsShift
	} else {
		l := &largeObj{
			// The spare capacity holds the undo marks: the stamp, then
			// bits 2i and 2i+1 for i below max(nwords, nrefs).
			w: make([]atomic.Uint64, nwords, nwords+1+(2*max(nwords, nrefs)+63)/64),
			r: make([]atomic.Pointer[Obj], nrefs),
		}
		o = &l.Obj
		id |= largeBit
	}
	o.tag, o.creator = id, creator
	o.meta.Store(1 << verShift)
	return o
}

// bytesObj is a byte record: the header and the payload's length, with the
// payload in the bytes that follow them in the same allocation.
type bytesObj struct {
	Obj
	n uint64
}

// newBytes allocates a byte record holding the concatenation of parts. The
// allocation is a []uint64, so it is 8-byte aligned for the header's atomics
// and holds no pointers. It is at least as large as a smallObj, so the view
// that words and refs take of any header stays inside it (checkptr checks
// that in -race builds) before their slice bound panics.
func newBytes(id, creator uint64, parts [][]byte) *Obj {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	size := max(unsafe.Sizeof(smallObj{}), unsafe.Sizeof(bytesObj{})+uintptr(n))
	mem := make([]uint64, (size+7)/8)
	b := (*bytesObj)(unsafe.Pointer(&mem[0]))
	b.n = uint64(n)
	dst := unsafe.Slice(b.payload(), n)[:0]
	for _, p := range parts {
		dst = append(dst, p...)
	}
	b.tag, b.creator = id|bytesShape, creator
	b.meta.Store(1 << verShift)
	return &b.Obj
}

// payload points at the first byte after the record's length.
func (b *bytesObj) payload() *byte {
	return (*byte)(unsafe.Add(unsafe.Pointer(b), unsafe.Sizeof(*b)))
}

// bytes returns a byte record's payload; o must be one.
func (o *Obj) bytes() string {
	if o.tag&^idMask != bytesShape {
		panic(fmt.Sprintf("core: LoadBytes on object %d, which is not a byte record", o.ID()))
	}
	b := (*bytesObj)(unsafe.Pointer(o))
	return unsafe.String(b.payload(), b.n)
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
