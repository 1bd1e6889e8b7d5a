package core

import (
	"memtx/internal/chaos"
	"memtx/internal/engine"
)

// Validate implements engine.Txn: it re-checks every read-log entry against
// the objects' current STM words. A read is valid if the word's version (the
// displaced one, if the object is owned) is the recorded one and the object
// is either unowned or owned by this transaction. Any other state — a newer
// version, or ownership by another transaction — is a conflict.
func (t *Txn) Validate() error {
	if !t.valid() {
		return engine.ErrConflict
	}
	return nil
}

func (t *Txn) valid() bool {
	for i := range t.readLog {
		re := &t.readLog[i]
		w := re.obj.meta.Load()
		if w>>verShift != re.seen || (w&ownedBit != 0 && re.obj.owner.Load() != t.id) {
			return false
		}
	}
	return true
}

// Commit implements engine.Txn. It validates the read log and, if valid,
// releases every owned object at version+1; the in-place updates thereby
// become permanent. On conflict the transaction is rolled back and
// ErrConflict returned.
//
// The release loop performs two stores per object and no allocation,
// matching the paper's constant-time commit per updated object.
func (t *Txn) Commit() error {
	if t.done {
		panic("core: Commit on finished transaction")
	}
	if in := chaos.Active(); in != nil {
		// Before validation: nothing is released yet, so an injected abort
		// or panic unwinds through the ordinary rollback.
		in.Step(chaos.CommitValidate)
	}
	if !t.valid() {
		t.cause = engine.CauseValidation
		t.rollback()
		return engine.ErrConflict
	}
	if in := chaos.Active(); in != nil {
		// Delay-only by construction (chaos.New clamps WriteBack): stretches
		// the window where this transaction holds ownership past validation.
		in.Step(chaos.WriteBack)
	}
	for i, o := range t.updateLog {
		o.release(o.meta.Load()>>verShift + 1)
		t.updateLog[i] = nil // pooled transactions must not pin objects
	}
	eng, published := t.eng, len(t.updateLog) > 0
	t.finish(true) // recycles t; use the captured engine afterwards
	if published {
		eng.signal.bump() // wake transactions blocked in WaitCommit, if any
	}
	return nil
}

// Abort implements engine.Txn: it rolls back all in-place updates and
// releases ownership.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.rollback()
}

// rollback restores undo-logged fields in reverse order, then releases each
// owned object.
func (t *Txn) rollback() {
	t.undoTo(0)
	t.releaseFrom(0)
	t.finish(false)
}

// undoTo restores the undo-logged fields beyond the first n entries, newest
// first, and truncates the undo log to n. It clears each restored field's
// mark on a large object, so that a savepoint rollback leaves marked exactly
// the fields whose entries remain.
func (t *Txn) undoTo(n int) {
	for i := len(t.undoLog) - 1; i >= n; i-- {
		u := &t.undoLog[i]
		key := uint64(u.idx) * 2
		if u.isRef {
			u.obj.refs()[u.idx].Store(u.oldRef)
			key++
		} else {
			u.obj.words()[u.idx].Store(u.oldWord)
		}
		if u.obj.tag&largeBit != 0 {
			u.obj.large().unmark(key)
		}
	}
	t.undoLog = t.undoLog[:n]
}

// releaseFrom gives up the objects acquired beyond the first n update-log
// entries and truncates the update log to n. Objects that were actually
// written (dirty) are released at version+1 so that optimistic readers which
// may have observed the transient values fail validation; clean objects get
// their original version back, avoiding false conflicts.
func (t *Txn) releaseFrom(n int) {
	for i, o := range t.updateLog[n:] {
		w := o.meta.Load()
		v := w >> verShift
		if w&dirtyBit != 0 {
			v++
		}
		o.release(v)
		t.updateLog[n+i] = nil
	}
	t.updateLog = t.updateLog[:n]
}

// Compact implements engine.Txn: it deduplicates the read log in place,
// keeping the earliest entry per object, and models the paper's GC-time log
// compaction. Duplicate read-log entries arise when the filter evicts a key
// or is disabled.
func (t *Txn) Compact() {
	if len(t.readLog) < 2 {
		return
	}
	if t.scratch == nil {
		t.scratch = make(map[uint64]struct{}, len(t.readLog))
	} else {
		clear(t.scratch)
	}
	seen := t.scratch
	kept := t.readLog[:0]
	for _, re := range t.readLog {
		if _, dup := seen[re.obj.ID()]; dup {
			continue
		}
		seen[re.obj.ID()] = struct{}{}
		kept = append(kept, re)
	}
	t.n.ReadLogDropped += uint64(len(t.readLog) - len(kept))
	t.readLog = kept
	t.n.Compactions++
}

// finish folds the attempt into the Txn's stripe and recycles the Txn.
func (t *Txn) finish(committed bool) {
	t.done = true
	t.stripe.Finish(&t.n, committed, t.cause)
	// Avoid pinning giant log capacity in the pool.
	const keepCap = 1 << 14
	if cap(t.readLog) > keepCap {
		t.readLog = nil
	}
	if cap(t.undoLog) > keepCap {
		t.undoLog = nil
	}
	if cap(t.updateLog) > keepCap {
		t.updateLog = nil
	}
	if len(t.scratch) > keepCap {
		t.scratch = nil
	}
	// A filter table above keepFilterSlots (engines configured with very
	// large filters) is released rather than pinned by the pool; it is
	// re-created lazily if the next transaction needs it. Tables at or below
	// the bound — including the default size — are kept warm.
	if t.filter != nil && t.filter.Size() > keepFilterSlots {
		t.filter = nil
	}
	t.eng.pool.Put(t)
}

// keepFilterSlots bounds the duplicate-log filter capacity a pooled
// transaction may retain: the default filter size (4096 slots, ~100 KiB).
const keepFilterSlots = 1 << 12

// ReadLogLen reports the current read-log length; exported for the log
// compaction experiment (E6).
func (t *Txn) ReadLogLen() int { return len(t.readLog) }

// UndoLogLen reports the current undo-log length.
func (t *Txn) UndoLogLen() int { return len(t.undoLog) }
