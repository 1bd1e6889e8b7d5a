package core

import (
	"time"

	"memtx/internal/chaos"
	"memtx/internal/engine"
)

// Validate implements engine.Txn: it re-checks every read-log entry against
// the objects' current STM words. A read is valid if
//
//   - the object is unowned at the recorded version, or
//   - the object is owned by this transaction and the displaced version is
//     the recorded one.
//
// Any other state — a newer version, or ownership by another transaction —
// is a conflict.
func (t *Txn) Validate() error {
	if !t.valid() {
		return engine.ErrConflict
	}
	return nil
}

func (t *Txn) valid() bool {
	for i := range t.readLog {
		re := &t.readLog[i]
		m := re.obj.meta.Load()
		switch {
		case m.ownerID == 0:
			if m.version != re.seen {
				return false
			}
		case m.ownerID == t.id:
			if m.entry.oldMeta.version != re.seen {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Commit implements engine.Txn. It validates the read log and, if valid,
// releases every owned object by publishing its pre-built {version+1}
// record; the in-place updates thereby become permanent. On conflict the
// transaction is rolled back and ErrConflict returned.
//
// The release loop performs only pointer stores (the records were built at
// open time), matching the paper's constant-time commit per updated object.
func (t *Txn) Commit() error {
	if t.done {
		panic("core: Commit on finished transaction")
	}
	commitStart := time.Now()
	if in := chaos.Active(); in != nil {
		// Before the fast-path check so read-only commits are exercised too;
		// nothing is owned-for-release yet, so abort/panic unwinds cleanly.
		in.Step(chaos.CommitValidate)
	}
	if t.readonly && !t.roSawOwner && t.eng.valSeq.Load() == t.roSeq {
		// Read-only fast path: no object this transaction opened was owned
		// by a writer, and no writer has dirtied or committed anything since
		// the begin-time valSeq snapshot, so every optimistic read is still
		// at its recorded version — commit in O(1) without walking the read
		// log. See Engine.valSeq for why this is sound.
		eng := t.eng
		eng.stats.roFastCommits.Add(1)
		t.finish(true)
		eng.metrics.ObserveCommit(time.Since(commitStart))
		return nil
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
	for _, e := range t.updateLog {
		e.obj.meta.Store(&e.newMeta)
		e.obj = nil
	}
	if len(t.updateLog) > 0 {
		// Invalidate concurrent read-only fast-path snapshots: the objects
		// released above now carry committed values a pre-commit snapshot
		// must not silently accept alongside older reads.
		t.eng.valSeq.Add(1)
	}
	eng, published := t.eng, len(t.updateLog) > 0
	t.finish(true) // recycles t; use the captured engine afterwards
	eng.metrics.ObserveCommit(time.Since(commitStart))
	if published {
		eng.signal.bump() // wake transactions blocked in WaitCommit
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
// owned object. Objects that were actually written (dirty) are released at
// version+1 so that optimistic readers which may have observed the transient
// values fail validation; clean objects get their original version record
// back, avoiding false conflicts.
func (t *Txn) rollback() {
	for i := len(t.undoLog) - 1; i >= 0; i-- {
		u := &t.undoLog[i]
		if u.isRef {
			u.obj.refs[u.idx].Store(u.oldRef)
		} else {
			u.obj.words[u.idx].Store(u.oldWord)
		}
	}
	for _, e := range t.updateLog {
		e.release()
	}
	t.finish(false)
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
		if _, dup := seen[re.obj.id]; dup {
			continue
		}
		seen[re.obj.id] = struct{}{}
		kept = append(kept, re)
	}
	t.nReadDropped += uint64(len(t.readLog) - len(kept))
	t.readLog = kept
	t.nCompactions++
}

// finish folds the transaction's local counters into the engine and recycles
// the Txn value.
func (t *Txn) finish(committed bool) {
	t.done = true
	s := &t.eng.stats
	m := &t.eng.metrics
	m.ObserveAttempt(time.Since(t.began))
	if committed {
		s.commits.Add(1)
	} else {
		m.RecordAbort(t.cause)
		s.aborts.Add(1)
	}
	s.openForRead.Add(t.nOpenRead)
	s.openForUpdate.Add(t.nOpenUpdate)
	s.undoLogged.Add(t.nUndo)
	s.readLogEntries.Add(t.nReadLog)
	s.filterHits.Add(t.nFilterHits)
	s.localSkips.Add(t.nLocalSkips)
	s.compactions.Add(t.nCompactions)
	s.readLogDropped.Add(t.nReadDropped)
	s.cmWaits.Add(t.nCMWaits)
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
