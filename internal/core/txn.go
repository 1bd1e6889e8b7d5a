package core

import (
	"context"
	"fmt"
	"time"

	"memtx/internal/chaos"
	"memtx/internal/engine"
	"memtx/internal/filter"
)

// readSlot is the filter key used for object-level read-log entries; word and
// reference undo entries use 2*idx and 2*idx+1 respectively, so the read key
// cannot collide with any undo key.
const readSlot = ^uint64(0)

// Txn is one attempt of a transaction against the direct-update engine.
type Txn struct {
	eng      *Engine
	id       uint64
	readonly bool
	done     bool
	began    time.Time         // attempt start, for the attempt-latency histogram
	cause    engine.AbortCause // attributed abort cause if this attempt aborts

	// ctx and deadline are bound by engine.RunCtx (CtxBinder); CM wait
	// points observe them so an attempt parked behind a stalled owner
	// honors its budget. Both are cleared on start — transactions begun via
	// plain Run are unbounded.
	ctx      context.Context
	deadline time.Time

	readLog   []readEntry
	updateLog []*Obj // objects owned by this attempt, in acquisition order
	undoLog   []undoEntry

	// filter is the duplicate-log filter, allocated lazily on the first
	// duplicate check (seen) so that transactions which never log pay
	// nothing and pooled transactions don't pin an unused table.
	filter *filter.Filter

	// ids is this transaction's private block of pre-reserved object ids;
	// it persists across pool reuse.
	ids engine.IDAlloc

	// scratch is Compact's deduplication set, reused across calls.
	scratch map[uint64]struct{}

	// opened tracks opened object ids in checked mode only.
	opened map[uint64]bool // value: true if open for update

	// local statistic counters, folded into the engine on finish.
	nOpenRead, nOpenUpdate, nUndo, nReadLog uint64
	nFilterHits, nLocalSkips                uint64
	nCompactions, nReadDropped, nCMWaits    uint64
}

func newTxn(e *Engine) *Txn {
	t := &Txn{eng: e, ids: e.ids.Block()}
	if e.checked {
		t.opened = make(map[uint64]bool)
	}
	return t
}

func (t *Txn) start(readonly bool) {
	t.id = t.ids.Take()
	t.readonly = readonly
	t.done = false
	t.began = time.Now()
	t.cause = engine.CauseExplicit
	t.ctx = nil
	t.deadline = time.Time{}
	t.readLog = t.readLog[:0]
	t.updateLog = t.updateLog[:0]
	t.undoLog = t.undoLog[:0]
	if t.filter != nil {
		t.filter.Reset()
	}
	if t.opened != nil {
		clear(t.opened)
	}
	t.nOpenRead, t.nOpenUpdate, t.nUndo, t.nReadLog = 0, 0, 0, 0
	t.nFilterHits, t.nLocalSkips = 0, 0
	t.nCompactions, t.nReadDropped, t.nCMWaits = 0, 0, 0
}

// seen lazily creates the duplicate-log filter and records the key, reporting
// whether it was already recorded during this transaction.
func (t *Txn) seen(obj, field uint64) bool {
	if t.filter == nil {
		if t.eng.filterSize <= 0 {
			return false
		}
		t.filter = filter.New(t.eng.filterSize)
	}
	return t.filter.Seen(obj, field)
}

// ReadOnly implements engine.Txn.
func (t *Txn) ReadOnly() bool { return t.readonly }

// BindContext implements engine.CtxBinder: once bound, every CM wait checks
// the context and deadline and abandons the attempt with CauseDeadline when
// either has expired, so a budgeted transaction cannot block indefinitely
// behind a stalled owner.
func (t *Txn) BindContext(ctx context.Context, deadline time.Time) {
	t.ctx = ctx
	t.deadline = deadline
}

// expireAtWait abandons the attempt with CauseDeadline if the bound context
// or deadline has expired while the transaction waits on another owner.
func (t *Txn) expireAtWait(objID, ownerID uint64) {
	if t.ctx != nil && t.ctx.Err() != nil {
		t.cause = engine.CauseDeadline
		engine.AbandonCause(engine.CauseDeadline,
			"context done waiting on object %d owned by txn %d", objID, ownerID)
	}
	if !t.deadline.IsZero() && !time.Now().Before(t.deadline) {
		t.cause = engine.CauseDeadline
		engine.AbandonCause(engine.CauseDeadline,
			"deadline passed waiting on object %d owned by txn %d", objID, ownerID)
	}
}

// SetAbortCause implements engine.Txn.
func (t *Txn) SetAbortCause(c engine.AbortCause) { t.cause = c }

func (t *Txn) obj(h engine.Handle) *Obj {
	o, ok := h.(*Obj)
	if !ok {
		panic(fmt.Sprintf("core: foreign handle %T passed to direct engine", h))
	}
	return o
}

// OpenForRead implements engine.Txn. Reads are optimistic: the current
// version is recorded and checked at commit. An object owned by another
// transaction can still be opened; the displaced version is recorded, so the
// read validates only if that owner rolls back without having written.
func (t *Txn) OpenForRead(h engine.Handle) {
	o := t.obj(h)
	t.nOpenRead++
	if o.creator == t.id {
		t.nLocalSkips++
		return
	}
	if t.opened != nil && !t.opened[o.id] {
		t.opened[o.id] = false
	}
	w := o.meta.Load()
	if o.ownedBy(w, t.id) {
		return // open for update subsumes open for read
	}
	if t.seen(o.id, readSlot) {
		t.nFilterHits++
		return
	}
	if in := chaos.Active(); in != nil {
		in.Step(chaos.OpenForRead)
	}
	// An owned word still carries the displaced version.
	t.readLog = append(t.readLog, readEntry{obj: o, seen: w >> verShift})
	t.nReadLog++
	if th := t.eng.compactThreshold; th > 0 && len(t.readLog) > th {
		t.Compact()
	}
}

// OpenForUpdate implements engine.Txn. Ownership is acquired eagerly by
// CASing the owned bit onto the STM word and then tagging the object with
// this transaction's id. On an update-update conflict the contention manager
// decides whether to spin or to abandon the attempt.
func (t *Txn) OpenForUpdate(h engine.Handle) {
	if t.readonly {
		panic("core: OpenForUpdate on read-only transaction")
	}
	o := t.obj(h)
	t.nOpenUpdate++
	if o.creator == t.id {
		t.nLocalSkips++
		return
	}
	if t.opened != nil {
		t.opened[o.id] = true
	}
	if in := chaos.Active(); in != nil {
		in.Step(chaos.OpenForUpdate)
	}
	attempt := 0
	for {
		w := o.meta.Load()
		if w&ownedBit == 0 {
			if o.meta.CompareAndSwap(w, w|ownedBit) {
				o.owner.Store(t.id)
				t.updateLog = append(t.updateLog, o)
				return
			}
			continue // lost the race: re-examine the STM word
		}
		owner := o.owner.Load()
		if owner == t.id {
			return // already own it
		}
		// owner may read 0: the winner of the CAS has not tagged the object
		// yet. It is owned all the same.
		t.expireAtWait(o.id, owner)
		if in := chaos.Active(); in != nil {
			in.Step(chaos.CMWait)
		}
		if !t.eng.cm.Wait(attempt) {
			t.cause = engine.CauseCMKill
			engine.AbandonCause(engine.CauseCMKill,
				"object %d owned by txn %d", o.id, owner)
		}
		t.nCMWaits++
		attempt++
	}
}

// LogForUndoWord implements engine.Txn.
func (t *Txn) LogForUndoWord(h engine.Handle, i int) {
	o := t.obj(h)
	if o.creator == t.id {
		t.nLocalSkips++
		return
	}
	if t.seen(o.id, uint64(i)*2) {
		t.nFilterHits++
		return
	}
	t.checkOwned(o, "LogForUndoWord")
	t.markDirty(o)
	t.undoLog = append(t.undoLog, undoEntry{obj: o, idx: int32(i), oldWord: o.words[i].Load()})
	t.nUndo++
}

// LogForUndoRef implements engine.Txn.
func (t *Txn) LogForUndoRef(h engine.Handle, i int) {
	o := t.obj(h)
	if o.creator == t.id {
		t.nLocalSkips++
		return
	}
	if t.seen(o.id, uint64(i)*2+1) {
		t.nFilterHits++
		return
	}
	t.checkOwned(o, "LogForUndoRef")
	t.markDirty(o)
	t.undoLog = append(t.undoLog, undoEntry{obj: o, idx: int32(i), isRef: true, oldRef: o.refs[i].Load()})
	t.nUndo++
}

// markDirty sets the owned object's dirty bit so that rollback bumps the
// version: concurrent optimistic readers may have observed the in-place
// writes and must fail validation even though the data was restored.
// Only the owner changes an owned word, so a plain store suffices.
func (t *Txn) markDirty(o *Obj) {
	w := o.meta.Load()
	if w&dirtyBit == 0 && o.ownedBy(w, t.id) {
		o.meta.Store(w | dirtyBit)
	}
}

// checkOwned verifies protocol discipline in checked mode: the object must be
// owned by this transaction (or be transaction-local, handled by callers).
func (t *Txn) checkOwned(o *Obj, op string) {
	if !t.eng.checked {
		return
	}
	if !o.ownedBy(o.meta.Load(), t.id) {
		panic(fmt.Sprintf("core: %s on object %d not open for update", op, o.id))
	}
}

// LoadWord implements engine.Txn. After OpenForRead this is a single atomic
// load — the decomposed interface's fast path.
func (t *Txn) LoadWord(h engine.Handle, i int) uint64 {
	o := t.obj(h)
	if t.opened != nil && o.creator != t.id {
		if _, ok := t.opened[o.id]; !ok {
			panic(fmt.Sprintf("core: LoadWord on object %d that was never opened", o.id))
		}
	}
	return o.words[i].Load()
}

// StoreWord implements engine.Txn. The object must be open for update and the
// word undo-logged (both no-ops for transaction-local objects).
func (t *Txn) StoreWord(h engine.Handle, i int, v uint64) {
	if t.readonly {
		panic("core: StoreWord on read-only transaction")
	}
	o := t.obj(h)
	if o.creator != t.id {
		t.checkOwned(o, "StoreWord")
	}
	o.words[i].Store(v)
}

// LoadRef implements engine.Txn.
func (t *Txn) LoadRef(h engine.Handle, i int) engine.Handle {
	o := t.obj(h)
	if t.opened != nil && o.creator != t.id {
		if _, ok := t.opened[o.id]; !ok {
			panic(fmt.Sprintf("core: LoadRef on object %d that was never opened", o.id))
		}
	}
	r := o.refs[i].Load()
	if r == nil {
		return nil
	}
	return r
}

// StoreRef implements engine.Txn.
func (t *Txn) StoreRef(h engine.Handle, i int, r engine.Handle) {
	if t.readonly {
		panic("core: StoreRef on read-only transaction")
	}
	o := t.obj(h)
	if o.creator != t.id {
		t.checkOwned(o, "StoreRef")
	}
	var ro *Obj
	if r != nil {
		ro = t.obj(r)
	}
	o.refs[i].Store(ro)
}

// Alloc implements engine.Txn: the allocated object is tagged with this
// transaction's id so every subsequent barrier on it short-circuits (the
// paper's transaction-local allocation optimization). If the transaction
// aborts, the object is unreachable garbage; no rollback is needed.
func (t *Txn) Alloc(nwords, nrefs int) engine.Handle {
	return newObj(t.ids.Take(), t.id, nwords, nrefs)
}

var _ engine.Txn = (*Txn)(nil)
