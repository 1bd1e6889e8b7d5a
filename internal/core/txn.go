package core

import (
	"context"
	"fmt"
	"time"

	"memtx/internal/chaos"
	"memtx/internal/engine"
	"memtx/internal/filter"
)

// readSlot is the filter key used for object-level read-log entries. Undo
// entries of a small object use 2*idx for word idx and 2*idx+1 for ref idx,
// so the read key cannot collide with any undo key; a large object's undo
// entries are deduplicated exactly by its own marks (largeObj.mark) under the
// same keys and never reach the filter.
const readSlot = ^uint64(0)

// roFilterFrom is the read-log length from which a read-only transaction
// consults the duplicate filter. A shorter one logs a duplicate open again:
// validation tolerates it, and it costs less than a probe per open of a
// table that lookups, which rarely repeat an object, almost never hit.
// Update transactions consult the filter from their first open.
const roFilterFrom = 64

// Txn is one attempt of a transaction against the direct-update engine.
type Txn struct {
	eng      *Engine
	id       uint64
	readonly bool
	done     bool
	cause    engine.AbortCause // attributed abort cause if this attempt aborts
	stripe   *engine.Stripe    // where this Txn records, fixed when the pool builds it

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

	// mark is the stamp under which this attempt marks the fields it has
	// undo-logged on large objects: the transaction id, and a fresh id from
	// each Save on, so that a field logged before a savepoint is logged
	// again after it.
	mark uint64

	// ids is this transaction's private block of pre-reserved object ids;
	// it persists across pool reuse.
	ids engine.IDAlloc

	// scratch is Compact's deduplication set, reused across calls.
	scratch map[uint64]struct{}

	// opened tracks opened object ids in checked mode only.
	opened map[uint64]bool // value: true if open for update

	// n counts this attempt's operations; finish folds it into the stripe.
	n engine.Stats
}

func newTxn(e *Engine) *Txn {
	t := &Txn{eng: e, ids: e.ids.Block(), stripe: e.rec.Stripe()}
	if e.checked {
		t.opened = make(map[uint64]bool)
	}
	return t
}

func (t *Txn) start(readonly bool) {
	t.id = t.ids.Take()
	t.mark = t.id
	t.readonly = readonly
	t.done = false
	t.stripe.Begin()
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
	t.n = engine.Stats{}
}

// logged records that field key (2i for word i, 2i+1 for ref i) of o is
// undo-logged and reports whether it already was: exactly, by o's own marks,
// for a large object, and by the duplicate-log filter for any other.
func (t *Txn) logged(o *Obj, key uint64) bool {
	if o.tag&largeBit != 0 {
		return o.large().mark(t.mark, key)
	}
	return t.seen(o.ID(), key)
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

// Stripe implements engine.Striped.
func (t *Txn) Stripe() *engine.Stripe { return t.stripe }

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
	t.n.OpenForRead++
	if o.creator == t.id {
		t.n.LocalSkips++
		return
	}
	if t.opened != nil && !t.opened[o.ID()] {
		t.opened[o.ID()] = false
	}
	w := o.meta.Load()
	if o.ownedBy(w, t.id) {
		return // open for update subsumes open for read
	}
	if (!t.readonly || len(t.readLog) >= roFilterFrom) && t.seen(o.ID(), readSlot) {
		t.n.FilterHits++
		return
	}
	if in := chaos.Active(); in != nil {
		in.Step(chaos.OpenForRead)
	}
	// An owned word still carries the displaced version.
	t.readLog = append(t.readLog, readEntry{obj: o, seen: w >> verShift})
	t.n.ReadLogEntries++
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
	t.n.OpenForUpdate++
	if o.creator == t.id {
		t.n.LocalSkips++
		return
	}
	if t.opened != nil {
		t.opened[o.ID()] = true
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
		t.expireAtWait(o.ID(), owner)
		if in := chaos.Active(); in != nil {
			in.Step(chaos.CMWait)
		}
		if !t.eng.cm.Wait(attempt) {
			t.cause = engine.CauseCMKill
			engine.AbandonCause(engine.CauseCMKill,
				"object %d owned by txn %d", o.ID(), owner)
		}
		t.n.CMWaits++
		attempt++
	}
}

// LogForUndoWord implements engine.Txn.
func (t *Txn) LogForUndoWord(h engine.Handle, i int) {
	o := t.obj(h)
	if o.creator == t.id {
		t.n.LocalSkips++
		return
	}
	if t.logged(o, uint64(i)*2) {
		t.n.FilterHits++
		return
	}
	t.checkOwned(o, "LogForUndoWord")
	t.markDirty(o)
	t.undoLog = append(t.undoLog, undoEntry{obj: o, idx: int32(i), oldWord: o.words()[i].Load()})
	t.n.UndoLogged++
}

// LogForUndoRef implements engine.Txn.
func (t *Txn) LogForUndoRef(h engine.Handle, i int) {
	o := t.obj(h)
	if o.creator == t.id {
		t.n.LocalSkips++
		return
	}
	if t.logged(o, uint64(i)*2+1) {
		t.n.FilterHits++
		return
	}
	t.checkOwned(o, "LogForUndoRef")
	t.markDirty(o)
	t.undoLog = append(t.undoLog, undoEntry{obj: o, idx: int32(i), isRef: true, oldRef: o.refs()[i].Load()})
	t.n.UndoLogged++
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
		panic(fmt.Sprintf("core: %s on object %d not open for update", op, o.ID()))
	}
}

// LoadWord implements engine.Txn. After OpenForRead this is a single atomic
// load — the decomposed interface's fast path.
func (t *Txn) LoadWord(h engine.Handle, i int) uint64 {
	o := t.obj(h)
	if t.opened != nil && o.creator != t.id {
		if _, ok := t.opened[o.ID()]; !ok {
			panic(fmt.Sprintf("core: LoadWord on object %d that was never opened", o.ID()))
		}
	}
	return o.words()[i].Load()
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
	o.words()[i].Store(v)
}

// LoadRef implements engine.Txn.
func (t *Txn) LoadRef(h engine.Handle, i int) engine.Handle {
	o := t.obj(h)
	if t.opened != nil && o.creator != t.id {
		if _, ok := t.opened[o.ID()]; !ok {
			panic(fmt.Sprintf("core: LoadRef on object %d that was never opened", o.ID()))
		}
	}
	r := o.refs()[i].Load()
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
	o.refs()[i].Store(ro)
}

// Alloc implements engine.Txn: the allocated object is tagged with this
// transaction's id so every subsequent barrier on it short-circuits (the
// paper's transaction-local allocation optimization). If the transaction
// aborts, the object is unreachable garbage; no rollback is needed.
func (t *Txn) Alloc(nwords, nrefs int) engine.Handle {
	return newObj(t.ids.Take(), t.id, nwords, nrefs)
}

// AllocBytes implements engine.Txn. The record is complete before it is
// returned and never written again, so it takes no ownership and no undo.
func (t *Txn) AllocBytes(parts ...[]byte) engine.Handle {
	return newBytes(t.ids.Take(), t.id, parts)
}

// LoadBytes implements engine.Txn: no open, no read-log entry and no filter
// probe, since the record cannot change under the reader.
func (t *Txn) LoadBytes(h engine.Handle) string { return t.obj(h).bytes() }

var _ engine.Txn = (*Txn)(nil)
