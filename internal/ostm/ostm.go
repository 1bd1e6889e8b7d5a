// Package ostm implements the second baseline design the paper evaluates
// against: an object-based STM with buffered updates. Opening an object for
// update clones it into a private shadow copy; all writes go to the shadow,
// and commit locks the objects, validates the read set, and copies the
// shadows back.
//
// The design charges a whole-object copy on every OpenForUpdate and a second
// whole-object copy at commit — the cost the paper's direct-update design
// eliminates. Reads, as in the direct engine, are optimistic against a
// per-object version.
package ostm

import (
	"slices"
	"sync"
	"sync/atomic"

	"memtx/internal/chaos"
	"memtx/internal/engine"
)

// Each Engine hands out object and transaction ids from its own counter
// (Engine.ids, an engine.IDSource). Ids are only compared for equality within
// one engine, so independent engines may repeat numeric ids.

// Obj is a transactional object under the buffered object engine. meta packs
// version<<1 | lockedBit.
type Obj struct {
	id      uint64
	creator uint64
	meta    atomic.Uint64
	words   []atomic.Uint64
	refs    []atomic.Pointer[Obj]
	bytes   string // a byte record's payload (Txn.AllocBytes); no words or refs
}

const lockedBit = 1

// Engine is the object-based buffered-update STM.
type Engine struct {
	pool sync.Pool
	rec  engine.Recorder

	// ids is this engine's id counter.
	ids engine.IDSource
}

// New returns an object-based buffered-update engine.
func New() *Engine {
	e := &Engine{}
	e.pool.New = func() any {
		return &Txn{eng: e, shadows: make(map[*Obj]*shadow), ids: e.ids.Block(), stripe: e.rec.Stripe()}
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "ostm" }

// NewObj implements engine.Engine.
func (e *Engine) NewObj(nwords, nrefs int) engine.Handle {
	return newObj(e.ids.Take(), 0, nwords, nrefs)
}

func newObj(id, creator uint64, nwords, nrefs int) *Obj {
	o := &Obj{
		id:      id,
		creator: creator,
		words:   make([]atomic.Uint64, nwords),
		refs:    make([]atomic.Pointer[Obj], nrefs),
	}
	o.meta.Store(1 << 1)
	return o
}

// Begin implements engine.Engine.
func (e *Engine) Begin() engine.Txn { return e.begin(false) }

// BeginReadOnly implements engine.Engine.
func (e *Engine) BeginReadOnly() engine.Txn { return e.begin(true) }

func (e *Engine) begin(readonly bool) *Txn {
	t := e.pool.Get().(*Txn)
	t.start(readonly)
	return t
}

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats { return e.rec.Stats() }

// Metrics implements engine.Engine.
func (e *Engine) Metrics() *engine.Metrics { return e.rec.Metrics() }

// CM implements engine.Engine. ostm has no in-attempt wait points — conflicts
// abandon immediately — so the controller paces only the retry-loop backoff.
func (e *Engine) CM() *engine.CM { return e.rec.CM() }

// shadow is a private copy of an object opened for update.
type shadow struct {
	versionAtOpen uint64 // version (unshifted) when the shadow was taken
	words         []uint64
	refs          []*Obj
}

type readEntry struct {
	obj  *Obj
	seen uint64 // version (unshifted)
}

// Txn is a buffered object transaction attempt.
type Txn struct {
	eng      *Engine
	id       uint64
	readonly bool
	done     bool
	cause    engine.AbortCause // attributed abort cause if this attempt aborts
	stripe   *engine.Stripe    // where this Txn records, fixed when the pool builds it

	readLog []readEntry
	shadows map[*Obj]*shadow
	worder  []*Obj

	// ids is this transaction's private id block; persists across reuse.
	ids engine.IDAlloc

	// shadowFree recycles shadow records across attempts. Shadows never
	// escape the transaction (commit copies them back field by field), so —
	// unlike the direct engine's update entries — they are safe to reuse;
	// OpenForUpdate is allocation-free once the free list and the shadows'
	// field slices have warmed up to the workload's shape.
	shadowFree []*shadow

	// orderScratch is the commit-time lock order, reused across attempts.
	orderScratch []*Obj

	// scratch is Compact's deduplication set, reused across calls.
	scratch map[*Obj]struct{}

	// n counts this attempt's operations; finish folds it into the stripe.
	n engine.Stats
}

func (t *Txn) start(readonly bool) {
	t.id = t.ids.Take()
	t.readonly = readonly
	t.done = false
	t.stripe.Begin()
	t.cause = engine.CauseExplicit
	t.readLog = t.readLog[:0]
	clear(t.shadows)
	t.worder = t.worder[:0]
	t.n = engine.Stats{}
}

// ReadOnly implements engine.Txn.
func (t *Txn) ReadOnly() bool { return t.readonly }

// Stripe implements engine.Striped.
func (t *Txn) Stripe() *engine.Stripe { return t.stripe }

// SetAbortCause implements engine.Txn.
func (t *Txn) SetAbortCause(c engine.AbortCause) { t.cause = c }

func (t *Txn) obj(h engine.Handle) *Obj {
	o, ok := h.(*Obj)
	if !ok {
		engine.Abandon("ostm: foreign handle")
	}
	return o
}

// OpenForRead implements engine.Txn: record the version for commit-time
// validation. An object locked by a committing transaction is briefly
// unstable; the attempt is abandoned rather than spun on.
func (t *Txn) OpenForRead(h engine.Handle) {
	o := t.obj(h)
	t.n.OpenForRead++
	if o.creator == t.id {
		t.n.LocalSkips++
		return
	}
	if _, mine := t.shadows[o]; mine {
		return
	}
	if in := chaos.Active(); in != nil {
		in.Step(chaos.OpenForRead)
	}
	m := o.meta.Load()
	if m&lockedBit != 0 {
		t.cause = engine.CauseOwnership
		engine.AbandonCause(engine.CauseOwnership,
			"ostm: object %d locked during open-for-read", o.id)
	}
	t.readLog = append(t.readLog, readEntry{obj: o, seen: m >> 1})
	t.n.ReadLogEntries++
}

// OpenForUpdate implements engine.Txn: clone the object into a shadow. The
// lock is only taken at commit (lazy acquisition).
func (t *Txn) OpenForUpdate(h engine.Handle) {
	if t.readonly {
		panic("ostm: OpenForUpdate on read-only transaction")
	}
	o := t.obj(h)
	t.n.OpenForUpdate++
	if o.creator == t.id {
		t.n.LocalSkips++
		return
	}
	if _, mine := t.shadows[o]; mine {
		return
	}
	if in := chaos.Active(); in != nil {
		in.Step(chaos.OpenForUpdate)
	}
	m := o.meta.Load()
	if m&lockedBit != 0 {
		t.cause = engine.CauseOwnership
		engine.AbandonCause(engine.CauseOwnership,
			"ostm: object %d locked during open-for-update", o.id)
	}
	sh := t.getShadow(len(o.words), len(o.refs))
	sh.versionAtOpen = m >> 1
	for i := range o.words {
		sh.words[i] = o.words[i].Load()
	}
	for i := range o.refs {
		sh.refs[i] = o.refs[i].Load()
	}
	// The clone must be of a consistent snapshot: re-check the version.
	if o.meta.Load() != m {
		t.cause = engine.CauseValidation
		engine.AbandonCause(engine.CauseValidation,
			"ostm: object %d changed during clone", o.id)
	}
	t.shadows[o] = sh
	t.worder = append(t.worder, o)
}

// getShadow pops a recycled shadow from the free list (or allocates one) and
// sizes its field slices for an object of the given shape, reusing slice
// capacity where possible.
func (t *Txn) getShadow(nwords, nrefs int) *shadow {
	var sh *shadow
	if n := len(t.shadowFree); n > 0 {
		sh = t.shadowFree[n-1]
		t.shadowFree[n-1] = nil
		t.shadowFree = t.shadowFree[:n-1]
	} else {
		sh = &shadow{}
	}
	if cap(sh.words) < nwords {
		sh.words = make([]uint64, nwords)
	}
	sh.words = sh.words[:nwords]
	if cap(sh.refs) < nrefs {
		sh.refs = make([]*Obj, nrefs)
	}
	sh.refs = sh.refs[:nrefs]
	return sh
}

// LogForUndoWord implements engine.Txn (buffered updates need no undo log).
func (t *Txn) LogForUndoWord(engine.Handle, int) {}

// LogForUndoRef implements engine.Txn.
func (t *Txn) LogForUndoRef(engine.Handle, int) {}

// LoadWord implements engine.Txn: shadowed objects read their shadow,
// otherwise the field is read in place (validated at commit).
func (t *Txn) LoadWord(h engine.Handle, i int) uint64 {
	o := t.obj(h)
	if o.creator == t.id {
		return o.words[i].Load()
	}
	if sh, mine := t.shadows[o]; mine {
		return sh.words[i]
	}
	return o.words[i].Load()
}

// LoadRef implements engine.Txn.
func (t *Txn) LoadRef(h engine.Handle, i int) engine.Handle {
	o := t.obj(h)
	if o.creator != t.id {
		if sh, mine := t.shadows[o]; mine {
			return refHandle(sh.refs[i])
		}
	}
	return refHandle(o.refs[i].Load())
}

func refHandle(o *Obj) engine.Handle {
	if o == nil {
		return nil
	}
	return o
}

// StoreWord implements engine.Txn: writes go to the shadow.
func (t *Txn) StoreWord(h engine.Handle, i int, v uint64) {
	if t.readonly {
		panic("ostm: StoreWord on read-only transaction")
	}
	o := t.obj(h)
	if o.creator == t.id {
		t.n.LocalSkips++
		o.words[i].Store(v)
		return
	}
	sh, mine := t.shadows[o]
	if !mine {
		panic("ostm: StoreWord on object not open for update")
	}
	sh.words[i] = v
}

// StoreRef implements engine.Txn.
func (t *Txn) StoreRef(h engine.Handle, i int, r engine.Handle) {
	if t.readonly {
		panic("ostm: StoreRef on read-only transaction")
	}
	o := t.obj(h)
	var ro *Obj
	if r != nil {
		ro = t.obj(r)
	}
	if o.creator == t.id {
		t.n.LocalSkips++
		o.refs[i].Store(ro)
		return
	}
	sh, mine := t.shadows[o]
	if !mine {
		panic("ostm: StoreRef on object not open for update")
	}
	sh.refs[i] = ro
}

// Alloc implements engine.Txn.
func (t *Txn) Alloc(nwords, nrefs int) engine.Handle {
	return newObj(t.ids.Take(), t.id, nwords, nrefs)
}

// AllocBytes implements engine.Txn: a record has no words and no refs, so a
// field access on it panics with the runtime's index error.
func (t *Txn) AllocBytes(parts ...[]byte) engine.Handle {
	o := &Obj{id: t.ids.Take(), creator: t.id, bytes: engine.JoinBytes(parts)}
	o.meta.Store(1 << 1)
	return o
}

// LoadBytes implements engine.Txn: the payload never changes, so reading it
// takes no stripe or version check.
func (t *Txn) LoadBytes(h engine.Handle) string { return t.obj(h).bytes }

// Validate implements engine.Txn.
func (t *Txn) Validate() error {
	if !t.validCurrent(false) {
		return engine.ErrConflict
	}
	return nil
}

// validCurrent checks the read log. atCommit is true once Commit holds the
// locks on every shadowed object: a locked entry is then valid if the lock
// is ours (the object is shadowed — only we could have locked it at its
// version-at-open) and the shadow was taken at the recorded version.
func (t *Txn) validCurrent(atCommit bool) bool {
	for i := range t.readLog {
		re := &t.readLog[i]
		m := re.obj.meta.Load()
		if m&lockedBit != 0 {
			if atCommit {
				if sh, mine := t.shadows[re.obj]; mine && sh.versionAtOpen == re.seen {
					continue
				}
			}
			return false
		}
		if m>>1 != re.seen {
			return false
		}
	}
	return true
}

// Compact implements engine.Txn: deduplicate the read log. The dedup set is
// kept on the transaction and reused across calls.
func (t *Txn) Compact() {
	if len(t.readLog) < 2 {
		return
	}
	if t.scratch == nil {
		t.scratch = make(map[*Obj]struct{}, len(t.readLog))
	} else {
		clear(t.scratch)
	}
	seen := t.scratch
	kept := t.readLog[:0]
	for _, re := range t.readLog {
		if _, dup := seen[re.obj]; dup {
			continue
		}
		seen[re.obj] = struct{}{}
		kept = append(kept, re)
	}
	t.readLog = kept
}

// Commit implements engine.Txn: lock shadowed objects in id order, validate,
// copy shadows back, release with a version bump.
func (t *Txn) Commit() error {
	if t.done {
		panic("ostm: Commit on finished transaction")
	}
	if in := chaos.Active(); in != nil {
		// Before any object lock is taken, so an injected abort or panic
		// unwinds with nothing held.
		in.Step(chaos.CommitValidate)
	}
	if len(t.worder) == 0 {
		ok := t.validCurrent(false)
		if !ok {
			t.cause = engine.CauseValidation
		}
		t.finish(ok)
		if !ok {
			return engine.ErrConflict
		}
		return nil
	}

	order := append(t.orderScratch[:0], t.worder...)
	t.orderScratch = order
	slices.SortFunc(order, func(a, b *Obj) int {
		switch {
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		default:
			return 0
		}
	})

	for i, o := range order {
		pre := t.shadows[o].versionAtOpen << 1
		if !o.meta.CompareAndSwap(pre, pre|lockedBit) {
			t.releaseLocked(order[:i], false)
			t.cause = engine.CauseOwnership
			t.finish(false)
			return engine.ErrConflict
		}
	}
	if !t.validCurrent(true) {
		t.releaseLocked(order, false)
		t.cause = engine.CauseValidation
		t.finish(false)
		return engine.ErrConflict
	}
	if in := chaos.Active(); in != nil {
		// Delay-only by construction (chaos.New clamps WriteBack): stretches
		// the window where the object locks stay held.
		in.Step(chaos.WriteBack)
	}
	for _, o := range order {
		sh := t.shadows[o]
		for i := range sh.words {
			o.words[i].Store(sh.words[i])
		}
		for i := range sh.refs {
			o.refs[i].Store(sh.refs[i])
		}
	}
	t.releaseLocked(order, true)
	t.finish(true)
	return nil
}

// releaseLocked unlocks the objects this commit locked (a prefix of the lock
// order), bumping the version on success and restoring the pre-lock word —
// recomputed from the shadow's version-at-open — on failure.
func (t *Txn) releaseLocked(locked []*Obj, committed bool) {
	for _, o := range locked {
		pre := t.shadows[o].versionAtOpen << 1
		if committed {
			o.meta.Store(pre + (1 << 1)) // version+1, unlocked
		} else {
			o.meta.Store(pre)
		}
	}
}

// Abort implements engine.Txn: shadows are discarded.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.finish(false)
}

func (t *Txn) finish(committed bool) {
	t.done = true
	t.stripe.Finish(&t.n, committed, t.cause)
	const keepCap = 1 << 14
	// keepShadows bounds the recycled-shadow free list so a single wide
	// transaction doesn't pin shadow capacity in the pool forever.
	const keepShadows = 256
	if cap(t.readLog) > keepCap {
		t.readLog = nil
	}
	for _, sh := range t.shadows {
		if len(t.shadowFree) >= keepShadows {
			break
		}
		// Drop the object references (to full capacity — reslicing in
		// getShadow can expose stale tails) so pooled shadows pin no objects.
		clear(sh.refs[:cap(sh.refs)])
		t.shadowFree = append(t.shadowFree, sh)
	}
	if len(t.shadows) > keepCap {
		t.shadows = make(map[*Obj]*shadow)
		t.worder = nil
	} else {
		clear(t.shadows)
	}
	if cap(t.orderScratch) > keepCap {
		t.orderScratch = nil
	}
	if len(t.scratch) > keepCap {
		t.scratch = nil
	}
	t.eng.pool.Put(t)
}

var (
	_ engine.Engine = (*Engine)(nil)
	_ engine.Txn    = (*Txn)(nil)
)
