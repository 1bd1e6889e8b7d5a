// Package wstm implements the first baseline design the paper evaluates
// against: a word-based STM with buffered updates and a global version
// clock, in the style of WSTM/TL2.
//
// Metadata lives in a global table of striped versioned locks, indexed by a
// hash of (object, field). Reads are validated against the transaction's
// read version at the time of the read (so transactions observe consistent
// snapshots); writes are buffered in a private write set and written back at
// commit under the stripe locks.
//
// Because the design is word-based, its costs are attached to LoadWord and
// StoreWord rather than to the Open operations, which are no-ops here. That
// asymmetry is the point of experiment E1: the decomposed object-based
// direct-update STM pays once per object, this design pays once per access.
package wstm

import (
	"slices"
	"sync"
	"sync/atomic"

	"memtx/internal/chaos"
	"memtx/internal/engine"
)

// DefaultStripes is the size of the versioned-lock table.
const DefaultStripes = 1 << 20

// Each Engine hands out object and transaction ids from its own counter
// (Engine.ids, an engine.IDSource), so the hot allocation paths touch the
// engine's cache line once per ~1k ids. Ids are only compared for equality
// within one engine, so independent engines may repeat numeric ids.

// Obj is a transactional object under the word-based engine. Fields are
// atomics because optimistic readers race with commit-time write-back.
type Obj struct {
	id      uint64
	creator uint64
	words   []atomic.Uint64
	refs    []atomic.Pointer[Obj]
	bytes   string // a byte record's payload (Txn.AllocBytes); no words or refs
}

// Engine is the word-based buffered-update STM.
type Engine struct {
	clock   atomic.Uint64
	stripes []paddedStripe
	mask    uint64
	pool    sync.Pool
	rec     engine.Recorder

	// ids is this engine's id counter.
	ids engine.IDSource
}

// paddedStripe avoids false sharing between adjacent versioned locks.
type paddedStripe struct {
	v atomic.Uint64
	_ [7]uint64
}

// Option configures the engine.
type Option func(*Engine)

// WithStripes sets the versioned-lock table size (rounded up to a power of
// two).
func WithStripes(n int) Option {
	return func(e *Engine) {
		p := 1
		for p < n {
			p <<= 1
		}
		e.stripes = make([]paddedStripe, p)
		e.mask = uint64(p - 1)
	}
}

// New returns a word-based buffered-update engine.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	if e.stripes == nil {
		e.stripes = make([]paddedStripe, DefaultStripes)
		e.mask = DefaultStripes - 1
	}
	e.pool.New = func() any {
		return &Txn{eng: e, writes: make(map[wkey]wval), ids: e.ids.Block(), stripe: e.rec.Stripe()}
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "wstm" }

// NewObj implements engine.Engine.
func (e *Engine) NewObj(nwords, nrefs int) engine.Handle {
	return newObj(e.ids.Take(), 0, nwords, nrefs)
}

func newObj(id, creator uint64, nwords, nrefs int) *Obj {
	return &Obj{
		id:      id,
		creator: creator,
		words:   make([]atomic.Uint64, nwords),
		refs:    make([]atomic.Pointer[Obj], nrefs),
	}
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

// stripeFor hashes an object field to the index of its versioned lock.
func (e *Engine) stripeFor(o *Obj, slot uint64) uint64 {
	x := o.id*0x9E3779B97F4A7C15 ^ (slot+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return x & e.mask
}

func (e *Engine) stripe(i uint64) *atomic.Uint64 { return &e.stripes[i].v }

const lockedBit = 1

// wkey identifies one buffered field write.
type wkey struct {
	obj  *Obj
	slot uint64 // 2*i for word i, 2*i+1 for ref i
}

type wval struct {
	word uint64
	ref  *Obj
}

// Txn is a word-based transaction attempt.
type Txn struct {
	eng      *Engine
	id       uint64
	rv       uint64 // read version: global clock at start
	readonly bool
	done     bool
	cause    engine.AbortCause // attributed abort cause if this attempt aborts
	stripe   *engine.Stripe    // where this Txn records, fixed when the pool builds it

	reads  []readEntry // stripe pointers and versions observed
	writes map[wkey]wval
	worder []wkey // write-back order (deterministic)

	// ids is this transaction's private id block; persists across reuse.
	ids engine.IDAlloc

	// lockScratch is the commit-time stripe list, reused across attempts so
	// commit performs no allocation.
	lockScratch []lockedStripe

	// n counts this attempt's operations; finish folds it into the stripe.
	n engine.Stats
}

type readEntry struct {
	stripe uint64 // index into the versioned-lock table
	seen   uint64
}

func (t *Txn) start(readonly bool) {
	t.id = t.ids.Take()
	t.rv = t.eng.clock.Load()
	t.readonly = readonly
	t.done = false
	t.stripe.Begin()
	t.cause = engine.CauseExplicit
	t.reads = t.reads[:0]
	clear(t.writes)
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
		engine.Abandon("wstm: foreign handle")
	}
	return o
}

// OpenForRead implements engine.Txn. Word-based designs have no object-level
// open; the cost sits on each access.
func (t *Txn) OpenForRead(h engine.Handle) { t.n.OpenForRead++ }

// OpenForUpdate implements engine.Txn (a no-op for this design).
func (t *Txn) OpenForUpdate(h engine.Handle) {
	if t.readonly {
		panic("wstm: OpenForUpdate on read-only transaction")
	}
	t.n.OpenForUpdate++
}

// LogForUndoWord implements engine.Txn. Buffered updates need no undo log.
func (t *Txn) LogForUndoWord(engine.Handle, int) {}

// LogForUndoRef implements engine.Txn.
func (t *Txn) LogForUndoRef(engine.Handle, int) {}

// LoadWord implements engine.Txn: a TL2-style consistent read. The stripe is
// sampled before and after the data read; a locked or too-new stripe aborts
// the attempt.
func (t *Txn) LoadWord(h engine.Handle, i int) uint64 {
	o := t.obj(h)
	if o.creator == t.id {
		t.n.LocalSkips++
		return o.words[i].Load()
	}
	slot := uint64(i) * 2
	if v, ok := t.writes[wkey{o, slot}]; ok {
		return v.word
	}
	if in := chaos.Active(); in != nil {
		in.Step(chaos.OpenForRead)
	}
	si := t.eng.stripeFor(o, slot)
	stripe := t.eng.stripe(si)
	for {
		v1 := stripe.Load()
		val := o.words[i].Load()
		v2 := stripe.Load()
		if v1 != v2 {
			continue // concurrent commit touched the stripe; resample
		}
		if v1&lockedBit != 0 {
			t.cause = engine.CauseOwnership
			engine.AbandonCause(engine.CauseOwnership, "wstm: stripe locked during read")
		}
		if v1>>1 > t.rv {
			t.cause = engine.CauseValidation
			engine.AbandonCause(engine.CauseValidation,
				"wstm: read too new (stripe %d > rv %d)", v1>>1, t.rv)
		}
		t.reads = append(t.reads, readEntry{stripe: si, seen: v1})
		t.n.ReadLogEntries++
		return val
	}
}

// LoadRef implements engine.Txn.
func (t *Txn) LoadRef(h engine.Handle, i int) engine.Handle {
	o := t.obj(h)
	if o.creator == t.id {
		t.n.LocalSkips++
		return refHandle(o.refs[i].Load())
	}
	slot := uint64(i)*2 + 1
	if v, ok := t.writes[wkey{o, slot}]; ok {
		return refHandle(v.ref)
	}
	if in := chaos.Active(); in != nil {
		in.Step(chaos.OpenForRead)
	}
	si := t.eng.stripeFor(o, slot)
	stripe := t.eng.stripe(si)
	for {
		v1 := stripe.Load()
		val := o.refs[i].Load()
		v2 := stripe.Load()
		if v1 != v2 {
			continue
		}
		if v1&lockedBit != 0 {
			t.cause = engine.CauseOwnership
			engine.AbandonCause(engine.CauseOwnership, "wstm: stripe locked during read")
		}
		if v1>>1 > t.rv {
			t.cause = engine.CauseValidation
			engine.AbandonCause(engine.CauseValidation, "wstm: read too new")
		}
		t.reads = append(t.reads, readEntry{stripe: si, seen: v1})
		t.n.ReadLogEntries++
		return refHandle(val)
	}
}

func refHandle(o *Obj) engine.Handle {
	if o == nil {
		return nil
	}
	return o
}

// StoreWord implements engine.Txn: the write is buffered until commit.
func (t *Txn) StoreWord(h engine.Handle, i int, v uint64) {
	if t.readonly {
		panic("wstm: StoreWord on read-only transaction")
	}
	o := t.obj(h)
	if o.creator == t.id {
		t.n.LocalSkips++
		o.words[i].Store(v)
		return
	}
	t.bufferWrite(wkey{o, uint64(i) * 2}, wval{word: v})
}

// StoreRef implements engine.Txn.
func (t *Txn) StoreRef(h engine.Handle, i int, r engine.Handle) {
	if t.readonly {
		panic("wstm: StoreRef on read-only transaction")
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
	t.bufferWrite(wkey{o, uint64(i)*2 + 1}, wval{ref: ro})
}

func (t *Txn) bufferWrite(k wkey, v wval) {
	if in := chaos.Active(); in != nil {
		in.Step(chaos.OpenForUpdate)
	}
	if _, seen := t.writes[k]; !seen {
		t.worder = append(t.worder, k)
	}
	t.writes[k] = v
}

// Alloc implements engine.Txn.
func (t *Txn) Alloc(nwords, nrefs int) engine.Handle {
	return newObj(t.ids.Take(), t.id, nwords, nrefs)
}

// AllocBytes implements engine.Txn: a record has no words and no refs, so a
// field access on it panics with the runtime's index error.
func (t *Txn) AllocBytes(parts ...[]byte) engine.Handle {
	return &Obj{id: t.ids.Take(), creator: t.id, bytes: engine.JoinBytes(parts)}
}

// LoadBytes implements engine.Txn: the payload never changes, so reading it
// takes no stripe or version check.
func (t *Txn) LoadBytes(h engine.Handle) string { return t.obj(h).bytes }

// Validate implements engine.Txn: every read stripe must still be unlocked at
// the version observed.
func (t *Txn) Validate() error {
	for i := range t.reads {
		if t.eng.stripe(t.reads[i].stripe).Load() != t.reads[i].seen {
			return engine.ErrConflict
		}
	}
	return nil
}

// Compact implements engine.Txn (the word-based design keeps no per-object
// logs worth compacting; duplicates are already value-level).
func (t *Txn) Compact() {}

// Commit implements engine.Txn: lock the write stripes in address order,
// re-validate the read set, write back, and release at a new clock value.
func (t *Txn) Commit() error {
	if t.done {
		panic("wstm: Commit on finished transaction")
	}
	if in := chaos.Active(); in != nil {
		// Before any stripe is locked, so an injected abort or panic unwinds
		// with nothing held.
		in.Step(chaos.CommitValidate)
	}
	if len(t.writes) == 0 {
		// Reads were validated at access time against rv; nothing to publish.
		t.finish(true)
		return nil
	}

	locked := t.lockWriteStripes()
	if locked == nil {
		t.cause = engine.CauseOwnership
		t.finish(false)
		return engine.ErrConflict
	}
	if !t.validateWithLocks(locked) {
		t.unlock(locked)
		t.cause = engine.CauseValidation
		t.finish(false)
		return engine.ErrConflict
	}
	if in := chaos.Active(); in != nil {
		// Delay-only by construction (chaos.New clamps WriteBack): stretches
		// the window where the write stripes stay locked.
		in.Step(chaos.WriteBack)
	}
	wv := t.eng.clock.Add(1)
	for _, k := range t.worder {
		v := t.writes[k]
		if k.slot&1 == 0 {
			k.obj.words[k.slot/2].Store(v.word)
		} else {
			k.obj.refs[k.slot/2].Store(v.ref)
		}
	}
	t.release(locked, wv)
	t.finish(true)
	return nil
}

// lockWriteStripes acquires the distinct stripes covering the write set in
// ascending index order (avoiding deadlock against other committers). It
// returns nil if any stripe is already locked by another transaction. The
// stripe list lives in lockScratch, reused across attempts; deduplication is
// sort-then-skip-adjacent rather than a map, so the path is allocation-free
// once the scratch slice has grown to the write-set size.
func (t *Txn) lockWriteStripes() []lockedStripe {
	stripes := t.lockScratch[:0]
	for _, k := range t.worder {
		stripes = append(stripes, lockedStripe{idx: t.eng.stripeFor(k.obj, k.slot)})
	}
	t.lockScratch = stripes
	slices.SortFunc(stripes, func(a, b lockedStripe) int {
		switch {
		case a.idx < b.idx:
			return -1
		case a.idx > b.idx:
			return 1
		default:
			return 0
		}
	})
	n := 0
	for i := range stripes {
		if i > 0 && stripes[i].idx == stripes[n-1].idx {
			continue
		}
		stripes[n] = stripes[i]
		n++
	}
	stripes = stripes[:n]
	for i := range stripes {
		s := t.eng.stripe(stripes[i].idx)
		v := s.Load()
		if v&lockedBit != 0 || !s.CompareAndSwap(v, v|lockedBit) {
			t.unlock(stripes[:i])
			return nil
		}
		stripes[i].old = v
	}
	return stripes
}

type lockedStripe struct {
	idx uint64
	old uint64
}

// validateWithLocks re-checks the read set; stripes we hold locked are valid
// if their pre-lock version matches what the read observed. locked is sorted
// by stripe index (lockWriteStripes' order), so membership is a binary
// search — no allocation.
func (t *Txn) validateWithLocks(locked []lockedStripe) bool {
	for i := range t.reads {
		re := &t.reads[i]
		cur := t.eng.stripe(re.stripe).Load()
		if cur == re.seen {
			continue
		}
		if j, mine := slices.BinarySearchFunc(locked, re.stripe,
			func(l lockedStripe, idx uint64) int {
				switch {
				case l.idx < idx:
					return -1
				case l.idx > idx:
					return 1
				default:
					return 0
				}
			}); mine && locked[j].old == re.seen {
			continue
		}
		return false
	}
	return true
}

func (t *Txn) unlock(locked []lockedStripe) {
	for _, l := range locked {
		t.eng.stripe(l.idx).Store(l.old)
	}
}

func (t *Txn) release(locked []lockedStripe, wv uint64) {
	nv := wv << 1
	for _, l := range locked {
		t.eng.stripe(l.idx).Store(nv)
	}
}

// Abort implements engine.Txn: buffered writes are simply discarded.
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
	if cap(t.reads) > keepCap {
		t.reads = nil
	}
	if cap(t.lockScratch) > keepCap {
		t.lockScratch = nil
	}
	if len(t.writes) > keepCap {
		t.writes = make(map[wkey]wval)
		t.worder = nil
	}
	t.eng.pool.Put(t)
}

var (
	_ engine.Engine = (*Engine)(nil)
	_ engine.Txn    = (*Txn)(nil)
)
