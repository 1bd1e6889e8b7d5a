// Package rawengine provides a no-op "engine" whose operations compile down
// to plain loads and stores with no logging, no validation, and no conflict
// detection.
//
// It exists to measure the uninstrumented sequential baseline (the paper's
// "no STM" bar) under exactly the same interpreter and data layout as the
// real engines, so that normalized overheads isolate the STM cost rather
// than interpreter dispatch. It is NOT safe for concurrent transactions.
package rawengine

import (
	"unsafe"

	"memtx/internal/engine"
)

// Obj is the header of a plain object: no STM word, no atomics, only the
// shape word the field accessors need. The fields follow it in the same
// allocation, laid out as the direct-update engine lays out its objects
// (core.Obj), so that comparisons against it measure the STM and not the
// allocator or the cache lines an object spans: an object of at most 2
// words and 2 refs is the header and its fields inline (smallObj, 40
// bytes), any other shape the header and two slices (largeObj).
type Obj struct {
	shape uint64 // largeBit, or a small object's words<<2 | refs
}

const largeBit = 1 << 63

// bytesShape marks a byte record (Txn.AllocBytes): small-object counts that
// exceed the inline arrays, so a field access on a record panics.
const bytesShape = 3<<2 | 3

// bytesObj is a byte record. The padding makes it as large as a smallObj,
// so the view words and refs take of any header stays inside the
// allocation before their slice bound panics.
type bytesObj struct {
	Obj
	b string
	_ [unsafe.Sizeof(smallObj{}) - unsafe.Sizeof(Obj{}) - unsafe.Sizeof("")]byte
}

type smallObj struct {
	Obj
	w [2]uint64
	r [2]*Obj
}

type largeObj struct {
	Obj
	w []uint64
	r []*Obj
}

// small and large view the allocation behind the header; the caller has
// checked largeBit.
func (o *Obj) small() *smallObj { return (*smallObj)(unsafe.Pointer(o)) }
func (o *Obj) large() *largeObj { return (*largeObj)(unsafe.Pointer(o)) }

// words and refs return the fields; a small object's inline array is cut to
// its shape, so an index beyond it panics with the runtime's index error.
func (o *Obj) words() []uint64 {
	if o.shape&largeBit != 0 {
		return o.large().w
	}
	return o.small().w[:o.shape>>2&3]
}

func (o *Obj) refs() []*Obj {
	if o.shape&largeBit != 0 {
		return o.large().r
	}
	return o.small().r[:o.shape&3]
}

// Engine is the no-op engine. The zero value is ready to use.
type Engine struct {
	starts, commits uint64
}

// New returns a raw engine.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "raw" }

// NewObj implements engine.Engine.
func (e *Engine) NewObj(nwords, nrefs int) engine.Handle {
	if nwords <= len(smallObj{}.w) && nrefs <= len(smallObj{}.r) {
		s := new(smallObj)
		s.shape = uint64(nwords)<<2 | uint64(nrefs)
		return &s.Obj
	}
	l := &largeObj{w: make([]uint64, nwords), r: make([]*Obj, nrefs)}
	l.shape = largeBit
	return &l.Obj
}

// Begin implements engine.Engine.
func (e *Engine) Begin() engine.Txn {
	e.starts++
	return rawTxn{e}
}

// BeginReadOnly implements engine.Engine.
func (e *Engine) BeginReadOnly() engine.Txn {
	e.starts++
	return rawTxn{e}
}

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats {
	return engine.Stats{Starts: e.starts, Commits: e.commits}
}

type rawTxn struct{ e *Engine }

func (t rawTxn) obj(h engine.Handle) *Obj { return h.(*Obj) }

func (t rawTxn) OpenForRead(engine.Handle)         {}
func (t rawTxn) OpenForUpdate(engine.Handle)       {}
func (t rawTxn) LogForUndoWord(engine.Handle, int) {}
func (t rawTxn) LogForUndoRef(engine.Handle, int)  {}
func (t rawTxn) Validate() error                   { return nil }
func (t rawTxn) Compact()                          {}
func (t rawTxn) ReadOnly() bool                    { return false }
func (t rawTxn) SetAbortCause(engine.AbortCause)   {}

func (t rawTxn) LoadWord(h engine.Handle, i int) uint64 { return t.obj(h).words()[i] }

func (t rawTxn) StoreWord(h engine.Handle, i int, v uint64) { t.obj(h).words()[i] = v }

func (t rawTxn) LoadRef(h engine.Handle, i int) engine.Handle {
	r := t.obj(h).refs()[i]
	if r == nil {
		return nil
	}
	return r
}

func (t rawTxn) StoreRef(h engine.Handle, i int, r engine.Handle) {
	var ro *Obj
	if r != nil {
		ro = t.obj(r)
	}
	t.obj(h).refs()[i] = ro
}

func (t rawTxn) Alloc(nwords, nrefs int) engine.Handle { return t.e.NewObj(nwords, nrefs) }

func (t rawTxn) AllocBytes(parts ...[]byte) engine.Handle {
	b := &bytesObj{b: engine.JoinBytes(parts)}
	b.shape = bytesShape
	return &b.Obj
}

func (t rawTxn) LoadBytes(h engine.Handle) string {
	o := t.obj(h)
	if o.shape != bytesShape {
		panic("rawengine: LoadBytes on an object that is not a byte record")
	}
	return (*bytesObj)(unsafe.Pointer(o)).b
}

func (t rawTxn) Commit() error {
	t.e.commits++
	return nil
}

func (t rawTxn) Abort() {}

var (
	_ engine.Engine = (*Engine)(nil)
	_ engine.Txn    = rawTxn{}
)
