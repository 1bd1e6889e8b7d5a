package core

import (
	"sync"

	"memtx/internal/engine"
)

// Each Engine hands out its own object ids and transaction ids from a
// per-engine counter (Engine.ids). Transaction ids double as allocation
// fingerprints (Obj.creator) and owner tags (Obj.owner) and are never
// reused, which makes stale creator tags harmless and lets the owner field
// answer "do I own this?" without a race (see Obj.owner). Ids are only ever
// compared for equality within one engine — handles never legally cross
// engines — so independent engines (one per kv shard) may reuse the same
// numeric ids without ambiguity, and no process-global counter is needed.
//
// The counter is an engine.IDSource, consumed in private per-transaction
// blocks.

// Engine is the direct-update STM engine. Create one with New; the zero
// value is not usable.
type Engine struct {
	cm               ContentionManager
	filterSize       int
	compactThreshold int  // auto-compact read log beyond this length; 0 = off
	checked          bool // verify protocol discipline (tests)

	pool   sync.Pool // *Txn
	signal commitSignal
	rec    engine.Recorder

	// ids is this engine's id counter (see the commentary above).
	ids engine.IDSource
}

// Option configures an Engine.
type Option func(*Engine)

// WithContentionManager selects the update-update conflict policy.
// The default is Polite{}.
func WithContentionManager(cm ContentionManager) Option {
	return func(e *Engine) { e.cm = cm }
}

// WithFilterSize sets the per-transaction duplicate-log filter capacity in
// slots (rounded up to a power of two). Zero disables the filter. The
// default is 4096; E5 sweeps the size. Update transactions consult the
// filter on every read open and on every undo log of a small object; a
// read-only transaction only once its read log holds 64 entries
// (roFilterFrom), so short read-only transactions never touch it. A large
// object's undo entries never reach the filter, whatever its size: the
// object's own marks drop the duplicates exactly.
// The table (~100 KiB at the default size) is allocated lazily on a
// transaction's first duplicate check, so transactions that never log pay
// nothing, and tables larger than keepFilterSlots are released when the
// transaction finishes rather than pinned by the pool.
func WithFilterSize(n int) Option {
	return func(e *Engine) { e.filterSize = n }
}

// WithCompaction enables automatic read-log compaction once the read log
// exceeds threshold entries. Zero (default) leaves compaction manual.
func WithCompaction(threshold int) Option {
	return func(e *Engine) { e.compactThreshold = threshold }
}

// WithChecked enables protocol checking: loads and stores verify that the
// object was opened appropriately and that stores were undo-logged. It is
// meant for tests of code using the decomposed API and costs a map lookup per
// access.
func WithChecked(on bool) Option {
	return func(e *Engine) { e.checked = on }
}

// New returns a direct-update STM engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		cm:         Polite{},
		filterSize: 4096,
	}
	for _, o := range opts {
		o(e)
	}
	e.pool.New = func() any { return newTxn(e) }
	e.signal.init()
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "direct" }

// NewObj allocates a shared object outside any transaction, at version 1.
func (e *Engine) NewObj(nwords, nrefs int) engine.Handle {
	return newObj(e.ids.Take(), 0, nwords, nrefs)
}

// Begin implements engine.Engine.
func (e *Engine) Begin() engine.Txn { return e.begin(false) }

// BeginReadOnly implements engine.Engine.
func (e *Engine) BeginReadOnly() engine.Txn { return e.begin(true) }

func (e *Engine) begin(readonly bool) *Txn {
	tx := e.pool.Get().(*Txn)
	tx.start(readonly)
	return tx
}

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats { return e.rec.Stats() }

var _ engine.Engine = (*Engine)(nil)
