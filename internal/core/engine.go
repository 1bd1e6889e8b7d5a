package core

import (
	"sync"
	"sync/atomic"

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

	pool    sync.Pool // *Txn
	stats   engineStats
	metrics engine.Metrics
	cmctl   engine.CM
	signal  commitSignal

	// ids is this engine's id counter (see the commentary above).
	ids engine.IDSource
}

// engineStats holds cumulative counters, updated with atomics when folding in
// a finished transaction's local counts.
type engineStats struct {
	starts         atomic.Uint64
	commits        atomic.Uint64
	aborts         atomic.Uint64
	openForRead    atomic.Uint64
	openForUpdate  atomic.Uint64
	undoLogged     atomic.Uint64
	readLogEntries atomic.Uint64
	filterHits     atomic.Uint64
	localSkips     atomic.Uint64
	compactions    atomic.Uint64
	readLogDropped atomic.Uint64
	cmWaits        atomic.Uint64
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
// default of 4096 covers the hot-field working sets of the E1/E2 kernels; E5
// sweeps the size. The table (~100 KiB at the default size) is allocated
// lazily on a transaction's first duplicate check, so transactions that
// never log pay nothing, and tables larger than keepFilterSlots are released
// when the transaction finishes rather than pinned by the pool.
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
	e.stats.starts.Add(1)
	return tx
}

// Stats implements engine.Engine. Starts is loaded last so that
// Commits + Aborts <= Starts holds in every snapshot, even one taken while
// transactions are in flight.
func (e *Engine) Stats() engine.Stats {
	s := engine.Stats{
		Commits:        e.stats.commits.Load(),
		Aborts:         e.stats.aborts.Load(),
		OpenForRead:    e.stats.openForRead.Load(),
		OpenForUpdate:  e.stats.openForUpdate.Load(),
		UndoLogged:     e.stats.undoLogged.Load(),
		ReadLogEntries: e.stats.readLogEntries.Load(),
		FilterHits:     e.stats.filterHits.Load(),
		LocalSkips:     e.stats.localSkips.Load(),
		Compactions:    e.stats.compactions.Load(),
		ReadLogDropped: e.stats.readLogDropped.Load(),
		CMWaits:        e.stats.cmWaits.Load(),
	}
	s.Starts = e.stats.starts.Load()
	return s
}

// Metrics implements engine.Engine.
func (e *Engine) Metrics() *engine.Metrics { return &e.metrics }

// CM implements engine.Engine.
func (e *Engine) CM() *engine.CM { return &e.cmctl }

var _ engine.Engine = (*Engine)(nil)
