// Package memtx is a software transactional memory for Go reproducing the
// system of "Optimizing Memory Transactions" (PLDI 2006): a direct-update,
// object-based STM with a decomposed barrier interface, eager ownership
// acquisition for updates, optimistic validated reads, runtime log
// filtering, and log compaction.
//
// # Quick start
//
//	tm := memtx.New()
//	a := tm.NewVar(100)
//	b := tm.NewVar(0)
//	err := tm.Atomic(func(tx *memtx.Tx) error {
//		v := a.Get(tx)
//		a.Set(tx, v-10)
//		b.Set(tx, b.Get(tx)+10)
//		return nil
//	})
//
// The body may run multiple times (on conflict) and must be free of
// non-transactional side effects.
//
// # Designs
//
// New builds the paper's direct-update engine. For comparison — exactly the
// baselines the paper evaluates against — WithDesign selects a word-based
// buffered-update STM (TL2/WSTM-flavoured) or an object-based
// buffered-update STM instead.
//
// # Decomposed interface
//
// Beyond the Var/RefVar/Record conveniences, Tx exposes the raw decomposed
// operations (OpenForRead, OpenForUpdate, LogForUndo*, direct field
// access) so that hand-optimized code — or a compiler — can apply the
// paper's barrier optimizations: open an object once for many accesses,
// upgrade read opens to update opens, hoist opens out of loops, and skip
// barriers on transaction-local allocations.
package memtx

import (
	"context"
	"errors"

	"memtx/internal/core"
	"memtx/internal/engine"
	"memtx/internal/ostm"
	"memtx/internal/wstm"
)

// Design selects the STM implementation.
type Design int

const (
	// DirectUpdate is the paper's design: in-place updates with undo
	// logging, eager write ownership, optimistic reads.
	DirectUpdate Design = iota
	// BufferedWord is the word-based buffered-update baseline with a global
	// version clock and striped versioned locks.
	BufferedWord
	// BufferedObject is the object-based buffered-update baseline using
	// shadow copies.
	BufferedObject
)

// String returns the short engine name used in benchmark output ("direct",
// "wstm", "ostm").
func (d Design) String() string {
	switch d {
	case BufferedWord:
		return "wstm"
	case BufferedObject:
		return "ostm"
	default:
		return "direct"
	}
}

// CMPolicy names a retry pacing policy.
//
// Deprecated: every TM paces re-execution with the same fixed randomized
// exponential backoff; CMFixed, that policy, is the only value.
type CMPolicy uint8

// CMFixed is the fixed randomized-exponential backoff.
const CMFixed CMPolicy = 0

// Config collects construction options.
type Config struct {
	design     Design
	filterSize int
	compaction int
	cm         core.ContentionManager
	checked    bool
}

// Option configures New.
type Option func(*Config)

// WithDesign selects the STM design (default DirectUpdate).
func WithDesign(d Design) Option { return func(c *Config) { c.design = d } }

// WithFilterSize sets the duplicate-log filter capacity of the direct-update
// engine (0 disables; default 4096). Ignored by other designs.
func WithFilterSize(n int) Option { return func(c *Config) { c.filterSize = n } }

// WithCompaction enables automatic read-log compaction of the direct-update
// engine beyond the given log length. Ignored by other designs.
func WithCompaction(threshold int) Option { return func(c *Config) { c.compaction = threshold } }

// WithContentionManager sets the direct-update engine's update-update
// conflict policy (core.Passive, core.Polite, core.Patient).
func WithContentionManager(cm core.ContentionManager) Option {
	return func(c *Config) { c.cm = cm }
}

// WithChecked enables protocol checking on the direct-update engine (for
// tests of decomposed-API code).
func WithChecked(on bool) Option { return func(c *Config) { c.checked = on } }

// TM is a transactional memory instance. All objects created by a TM must
// only be used with transactions of the same TM.
type TM struct {
	eng engine.Engine
}

// New creates a transactional memory.
func New(opts ...Option) *TM {
	cfg := Config{filterSize: 4096, cm: core.Polite{}}
	for _, o := range opts {
		o(&cfg)
	}
	switch cfg.design {
	case BufferedWord:
		return &TM{eng: wstm.New()}
	case BufferedObject:
		return &TM{eng: ostm.New()}
	default:
		return &TM{eng: core.New(
			core.WithFilterSize(cfg.filterSize),
			core.WithCompaction(cfg.compaction),
			core.WithContentionManager(cfg.cm),
			core.WithChecked(cfg.checked),
		)}
	}
}

// Engine exposes the underlying engine for benchmark harnesses.
func (tm *TM) Engine() engine.Engine { return tm.eng }

// Stats returns a snapshot of the engine's cumulative counters: commits,
// aborts by cause (engine.AbortCauses), barrier and log counts, and the retry
// driver's outcomes and backoff waits. Diff two snapshots with Sub for
// per-interval figures.
func (tm *TM) Stats() engine.Stats { return tm.eng.Stats() }

// Metrics returns the abort-cause share of Stats.
//
// Deprecated: read Stats().AbortsByCause; kept until bench/ moves.
func (tm *TM) Metrics() engine.MetricsSnapshot {
	return engine.MetricsSnapshot{AbortsByCause: tm.eng.Stats().AbortsByCause}
}

// Tx is an in-flight transaction. It is only valid inside the Atomic or
// ReadOnly body that received it.
type Tx struct {
	tm *TM
	tx engine.Txn
}

// Atomic runs body as a transaction, re-executing it on conflict until it
// commits. A non-nil error aborts and is returned unchanged.
func (tm *TM) Atomic(body func(tx *Tx) error) error {
	return engine.Run(tm.eng, func(etx engine.Txn) error {
		return body(&Tx{tm: tm, tx: etx})
	})
}

// ReadOnly runs body as a read-only transaction (cheaper protocol; updates
// panic).
func (tm *TM) ReadOnly(body func(tx *Tx) error) error {
	return engine.RunReadOnly(tm.eng, func(etx engine.Txn) error {
		return body(&Tx{tm: tm, tx: etx})
	})
}

// TxOptions bounds a context-aware transaction (AtomicCtx/ReadOnlyCtx):
// MaxAttempts caps total attempts (1 means no retry), MaxElapsed caps the
// total time across attempts; whichever of MaxElapsed and the context
// deadline expires first wins. The zero value applies no bound beyond the
// context's own deadline.
type TxOptions = engine.RunOptions

// AtomicCtx is Atomic bounded by ctx and opts. Between attempts — and, on
// the direct-update engine, at contention-manager waits inside an attempt —
// the transaction observes ctx cancellation, ctx's deadline, and the retry
// budget; when a bound fires it gives up with an *engine.TimeoutError
// (unwrapping to context.Canceled, context.DeadlineExceeded, or
// engine.ErrRetryBudget) instead of retrying forever.
func (tm *TM) AtomicCtx(ctx context.Context, opts TxOptions, body func(tx *Tx) error) error {
	return engine.RunCtx(ctx, tm.eng, opts, func(etx engine.Txn) error {
		return body(&Tx{tm: tm, tx: etx})
	})
}

// ReadOnlyCtx is ReadOnly bounded by ctx and opts (see AtomicCtx).
func (tm *TM) ReadOnlyCtx(ctx context.Context, opts TxOptions, body func(tx *Tx) error) error {
	return engine.RunReadOnlyCtx(ctx, tm.eng, opts, func(etx engine.Txn) error {
		return body(&Tx{tm: tm, tx: etx})
	})
}

// AbortError, returned from an Atomic body, rolls the transaction back
// without retrying; Atomic returns it unchanged. Use it for deliberate
// "give up" paths:
//
//	return memtx.AbortError
var AbortError = errors.New("memtx: aborted by user")

// Validate re-checks the transaction's reads mid-flight; it returns
// engine.ErrConflict if the transaction is doomed. Long transactions call
// this periodically because the direct-update design is not opaque.
func (tx *Tx) Validate() error { return tx.tx.Validate() }

// Raw returns the underlying decomposed transaction for advanced use.
func (tx *Tx) Raw() engine.Txn { return tx.tx }

// Var is a transactional uint64 cell.
type Var struct {
	tm *TM
	h  engine.Handle
}

// NewVar creates a Var with an initial value, outside any transaction.
func (tm *TM) NewVar(initial uint64) *Var {
	v := &Var{tm: tm, h: tm.eng.NewObj(1, 0)}
	if initial != 0 {
		mustRun(tm, func(tx *Tx) error {
			v.Set(tx, initial)
			return nil
		})
	}
	return v
}

// Get reads the cell.
func (v *Var) Get(tx *Tx) uint64 {
	tx.tx.OpenForRead(v.h)
	return tx.tx.LoadWord(v.h, 0)
}

// Set writes the cell.
func (v *Var) Set(tx *Tx, val uint64) {
	tx.tx.OpenForUpdate(v.h)
	tx.tx.LogForUndoWord(v.h, 0)
	tx.tx.StoreWord(v.h, 0, val)
}

// RefVar is a transactional cell holding a reference to a Record (or nil).
type RefVar struct {
	tm *TM
	h  engine.Handle
}

// NewRefVar creates a RefVar holding nil.
func (tm *TM) NewRefVar() *RefVar {
	return &RefVar{tm: tm, h: tm.eng.NewObj(0, 1)}
}

// Get reads the referenced record (nil if unset).
func (r *RefVar) Get(tx *Tx) *Record {
	tx.tx.OpenForRead(r.h)
	h := tx.tx.LoadRef(r.h, 0)
	if h == nil {
		return nil
	}
	return &Record{tm: r.tm, h: h}
}

// Set stores a record reference (rec may be nil).
func (r *RefVar) Set(tx *Tx, rec *Record) {
	tx.tx.OpenForUpdate(r.h)
	tx.tx.LogForUndoRef(r.h, 0)
	if rec == nil {
		tx.tx.StoreRef(r.h, 0, nil)
	} else {
		tx.tx.StoreRef(r.h, 0, rec.h)
	}
}

// Record is a transactional object with a fixed number of scalar and
// reference fields — the general building block for linked structures.
type Record struct {
	tm *TM
	h  engine.Handle
}

// NewRecord creates a shared record outside any transaction.
func (tm *TM) NewRecord(nwords, nrefs int) *Record {
	return &Record{tm: tm, h: tm.eng.NewObj(nwords, nrefs)}
}

// Alloc creates a transaction-local record: until the transaction commits it
// is private, and all barriers on it are skipped (the paper's
// newly-allocated-object optimization).
func (tx *Tx) Alloc(nwords, nrefs int) *Record {
	return &Record{tm: tx.tm, h: tx.tx.Alloc(nwords, nrefs)}
}

// Handle exposes the record's engine handle for decomposed-API use.
func (r *Record) Handle() engine.Handle { return r.h }

// OpenForRead declares upcoming reads of the record's fields.
func (r *Record) OpenForRead(tx *Tx) { tx.tx.OpenForRead(r.h) }

// OpenForUpdate acquires the record for writing.
func (r *Record) OpenForUpdate(tx *Tx) { tx.tx.OpenForUpdate(r.h) }

// Word reads scalar field i. The record must be open.
func (r *Record) Word(tx *Tx, i int) uint64 { return tx.tx.LoadWord(r.h, i) }

// SetWord writes scalar field i, undo-logging it first. The record must be
// open for update.
func (r *Record) SetWord(tx *Tx, i int, v uint64) {
	tx.tx.LogForUndoWord(r.h, i)
	tx.tx.StoreWord(r.h, i, v)
}

// Ref reads reference field i (nil if unset). The record must be open.
func (r *Record) Ref(tx *Tx, i int) *Record {
	h := tx.tx.LoadRef(r.h, i)
	if h == nil {
		return nil
	}
	return &Record{tm: r.tm, h: h}
}

// SetRef writes reference field i, undo-logging it first. The record must be
// open for update.
func (r *Record) SetRef(tx *Tx, i int, v *Record) {
	tx.tx.LogForUndoRef(r.h, i)
	if v == nil {
		tx.tx.StoreRef(r.h, i, nil)
		return
	}
	tx.tx.StoreRef(r.h, i, v.h)
}

// Same reports whether two records are the same object.
func (r *Record) Same(o *Record) bool {
	if r == nil || o == nil {
		return r == nil && o == nil
	}
	return r.h == o.h
}

func mustRun(tm *TM, body func(tx *Tx) error) {
	if err := tm.Atomic(body); err != nil {
		panic("memtx: initialization transaction failed: " + err.Error())
	}
}
