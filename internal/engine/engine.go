// Package engine defines the engine-neutral contract shared by every STM
// implementation in this repository: the direct-update object STM from the
// paper (internal/core) and the two baseline designs it is evaluated against
// (internal/wstm and internal/ostm).
//
// The interface is deliberately *decomposed*, mirroring the paper's key API
// design: opening an object for reading or for update is a separate operation
// from accessing its fields, and undo logging is a separate operation from
// storing. This decomposition is what allows the TIL compiler passes
// (internal/til/passes) to optimize barriers with classical techniques such
// as CSE, code motion, and dataflow-based strengthening.
package engine

import (
	"errors"
	"strings"
)

// ErrConflict is returned by Txn.Commit and Txn.Validate when the
// transaction's read set is no longer consistent and the transaction must be
// re-executed.
var ErrConflict = errors.New("engine: transactional conflict")

// Handle is an opaque reference to a transactional object. Each engine
// defines its own concrete object representation; handles must only be passed
// back to the engine that created them.
type Handle any

// Engine creates transactional objects and transactions. Implementations are
// safe for concurrent use by multiple goroutines.
type Engine interface {
	// Name identifies the engine in benchmark output ("direct", "wstm",
	// "ostm").
	Name() string

	// NewObj allocates a shared transactional object with nwords scalar
	// fields and nrefs reference fields, outside of any transaction. All
	// fields start zeroed (references start nil).
	NewObj(nwords, nrefs int) Handle

	// Begin starts a read-write transaction bound to the calling goroutine.
	Begin() Txn

	// BeginReadOnly starts a transaction that promises not to update any
	// object. Engines may use a cheaper protocol (for example, skipping
	// undo-log machinery). Calling OpenForUpdate, StoreWord, or StoreRef on
	// a read-only transaction panics.
	BeginReadOnly() Txn

	// Stats returns a snapshot of the engine's cumulative counters.
	Stats() Stats
}

// Txn is a single transaction attempt. A Txn must be used by one goroutine at
// a time and becomes invalid after Commit or Abort; engines may recycle the
// value for a subsequent Begin.
//
// Operations that discover a conflict mid-transaction panic with a *Retry
// value (see Retrying); Commit and Validate report conflicts as ErrConflict.
// The Run helper handles both, re-executing the transaction body.
type Txn interface {
	// OpenForRead declares that the transaction will read fields of h.
	// It records the object's version in the read log for commit-time
	// validation. Opening an object already opened (for read or update) is
	// permitted and may be filtered; the compiler passes try to remove such
	// duplicates statically.
	OpenForRead(h Handle)

	// OpenForUpdate acquires the right to update h. In the direct-update
	// engine this eagerly acquires exclusive ownership; buffered engines
	// may defer acquisition to commit. OpenForUpdate subsumes OpenForRead
	// for the same object.
	OpenForUpdate(h Handle)

	// LogForUndoWord records the current value of scalar field i of h so it
	// can be restored if the transaction aborts. Direct-update engines
	// require it before the first StoreWord to each field; buffered engines
	// treat it as a no-op. The object must already be open for update.
	LogForUndoWord(h Handle, i int)

	// LogForUndoRef is LogForUndoWord for reference field i.
	LogForUndoRef(h Handle, i int)

	// LoadWord returns scalar field i of h. The object must be open for
	// read or update. In the direct-update engine this is a plain atomic
	// load — the "fast path" the paper's decomposition exists to enable.
	LoadWord(h Handle, i int) uint64

	// StoreWord sets scalar field i of h. The object must be open for
	// update, and in the direct engine the field must have been undo-logged.
	StoreWord(h Handle, i int, v uint64)

	// LoadRef returns reference field i of h (nil Handle if unset).
	LoadRef(h Handle, i int) Handle

	// StoreRef sets reference field i of h; r may be nil.
	StoreRef(h Handle, i int, r Handle)

	// Alloc allocates an object inside the transaction. Such objects are
	// transaction-local until commit: engines tag them so that barriers on
	// them can be skipped (the paper's newly-allocated-object optimization),
	// and if the transaction aborts the object is simply garbage.
	Alloc(nwords, nrefs int) Handle

	// AllocBytes allocates an immutable byte record holding the
	// concatenation of parts. The engine copies the parts, so no writable
	// alias of a record ever leaves it. A record is complete when
	// AllocBytes returns and is never written again: it is published by
	// storing a reference to it (StoreRef) and read with LoadBytes. A word
	// or reference access on a record panics.
	AllocBytes(parts ...[]byte) Handle

	// LoadBytes returns the payload of byte record h. It needs no open and
	// adds no read-log entry, the paper's elision of barriers on immutable
	// data: the record never changes, and a transaction reaches it only
	// through a reference loaded from an object it opened, whose
	// validation covers the read. The string type keeps the payload
	// read-only.
	LoadBytes(h Handle) string

	// Validate re-checks the read log mid-transaction. The paper's STM is
	// not opaque: a doomed transaction can observe an inconsistent snapshot
	// until it validates. Long-running transactions call Validate
	// periodically to bound zombie execution.
	Validate() error

	// Compact compacts the transaction's logs, deduplicating read-log
	// entries and dropping entries for transaction-local objects. It models
	// the paper's GC-time log compaction and is also invoked automatically
	// by engines past a configurable log-growth threshold.
	Compact()

	// Commit validates the read log and atomically publishes all updates.
	// On ErrConflict the transaction has been rolled back and the Txn must
	// not be reused; re-execute via a fresh Begin.
	Commit() error

	// Abort rolls back all updates and releases ownership. Without a
	// preceding SetAbortCause the abort is recorded as CauseExplicit.
	Abort()

	// SetAbortCause attributes the transaction's abort, if it aborts, to
	// the given cause in the engine's Stats.AbortsByCause. The Run loop
	// calls it before Abort when it knows why an attempt failed (the cause
	// carried by a Retry panic, or a doomed-error retry); engines set it
	// internally on their own conflict paths.
	SetAbortCause(c AbortCause)

	// ReadOnly reports whether the transaction was started read-only.
	ReadOnly() bool
}

// JoinBytes returns the concatenation of parts as a new string, for
// engines whose byte records hold their payload as one (Txn.AllocBytes).
func JoinBytes(parts [][]byte) string {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	var b strings.Builder
	b.Grow(n)
	for _, p := range parts {
		b.Write(p)
	}
	return b.String()
}

// Stats is a snapshot of an engine's cumulative counters, the one view of
// its Recorder. Counters are maintained with atomics and folded in at
// commit/abort, so a snapshot taken while transactions are in flight is
// approximate. Engines load Starts last when snapshotting, so Commits +
// Aborts <= Starts holds in every snapshot (the remainder is a lower bound on
// in-flight transactions); the conformance suite relies on this.
//
// Aborts is not a counter of its own: it is the sum of AbortsByCause, since
// every abort records exactly one cause. The retry driver (Drive) counts
// Outcomes and the Backoff* fields; a transaction outside Drive, or one
// with no stripe, adds nothing to them.
type Stats struct {
	Starts         uint64 // transactions started
	Commits        uint64 // transactions committed
	Aborts         uint64 // transactions rolled back (conflict or Abort): the sum of AbortsByCause
	OpenForRead    uint64 // OpenForRead operations executed
	OpenForUpdate  uint64 // OpenForUpdate operations executed
	UndoLogged     uint64 // undo-log entries recorded
	ReadLogEntries uint64 // read-log entries recorded (post-filtering)
	FilterHits     uint64 // log operations suppressed by the runtime filter
	LocalSkips     uint64 // barriers skipped on transaction-local objects
	Compactions    uint64 // log compactions performed
	ReadLogDropped uint64 // read-log entries removed by compaction
	CMWaits        uint64 // contention-manager waits (spins/yields on an owner)

	// ROFastCommits is always zero. No engine has a second read-only
	// commit path: core and ostm validate the read log at commit, and wstm
	// validates each read when it is made. The field stays only because the
	// benchmark's traced run still reports it as ro_fast_commit_frac; it
	// goes with that row.
	ROFastCommits uint64

	// AbortsByCause is indexed by AbortCause.
	AbortsByCause [NumAbortCauses]uint64

	Outcomes          uint64 // attempt outcomes Drive observed, conflicted or committed
	BackoffSpins      uint64 // backoff waits between attempts satisfied by yielding
	BackoffSleeps     uint64 // backoff waits that slept
	BackoffSleepNanos uint64 // total backoff sleep time, ns
}

// Sub returns the difference s - t, counter by counter. It is used by the
// harness to report per-interval statistics.
func (s Stats) Sub(t Stats) Stats {
	d := Stats{
		Starts:            s.Starts - t.Starts,
		Commits:           s.Commits - t.Commits,
		Aborts:            s.Aborts - t.Aborts,
		OpenForRead:       s.OpenForRead - t.OpenForRead,
		OpenForUpdate:     s.OpenForUpdate - t.OpenForUpdate,
		UndoLogged:        s.UndoLogged - t.UndoLogged,
		ReadLogEntries:    s.ReadLogEntries - t.ReadLogEntries,
		FilterHits:        s.FilterHits - t.FilterHits,
		LocalSkips:        s.LocalSkips - t.LocalSkips,
		Compactions:       s.Compactions - t.Compactions,
		ReadLogDropped:    s.ReadLogDropped - t.ReadLogDropped,
		CMWaits:           s.CMWaits - t.CMWaits,
		ROFastCommits:     s.ROFastCommits - t.ROFastCommits,
		Outcomes:          s.Outcomes - t.Outcomes,
		BackoffSpins:      s.BackoffSpins - t.BackoffSpins,
		BackoffSleeps:     s.BackoffSleeps - t.BackoffSleeps,
		BackoffSleepNanos: s.BackoffSleepNanos - t.BackoffSleepNanos,
	}
	for i := range d.AbortsByCause {
		d.AbortsByCause[i] = s.AbortsByCause[i] - t.AbortsByCause[i]
	}
	return d
}

// Add returns the sum s + t, counter by counter. Sharded stores use it to
// aggregate per-shard engine statistics into one store-wide view.
func (s Stats) Add(t Stats) Stats {
	d := Stats{
		Starts:            s.Starts + t.Starts,
		Commits:           s.Commits + t.Commits,
		Aborts:            s.Aborts + t.Aborts,
		OpenForRead:       s.OpenForRead + t.OpenForRead,
		OpenForUpdate:     s.OpenForUpdate + t.OpenForUpdate,
		UndoLogged:        s.UndoLogged + t.UndoLogged,
		ReadLogEntries:    s.ReadLogEntries + t.ReadLogEntries,
		FilterHits:        s.FilterHits + t.FilterHits,
		LocalSkips:        s.LocalSkips + t.LocalSkips,
		Compactions:       s.Compactions + t.Compactions,
		ReadLogDropped:    s.ReadLogDropped + t.ReadLogDropped,
		CMWaits:           s.CMWaits + t.CMWaits,
		ROFastCommits:     s.ROFastCommits + t.ROFastCommits,
		Outcomes:          s.Outcomes + t.Outcomes,
		BackoffSpins:      s.BackoffSpins + t.BackoffSpins,
		BackoffSleeps:     s.BackoffSleeps + t.BackoffSleeps,
		BackoffSleepNanos: s.BackoffSleepNanos + t.BackoffSleepNanos,
	}
	for i := range d.AbortsByCause {
		d.AbortsByCause[i] = s.AbortsByCause[i] + t.AbortsByCause[i]
	}
	return d
}
