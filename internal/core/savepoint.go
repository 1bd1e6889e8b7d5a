package core

import (
	"sync"
	"sync/atomic"
)

// Savepoint marks a point in a transaction's logs to which the transaction
// can be partially rolled back — the mechanism behind composable
// alternatives (memtx.Tx.OrElse) and a building block the paper lists as
// future work for nested transactions.
type Savepoint struct {
	owner     *Txn
	id        uint64
	undoLen   int
	updateLen int
	readLen   int
}

// Save captures the current log state. It also starts the duplicate-log
// filter and the large-object marks afresh: a field undo-logged before the
// savepoint must be logged again on its first write after it, or RollbackTo
// would have no entry to restore that field's value at the savepoint from.
func (t *Txn) Save() Savepoint {
	if t.filter != nil {
		t.filter.Reset()
	}
	t.mark = t.ids.Take()
	return Savepoint{
		owner:     t,
		id:        t.id,
		undoLen:   len(t.undoLog),
		updateLen: len(t.updateLog),
		readLen:   len(t.readLog),
	}
}

// RollbackTo undoes every effect recorded after the savepoint was taken:
// in-place writes are restored in reverse order, and ownership acquired
// after the savepoint is released (with a version bump where the object was
// written, so concurrent optimistic readers that may have seen transient
// values fail validation). Read-log entries from the abandoned region are
// retained: they keep validating, which preserves the stability of the
// condition that led the abandoned branch to give up.
//
// The duplicate-log filter is reset because it may assert that fields rolled
// back here are "already logged"; resetting restores the invariant that
// every first post-rollback write is undo-logged again. Large objects need
// no reset: undoTo clears the mark of every field it restores.
func (t *Txn) RollbackTo(sp Savepoint) {
	if sp.owner != t || sp.id != t.id {
		panic("core: RollbackTo with a savepoint from another transaction")
	}
	if t.done {
		panic("core: RollbackTo on finished transaction")
	}
	t.undoTo(sp.undoLen)
	// Objects acquired after the savepoint are released. (An object owned
	// before the savepoint never gets a second update-log entry, so every
	// entry beyond the mark was acquired in the abandoned region.)
	t.releaseFrom(sp.updateLen)
	if t.filter != nil {
		t.filter.Reset()
	}
}

// commitSignal is the engine-wide commit notification used by blocking
// retry. A committer pays for it only while someone may wait: waiters counts
// the registered callers (RegisterWaiter), and bump takes the mutex only
// when the count is non-zero.
//
// No wakeup is lost. Go's atomics are sequentially consistent; a committer
// loads waiters after its release loop, and a waiter registers before its
// sequence snapshot and so before its body reads anything. If the load sees
// no waiter, the registration follows the release and the body sees the
// commit. If it sees one, the sequence advances under the mutex: a snapshot
// taken before that wakes, and a snapshot taken after it also follows the
// release.
type commitSignal struct {
	waiters atomic.Int64
	mu      sync.Mutex
	cond    *sync.Cond
	seq     uint64
}

func (s *commitSignal) init() {
	s.cond = sync.NewCond(&s.mu)
}

// bump advances the sequence and wakes all waiters, if there are any.
func (s *commitSignal) bump() {
	if s.waiters.Load() == 0 {
		return
	}
	s.mu.Lock()
	s.seq++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// current returns the sequence number.
func (s *commitSignal) current() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// waitPast blocks until the sequence exceeds seen.
func (s *commitSignal) waitPast(seen uint64) {
	s.mu.Lock()
	for s.seq <= seen {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// RegisterWaiter announces a caller of CommitSeq and WaitCommit until the
// matching UnregisterWaiter. Update commits advance the sequence only while
// some caller is registered, so a caller registers before it takes the
// snapshot it will wait on and stays registered while it waits.
func (e *Engine) RegisterWaiter() { e.signal.waiters.Add(1) }

// UnregisterWaiter withdraws one RegisterWaiter.
func (e *Engine) UnregisterWaiter() { e.signal.waiters.Add(-1) }

// CommitSeq returns a monotonically increasing count of update commits made
// while a waiter was registered. Together with WaitCommit it implements
// blocking retry: register, snapshot the sequence before running a
// transaction body; if the body gives up, wait for the sequence to advance
// before re-executing.
func (e *Engine) CommitSeq() uint64 { return e.signal.current() }

// WaitCommit blocks until some transaction has committed updates after the
// given sequence snapshot. The caller must be registered (RegisterWaiter).
func (e *Engine) WaitCommit(seen uint64) { e.signal.waitPast(seen) }
