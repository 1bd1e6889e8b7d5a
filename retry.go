package memtx

import (
	"runtime"

	"memtx/internal/core"
)

// retryWait is the panic value raised by Retry. It never escapes AtomicWait
// or OrElse.
type retryWait struct{}

// Retry abandons the current transaction attempt and, when used under
// AtomicWait, blocks the transaction until another transaction commits an
// update — the composable blocking primitive of transactional memory
// ("composable memory transactions", listed by the paper as the companion
// construct its runtime supports):
//
//	tm.AtomicWait(func(tx *memtx.Tx) error {
//		if queueEmpty(tx) {
//			memtx.Retry(tx) // sleep until something commits, then re-run
//		}
//		return pop(tx)
//	})
//
// Inside Tx.OrElse, Retry instead passes control to the next alternative.
func Retry(tx *Tx) {
	panic(retryWait{})
}

// AtomicWait is Atomic with blocking-retry support: when the body calls
// Retry, the transaction rolls back and the goroutine sleeps until some
// other transaction commits an update, then the body re-executes. The
// wait/wake channel is precise on the direct-update engine (commit
// notifications) and degrades to yield-and-poll on the baseline designs.
func (tm *TM) AtomicWait(body func(tx *Tx) error) error {
	waiter, precise := tm.eng.(*core.Engine)
	if precise {
		// Before the first snapshot: commits made while no one is
		// registered do not advance the sequence.
		waiter.RegisterWaiter()
		defer waiter.UnregisterWaiter()
	}
	for {
		var seen uint64
		if precise {
			seen = waiter.CommitSeq()
		}
		retried := false
		err := func() (err error) {
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if _, ok := r.(retryWait); ok {
					retried = true
					return
				}
				panic(r)
			}()
			return tm.Atomic(func(tx *Tx) error {
				return body(tx)
			})
		}()
		if !retried {
			return err
		}
		// The attempt was rolled back by Atomic's recovery path (the panic
		// unwound through it); wait for the world to change.
		if precise {
			waiter.WaitCommit(seen)
		} else {
			runtime.Gosched()
		}
	}
}

// OrElse composes alternatives within one transaction: each alternative runs
// against a savepoint; if it calls Retry, its effects (writes, acquisitions,
// allocations) are rolled back and the next alternative runs. If every
// alternative retries, OrElse re-raises the retry so the enclosing
// AtomicWait blocks. The first alternative that returns normally (or with an
// error) decides the result.
//
// OrElse requires the direct-update engine (savepoints are a direct-update
// mechanism); on other designs it panics.
func (tx *Tx) OrElse(alternatives ...func(tx *Tx) error) error {
	ct, ok := tx.tx.(*core.Txn)
	if !ok {
		panic("memtx: OrElse requires the direct-update engine")
	}
	for _, alt := range alternatives {
		sp := ct.Save()
		retried := false
		err := func() (err error) {
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if _, ok := r.(retryWait); ok {
					retried = true
					return
				}
				panic(r)
			}()
			return alt(tx)
		}()
		if !retried {
			return err
		}
		ct.RollbackTo(sp)
	}
	panic(retryWait{})
}
