package memtx

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"memtx/internal/core"
)

// TestRetryBlocksUntilCommit: the classic producer/consumer handoff. The
// consumer retries while the slot is empty and must wake when the producer
// commits.
func TestRetryBlocksUntilCommit(t *testing.T) {
	tm := New()
	slot := tm.NewVar(0)

	got := make(chan uint64, 1)
	go func() {
		var v uint64
		err := tm.AtomicWait(func(tx *Tx) error {
			v = slot.Get(tx)
			if v == 0 {
				Retry(tx)
			}
			slot.Set(tx, 0) // consume
			return nil
		})
		if err != nil {
			t.Errorf("consumer: %v", err)
		}
		got <- v
	}()

	// Give the consumer a chance to block, then produce.
	time.Sleep(10 * time.Millisecond)
	if err := tm.Atomic(func(tx *Tx) error {
		slot.Set(tx, 42)
		return nil
	}); err != nil {
		t.Fatalf("producer: %v", err)
	}

	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("consumed %d, want 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never woke up")
	}
}

// TestRetryQueueManyItems pumps a bounded queue through Retry-based
// producers and consumers.
func TestRetryQueueManyItems(t *testing.T) {
	tm := New()
	slot := tm.NewVar(0) // 0 = empty
	const items = 300

	var consumed []uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // consumer
		defer wg.Done()
		for i := 0; i < items; i++ {
			var v uint64
			_ = tm.AtomicWait(func(tx *Tx) error {
				v = slot.Get(tx)
				if v == 0 {
					Retry(tx)
				}
				slot.Set(tx, 0)
				return nil
			})
			consumed = append(consumed, v)
		}
	}()
	go func() { // producer
		defer wg.Done()
		for i := 1; i <= items; i++ {
			_ = tm.AtomicWait(func(tx *Tx) error {
				if slot.Get(tx) != 0 {
					Retry(tx) // wait for the consumer to drain
				}
				slot.Set(tx, uint64(i))
				return nil
			})
		}
	}()
	wg.Wait()

	if len(consumed) != items {
		t.Fatalf("consumed %d items, want %d", len(consumed), items)
	}
	for i, v := range consumed {
		if v != uint64(i+1) {
			t.Fatalf("consumed[%d] = %d, want %d", i, v, i+1)
		}
	}
}

// TestRetryNoLostWakeup: the producer commits while the consumer is between
// its read of the empty slot and its wait. The consumer registered as a
// waiter before its sequence snapshot, so that commit advances the sequence
// and the wait returns at once. Many rounds, so the commit lands inside the
// window in many of them.
func TestRetryNoLostWakeup(t *testing.T) {
	const rounds = 500
	tm := New()
	for i := 0; i < rounds; i++ {
		slot := tm.NewVar(0)
		read := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			var once sync.Once
			_ = tm.AtomicWait(func(tx *Tx) error {
				if slot.Get(tx) == 0 {
					once.Do(func() { close(read) })
					runtime.Gosched() // let the producer commit before this attempt waits
					Retry(tx)
				}
				return nil
			})
		}()
		<-read
		if err := tm.Atomic(func(tx *Tx) error {
			slot.Set(tx, 1)
			return nil
		}); err != nil {
			t.Fatalf("producer: %v", err)
		}
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: the consumer never woke after the producer committed (lost wakeup)", i)
		}
	}
}

// TestAtomicWaitPlainBody: bodies that never retry behave exactly like
// Atomic, including error passthrough.
func TestAtomicWaitPlainBody(t *testing.T) {
	tm := New()
	v := tm.NewVar(0)
	if err := tm.AtomicWait(func(tx *Tx) error {
		v.Set(tx, 9)
		return nil
	}); err != nil {
		t.Fatalf("AtomicWait: %v", err)
	}
	boom := errors.New("boom")
	if err := tm.AtomicWait(func(tx *Tx) error { return boom }); err != boom {
		t.Fatalf("error passthrough = %v, want boom", err)
	}
}

// TestOrElseTakesFirstReadyAlternative: the first alternative that does not
// retry wins, and an abandoned alternative's writes are rolled back.
func TestOrElseTakesFirstReadyAlternative(t *testing.T) {
	tm := New()
	a := tm.NewVar(0) // empty
	b := tm.NewVar(7)
	sink := tm.NewVar(0)

	err := tm.AtomicWait(func(tx *Tx) error {
		return tx.OrElse(
			func(tx *Tx) error {
				sink.Set(tx, 111) // must be rolled back when we retry below
				if a.Get(tx) == 0 {
					Retry(tx)
				}
				return nil
			},
			func(tx *Tx) error {
				v := b.Get(tx)
				if v == 0 {
					Retry(tx)
				}
				sink.Set(tx, v)
				return nil
			},
		)
	})
	if err != nil {
		t.Fatalf("OrElse: %v", err)
	}
	_ = tm.ReadOnly(func(tx *Tx) error {
		if got := sink.Get(tx); got != 7 {
			t.Fatalf("sink = %d, want 7 (first arm's 111 must be rolled back)", got)
		}
		return nil
	})
}

// TestOrElseAllRetryBlocks: when every alternative retries, the whole
// transaction blocks until a commit makes one runnable.
func TestOrElseAllRetryBlocks(t *testing.T) {
	tm := New()
	a := tm.NewVar(0)
	b := tm.NewVar(0)

	done := make(chan uint64, 1)
	go func() {
		var got uint64
		_ = tm.AtomicWait(func(tx *Tx) error {
			return tx.OrElse(
				func(tx *Tx) error {
					if v := a.Get(tx); v != 0 {
						got = v
						return nil
					}
					Retry(tx)
					return nil
				},
				func(tx *Tx) error {
					if v := b.Get(tx); v != 0 {
						got = v
						return nil
					}
					Retry(tx)
					return nil
				},
			)
		})
		done <- got
	}()

	time.Sleep(10 * time.Millisecond)
	_ = tm.Atomic(func(tx *Tx) error {
		b.Set(tx, 55)
		return nil
	})
	select {
	case got := <-done:
		if got != 55 {
			t.Fatalf("got %d, want 55 (second alternative)", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OrElse never woke up")
	}
}

// TestOrElseErrorPassthrough: a non-retry error from an alternative aborts
// the transaction and propagates.
func TestOrElseErrorPassthrough(t *testing.T) {
	tm := New()
	boom := errors.New("boom")
	err := tm.AtomicWait(func(tx *Tx) error {
		return tx.OrElse(func(tx *Tx) error { return boom })
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestSavepointPartialRollback exercises the core mechanism directly:
// in-place writes past the savepoint are restored and ownership released.
func TestSavepointPartialRollback(t *testing.T) {
	e := core.New()
	h1 := e.NewObj(1, 0)
	h2 := e.NewObj(1, 0)

	tx := e.Begin().(*core.Txn)
	tx.OpenForUpdate(h1)
	tx.LogForUndoWord(h1, 0)
	tx.StoreWord(h1, 0, 1)

	sp := tx.Save()
	tx.OpenForUpdate(h2)
	tx.LogForUndoWord(h2, 0)
	tx.StoreWord(h2, 0, 2)
	tx.RollbackTo(sp)

	// h2 must be restored and released: another transaction can now write it.
	w := e.Begin()
	w.OpenForUpdate(h2)
	w.LogForUndoWord(h2, 0)
	w.StoreWord(h2, 0, 99)
	if err := w.Commit(); err != nil {
		t.Fatalf("other writer after rollback: %v", err)
	}

	// The original transaction keeps h1 and can still commit it.
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit after partial rollback: %v", err)
	}

	r := e.BeginReadOnly()
	r.OpenForRead(h1)
	if got := r.LoadWord(h1, 0); got != 1 {
		t.Fatalf("h1 = %d, want 1", got)
	}
	r.OpenForRead(h2)
	if got := r.LoadWord(h2, 0); got != 99 {
		t.Fatalf("h2 = %d, want 99", got)
	}
	_ = r.Commit()
}

// TestSavepointRefilterAfterRollback: after a partial rollback the filter
// must not suppress re-logging of fields whose undo entries were discarded.
func TestSavepointRefilterAfterRollback(t *testing.T) {
	e := core.New()
	h := e.NewObj(1, 0)

	tx := e.Begin().(*core.Txn)
	sp := tx.Save()
	tx.OpenForUpdate(h)
	tx.LogForUndoWord(h, 0)
	tx.StoreWord(h, 0, 5)
	tx.RollbackTo(sp)

	// Write again; if the filter wrongly suppressed the undo log, a full
	// abort would leave the value 6 in place.
	tx.OpenForUpdate(h)
	tx.LogForUndoWord(h, 0)
	tx.StoreWord(h, 0, 6)
	tx.Abort()

	r := e.BeginReadOnly()
	r.OpenForRead(h)
	if got := r.LoadWord(h, 0); got != 0 {
		t.Fatalf("value after abort = %d, want 0", got)
	}
	_ = r.Commit()
}

func TestSavepointCrossTransactionPanics(t *testing.T) {
	e := core.New()
	t1 := e.Begin().(*core.Txn)
	sp := t1.Save()
	t1.Abort()
	t2 := e.Begin().(*core.Txn)
	defer t2.Abort()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic using a stale savepoint")
		}
	}()
	t2.RollbackTo(sp)
}
