package memtx

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"memtx/internal/core"
	"memtx/internal/engine"
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

// TestRetryAfterZombieReadWakes: the body reads a value that an uncommitted
// owner wrote in place and retries on it; the owner then rolls back, which
// publishes no commit. Waiting for a commit would sleep forever. Retry must
// see that the attempt's snapshot is inconsistent and re-run it instead, so
// the body reads the restored value and AtomicWait returns.
func TestRetryAfterZombieReadWakes(t *testing.T) {
	tm := New()
	slot := tm.NewVar(0)
	errAbort := errors.New("owner aborts")

	written, release, ownerDone := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		ownerDone <- tm.Atomic(func(tx *Tx) error {
			slot.Set(tx, 1) // in place, owned, uncommitted
			close(written)
			<-release
			return errAbort
		})
	}()
	<-written

	saw, done := make(chan struct{}), make(chan error, 1)
	go func() {
		var once sync.Once
		done <- tm.AtomicWait(func(tx *Tx) error {
			if slot.Get(tx) == 1 {
				once.Do(func() { close(saw) })
				Retry(tx)
			}
			return nil
		})
	}()
	<-saw
	time.Sleep(10 * time.Millisecond) // let the waiter reach its wait
	close(release)
	if err := <-ownerDone; err != errAbort {
		t.Fatalf("owner: %v, want its own abort", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("AtomicWait: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AtomicWait still asleep 2s after the zombie read's owner rolled back")
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

// savepointShapes are the object shapes the savepoint tests write: a small
// one, whose undo log the duplicate-log filter deduplicates, and a large one,
// whose undo log its own marks deduplicate.
var savepointShapes = []struct {
	name        string
	words, refs int
}{{"small", 1, 1}, {"large", 3, 3}}

// spField is one field of h, a word or a ref, written and read as a number:
// a ref holds targets[v], where targets[0] is nil.
type spField struct {
	name    string
	h       engine.Handle
	ref     bool
	i       int
	targets [3]engine.Handle
}

// savepointFields returns a word and a ref field, each the last of its kind,
// of a fresh object of every shape in savepointShapes.
func savepointFields(e *core.Engine) []spField {
	var fields []spField
	for _, s := range savepointShapes {
		h := e.NewObj(s.words, s.refs)
		targets := [3]engine.Handle{nil, e.NewObj(1, 0), e.NewObj(1, 0)}
		fields = append(fields,
			spField{name: s.name + "/word", h: h, i: s.words - 1, targets: targets},
			spField{name: s.name + "/ref", h: h, ref: true, i: s.refs - 1, targets: targets})
	}
	return fields
}

// write opens the field's object for update, undo-logs the field and stores v.
func (f spField) write(tx engine.Txn, v int) {
	tx.OpenForUpdate(f.h)
	if f.ref {
		tx.LogForUndoRef(f.h, f.i)
		tx.StoreRef(f.h, f.i, f.targets[v])
	} else {
		tx.LogForUndoWord(f.h, f.i)
		tx.StoreWord(f.h, f.i, uint64(v))
	}
}

// read opens the field's object for read and loads the field.
func (f spField) read(tx engine.Txn) int {
	tx.OpenForRead(f.h)
	if !f.ref {
		return int(tx.LoadWord(f.h, f.i))
	}
	r := tx.LoadRef(f.h, f.i)
	for v, g := range f.targets {
		if r == g {
			return v
		}
	}
	return -1
}

// committed reads the field in a transaction of its own.
func (f spField) committed(e *core.Engine) int {
	r := e.BeginReadOnly()
	defer r.Commit()
	return f.read(r)
}

// TestSavepointRefilterAfterRollback: after a partial rollback, neither the
// filter nor a large object's marks may suppress re-logging of fields whose
// undo entries were discarded.
func TestSavepointRefilterAfterRollback(t *testing.T) {
	e := core.New()
	for _, f := range savepointFields(e) {
		t.Run(f.name, func(t *testing.T) {
			tx := e.Begin().(*core.Txn)
			sp := tx.Save()
			f.write(tx, 1)
			tx.RollbackTo(sp)

			// Write again; if the undo log were wrongly suppressed, a full
			// abort would leave the value 2 in place.
			f.write(tx, 2)
			tx.Abort()
			if got := f.committed(e); got != 0 {
				t.Fatalf("value after abort = %d, want 0", got)
			}
		})
	}
}

// TestSavepointRelogsFieldsLoggedBeforeIt: a field undo-logged before a
// savepoint and written again after it gets the value it had at the
// savepoint back from RollbackTo, and its original one from an abort.
func TestSavepointRelogsFieldsLoggedBeforeIt(t *testing.T) {
	e := core.New()
	for _, f := range savepointFields(e) {
		t.Run(f.name, func(t *testing.T) {
			tx := e.Begin().(*core.Txn)
			f.write(tx, 1)
			sp := tx.Save()
			f.write(tx, 2)
			tx.RollbackTo(sp)
			if got := f.read(tx); got != 1 {
				t.Fatalf("value after RollbackTo = %d, want 1, the value at the savepoint", got)
			}
			tx.Abort()
			if got := f.committed(e); got != 0 {
				t.Fatalf("value after abort = %d, want 0", got)
			}
		})
	}
}

// TestOrElseRestoresValueSetBeforeIt: an alternative that retries gives a
// variable the body set before OrElse its value back, for the next
// alternative to read.
func TestOrElseRestoresValueSetBeforeIt(t *testing.T) {
	tm := New()
	v := tm.NewVar(0)
	var got uint64
	err := tm.AtomicWait(func(tx *Tx) error {
		v.Set(tx, 1)
		return tx.OrElse(
			func(tx *Tx) error { v.Set(tx, 2); Retry(tx); return nil },
			func(tx *Tx) error { got = v.Get(tx); return nil },
		)
	})
	if err != nil {
		t.Fatalf("AtomicWait: %v", err)
	}
	if got != 1 {
		t.Fatalf("second alternative read %d, want 1", got)
	}
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
