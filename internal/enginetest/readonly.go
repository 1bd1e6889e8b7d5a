package enginetest

import (
	"sync"
	"testing"

	"memtx/internal/engine"
)

// The read-only cases pin the soundness contract of a read-only commit: it
// must never succeed for a transaction that observed two different states of
// the same object, or a value no committed state held. An engine is free to
// detect the conflict either at access time (a Retry panic on the read, as
// the word-based design does) or at commit time (ErrConflict from validating
// the read log, as the object-based designs do). It must also not fail a
// read-only commit for a write it never read. The "FastPath" in the subtest
// names is the O(1) read-only commit these cases were written against; no
// engine has that second path now, and the contract is the same for the one
// that remains.

// roRead opens h for read on r and loads word i. A Retry panic — the engine
// detecting the conflict at access time — aborts r and reports ok=false.
func roRead(r engine.Txn, h engine.Handle, i int) (v uint64, ok bool) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, isRetry := rec.(*engine.Retry); isRetry {
				r.Abort()
				return
			}
			panic(rec)
		}
	}()
	r.OpenForRead(h)
	return r.LoadWord(h, i), true
}

// testReadOnlyFastPathConflict commits a conflicting update in the middle of
// a read-only transaction's window and checks the commit cannot smuggle the
// inconsistent snapshot through.
func testReadOnlyFastPathConflict(t *testing.T, e engine.Engine) {
	h := e.NewObj(1, 0)
	if err := engine.Run(e, func(tx engine.Txn) error {
		write(tx, h, 0, 5)
		return nil
	}); err != nil {
		t.Fatalf("seed: %v", err)
	}

	r := e.BeginReadOnly()
	v1, ok := roRead(r, h, 0)
	if !ok {
		t.Fatal("first read abandoned with no concurrent writer")
	}
	if v1 != 5 {
		t.Fatalf("first read = %d, want 5", v1)
	}

	// A conflicting update commits mid-transaction.
	if err := engine.Run(e, func(tx engine.Txn) error {
		write(tx, h, 0, 99)
		return nil
	}); err != nil {
		t.Fatalf("writer: %v", err)
	}

	v2, ok := roRead(r, h, 0)
	if !ok {
		return // conflict detected at access time: contract satisfied
	}
	err := r.Commit()
	if err == nil && v2 != v1 {
		t.Fatalf("read-only commit succeeded over an inconsistent snapshot: read %d then %d", v1, v2)
	}
}

// testReadOnlyFastPathDirtyWriter overlaps a read-only transaction with an
// update transaction that has written in place (direct engine) but not yet
// committed. If the read-only transaction observed the uncommitted value, its
// commit must fail; engines that buffer updates simply serve the old value.
func testReadOnlyFastPathDirtyWriter(t *testing.T, e engine.Engine) {
	h := e.NewObj(1, 0)
	if err := engine.Run(e, func(tx engine.Txn) error {
		write(tx, h, 0, 5)
		return nil
	}); err != nil {
		t.Fatalf("seed: %v", err)
	}

	written := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	var once sync.Once
	go func() {
		done <- engine.Run(e, func(tx engine.Txn) error {
			write(tx, h, 0, 77)
			once.Do(func() { close(written) })
			<-release
			return nil
		})
	}()

	<-written
	r := e.BeginReadOnly()
	v, ok := roRead(r, h, 0)
	var err error
	if ok {
		err = r.Commit()
	}
	close(release)
	if werr := <-done; werr != nil {
		t.Fatalf("writer: %v", werr)
	}
	if ok && err == nil && v != 5 {
		t.Fatalf("read-only commit published a dirty read: saw %d, committed state was 5", v)
	}
}

// testReadOnlyFastPathCounts checks read-only validation has no false
// conflict: an update to an unrelated object in the middle of a read-only
// transaction must not fail its commit.
func testReadOnlyFastPathCounts(t *testing.T, e engine.Engine) {
	x := e.NewObj(1, 0)
	y := e.NewObj(1, 0)
	if err := engine.Run(e, func(tx engine.Txn) error {
		write(tx, x, 0, 5)
		write(tx, y, 0, 1)
		return nil
	}); err != nil {
		t.Fatalf("seed: %v", err)
	}

	r := e.BeginReadOnly()
	v, ok := roRead(r, x, 0)
	if !ok {
		t.Fatal("read of x abandoned with no conflicting writer")
	}
	if err := engine.Run(e, func(tx engine.Txn) error {
		write(tx, y, 0, 2)
		return nil
	}); err != nil {
		t.Fatalf("unrelated writer: %v", err)
	}
	if err := r.Commit(); err != nil {
		t.Fatalf("read-only commit failed after unrelated update: %v", err)
	}
	if v != 5 {
		t.Fatalf("read of x = %d, want 5", v)
	}
}
