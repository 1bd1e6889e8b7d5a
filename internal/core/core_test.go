package core

import (
	"sync"
	"testing"
	"time"

	"memtx/internal/engine"
)

// newChecked returns an engine with protocol checking on, suitable for unit
// tests of the decomposed API.
func newChecked(opts ...Option) *Engine {
	return New(append([]Option{WithChecked(true)}, opts...)...)
}

func TestCommitPublishesWord(t *testing.T) {
	e := newChecked()
	h := e.NewObj(2, 0)

	tx := e.Begin()
	tx.OpenForUpdate(h)
	tx.LogForUndoWord(h, 0)
	tx.StoreWord(h, 0, 42)
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	tx = e.BeginReadOnly()
	tx.OpenForRead(h)
	if got := tx.LoadWord(h, 0); got != 42 {
		t.Fatalf("LoadWord = %d, want 42", got)
	}
	if got := tx.LoadWord(h, 1); got != 0 {
		t.Fatalf("LoadWord(1) = %d, want 0", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("read-only Commit: %v", err)
	}
}

func TestAbortRollsBack(t *testing.T) {
	e := newChecked()
	h := e.NewObj(1, 1)
	other := e.NewObj(0, 0).(*Obj)

	tx := e.Begin()
	tx.OpenForUpdate(h)
	tx.LogForUndoWord(h, 0)
	tx.StoreWord(h, 0, 7)
	tx.LogForUndoRef(h, 0)
	tx.StoreRef(h, 0, other)
	tx.Abort()

	tx = e.BeginReadOnly()
	tx.OpenForRead(h)
	if got := tx.LoadWord(h, 0); got != 0 {
		t.Fatalf("word after abort = %d, want 0", got)
	}
	if got := tx.LoadRef(h, 0); got != nil {
		t.Fatalf("ref after abort = %v, want nil", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestAbortRestoresMultipleUndoEntriesInOrder(t *testing.T) {
	// Disable the filter so the same word is undo-logged twice; reverse
	// replay must restore the oldest value.
	e := newChecked(WithFilterSize(0))
	h := e.NewObj(1, 0)

	tx := e.Begin()
	tx.OpenForUpdate(h)
	tx.LogForUndoWord(h, 0)
	tx.StoreWord(h, 0, 1)
	tx.LogForUndoWord(h, 0) // logs value 1
	tx.StoreWord(h, 0, 2)
	tx.Abort()

	tx = e.BeginReadOnly()
	tx.OpenForRead(h)
	if got := tx.LoadWord(h, 0); got != 0 {
		t.Fatalf("word after double-logged abort = %d, want 0", got)
	}
	_ = tx.Commit()
}

func TestReadValidationConflict(t *testing.T) {
	e := newChecked()
	h := e.NewObj(1, 0)

	// Reader opens h, then a writer commits an update; the reader must get
	// ErrConflict at commit.
	r := e.Begin()
	r.OpenForRead(h)
	_ = r.LoadWord(h, 0)

	w := e.Begin()
	w.OpenForUpdate(h)
	w.LogForUndoWord(h, 0)
	w.StoreWord(h, 0, 9)
	if err := w.Commit(); err != nil {
		t.Fatalf("writer Commit: %v", err)
	}

	if err := r.Commit(); err != engine.ErrConflict {
		t.Fatalf("reader Commit = %v, want ErrConflict", err)
	}
}

func TestDirtyAbortInvalidatesReaders(t *testing.T) {
	// A reader that opened before a writer acquired the object may have seen
	// the writer's in-place (dirty) values. Even though the writer aborts and
	// restores the data, the reader must fail validation.
	e := newChecked()
	h := e.NewObj(1, 0)

	r := e.Begin()
	r.OpenForRead(h)

	w := e.Begin()
	w.OpenForUpdate(h)
	w.LogForUndoWord(h, 0)
	w.StoreWord(h, 0, 123)
	w.Abort()

	if err := r.Commit(); err != engine.ErrConflict {
		t.Fatalf("reader Commit after dirty abort = %v, want ErrConflict", err)
	}
}

func TestCleanAbortDoesNotInvalidateReaders(t *testing.T) {
	// A writer that acquired ownership but never wrote must not disturb
	// concurrent readers when it aborts.
	e := newChecked()
	h := e.NewObj(1, 0)

	r := e.Begin()
	r.OpenForRead(h)

	w := e.Begin()
	w.OpenForUpdate(h)
	w.Abort()

	if err := r.Commit(); err != nil {
		t.Fatalf("reader Commit after clean abort = %v, want nil", err)
	}
}

func TestValidateMidTransaction(t *testing.T) {
	e := newChecked()
	h := e.NewObj(1, 0)

	r := e.Begin()
	r.OpenForRead(h)
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate before conflict: %v", err)
	}

	w := e.Begin()
	w.OpenForUpdate(h)
	w.LogForUndoWord(h, 0)
	w.StoreWord(h, 0, 5)
	if err := w.Commit(); err != nil {
		t.Fatalf("writer Commit: %v", err)
	}

	if err := r.Validate(); err != engine.ErrConflict {
		t.Fatalf("Validate after conflict = %v, want ErrConflict", err)
	}
	r.Abort()
}

func TestOpenForUpdateSubsumesRead(t *testing.T) {
	e := newChecked()
	h := e.NewObj(1, 0)

	tx := e.Begin()
	tx.OpenForUpdate(h)
	tx.OpenForRead(h) // must not add a read-log entry that later conflicts
	tx.LogForUndoWord(h, 0)
	tx.StoreWord(h, 0, 3)
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := readBack(t, e, h); got != 3 {
		t.Fatalf("value = %d, want 3", got)
	}
}

func TestReadThenUpgradeSameVersionCommits(t *testing.T) {
	e := newChecked()
	h := e.NewObj(1, 0)

	tx := e.Begin()
	tx.OpenForRead(h)
	tx.OpenForUpdate(h) // runtime upgrade; version unchanged, must validate
	tx.LogForUndoWord(h, 0)
	tx.StoreWord(h, 0, 11)
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit after upgrade: %v", err)
	}
	if got := readBack(t, e, h); got != 11 {
		t.Fatalf("value = %d, want 11", got)
	}
}

func TestReadThenUpgradeAfterInterveningWriterConflicts(t *testing.T) {
	e := newChecked()
	h := e.NewObj(1, 0)

	tx := e.Begin()
	tx.OpenForRead(h)

	w := e.Begin()
	w.OpenForUpdate(h)
	w.LogForUndoWord(h, 0)
	w.StoreWord(h, 0, 77)
	if err := w.Commit(); err != nil {
		t.Fatalf("writer Commit: %v", err)
	}

	tx.OpenForUpdate(h) // acquires the newer version
	tx.LogForUndoWord(h, 0)
	tx.StoreWord(h, 0, 88)
	if err := tx.Commit(); err != engine.ErrConflict {
		t.Fatalf("Commit = %v, want ErrConflict", err)
	}
	// The failed transaction must have rolled its store back.
	if got := readBack(t, e, h); got != 77 {
		t.Fatalf("value = %d, want 77 (from the committed writer)", got)
	}
}

func TestUpdateUpdateConflictAbandons(t *testing.T) {
	e := newChecked(WithContentionManager(Passive{}))
	h := e.NewObj(1, 0)

	w1 := e.Begin()
	w1.OpenForUpdate(h)

	w2 := e.Begin()
	func() {
		defer func() {
			r := recover()
			if _, ok := r.(*engine.Retry); !ok {
				t.Fatalf("expected *engine.Retry panic, got %v", r)
			}
		}()
		w2.OpenForUpdate(h)
		t.Fatal("OpenForUpdate should not have succeeded")
	}()
	w2.Abort()
	w1.Abort()
}

// TestHalfAcquiredObjectIsNotOwnedByFormerOwner covers the window between a
// winner's CAS of the owned bit and its owner store. A transaction that owned
// the object before and released it must, in that window, wait on the object
// like any other transaction rather than conclude that it still holds it:
// release clears the owner field before it publishes the word.
func TestHalfAcquiredObjectIsNotOwnedByFormerOwner(t *testing.T) {
	e := New(WithContentionManager(Passive{}))
	h := e.NewObj(1, 0)
	o := h.(*Obj)

	tx := e.Begin().(*Txn)
	sp := tx.Save()
	tx.OpenForUpdate(h)
	tx.RollbackTo(sp)

	// Stand-in for a second transaction between its CAS and its owner store.
	w := o.meta.Load()
	if w&ownedBit != 0 || !o.meta.CompareAndSwap(w, w|ownedBit) {
		t.Fatalf("object still owned after RollbackTo (word %#x)", w)
	}
	var r any
	func() {
		defer func() { r = recover() }()
		tx.OpenForUpdate(h)
	}()
	if rt, ok := r.(*engine.Retry); !ok || rt.Cause != engine.CauseCMKill {
		t.Fatalf("OpenForUpdate in the half-acquired window: got %v, want an abandon with CauseCMKill "+
			"(nil means the former owner took the object for its own)", r)
	}
	tx.Abort()
}

func TestTransactionLocalAllocationSkipsBarriers(t *testing.T) {
	e := newChecked()
	before := e.Stats()

	tx := e.Begin()
	local := tx.Alloc(2, 0)
	tx.OpenForRead(local)
	tx.OpenForUpdate(local)
	tx.LogForUndoWord(local, 0)
	tx.StoreWord(local, 0, 1)
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	d := e.Stats().Sub(before)
	if d.LocalSkips != 3 {
		t.Fatalf("LocalSkips = %d, want 3", d.LocalSkips)
	}
	if d.ReadLogEntries != 0 || d.UndoLogged != 0 {
		t.Fatalf("local object produced log entries: %+v", d)
	}
}

func TestAllocatedObjectSharedAfterCommit(t *testing.T) {
	e := newChecked()
	root := e.NewObj(0, 1)

	err := engine.Run(e, func(tx engine.Txn) error {
		n := tx.Alloc(1, 0)
		tx.StoreWord(n, 0, 99) // no barriers needed: transaction-local
		tx.OpenForUpdate(root)
		tx.LogForUndoRef(root, 0)
		tx.StoreRef(root, 0, n)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	// After publication the object is shared and must obey the protocol.
	err = engine.RunReadOnly(e, func(tx engine.Txn) error {
		tx.OpenForRead(root)
		n := tx.LoadRef(root, 0)
		if n == nil {
			t.Fatal("published ref is nil")
		}
		tx.OpenForRead(n)
		if got := tx.LoadWord(n, 0); got != 99 {
			t.Fatalf("published word = %d, want 99", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunReadOnly: %v", err)
	}
}

func TestFilterSuppressesDuplicateLogs(t *testing.T) {
	e := New(WithFilterSize(256))
	h := e.NewObj(1, 0)
	before := e.Stats()

	tx := e.Begin()
	for i := 0; i < 10; i++ {
		tx.OpenForRead(h)
		_ = tx.LoadWord(h, 0)
	}
	tx.OpenForUpdate(h)
	for i := 0; i < 10; i++ {
		tx.LogForUndoWord(h, 0)
		tx.StoreWord(h, 0, uint64(i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	d := e.Stats().Sub(before)
	if d.ReadLogEntries != 1 {
		t.Fatalf("ReadLogEntries = %d, want 1", d.ReadLogEntries)
	}
	if d.UndoLogged != 1 {
		t.Fatalf("UndoLogged = %d, want 1", d.UndoLogged)
	}
	if d.FilterHits != 9+9 {
		t.Fatalf("FilterHits = %d, want 18", d.FilterHits)
	}
}

// TestReadOnlyFilterFromThreshold: a read-only transaction consults the
// duplicate filter only once its read log holds roFilterFrom entries. Below
// that, k opens of one object log k entries and hit nothing; past it, a
// re-open of one object hits again.
func TestReadOnlyFilterFromThreshold(t *testing.T) {
	e := New(WithFilterSize(256))
	h := e.NewObj(1, 0)
	others := make([]engine.Handle, roFilterFrom)
	for i := range others {
		others[i] = e.NewObj(1, 0)
	}
	before := e.Stats()

	tx := e.BeginReadOnly()
	const k = 10
	for i := 0; i < k; i++ {
		tx.OpenForRead(h)
	}
	if got := tx.(*Txn).ReadLogLen(); got != k {
		t.Fatalf("after %d opens below the threshold: read log = %d, want %d", k, got, k)
	}
	for _, o := range others[:roFilterFrom-k] {
		tx.OpenForRead(o)
	}
	// The log now holds roFilterFrom entries: the first re-open of an object
	// records it in the filter, and every later one hits.
	for i := 0; i < k; i++ {
		tx.OpenForRead(others[0])
	}
	if got := tx.(*Txn).ReadLogLen(); got != roFilterFrom+1 {
		t.Fatalf("read log = %d, want %d", got, roFilterFrom+1)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Every hit is a re-open of others[0] past the threshold: h's opens
	// below it hit nothing.
	d := e.Stats().Sub(before)
	if d.ReadLogEntries != roFilterFrom+1 || d.FilterHits != k-1 {
		t.Fatalf("ReadLogEntries = %d, FilterHits = %d; want %d and %d",
			d.ReadLogEntries, d.FilterHits, roFilterFrom+1, k-1)
	}
}

func TestNoFilterLogsEveryOpen(t *testing.T) {
	e := New(WithFilterSize(0))
	h := e.NewObj(1, 0)
	before := e.Stats()

	tx := e.Begin()
	for i := 0; i < 5; i++ {
		tx.OpenForRead(h)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	d := e.Stats().Sub(before)
	if d.ReadLogEntries != 5 {
		t.Fatalf("ReadLogEntries = %d, want 5", d.ReadLogEntries)
	}
}

func TestCompactDeduplicatesReadLog(t *testing.T) {
	e := New(WithFilterSize(0))
	h1 := e.NewObj(1, 0)
	h2 := e.NewObj(1, 0)

	tx := e.Begin().(*Txn)
	for i := 0; i < 4; i++ {
		tx.OpenForRead(h1)
		tx.OpenForRead(h2)
	}
	if got := tx.ReadLogLen(); got != 8 {
		t.Fatalf("read log before compaction = %d, want 8", got)
	}
	tx.Compact()
	if got := tx.ReadLogLen(); got != 2 {
		t.Fatalf("read log after compaction = %d, want 2", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestAutoCompaction(t *testing.T) {
	e := New(WithFilterSize(0), WithCompaction(16))
	h := e.NewObj(1, 0)

	tx := e.Begin().(*Txn)
	for i := 0; i < 1000; i++ {
		tx.OpenForRead(h)
	}
	if got := tx.ReadLogLen(); got > 17 {
		t.Fatalf("read log with auto-compaction = %d, want <= 17", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if s := e.Stats(); s.Compactions == 0 || s.ReadLogDropped == 0 {
		t.Fatalf("expected compactions recorded, got %+v", s)
	}
}

func TestReadOnlyPanicsOnUpdate(t *testing.T) {
	e := newChecked()
	h := e.NewObj(1, 0)
	tx := e.BeginReadOnly()
	defer tx.Abort()
	assertPanics(t, func() { tx.OpenForUpdate(h) })
	assertPanics(t, func() { tx.StoreWord(h, 0, 1) })
	assertPanics(t, func() { tx.StoreRef(h, 0, nil) })
}

func TestCheckedModeCatchesMissingOpen(t *testing.T) {
	e := newChecked()
	h := e.NewObj(1, 0)
	tx := e.Begin()
	defer tx.Abort()
	assertPanics(t, func() { _ = tx.LoadWord(h, 0) })
	assertPanics(t, func() { tx.StoreWord(h, 0, 1) })
	assertPanics(t, func() { tx.LogForUndoWord(h, 0) })
}

func TestForeignHandlePanics(t *testing.T) {
	e := newChecked()
	tx := e.Begin()
	defer tx.Abort()
	assertPanics(t, func() { tx.OpenForRead("not an object") })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func readBack(t *testing.T, e *Engine, h engine.Handle) uint64 {
	t.Helper()
	var v uint64
	err := engine.RunReadOnly(e, func(tx engine.Txn) error {
		tx.OpenForRead(h)
		v = tx.LoadWord(h, 0)
		return nil
	})
	if err != nil {
		t.Fatalf("readBack: %v", err)
	}
	return v
}

func TestRunRetriesUntilCommit(t *testing.T) {
	e := New()
	h := e.NewObj(1, 0)

	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := engine.Run(e, func(tx engine.Txn) error {
					tx.OpenForUpdate(h)
					tx.LogForUndoWord(h, 0)
					tx.StoreWord(h, 0, tx.LoadWord(h, 0)+1)
					return nil
				})
				if err != nil {
					t.Errorf("Run: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := readBack(t, e, h); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	s := e.Stats()
	if s.Commits < goroutines*perG {
		t.Fatalf("commits = %d, want >= %d", s.Commits, goroutines*perG)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := New()
	h := e.NewObj(1, 0)
	before := e.Stats()

	_ = engine.Run(e, func(tx engine.Txn) error {
		tx.OpenForRead(h)
		tx.OpenForUpdate(h)
		tx.LogForUndoWord(h, 0)
		tx.StoreWord(h, 0, 1)
		return nil
	})

	d := e.Stats().Sub(before)
	if d.Starts != 1 || d.Commits != 1 || d.Aborts != 0 {
		t.Fatalf("lifecycle counters wrong: %+v", d)
	}
	if d.OpenForRead != 1 || d.OpenForUpdate != 1 || d.UndoLogged != 1 {
		t.Fatalf("operation counters wrong: %+v", d)
	}
}

// TestCommitSignalCostsNothingWithoutWaiter: an update commit takes the
// commit signal's mutex only while a blocking-retry caller is registered. It
// finishes while the mutex is held elsewhere and leaves CommitSeq alone; with
// a waiter registered it advances CommitSeq.
func TestCommitSignalCostsNothingWithoutWaiter(t *testing.T) {
	e := New()
	h := e.NewObj(1, 0)
	incr := func() error {
		return engine.Run(e, func(tx engine.Txn) error {
			tx.OpenForUpdate(h)
			tx.LogForUndoWord(h, 0)
			tx.StoreWord(h, 0, tx.LoadWord(h, 0)+1)
			return nil
		})
	}

	e.signal.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- incr() }()
	select {
	case err := <-done:
		e.signal.mu.Unlock()
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		e.signal.mu.Unlock()
		<-done
		t.Fatal("an update commit with no waiter blocked on the commit signal's mutex")
	}
	if got := e.CommitSeq(); got != 0 {
		t.Fatalf("CommitSeq = %d after a commit with no waiter, want 0", got)
	}

	e.RegisterWaiter()
	defer e.UnregisterWaiter()
	if err := incr(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := e.CommitSeq(); got != 1 {
		t.Fatalf("CommitSeq = %d after a commit with a waiter registered, want 1", got)
	}
}
