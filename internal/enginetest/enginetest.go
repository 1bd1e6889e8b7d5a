// Package enginetest provides a conformance suite that every STM engine in
// this repository must pass. Engine packages call Run from their tests with a
// factory for the engine under test.
//
// The suite covers the transactional contract that the paper's experiments
// rely on: committed effects are visible and durable, aborted effects are
// invisible, conflicting transactions cannot both commit, transaction-local
// allocation is exempt from barriers, immutable byte records are read with
// none, and concurrent histories preserve data structure invariants.
package enginetest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"memtx/internal/engine"
)

// Factory creates a fresh engine for one subtest.
type Factory func() engine.Engine

// Run executes the whole conformance suite against engines from f.
func Run(t *testing.T, f Factory) {
	t.Run("CommitPublishes", func(t *testing.T) { testCommitPublishes(t, f()) })
	t.Run("AbortDiscards", func(t *testing.T) { testAbortDiscards(t, f()) })
	t.Run("WriteConflict", func(t *testing.T) { testWriteConflict(t, f()) })
	t.Run("RefGraph", func(t *testing.T) { testRefGraph(t, f()) })
	t.Run("AllocPublish", func(t *testing.T) { testAllocPublish(t, f()) })
	t.Run("ReadOnlyRejectsWrites", func(t *testing.T) { testReadOnlyRejectsWrites(t, f()) })
	t.Run("ReadOnlyFastPathConflict", func(t *testing.T) { testReadOnlyFastPathConflict(t, f()) })
	t.Run("ReadOnlyFastPathDirtyWriter", func(t *testing.T) { testReadOnlyFastPathDirtyWriter(t, f()) })
	t.Run("ReadOnlyFastPathCounts", func(t *testing.T) { testReadOnlyFastPathCounts(t, f()) })
	t.Run("SequentialModel", func(t *testing.T) { testSequentialModel(t, f()) })
	t.Run("DoomedErrorRetries", func(t *testing.T) { testDoomedErrorRetries(t, f()) })
	t.Run("ConcurrentCounter", func(t *testing.T) { testConcurrentCounter(t, f()) })
	t.Run("ConcurrentBank", func(t *testing.T) { testConcurrentBank(t, f()) })
	t.Run("ConcurrentDisjoint", func(t *testing.T) { testConcurrentDisjoint(t, f()) })
	t.Run("MetricsQuiescent", func(t *testing.T) { testMetricsQuiescent(t, f()) })
	t.Run("MetricsConcurrent", func(t *testing.T) { testMetricsConcurrent(t, f()) })
	t.Run("CMStats", func(t *testing.T) { testCMStats(t, f()) })
	t.Run("Stripes", func(t *testing.T) { testStripes(t, f()) })
	t.Run("ByteRecords", func(t *testing.T) { testByteRecords(t, f()) })
	t.Run("UndoLog", func(t *testing.T) { testUndoLog(t, f()) })
}

// write is a helper that opens, undo-logs, and stores one word.
func write(tx engine.Txn, h engine.Handle, i int, v uint64) {
	tx.OpenForUpdate(h)
	tx.LogForUndoWord(h, i)
	tx.StoreWord(h, i, v)
}

// read opens for read and loads one word.
func read(tx engine.Txn, h engine.Handle, i int) uint64 {
	tx.OpenForRead(h)
	return tx.LoadWord(h, i)
}

func testCommitPublishes(t *testing.T, e engine.Engine) {
	h := e.NewObj(3, 0)
	err := engine.Run(e, func(tx engine.Txn) error {
		write(tx, h, 0, 10)
		write(tx, h, 2, 30)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var a, b, c uint64
	err = engine.RunReadOnly(e, func(tx engine.Txn) error {
		a, b, c = read(tx, h, 0), read(tx, h, 1), read(tx, h, 2)
		return nil
	})
	if err != nil {
		t.Fatalf("RunReadOnly: %v", err)
	}
	if a != 10 || b != 0 || c != 30 {
		t.Fatalf("read back (%d,%d,%d), want (10,0,30)", a, b, c)
	}
}

func testAbortDiscards(t *testing.T, e engine.Engine) {
	h := e.NewObj(1, 0)
	tx := e.Begin()
	write(tx, h, 0, 99)
	tx.Abort()

	if got := mustRead(t, e, h, 0); got != 0 {
		t.Fatalf("value after abort = %d, want 0", got)
	}
}

func testWriteConflict(t *testing.T, e engine.Engine) {
	// A transaction that read a value which a concurrent transaction then
	// overwrote must not commit successfully.
	h := e.NewObj(1, 0)

	r := e.Begin()
	sawConflict := func() (conflicted bool) {
		defer func() {
			if rec := recover(); rec != nil {
				if _, ok := rec.(*engine.Retry); !ok {
					panic(rec)
				}
				r.Abort()
				conflicted = true
			}
		}()
		_ = read(r, h, 0)
		return false
	}()
	if sawConflict {
		return // engine rejected even the read ordering; acceptable
	}

	if err := engine.Run(e, func(tx engine.Txn) error {
		write(tx, h, 0, 7)
		return nil
	}); err != nil {
		t.Fatalf("writer: %v", err)
	}

	// The reader now tries to write based on its stale read.
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				if _, ok := rec.(*engine.Retry); !ok {
					panic(rec)
				}
				r.Abort()
			}
		}()
		write(r, h, 0, 1000)
		if err := r.Commit(); err != engine.ErrConflict {
			t.Fatalf("stale transaction committed: err=%v", err)
		}
	}()

	if got := mustRead(t, e, h, 0); got != 7 {
		t.Fatalf("value = %d, want 7", got)
	}
}

func testRefGraph(t *testing.T, e engine.Engine) {
	// Build a three-node linked list transactionally, then traverse it.
	head := e.NewObj(1, 1)
	err := engine.Run(e, func(tx engine.Txn) error {
		n2 := tx.Alloc(1, 1)
		tx.StoreWord(n2, 0, 2)
		n3 := tx.Alloc(1, 1)
		tx.StoreWord(n3, 0, 3)
		tx.StoreRef(n2, 0, n3)
		tx.OpenForUpdate(head)
		tx.LogForUndoWord(head, 0)
		tx.StoreWord(head, 0, 1)
		tx.LogForUndoRef(head, 0)
		tx.StoreRef(head, 0, n2)
		return nil
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}

	var sum uint64
	err = engine.RunReadOnly(e, func(tx engine.Txn) error {
		sum = 0
		for n := engine.Handle(head); n != nil; {
			tx.OpenForRead(n)
			sum += tx.LoadWord(n, 0)
			n = tx.LoadRef(n, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("traverse: %v", err)
	}
	if sum != 6 {
		t.Fatalf("list sum = %d, want 6", sum)
	}
}

func testAllocPublish(t *testing.T, e engine.Engine) {
	root := e.NewObj(0, 1)
	err := engine.Run(e, func(tx engine.Txn) error {
		n := tx.Alloc(1, 0)
		tx.StoreWord(n, 0, 5)
		tx.OpenForUpdate(root)
		tx.LogForUndoRef(root, 0)
		tx.StoreRef(root, 0, n)
		return nil
	})
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	var got uint64
	err = engine.RunReadOnly(e, func(tx engine.Txn) error {
		tx.OpenForRead(root)
		n := tx.LoadRef(root, 0)
		tx.OpenForRead(n)
		got = tx.LoadWord(n, 0)
		return nil
	})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got != 5 {
		t.Fatalf("published value = %d, want 5", got)
	}
}

func testReadOnlyRejectsWrites(t *testing.T, e engine.Engine) {
	h := e.NewObj(1, 0)
	tx := e.BeginReadOnly()
	defer tx.Abort()
	if !tx.ReadOnly() {
		t.Fatal("ReadOnly() = false on read-only transaction")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from update on read-only transaction")
		}
	}()
	tx.OpenForUpdate(h)
	tx.StoreWord(h, 0, 1)
}

// testSequentialModel runs randomized single-threaded transactions against a
// reference model; committed transactions must apply exactly, and randomly
// aborted ones must leave no trace.
func testSequentialModel(t *testing.T, e engine.Engine) {
	const nObjs = 16
	const nWords = 4
	const nTxns = 300

	rng := rand.New(rand.NewSource(12345))
	objs := make([]engine.Handle, nObjs)
	model := make([][]uint64, nObjs)
	for i := range objs {
		objs[i] = e.NewObj(nWords, 0)
		model[i] = make([]uint64, nWords)
	}

	for txi := 0; txi < nTxns; txi++ {
		abortIt := rng.Intn(4) == 0
		type pending struct {
			obj  int
			word int
			val  uint64
		}
		var writes []pending

		tx := e.Begin()
		nOps := 1 + rng.Intn(8)
		for op := 0; op < nOps; op++ {
			oi, wi := rng.Intn(nObjs), rng.Intn(nWords)
			if rng.Intn(2) == 0 {
				got := read(tx, objs[oi], wi)
				want := model[oi][wi]
				for _, p := range writes {
					if p.obj == oi && p.word == wi {
						want = p.val
					}
				}
				if got != want {
					t.Fatalf("txn %d: read obj %d word %d = %d, want %d", txi, oi, wi, got, want)
				}
			} else {
				v := rng.Uint64() % 1000
				write(tx, objs[oi], wi, v)
				writes = append(writes, pending{oi, wi, v})
			}
		}
		if abortIt {
			tx.Abort()
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("txn %d: unexpected conflict in single-threaded run: %v", txi, err)
		}
		for _, p := range writes {
			model[p.obj][p.word] = p.val
		}
	}

	for oi := range objs {
		for wi := 0; wi < nWords; wi++ {
			if got := mustRead(t, e, objs[oi], wi); got != model[oi][wi] {
				t.Fatalf("final obj %d word %d = %d, want %d", oi, wi, got, model[oi][wi])
			}
		}
	}
}

// testDoomedErrorRetries pins the zombie-error semantics: an error computed
// by a transaction body from an inconsistent (doomed) snapshot must not
// escape engine.Run — the attempt retries instead. The test makes the first
// attempt doomed deterministically by committing a conflicting update
// between the body's two reads.
func testDoomedErrorRetries(t *testing.T, e engine.Engine) {
	a := e.NewObj(1, 0)
	b := e.NewObj(1, 0)
	// Invariant: a == b. Start at 1/1.
	if err := engine.Run(e, func(tx engine.Txn) error {
		write(tx, a, 0, 1)
		write(tx, b, 0, 1)
		return nil
	}); err != nil {
		t.Fatalf("init: %v", err)
	}

	attempts := 0
	err := engine.Run(e, func(tx engine.Txn) (err error) {
		attempts++
		// Engines that detect staleness eagerly (wstm aborts reads that are
		// too new) surface the injected conflict as a Retry panic; both
		// paths must end in a retry, never in the invariant error escaping.
		av := read(tx, a, 0)
		if attempts == 1 {
			// Commit a conflicting update from a separate transaction.
			w := e.Begin()
			write(w, a, 0, 2)
			write(w, b, 0, 2)
			if err := w.Commit(); err != nil {
				t.Fatalf("interfering writer: %v", err)
			}
		}
		bv := read(tx, b, 0)
		if av != bv {
			return fmt.Errorf("invariant violated: %d != %d (zombie view)", av, bv)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("zombie-derived error escaped Run: %v", err)
	}
	if attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (first attempt was doomed)", attempts)
	}
}

func testConcurrentCounter(t *testing.T, e engine.Engine) {
	h := e.NewObj(1, 0)
	const goroutines = 8
	const perG = 250

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := engine.Run(e, func(tx engine.Txn) error {
					tx.OpenForUpdate(h)
					tx.OpenForRead(h)
					v := tx.LoadWord(h, 0)
					tx.LogForUndoWord(h, 0)
					tx.StoreWord(h, 0, v+1)
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
	if got := mustRead(t, e, h, 0); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func testConcurrentBank(t *testing.T, e engine.Engine) {
	// Transfers between accounts must preserve the total; concurrent
	// read-only audits that commit must observe the exact total.
	const nAccounts = 32
	const initial = 1000
	const transfers = 300
	const goroutines = 4

	accounts := make([]engine.Handle, nAccounts)
	for i := range accounts {
		accounts[i] = e.NewObj(1, 0)
		if err := engine.Run(e, func(tx engine.Txn) error {
			write(tx, accounts[i], 0, initial)
			return nil
		}); err != nil {
			t.Fatalf("init: %v", err)
		}
	}

	var auditors, transferrers sync.WaitGroup
	stop := make(chan struct{})
	var auditErr sync.Once
	var auditFailed bool

	// Auditors run until the transferrers finish.
	for a := 0; a < 2; a++ {
		auditors.Add(1)
		go func(seed int64) {
			defer auditors.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var total uint64
				err := engine.RunReadOnly(e, func(tx engine.Txn) error {
					total = 0
					for _, acc := range accounts {
						total += read(tx, acc, 0)
					}
					return nil
				})
				if err != nil {
					t.Errorf("audit: %v", err)
					return
				}
				if total != nAccounts*initial {
					auditErr.Do(func() { auditFailed = true })
					t.Errorf("audit total = %d, want %d", total, nAccounts*initial)
					return
				}
			}
		}(int64(a))
	}

	// Transferrers.
	for g := 0; g < goroutines; g++ {
		transferrers.Add(1)
		go func(seed int64) {
			defer transferrers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < transfers; i++ {
				from, to := rng.Intn(nAccounts), rng.Intn(nAccounts)
				if from == to {
					continue
				}
				amount := uint64(rng.Intn(10))
				err := engine.Run(e, func(tx engine.Txn) error {
					tx.OpenForRead(accounts[from])
					balance := tx.LoadWord(accounts[from], 0)
					if balance < amount {
						return nil
					}
					write(tx, accounts[from], 0, balance-amount)
					tx.OpenForRead(accounts[to])
					write(tx, accounts[to], 0, tx.LoadWord(accounts[to], 0)+amount)
					return nil
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(int64(g) + 100)
	}

	transferrers.Wait()
	close(stop)
	auditors.Wait()

	if auditFailed {
		t.Fatal("audit observed inconsistent total")
	}
	var total uint64
	for _, acc := range accounts {
		total += mustRead(t, e, acc, 0)
	}
	if total != nAccounts*initial {
		t.Fatalf("final total = %d, want %d", total, nAccounts*initial)
	}
}

func testConcurrentDisjoint(t *testing.T, e engine.Engine) {
	// Goroutines writing disjoint objects must never conflict-livelock and
	// all effects must land.
	const goroutines = 8
	const perG = 200
	objs := make([]engine.Handle, goroutines)
	for i := range objs {
		objs[i] = e.NewObj(1, 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := engine.Run(e, func(tx engine.Txn) error {
					tx.OpenForUpdate(objs[g])
					tx.OpenForRead(objs[g])
					v := tx.LoadWord(objs[g], 0)
					tx.LogForUndoWord(objs[g], 0)
					tx.StoreWord(objs[g], 0, v+1)
					return nil
				})
				if err != nil {
					t.Errorf("Run: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range objs {
		if got := mustRead(t, e, objs[g], 0); got != perG {
			t.Fatalf("obj %d = %d, want %d", g, got, perG)
		}
	}
}

func mustRead(t *testing.T, e engine.Engine, h engine.Handle, i int) uint64 {
	t.Helper()
	var v uint64
	err := engine.RunReadOnly(e, func(tx engine.Txn) error {
		tx.OpenForRead(h)
		v = tx.LoadWord(h, i)
		return nil
	})
	if err != nil {
		t.Fatalf("mustRead: %v", err)
	}
	return v
}
