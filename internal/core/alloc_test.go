package core

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"memtx/internal/engine"
	"memtx/internal/race"
)

// disableGC turns the collector off for the duration of an allocation-guard
// test so that sync.Pool eviction cannot perturb the per-run counts. It also
// skips the test under the race detector, whose shadow bookkeeping shows up
// in AllocsPerRun.
func disableGC(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestOpenForReadFastPathNoAlloc pins the headline property of the decomposed
// direct-update design: once a pooled transaction is warm, a read-only
// transaction — OpenForRead plus LoadWord over a shared working set, then
// commit-time validation — performs zero allocations.
func TestOpenForReadFastPathNoAlloc(t *testing.T) {
	disableGC(t)
	e := New()
	objs := make([]engine.Handle, 128)
	for i := range objs {
		objs[i] = e.NewObj(1, 0)
	}
	run := func() {
		tx := e.Begin()
		for _, o := range objs {
			tx.OpenForRead(o)
			_ = tx.LoadWord(o, 0)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pooled transaction, its logs, and the lazy filter
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("open-for-read fast path allocates %.2f allocs per transaction, want 0", avg)
	}
}

// TestOpenForUpdateAmortizedAlloc pins the update path's budget: once a
// pooled transaction and its logs are warm, an update transaction of 64
// opens allocates nothing — acquiring an object is a CAS on its STM word and
// an owner store, and releasing it two more stores.
func TestOpenForUpdateAmortizedAlloc(t *testing.T) {
	disableGC(t)
	e := New()
	objs := make([]engine.Handle, 64)
	for i := range objs {
		objs[i] = e.NewObj(1, 0)
	}
	run := func() {
		tx := e.Begin()
		for _, o := range objs {
			tx.OpenForUpdate(o)
			tx.LogForUndoWord(o, 0)
			tx.StoreWord(o, 0, 7)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("update transaction of %d opens allocates %.2f per run, want 0", len(objs), avg)
	}
}

// TestNewObjIsOneAllocation pins the small-object layout: an object of at
// most 2 words and 2 refs is one allocation, header and fields together,
// whether it is created outside a transaction or inside one.
func TestNewObjIsOneAllocation(t *testing.T) {
	disableGC(t)
	e := New()
	tx := e.Begin()
	defer tx.Abort()
	for _, shape := range [][2]int{{0, 1}, {1, 0}, {1, 1}, {2, 1}, {2, 2}} {
		nw, nr := shape[0], shape[1]
		for name, alloc := range map[string]func() engine.Handle{
			"NewObj": func() engine.Handle { return e.NewObj(nw, nr) },
			"Alloc":  func() engine.Handle { return tx.Alloc(nw, nr) },
		} {
			var h engine.Handle
			if avg := testing.AllocsPerRun(100, func() { h = alloc() }); avg != 1 {
				t.Errorf("%s(%d, %d) makes %.2f allocations, want 1", name, nw, nr, avg)
			}
			if o := h.(*Obj); o.NumWords() != nw || o.NumRefs() != nr {
				t.Errorf("%s(%d, %d) has shape (%d, %d)", name, nw, nr, o.NumWords(), o.NumRefs())
			}
		}
	}
}

// TestSmallObjectIsOneCacheLine pins the object layout: a small object
// (at most 2 words and 2 refs) is the 32-byte header and its fields in 64
// bytes, a large one is the header and two slice headers in at most 80, and
// an index beyond an object's shape panics on every field access, whichever
// layout holds the fields.
func TestSmallObjectIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Obj{}); got != 32 {
		t.Errorf("header is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(smallObj{}); got != 64 {
		t.Errorf("small object is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(largeObj{}); got > 80 {
		t.Errorf("large object header is %d bytes, want at most 80", got)
	}

	e := New()
	first := e.NewObj(1, 1).(*Obj)
	if next := e.NewObj(3, 0).(*Obj); next.ID() != first.ID()+1 {
		t.Errorf("ids %d then %d: the shape leaked into ID", first.ID(), next.ID())
	}
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	for _, shape := range [][2]int{{0, 0}, {1, 1}, {2, 1}, {1, 2}, {3, 0}, {0, 3}} {
		nw, nr := shape[0], shape[1]
		h := e.NewObj(nw, nr)
		tx := e.Begin()
		tx.OpenForUpdate(h)
		for i := 0; i <= max(nw, 2); i++ {
			out := i >= nw
			for name, f := range map[string]func(){
				"LoadWord":       func() { tx.LoadWord(h, i) },
				"StoreWord":      func() { tx.StoreWord(h, i, 1) },
				"LogForUndoWord": func() { tx.LogForUndoWord(h, i) },
			} {
				if got := panics(f); got != out {
					t.Errorf("(%d, %d): %s(%d) panics %v, want %v", nw, nr, name, i, got, out)
				}
			}
		}
		for i := 0; i <= max(nr, 2); i++ {
			out := i >= nr
			for name, f := range map[string]func(){
				"LoadRef":       func() { tx.LoadRef(h, i) },
				"StoreRef":      func() { tx.StoreRef(h, i, nil) },
				"LogForUndoRef": func() { tx.LogForUndoRef(h, i) },
			} {
				if got := panics(f); got != out {
					t.Errorf("(%d, %d): %s(%d) panics %v, want %v", nw, nr, name, i, got, out)
				}
			}
		}
		tx.Abort()
	}
}

// TestRunReadOnlyNoSteadyStateAlloc covers the public re-execution loop: the
// only steady-state allocation permitted per engine.Run transaction is the
// body closure the caller supplies (hoisted here), i.e. zero from the engine.
func TestRunReadOnlyNoSteadyStateAlloc(t *testing.T) {
	disableGC(t)
	e := New()
	o := e.NewObj(1, 0)
	body := func(tx engine.Txn) error {
		tx.OpenForRead(o)
		_ = tx.LoadWord(o, 0)
		return nil
	}
	run := func() {
		if err := engine.RunReadOnly(e, body); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("engine.RunReadOnly allocates %.2f per transaction, want 0", avg)
	}
}

// TestFilterAllocatedLazily verifies that the duplicate-log filter table is
// only materialized when a transaction actually performs a duplicate check,
// so update-only and empty transactions never pay for it.
func TestFilterAllocatedLazily(t *testing.T) {
	e := New()
	o := e.NewObj(1, 0)

	tx := e.Begin().(*Txn)
	tx.OpenForUpdate(o) // no duplicate check on this path
	tx.StoreWord(o, 0, 1)
	if tx.filter != nil {
		t.Fatal("filter allocated by a transaction that never checked for duplicates")
	}
	tx.LogForUndoWord(o, 0) // first duplicate check materializes the table
	if tx.filter == nil {
		t.Fatal("filter not allocated on first duplicate check")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.filter == nil {
		t.Fatal("default-size filter should stay warm on the pooled transaction")
	}
}

// TestOversizedFilterReleased verifies that a filter table larger than
// keepFilterSlots is dropped when the transaction finishes instead of being
// pinned by the pool.
func TestOversizedFilterReleased(t *testing.T) {
	e := New(WithFilterSize(keepFilterSlots * 4))
	o := e.NewObj(1, 0)

	tx := e.Begin().(*Txn)
	tx.OpenForRead(o)
	if tx.filter == nil {
		t.Fatal("filter not allocated on first duplicate check")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.filter != nil {
		t.Fatalf("oversized filter (%d slots) retained by pooled transaction", keepFilterSlots*4)
	}
}

// TestWideTransactionBurstDoesNotPinMemory runs a burst of concurrent
// transactions against an engine configured with a very large filter and
// checks that the heap afterwards is nowhere near workers x table-size: the
// oversized tables must have been released at finish, not parked in the pool.
func TestWideTransactionBurstDoesNotPinMemory(t *testing.T) {
	const slots = 1 << 18 // ~6 MiB per table, well above keepFilterSlots
	const workers = 8
	const tableBytes = slots * 24 // three uint64 per filter slot

	e := New(WithFilterSize(slots))
	objs := make([]engine.Handle, 64)
	for i := range objs {
		objs[i] = e.NewObj(1, 0)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := engine.Run(e, func(tx engine.Txn) error {
					for _, o := range objs {
						tx.OpenForRead(o) // touches the filter
						_ = tx.LoadWord(o, 0)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	pinned := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := int64(2*tableBytes + 4<<20); pinned > limit {
		t.Fatalf("burst of wide transactions pinned %d bytes (limit %d); oversized filters leaked into the pool", pinned, limit)
	}
}

// TestConcurrentAllocUniqueIDs hammers the sharded id allocator from eight
// goroutines and verifies global uniqueness across transaction-local Alloc
// ids, non-transactional NewObj ids, and the transaction ids themselves.
func TestConcurrentAllocUniqueIDs(t *testing.T) {
	const workers = 8
	perWorker := 100_000
	if testing.Short() {
		perWorker = 25_000
	}
	const batch = 500 // allocations per transaction

	e := New()
	ids := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got := make([]uint64, 0, perWorker+perWorker/batch+perWorker/100)
			for done := 0; done < perWorker; done += batch {
				tx := e.Begin().(*Txn)
				got = append(got, tx.id)
				for i := 0; i < batch; i++ {
					h := tx.Alloc(1, 0)
					got = append(got, h.(*Obj).ID())
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				// Sprinkle in engine-level allocations, which draw from the
				// engine's own block under a mutex.
				got = append(got, e.NewObj(1, 0).(*Obj).ID())
			}
			ids[w] = got
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	seen := make(map[uint64]struct{}, workers*(perWorker+perWorker/batch))
	for w := range ids {
		for _, id := range ids[w] {
			if id == 0 {
				t.Fatal("allocator handed out id 0 (reserved for 'unowned')")
			}
			if _, dup := seen[id]; dup {
				t.Fatalf("duplicate id %d handed out", id)
			}
			seen[id] = struct{}{}
		}
	}
}
