package enginetest

import (
	"sync"
	"sync/atomic"
	"testing"

	"memtx/internal/engine"
)

// testStripes checks the striped recorder end to end. NumStripes
// transactions live at once on a fresh engine land on NumStripes different
// stripes and abort, and Stats counts every one of them with its cause; then
// as many Run transactions, all live at once, are counted exactly, outcomes
// included. A reader that left a stripe out of its sum fails.
func testStripes(t *testing.T, e engine.Engine) {
	const n = engine.NumStripes
	objs := make([]engine.Handle, n)
	for i := range objs {
		objs[i] = e.NewObj(1, 0)
	}

	s0 := e.Stats()
	txs := make([]engine.Txn, n)
	stripes := map[*engine.Stripe]bool{}
	for i := range txs {
		txs[i] = e.Begin()
		if s, ok := txs[i].(engine.Striped); ok {
			stripes[s.Stripe()] = true
		}
	}
	if len(stripes) != 0 && len(stripes) != n {
		t.Errorf("%d live transactions share %d stripes, want one stripe each", n, len(stripes))
	}
	for i, tx := range txs {
		write(tx, objs[i], 0, uint64(i+1))
		tx.Abort()
	}
	s1 := e.Stats()
	ds := s1.Sub(s0)
	if ds.Starts != n || ds.Commits != 0 || ds.Aborts != n || ds.OpenForUpdate != n {
		t.Errorf("live transactions: Stats delta %+v, want %d starts, aborts and opens for update", ds, n)
	}
	if got := ds.AbortsByCause[engine.CauseExplicit]; got != n {
		t.Errorf("live transactions: %d explicit aborts, want %d (causes %v)", got, n, ds.AbortsByCause)
	}

	// The same through Run, every body parked until all n are live.
	var arrived atomic.Int32
	all := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(h engine.Handle) {
			defer wg.Done()
			first := true
			err := engine.Run(e, func(tx engine.Txn) error {
				v := read(tx, h, 0)
				if first {
					first = false
					if arrived.Add(1) == n {
						close(all)
					}
				}
				<-all
				write(tx, h, 0, v+1)
				return nil
			})
			if err != nil {
				t.Errorf("Run: %v", err)
			}
		}(objs[i])
	}
	wg.Wait()
	for i, h := range objs {
		if got := mustRead(t, e, h, 0); got != 1 {
			t.Errorf("object %d = %d, want 1", i, got)
		}
	}
	// n Runs plus the n reads above, each committed; conflicted attempts
	// (stripe-hash collisions in word-based engines) add to Starts, Aborts
	// and Outcomes.
	ds = e.Stats().Sub(s1)
	if ds.Commits != 2*n || ds.Starts != ds.Commits+ds.Aborts {
		t.Errorf("Runs: Stats delta %+v, want %d commits and Starts = Commits + Aborts", ds, 2*n)
	}
	if ds.Outcomes != ds.Starts {
		t.Errorf("Runs: %d outcomes, want one per attempt = %d", ds.Outcomes, ds.Starts)
	}
}
