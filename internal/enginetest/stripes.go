package enginetest

import (
	"sync"
	"sync/atomic"
	"testing"

	"memtx/internal/engine"
)

// testStripes checks the striped recorder end to end. NumStripes
// transactions live at once on a fresh engine land on NumStripes different
// stripes and abort, and Stats and Metrics count every one of them; then as
// many Run transactions, all live at once, are counted exactly by Stats,
// Metrics and CMStats. A reader that left a stripe out of its sum fails.
func testStripes(t *testing.T, e engine.Engine) {
	const n = engine.NumStripes
	objs := make([]engine.Handle, n)
	for i := range objs {
		objs[i] = e.NewObj(1, 0)
	}

	s0, m0 := e.Stats(), e.Metrics().Snapshot()
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
	s1, m1 := e.Stats(), e.Metrics().Snapshot()
	ds, dm := s1.Sub(s0), m1.Sub(m0)
	if ds.Starts != n || ds.Commits != 0 || ds.Aborts != n || ds.OpenForUpdate != n {
		t.Errorf("live transactions: Stats delta %+v, want %d starts, aborts and opens for update", ds, n)
	}
	if got := dm.Aborts(engine.CauseExplicit); got != n || dm.AbortTotal() != n {
		t.Errorf("live transactions: Metrics counted %d explicit aborts of %d, want %d", got, dm.AbortTotal(), n)
	}

	// The same through Run, every body parked until all n are live.
	c1 := e.CM().Stats()
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
	// (stripe-hash collisions in word-based engines) add to Starts and
	// Aborts and to nothing else.
	s2, m2, c2 := e.Stats(), e.Metrics().Snapshot(), e.CM().Stats()
	ds, dm = s2.Sub(s1), m2.Sub(m1)
	outcomes := c2.Outcomes - c1.Outcomes
	if ds.Commits != 2*n || ds.Starts != ds.Commits+ds.Aborts {
		t.Errorf("Runs: Stats delta %+v, want %d commits and Starts = Commits + Aborts", ds, 2*n)
	}
	if outcomes != ds.Starts {
		t.Errorf("CMStats counted %d outcomes, want one per attempt = %d", outcomes, ds.Starts)
	}
	if dm.AbortTotal() != ds.Aborts {
		t.Errorf("Runs: Metrics counted %d aborts, want %d", dm.AbortTotal(), ds.Aborts)
	}
	if dm.Retries.Count() != 2*n || dm.Retries.Sum != ds.Aborts {
		t.Errorf("Runs: Retries count %d sum %d, want %d and %d", dm.Retries.Count(), dm.Retries.Sum, 2*n, ds.Aborts)
	}
}
