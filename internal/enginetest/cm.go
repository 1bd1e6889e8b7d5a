package enginetest

import (
	"sync"
	"testing"

	"memtx/internal/engine"
)

// testCMStats drives a contended hot-key workload and checks the retry
// driver's share of Stats: every committed Run is observed, every finished
// attempt records exactly one commit or one abort cause, and sleeps take
// time.
func testCMStats(t *testing.T, e engine.Engine) {
	before := e.Stats()

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

	after := e.Stats()
	// engine.Run feeds ObserveOutcome once per attempt, so the outcome count
	// grows by at least one per committed transaction (more if any retried).
	if delta := after.Outcomes - before.Outcomes; delta < goroutines*perG {
		t.Errorf("outcomes grew by %d, want >= %d (one per attempt)", delta, goroutines*perG)
	}
	// Aborts is the sum of the abort causes, so at quiescence this holds
	// only if every abort recorded its cause exactly once.
	if after.Commits+after.Aborts != after.Starts {
		t.Errorf("quiescent Commits %d + Aborts %d != Starts %d: some abort lost or double-counted its cause (causes %v)",
			after.Commits, after.Aborts, after.Starts, after.AbortsByCause)
	}
	if after.BackoffSleeps > 0 && after.BackoffSleepNanos == 0 {
		t.Error("sleeps recorded but total sleep time is zero")
	}

	// Add is the sharded-aggregation merge and Sub its inverse.
	if sum := before.Add(after.Sub(before)); sum != after {
		t.Errorf("before.Add(after.Sub(before)) = %+v, want %+v", sum, after)
	}
}
