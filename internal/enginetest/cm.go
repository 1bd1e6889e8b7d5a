package enginetest

import (
	"sync"
	"testing"

	"memtx/internal/engine"
)

// testCMStats drives a contended hot-key workload and checks the
// contention-management account: every attempt is observed exactly once and
// the wait counters are internally consistent.
func testCMStats(t *testing.T, e engine.Engine) {
	cm := e.CM()
	if cm == nil {
		t.Fatal("Engine.CM() = nil; every engine must expose its controller")
	}
	before := cm.Stats()

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

	after := cm.Stats()
	// engine.Run feeds ObserveOutcome once per attempt, so the outcome count
	// grows by at least one per committed transaction (more if any retried).
	if delta := after.Outcomes - before.Outcomes; delta < goroutines*perG {
		t.Errorf("outcomes grew by %d, want >= %d (one per attempt)", delta, goroutines*perG)
	}
	if after.Waits != after.Spins+after.Sleeps {
		t.Errorf("waits %d != spins %d + sleeps %d", after.Waits, after.Spins, after.Sleeps)
	}
	if after.Sleeps > 0 && after.SleepNanos == 0 {
		t.Error("sleeps recorded but total sleep time is zero")
	}

	// Add is the sharded-aggregation merge: every counter sums.
	sum := before.Add(after)
	if sum.Outcomes != before.Outcomes+after.Outcomes {
		t.Errorf("Add: outcomes = %d, want %d", sum.Outcomes, before.Outcomes+after.Outcomes)
	}
	if sum.Waits != before.Waits+after.Waits {
		t.Errorf("Add: waits = %d, want %d", sum.Waits, before.Waits+after.Waits)
	}
}
