package enginetest

import (
	"sync"
	"sync/atomic"
	"testing"

	"memtx/internal/engine"
)

// testMetricsQuiescent drives a contended workload to completion and checks
// the recording conventions the Metrics doc comment promises, cross-checked
// against Stats:
//
//   - Starts == Commits + Aborts once quiescent;
//   - every abort carries exactly one cause (AbortTotal == Aborts);
//   - the retries histogram has one entry per successful Run, and its sum
//     counts exactly the conflicted attempts of those runs.
func testMetricsQuiescent(t *testing.T, e engine.Engine) {
	const goroutines = 4
	const perG = 50
	h := e.NewObj(1, 0)

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

	// One transaction aborted by hand: its cause must be the explicit one.
	tx := e.Begin()
	tx.OpenForRead(h)
	tx.Abort()

	const runs = goroutines * perG
	s := e.Stats()
	m := e.Metrics().Snapshot()

	if s.Starts != s.Commits+s.Aborts {
		t.Errorf("quiescent Starts=%d != Commits+Aborts=%d", s.Starts, s.Commits+s.Aborts)
	}
	if s.Commits != runs {
		t.Errorf("Commits = %d, want %d", s.Commits, runs)
	}
	if got := m.AbortTotal(); got != s.Aborts {
		t.Errorf("AbortTotal = %d, Stats.Aborts = %d: some abort lost or double-counted its cause", got, s.Aborts)
	}
	if m.Aborts(engine.CauseExplicit) < 1 {
		t.Errorf("explicit abort not attributed: causes = %v", m.AbortsByCause)
	}
	if got := m.Retries.Count(); got != runs {
		t.Errorf("Retries.Count = %d, want one entry per successful Run = %d", got, runs)
	}
	// Every abort except the hand-rolled one was a conflicted attempt of some
	// successful Run, and each such attempt contributes 1 to the retries sum.
	if m.Retries.Sum != s.Aborts-1 {
		t.Errorf("Retries.Sum = %d, want Aborts-1 = %d", m.Retries.Sum, s.Aborts-1)
	}
}

// testMetricsConcurrent hammers the engine from writer goroutines while
// reader goroutines snapshot Stats and Metrics, checking the invariants that
// must hold in any mid-flight snapshot: Commits + Aborts <= Starts within one
// Stats call, and monotonically non-decreasing counters between successive
// snapshots. Under -race this also proves snapshots are safe against
// concurrent recording.
func testMetricsConcurrent(t *testing.T, e engine.Engine) {
	const writers = 4
	const perW = 300
	h := e.NewObj(1, 0)

	var stop atomic.Bool
	var wg sync.WaitGroup

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prevS engine.Stats
			var prevM engine.MetricsSnapshot
			for !stop.Load() {
				s := e.Stats()
				m := e.Metrics().Snapshot()
				if s.Commits+s.Aborts > s.Starts {
					t.Errorf("snapshot: Commits+Aborts=%d > Starts=%d", s.Commits+s.Aborts, s.Starts)
					return
				}
				if s.Starts < prevS.Starts || s.Commits < prevS.Commits || s.Aborts < prevS.Aborts {
					t.Errorf("Stats went backwards: %+v then %+v", prevS, s)
					return
				}
				if m.AbortTotal() < prevM.AbortTotal() || m.Retries.Count() < prevM.Retries.Count() {
					t.Error("Metrics went backwards between snapshots")
					return
				}
				prevS, prevM = s, m
			}
		}()
	}

	var writerWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < perW; i++ {
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
	writerWG.Wait()
	stop.Store(true)
	wg.Wait()

	if got := mustRead(t, e, h, 0); got != writers*perW {
		t.Fatalf("counter = %d, want %d", got, writers*perW)
	}
}
