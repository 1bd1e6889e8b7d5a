package enginetest

import (
	"sync"
	"sync/atomic"
	"testing"

	"memtx/internal/engine"
)

// testMetricsQuiescent drives a contended workload to completion and checks
// the recording conventions the Stats doc comment promises:
//
//   - Starts == Commits + Aborts once quiescent, where Aborts is the sum of
//     the abort causes: every finished attempt records exactly one commit or
//     one cause;
//   - an explicit abort is attributed to CauseExplicit;
//   - the retry driver observes one outcome per attempt it ran.
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

	if s.Starts != s.Commits+s.Aborts {
		t.Errorf("quiescent Starts=%d != Commits+Aborts=%d: some abort lost or double-counted its cause (causes %v)",
			s.Starts, s.Commits+s.Aborts, s.AbortsByCause)
	}
	if s.Commits != runs {
		t.Errorf("Commits = %d, want %d", s.Commits, runs)
	}
	if s.AbortsByCause[engine.CauseExplicit] < 1 {
		t.Errorf("explicit abort not attributed: causes = %v", s.AbortsByCause)
	}
	// Every attempt except the hand-rolled one ran under engine.Run.
	if s.Outcomes != s.Starts-1 {
		t.Errorf("Outcomes = %d, want one per Run attempt = Starts-1 = %d", s.Outcomes, s.Starts-1)
	}
}

// testMetricsConcurrent hammers the engine from writer goroutines while
// reader goroutines snapshot Stats, checking the invariants that
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
			for !stop.Load() {
				s := e.Stats()
				if s.Commits+s.Aborts > s.Starts {
					t.Errorf("snapshot: Commits+Aborts=%d > Starts=%d", s.Commits+s.Aborts, s.Starts)
					return
				}
				if s.Starts < prevS.Starts || s.Commits < prevS.Commits || s.Aborts < prevS.Aborts {
					t.Errorf("Stats went backwards: %+v then %+v", prevS, s)
					return
				}
				if s.Outcomes < prevS.Outcomes {
					t.Errorf("Outcomes went backwards: %d then %d", prevS.Outcomes, s.Outcomes)
					return
				}
				prevS = s
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
