package harness

import (
	"fmt"
	"runtime"
	"time"

	"memtx/internal/core"
	"memtx/internal/engine"
	"memtx/internal/txds"
)

// FilterSizes are E5's rows: the direct engine's log-filter sizes.
var FilterSizes = []int{0, 16, 64, 256, 1024, 4096}

// filterScale returns E5's working set, re-reads per transaction, and
// transactions per row.
func filterScale(quick bool) (workingSet, rereads, txns int) {
	if quick {
		return 16, 8, 300
	}
	return 64, 32, 5_000
}

// FilterCell builds E5's direct engine with a filter of size entries and
// its working set, and returns one E5 transaction: re-read every object of
// the set, rereads times, then log and write one object rereads times.
func FilterCell(size int, quick bool) (*core.Engine, func() error) {
	workingSet, rereads, _ := filterScale(quick)
	e := core.New(core.WithFilterSize(size))
	objs := make([]engine.Handle, workingSet)
	for i := range objs {
		objs[i] = e.NewObj(1, 0)
	}
	return e, func() error {
		return engine.Run(e, func(tx engine.Txn) error {
			for r := 0; r < rereads; r++ {
				for _, o := range objs {
					tx.OpenForRead(o)
					_ = tx.LoadWord(o, 0)
				}
			}
			// Repeated writes to one object exercise undo filtering.
			tx.OpenForUpdate(objs[0])
			for r := 0; r < rereads; r++ {
				tx.LogForUndoWord(objs[0], 0)
				tx.StoreWord(objs[0], 0, uint64(r))
			}
			return nil
		})
	}
}

// E5 measures the runtime log filter: a re-read-heavy workload (every
// transaction re-opens a small working set many times) with varying filter
// sizes — the paper's result that a small fixed-size filter removes nearly
// all duplicate log entries.
func E5(quick bool) (*Table, error) {
	workingSet, rereads, txns := filterScale(quick)
	t := &Table{
		ID:     "E5",
		Title:  fmt.Sprintf("log filtering (%d objects re-read %d times per txn, %d txns)", workingSet, rereads, txns),
		Note:   "read-log entries fall toward the working-set size as the filter grows; hit rate rises",
		Header: []string{"filter", "readlog", "undos", "hits", "hitrate", "time"},
	}
	for _, size := range FilterSizes {
		e, txn := FilterCell(size, quick)
		before := e.Stats()
		var runErr error
		d := Time(func() {
			for n := 0; n < txns && runErr == nil; n++ {
				runErr = txn()
			}
		})
		if runErr != nil {
			return nil, fmt.Errorf("E5: %w", runErr)
		}
		s := e.Stats().Sub(before)
		attempts := s.ReadLogEntries + s.FilterHits
		t.AddRow(fmt.Sprint(size),
			fmt.Sprint(s.ReadLogEntries),
			fmt.Sprint(s.UndoLogged),
			fmt.Sprint(s.FilterHits),
			Pct(s.FilterHits, attempts),
			d.Round(time.Microsecond).String(),
		)
	}
	return t, nil
}

// CompactionThresholds are E6's rows: the read-log length that triggers
// compaction, 0 for none.
var CompactionThresholds = []int{0, 4096, 1024, 512}

// compactionScale returns E6's working set and rounds.
func compactionScale(quick bool) (workingSet, rounds int) {
	if quick {
		return 32, 20
	}
	return 256, 200
}

// CompactionCell builds E6's direct engine (filter off, compaction at
// threshold) and its working set, and returns one E6 transaction: re-read
// every object of the set once per round, then commit. It reports the
// read log's peak and final lengths.
func CompactionCell(threshold int, quick bool) (*core.Engine, func() (peak, final int, err error)) {
	workingSet, rounds := compactionScale(quick)
	opts := []core.Option{core.WithFilterSize(0)}
	if threshold > 0 {
		opts = append(opts, core.WithCompaction(threshold))
	}
	e := core.New(opts...)
	objs := make([]engine.Handle, workingSet)
	for i := range objs {
		objs[i] = e.NewObj(1, 0)
	}
	return e, func() (peak, final int, err error) {
		tx := e.Begin().(*core.Txn)
		for r := 0; r < rounds; r++ {
			for _, o := range objs {
				tx.OpenForRead(o)
				_ = tx.LoadWord(o, 0)
			}
			peak = max(peak, tx.ReadLogLen())
		}
		final = tx.ReadLogLen()
		return peak, final, tx.Commit()
	}
}

// E6 measures log compaction for long transactions: one transaction re-reads
// a working set many times with the filter disabled; compaction bounds the
// read-log length that validation must scan.
func E6(quick bool) (*Table, error) {
	workingSet, rounds := compactionScale(quick)
	t := &Table{
		ID:     "E6",
		Title:  fmt.Sprintf("log compaction in one long transaction (%d objects x %d rounds, filter off)", workingSet, rounds),
		Note:   "without compaction the read log grows with rounds; with it, stays near the working set",
		Header: []string{"compaction", "peak readlog", "final readlog", "dropped", "compactions", "commit", "time"},
	}
	for _, threshold := range CompactionThresholds {
		e, txn := CompactionCell(threshold, quick)
		var peak, final int
		var commitErr error
		d := Time(func() { peak, final, commitErr = txn() })
		if commitErr != nil {
			return nil, fmt.Errorf("E6: commit: %w", commitErr)
		}
		s := e.Stats()
		label := "off"
		if threshold > 0 {
			label = fmt.Sprint(threshold)
		}
		t.AddRow(label,
			fmt.Sprint(peak),
			fmt.Sprint(final),
			fmt.Sprint(s.ReadLogDropped),
			fmt.Sprint(s.Compactions),
			"ok",
			d.Round(time.Microsecond).String(),
		)
	}
	return t, nil
}

// ContentionManagers are the rows of E7's counter tables: in-attempt wait
// policies, deciding who blinks at an owned object. Retries between
// attempts are paced by the one fixed backoff.
var ContentionManagers = []core.ContentionManager{core.Passive{}, core.Polite{}, core.Patient{}}

// BankAccounts are the rows of E7's bank table: fewer accounts, more
// conflicts.
var BankAccounts = []int{4, 64, 1024}

// CounterCell builds a shared counter on a direct engine under cm and
// returns one increment transaction.
func CounterCell(cm core.ContentionManager) (*core.Engine, Op) {
	e := core.New(core.WithContentionManager(cm))
	c := txds.NewCounter(e)
	return e, func(*Rand) { c.AddAtomic(1) }
}

// LongCell is CounterCell with the processor yielded between the read and
// the write, opening a window for another thread to commit in between. It
// makes conflicts (and the policies' differences) visible even on a
// single-core host, where short transactions never overlap.
func LongCell(cm core.ContentionManager) (*core.Engine, Op) {
	e := core.New(core.WithContentionManager(cm))
	c := txds.NewCounter(e)
	return e, func(*Rand) {
		_ = engine.Run(e, func(tx engine.Txn) error {
			_ = c.Value(tx) // optimistic read
			runtime.Gosched()
			c.Add(tx, 1) // upgrade; commit validates the read
			return nil
		})
	}
}

// BankCell builds a bank of accounts on a direct engine and returns one
// transfer of 0-4 units between two accounts drawn uniformly.
func BankCell(accounts int) (*core.Engine, Op) {
	e := core.New()
	b := txds.NewBank(e, accounts, 1_000_000)
	return e, func(rng *Rand) {
		b.TransferAtomic(rng.Intn(accounts), rng.Intn(accounts), uint64(rng.Intn(5)))
	}
}

// contended measures op on threads workers and returns the throughput with
// the engine's stats over the run.
func contended(e *core.Engine, op Op, threads, opsPerThread int) (float64, engine.Stats) {
	before := e.Stats()
	ops := Throughput(threads, opsPerThread, func(_ int, rng *Rand) { op(rng) })
	return ops, e.Stats().Sub(before)
}

// causeCells renders the validation and CM-kill abort counts.
func causeCells(s engine.Stats) []string {
	return []string{
		fmt.Sprint(s.AbortsByCause[engine.CauseValidation]),
		fmt.Sprint(s.AbortsByCause[engine.CauseCMKill]),
	}
}

// E7 measures contention behaviour: throughput and abort rate on a shared
// counter (worst case) and on a bank whose account count sets the conflict
// probability, under each in-attempt contention-management policy.
func E7(quick bool) ([]*Table, error) {
	opsPerThread := 50_000
	maxThreads := MaxThreads()
	if quick {
		opsPerThread = 2_000
		maxThreads = min(maxThreads, 4)
	}

	counter := &Table{
		ID:     "E7/counter",
		Title:  "shared counter under full contention",
		Note:   "throughput flat or falling with threads; abort rate grows; policies differ modestly",
		Header: []string{"threads", "cm", "ops/s", "aborts", "abortrate", "validation", "cm-kill"},
	}
	long := &Table{
		ID:     "E7/long",
		Title:  "counter with a yield between read and write (long transactions)",
		Note:   "aborts appear as soon as threads > 1; throughput drops accordingly",
		Header: counter.Header,
	}
	for _, tc := range []struct {
		t    *Table
		cell func(core.ContentionManager) (*core.Engine, Op)
		ops  int
	}{{counter, CounterCell, opsPerThread}, {long, LongCell, opsPerThread / 10}} {
		for _, threads := range ThreadCounts(maxThreads) {
			for _, cm := range ContentionManagers {
				e, op := tc.cell(cm)
				ops, s := contended(e, op, threads, tc.ops)
				tc.t.AddRow(append([]string{fmt.Sprint(threads), cm.Name(), Ops(ops),
					fmt.Sprint(s.Aborts), Pct(s.Aborts, s.Starts)}, causeCells(s)...)...)
			}
		}
	}

	bank := &Table{
		ID:     "E7/bank",
		Title:  "bank transfers: abort rate vs sharing degree (polite CM)",
		Note:   "fewer accounts => more conflicts => more aborts, lower throughput",
		Header: []string{"accounts", "threads", "ops/s", "abortrate", "validation", "cm-kill"},
	}
	for _, n := range BankAccounts {
		e, op := BankCell(n)
		ops, s := contended(e, op, maxThreads, opsPerThread)
		bank.AddRow(append([]string{fmt.Sprint(n), fmt.Sprint(maxThreads), Ops(ops),
			Pct(s.Aborts, s.Starts)}, causeCells(s)...)...)
	}
	return []*Table{counter, long, bank}, nil
}
