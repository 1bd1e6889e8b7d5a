package harness

import (
	"fmt"
	"runtime"
	"time"

	"memtx/internal/core"
	"memtx/internal/engine"
	"memtx/internal/obs"
	"memtx/internal/txds"
)

// E5 measures the runtime log filter: a re-read-heavy workload (every
// transaction re-opens a small working set many times) with varying filter
// sizes — the paper's result that a small fixed-size filter removes nearly
// all duplicate log entries.
func E5(quick bool) (*Table, error) {
	workingSet := 64
	rereads := 32
	txns := 5_000
	if quick {
		workingSet, rereads, txns = 16, 8, 300
	}

	t := &Table{
		ID:     "E5",
		Title:  fmt.Sprintf("log filtering (%d objects re-read %d times per txn, %d txns)", workingSet, rereads, txns),
		Note:   "read-log entries fall toward the working-set size as the filter grows; hit rate rises",
		Header: []string{"filter", "readlog", "undos", "hits", "hitrate", "time"},
	}
	for _, size := range []int{0, 16, 64, 256, 1024, 4096} {
		e := track("e5.direct", core.New(core.WithFilterSize(size)))
		objs := make([]engine.Handle, workingSet)
		for i := range objs {
			objs[i] = e.NewObj(1, 0)
		}
		before := e.Stats()
		var runErr error
		d := Time(func() {
			for n := 0; n < txns && runErr == nil; n++ {
				runErr = engine.Run(e, func(tx engine.Txn) error {
					for r := 0; r < rereads; r++ {
						for _, o := range objs {
							tx.OpenForRead(o)
							_ = tx.LoadWord(o, 0)
						}
					}
					// A couple of repeated writes to exercise undo filtering.
					tx.OpenForUpdate(objs[0])
					for r := 0; r < rereads; r++ {
						tx.LogForUndoWord(objs[0], 0)
						tx.StoreWord(objs[0], 0, uint64(r))
					}
					return nil
				})
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

// E6 measures log compaction for long transactions: one transaction re-reads
// a working set many times with the filter disabled; compaction bounds the
// read-log length that validation must scan.
func E6(quick bool) (*Table, error) {
	workingSet := 256
	rounds := 200
	if quick {
		workingSet, rounds = 32, 20
	}

	t := &Table{
		ID:     "E6",
		Title:  fmt.Sprintf("log compaction in one long transaction (%d objects x %d rounds, filter off)", workingSet, rounds),
		Note:   "without compaction the read log grows with rounds; with it, stays near the working set",
		Header: []string{"compaction", "peak readlog", "final readlog", "dropped", "compactions", "commit", "time"},
	}
	for _, threshold := range []int{0, 4096, 1024, 512} {
		opts := []core.Option{core.WithFilterSize(0)}
		if threshold > 0 {
			opts = append(opts, core.WithCompaction(threshold))
		}
		e := track("e6.direct", core.New(opts...))
		objs := make([]engine.Handle, workingSet)
		for i := range objs {
			objs[i] = e.NewObj(1, 0)
		}
		var peak, final int
		var commitErr error
		d := Time(func() {
			tx := e.Begin().(*core.Txn)
			for r := 0; r < rounds; r++ {
				for _, o := range objs {
					tx.OpenForRead(o)
					_ = tx.LoadWord(o, 0)
				}
				if l := tx.ReadLogLen(); l > peak {
					peak = l
				}
			}
			final = tx.ReadLogLen()
			commitErr = tx.Commit()
		})
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

// E7 measures contention behaviour: throughput and abort rate on a shared
// counter (worst case) and on a bank whose account count sets the conflict
// probability, under each in-attempt contention-management policy.
func E7(quick bool) ([]*Table, error) {
	opsPerThread := 50_000
	maxThreads := MaxThreads()
	if quick {
		opsPerThread = 2_000
		if maxThreads > 4 {
			maxThreads = 4
		}
	}
	// Each variant is an in-attempt wait policy: who blinks at an owned
	// object. Retries between attempts are paced by the one fixed backoff.
	variants := []struct {
		name string
		cm   core.ContentionManager
	}{
		{"passive", core.Passive{}},
		{"polite", core.Polite{}},
		{"patient", core.Patient{}},
	}

	counter := &Table{
		ID:     "E7/counter",
		Title:  "shared counter under full contention",
		Note:   "throughput flat or falling with threads; abort rate grows; policies differ modestly",
		Header: []string{"threads", "cm", "ops/s", "aborts", "abortrate", "validation", "cm-kill", "p50att", "p99att"},
	}
	for _, threads := range ThreadCounts(maxThreads) {
		for _, v := range variants {
			e := track("e7.counter", core.New(core.WithContentionManager(v.cm)))
			c := txds.NewCounter(e)
			before := e.Stats()
			mBefore := e.Metrics().Snapshot()
			ops := Throughput(threads, opsPerThread, func(w int, rng *Rand) {
				c.AddAtomic(1)
			})
			s := e.Stats().Sub(before)
			m := e.Metrics().Snapshot().Sub(mBefore)
			counter.AddRow(fmt.Sprint(threads), v.name, Ops(ops),
				fmt.Sprint(s.Aborts), Pct(s.Aborts, s.Starts),
				fmt.Sprint(m.Aborts(engine.CauseValidation)),
				fmt.Sprint(m.Aborts(engine.CauseCMKill)),
				obs.FormatNanos(m.Attempts.Quantile(0.50)),
				obs.FormatNanos(m.Attempts.Quantile(0.99)))
		}
	}

	// Long transactions: the body yields the processor between its read and
	// its write, opening a window for another thread to commit in between.
	// This makes conflicts (and the policies' differences) visible even on a
	// single-core host, where short transactions never overlap.
	long := &Table{
		ID:     "E7/long",
		Title:  "counter with a yield between read and write (long transactions)",
		Note:   "aborts appear as soon as threads > 1; throughput drops accordingly",
		Header: []string{"threads", "cm", "ops/s", "aborts", "abortrate", "validation", "cm-kill", "p50att", "p99att"},
	}
	longOps := opsPerThread / 10
	for _, threads := range ThreadCounts(maxThreads) {
		for _, v := range variants {
			e := track("e7.long", core.New(core.WithContentionManager(v.cm)))
			c := txds.NewCounter(e)
			before := e.Stats()
			mBefore := e.Metrics().Snapshot()
			ops := Throughput(threads, longOps, func(w int, rng *Rand) {
				_ = engine.Run(e, func(tx engine.Txn) error {
					v := c.Value(tx) // optimistic read
					runtime.Gosched()
					c.Add(tx, 1) // upgrade; commit validates the read
					_ = v
					return nil
				})
			})
			s := e.Stats().Sub(before)
			m := e.Metrics().Snapshot().Sub(mBefore)
			long.AddRow(fmt.Sprint(threads), v.name, Ops(ops),
				fmt.Sprint(s.Aborts), Pct(s.Aborts, s.Starts),
				fmt.Sprint(m.Aborts(engine.CauseValidation)),
				fmt.Sprint(m.Aborts(engine.CauseCMKill)),
				obs.FormatNanos(m.Attempts.Quantile(0.50)),
				obs.FormatNanos(m.Attempts.Quantile(0.99)))
		}
	}

	bank := &Table{
		ID:     "E7/bank",
		Title:  "bank transfers: abort rate vs sharing degree (polite CM)",
		Note:   "fewer accounts => more conflicts => more aborts, lower throughput",
		Header: []string{"accounts", "threads", "ops/s", "abortrate", "validation", "cm-kill", "p50att", "p99att"},
	}
	for _, nAcc := range []int{4, 64, 1024} {
		e := track("e7.bank", core.New())
		b := txds.NewBank(e, nAcc, 1_000_000)
		before := e.Stats()
		mBefore := e.Metrics().Snapshot()
		ops := Throughput(maxThreads, opsPerThread, func(w int, rng *Rand) {
			b.TransferAtomic(rng.Intn(nAcc), rng.Intn(nAcc), uint64(rng.Intn(5)))
		})
		s := e.Stats().Sub(before)
		m := e.Metrics().Snapshot().Sub(mBefore)
		bank.AddRow(fmt.Sprint(nAcc), fmt.Sprint(maxThreads), Ops(ops), Pct(s.Aborts, s.Starts),
			fmt.Sprint(m.Aborts(engine.CauseValidation)),
			fmt.Sprint(m.Aborts(engine.CauseCMKill)),
			obs.FormatNanos(m.Attempts.Quantile(0.50)),
			obs.FormatNanos(m.Attempts.Quantile(0.99)))
	}
	return []*Table{counter, long, bank}, nil
}
