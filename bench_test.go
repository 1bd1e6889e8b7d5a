// Benchmarks regenerating the paper's evaluation, one family per experiment
// (see DESIGN.md §4 and EXPERIMENTS.md). Every cell — kernel and engine,
// structure and mix, transaction body — is defined once, in
// internal/harness; cmd/stmbench prints the full tables from the same
// cells, and these testing.B benches expose them to `go test -bench`. The
// structures are built at the tables' full scale; the E1/E2 kernels run at
// their TestSize.
package memtx_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"memtx"
	"memtx/internal/harness"
	"memtx/internal/progs"
	"memtx/internal/til/passes"
)

// benchKernel compiles a kernel once and, per iteration, loads it on a
// fresh engine (untimed) and times one Run.
func benchKernel(b *testing.B, k progs.Kernel, level passes.Level, cell harness.EngineCell) {
	c, err := harness.Compile(k, level)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mach, err := c.Load(cell.New())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.Run(mach, k.TestSize); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParallel times op under RunParallel, each goroutine drawing from
// its own harness worker generator.
func benchParallel(b *testing.B, op harness.Op) {
	var workers atomic.Int32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := harness.WorkerRand(int(workers.Add(1)) - 1)
		for pb.Next() {
			op(rng)
		}
	})
}

// benchCells runs every cell under every mix; run with -cpu=1,2,4,... to
// sweep the thread axis.
func benchCells(b *testing.B, mixes []harness.Mix, cells []harness.Cell) {
	for _, mix := range mixes {
		for _, c := range cells {
			b.Run(mix.Name+"/"+c.Name, func(b *testing.B) {
				benchParallel(b, c.New(mix, false))
			})
		}
	}
}

// benchTxn times one call of txn per iteration.
func benchTxn(b *testing.B, txn func() error) {
	for i := 0; i < b.N; i++ {
		if err := txn(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1 compares the three STM designs (full optimization) against the
// uninstrumented interpreter on every kernel.
func BenchmarkE1(b *testing.B) {
	for _, k := range progs.All() {
		for _, cell := range harness.Engines {
			b.Run(fmt.Sprintf("%s/%s", k.Name, cell.Name), func(b *testing.B) {
				benchKernel(b, k, passes.LevelFull, cell)
			})
		}
	}
}

// BenchmarkE2 ablates the optimization levels on the direct engine.
func BenchmarkE2(b *testing.B) {
	for _, k := range progs.All() {
		for _, level := range passes.Levels {
			b.Run(fmt.Sprintf("%s/%s", k.Name, level), func(b *testing.B) {
				benchKernel(b, k, level, harness.Engines[1])
			})
		}
	}
}

// BenchmarkE3 measures the hash maps, STM against locks.
func BenchmarkE3(b *testing.B) { benchCells(b, harness.DefaultMixes, harness.MapCells) }

// BenchmarkE4 measures the ordered structures: the BST, sorted list and
// skip list, STM against locks.
func BenchmarkE4(b *testing.B) {
	b.Run("bst", func(b *testing.B) { benchCells(b, harness.TreeMixes, harness.TreeCells) })
	one := harness.TreeMixes[:1]
	b.Run("list", func(b *testing.B) { benchCells(b, one, harness.ListCells) })
	b.Run("skip", func(b *testing.B) { benchCells(b, one, harness.SkipCells) })
}

// BenchmarkE5 measures the cost/benefit of the runtime log filter: one E5
// transaction per iteration.
func BenchmarkE5(b *testing.B) {
	for _, size := range harness.FilterSizes {
		b.Run(fmt.Sprintf("filter=%d", size), func(b *testing.B) {
			_, txn := harness.FilterCell(size, false)
			b.ResetTimer()
			benchTxn(b, txn)
		})
	}
}

// BenchmarkE6 measures log compaction: one long E6 transaction per
// iteration.
func BenchmarkE6(b *testing.B) {
	for _, threshold := range harness.CompactionThresholds {
		name := "off"
		if threshold > 0 {
			name = fmt.Sprintf("threshold=%d", threshold)
		}
		b.Run(name, func(b *testing.B) {
			_, txn := harness.CompactionCell(threshold, false)
			b.ResetTimer()
			benchTxn(b, func() error { _, _, err := txn(); return err })
		})
	}
}

// BenchmarkE7 measures contention: the shared counter and the long
// counter under each contention manager, and bank transfers by account
// count.
func BenchmarkE7(b *testing.B) {
	for _, cm := range harness.ContentionManagers {
		b.Run("counter/"+cm.Name(), func(b *testing.B) {
			_, op := harness.CounterCell(cm)
			benchParallel(b, op)
		})
		b.Run("long/"+cm.Name(), func(b *testing.B) {
			_, op := harness.LongCell(cm)
			benchParallel(b, op)
		})
	}
	for _, n := range harness.BankAccounts {
		b.Run(fmt.Sprintf("bank/accounts=%d", n), func(b *testing.B) {
			_, op := harness.BankCell(n)
			benchParallel(b, op)
		})
	}
}

// BenchmarkAtomicOverhead measures the public API's fixed cost: an empty
// transaction, a single-read transaction, and a single-write transaction.
func BenchmarkAtomicOverhead(b *testing.B) {
	tm := memtx.New()
	v := tm.NewVar(1)
	b.Run("empty", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tm.Atomic(func(tx *memtx.Tx) error { return nil })
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tm.ReadOnly(func(tx *memtx.Tx) error {
				_ = v.Get(tx)
				return nil
			})
		}
	})
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tm.Atomic(func(tx *memtx.Tx) error {
				v.Set(tx, uint64(i))
				return nil
			})
		}
	})
}
