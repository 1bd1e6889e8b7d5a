package progs

import (
	"testing"

	"memtx/internal/core"
	"memtx/internal/engine"
	"memtx/internal/ostm"
	"memtx/internal/rawengine"
	"memtx/internal/til/interp"
	"memtx/internal/til/parser"
	"memtx/internal/til/passes"
	"memtx/internal/wstm"
)

// runKernel executes the kernel at the given level/engine and returns the
// checksum and machine stats.
func runKernel(t *testing.T, k Kernel, level passes.Level, e engine.Engine, size uint64) (uint64, interp.Stats) {
	t.Helper()
	m, err := parser.Parse(k.Name, k.Src)
	if err != nil {
		t.Fatalf("%s: parse: %v", k.Name, err)
	}
	if _, err := passes.Apply(m, level); err != nil {
		t.Fatalf("%s: passes: %v", k.Name, err)
	}
	p, err := interp.Load(m, e)
	if err != nil {
		t.Fatalf("%s: load: %v", k.Name, err)
	}
	mach := p.NewMachine()
	if k.Init != "" {
		if _, err := mach.Call(k.Init, interp.Word(k.InitArg)); err != nil {
			t.Fatalf("%s: init: %v", k.Name, err)
		}
	}
	v, err := mach.Call(k.Run, interp.Word(size))
	if err != nil {
		t.Fatalf("%s: run: %v", k.Name, err)
	}
	return v.W, mach.Stats
}

// TestKernelsAgreeAcrossEnginesAndLevels is the central correctness check for
// E1/E2: every engine at every optimization level must compute the same
// checksum as the raw (uninstrumented) engine.
func TestKernelsAgreeAcrossEnginesAndLevels(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			want, _ := runKernel(t, k, passes.LevelNaive, rawengine.New(), k.TestSize)

			type mk struct {
				name string
				new  func() engine.Engine
			}
			makers := []mk{
				{"direct", func() engine.Engine { return core.New() }},
				{"wstm", func() engine.Engine { return wstm.New(wstm.WithStripes(1 << 14)) }},
				{"ostm", func() engine.Engine { return ostm.New() }},
			}
			for _, mkr := range makers {
				for _, level := range passes.Levels {
					got, _ := runKernel(t, k, level, mkr.new(), k.TestSize)
					if got != want {
						t.Errorf("%s/%s: checksum %d, want %d", mkr.name, level, got, want)
					}
				}
			}
		})
	}
}

// TestOptimizationMonotonicity: dynamic barrier counts must not increase with
// the optimization level on the direct engine.
func TestOptimizationMonotonicity(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			prevOpens := ^uint64(0)
			prevUndos := ^uint64(0)
			for _, level := range passes.Levels {
				_, st := runKernel(t, k, level, core.New(), k.TestSize)
				opens := st.OpensR + st.OpensU
				if opens > prevOpens {
					t.Errorf("level %s: opens %d > previous %d", level, opens, prevOpens)
				}
				if st.Undos > prevUndos {
					t.Errorf("level %s: undos %d > previous %d", level, st.Undos, prevUndos)
				}
				prevOpens, prevUndos = opens, st.Undos
			}
			// Full must be a strict improvement over naive for these
			// memory-dense kernels.
			_, naive := runKernel(t, k, passes.LevelNaive, core.New(), k.TestSize)
			_, full := runKernel(t, k, passes.LevelFull, core.New(), k.TestSize)
			if full.OpensR+full.OpensU >= naive.OpensR+naive.OpensU {
				t.Errorf("full opens (%d) not below naive (%d)",
					full.OpensR+full.OpensU, naive.OpensR+naive.OpensU)
			}
		})
	}
}

// TestKernelStatsExact pins every interp.Stats counter of the six kernels at
// every level on the direct engine at TestSize. The table was recorded from
// the block-walking interpreter the lowered one replaced, so it holds the
// rewrite to the same work, counter for counter.
func TestKernelStatsExact(t *testing.T) {
	want := []struct {
		kernel string
		level  passes.Level
		stats  interp.Stats
	}{
		{"sieve", passes.LevelNaive, interp.Stats{Steps: 37469, OpensR: 2041, OpensU: 3004, Undos: 3004, Loads: 2041, Stores: 3004, Allocs: 0, Calls: 0, Txns: 1, ImplicitTxns: 0}},
		{"sieve", passes.LevelCSE, interp.Stats{Steps: 37469, OpensR: 2041, OpensU: 3004, Undos: 3004, Loads: 2041, Stores: 3004, Allocs: 0, Calls: 0, Txns: 1, ImplicitTxns: 0}},
		{"sieve", passes.LevelUpgrade, interp.Stats{Steps: 37469, OpensR: 2041, OpensU: 3004, Undos: 3004, Loads: 2041, Stores: 3004, Allocs: 0, Calls: 0, Txns: 1, ImplicitTxns: 0}},
		{"sieve", passes.LevelHoist, interp.Stats{Steps: 32425, OpensR: 0, OpensU: 1, Undos: 3004, Loads: 2041, Stores: 3004, Allocs: 0, Calls: 0, Txns: 1, ImplicitTxns: 0}},
		{"sieve", passes.LevelFull, interp.Stats{Steps: 32425, OpensR: 0, OpensU: 1, Undos: 3004, Loads: 2041, Stores: 3004, Allocs: 0, Calls: 0, Txns: 1, ImplicitTxns: 0}},
		{"bst", passes.LevelNaive, interp.Stats{Steps: 114352, OpensR: 16774, OpensU: 796, Undos: 796, Loads: 16774, Stores: 796, Allocs: 398, Calls: 1600, Txns: 800, ImplicitTxns: 0}},
		{"bst", passes.LevelCSE, interp.Stats{Steps: 106566, OpensR: 8988, OpensU: 796, Undos: 796, Loads: 16774, Stores: 796, Allocs: 398, Calls: 1600, Txns: 800, ImplicitTxns: 0}},
		{"bst", passes.LevelUpgrade, interp.Stats{Steps: 106566, OpensR: 8988, OpensU: 796, Undos: 796, Loads: 16774, Stores: 796, Allocs: 398, Calls: 1600, Txns: 800, ImplicitTxns: 0}},
		{"bst", passes.LevelHoist, interp.Stats{Steps: 106566, OpensR: 8988, OpensU: 796, Undos: 796, Loads: 16774, Stores: 796, Allocs: 398, Calls: 1600, Txns: 800, ImplicitTxns: 0}},
		{"bst", passes.LevelFull, interp.Stats{Steps: 105770, OpensR: 8988, OpensU: 398, Undos: 398, Loads: 16774, Stores: 796, Allocs: 398, Calls: 1600, Txns: 800, ImplicitTxns: 0}},
		{"hash", passes.LevelNaive, interp.Stats{Steps: 45497, OpensR: 4216, OpensU: 1910, Undos: 1910, Loads: 4216, Stores: 1910, Allocs: 470, Calls: 2000, Txns: 1000, ImplicitTxns: 0}},
		{"hash", passes.LevelCSE, interp.Stats{Steps: 42729, OpensR: 2388, OpensU: 970, Undos: 1910, Loads: 4216, Stores: 1910, Allocs: 470, Calls: 2000, Txns: 1000, ImplicitTxns: 0}},
		{"hash", passes.LevelUpgrade, interp.Stats{Steps: 42729, OpensR: 2388, OpensU: 970, Undos: 1910, Loads: 4216, Stores: 1910, Allocs: 470, Calls: 2000, Txns: 1000, ImplicitTxns: 0}},
		{"hash", passes.LevelHoist, interp.Stats{Steps: 42729, OpensR: 2388, OpensU: 970, Undos: 1910, Loads: 4216, Stores: 1910, Allocs: 470, Calls: 2000, Txns: 1000, ImplicitTxns: 0}},
		{"hash", passes.LevelFull, interp.Stats{Steps: 40849, OpensR: 2388, OpensU: 500, Undos: 500, Loads: 4216, Stores: 1910, Allocs: 470, Calls: 2000, Txns: 1000, ImplicitTxns: 0}},
		{"sort", passes.LevelNaive, interp.Stats{Steps: 130637, OpensR: 10713, OpensU: 10521, Undos: 10521, Loads: 10713, Stores: 10521, Allocs: 0, Calls: 202, Txns: 2, ImplicitTxns: 0}},
		{"sort", passes.LevelCSE, interp.Stats{Steps: 120323, OpensR: 399, OpensU: 10521, Undos: 10521, Loads: 10713, Stores: 10521, Allocs: 0, Calls: 202, Txns: 2, ImplicitTxns: 0}},
		{"sort", passes.LevelUpgrade, interp.Stats{Steps: 110002, OpensR: 200, OpensU: 399, Undos: 10521, Loads: 10713, Stores: 10521, Allocs: 0, Calls: 202, Txns: 2, ImplicitTxns: 0}},
		{"sort", passes.LevelHoist, interp.Stats{Steps: 109405, OpensR: 0, OpensU: 2, Undos: 10521, Loads: 10713, Stores: 10521, Allocs: 0, Calls: 202, Txns: 2, ImplicitTxns: 0}},
		{"sort", passes.LevelFull, interp.Stats{Steps: 109405, OpensR: 0, OpensU: 2, Undos: 10521, Loads: 10713, Stores: 10521, Allocs: 0, Calls: 202, Txns: 2, ImplicitTxns: 0}},
		{"matmul", passes.LevelNaive, interp.Stats{Steps: 9438, OpensR: 1088, OpensU: 192, Undos: 192, Loads: 1088, Stores: 192, Allocs: 0, Calls: 2, Txns: 2, ImplicitTxns: 0}},
		{"matmul", passes.LevelCSE, interp.Stats{Steps: 9438, OpensR: 1088, OpensU: 192, Undos: 192, Loads: 1088, Stores: 192, Allocs: 0, Calls: 2, Txns: 2, ImplicitTxns: 0}},
		{"matmul", passes.LevelUpgrade, interp.Stats{Steps: 9438, OpensR: 1088, OpensU: 192, Undos: 192, Loads: 1088, Stores: 192, Allocs: 0, Calls: 2, Txns: 2, ImplicitTxns: 0}},
		{"matmul", passes.LevelHoist, interp.Stats{Steps: 8163, OpensR: 2, OpensU: 3, Undos: 192, Loads: 1088, Stores: 192, Allocs: 0, Calls: 2, Txns: 2, ImplicitTxns: 0}},
		{"matmul", passes.LevelFull, interp.Stats{Steps: 8163, OpensR: 2, OpensU: 3, Undos: 192, Loads: 1088, Stores: 192, Allocs: 0, Calls: 2, Txns: 2, ImplicitTxns: 0}},
		{"list", passes.LevelNaive, interp.Stats{Steps: 193367, OpensR: 32900, OpensU: 433, Undos: 433, Loads: 32900, Stores: 433, Allocs: 145, Calls: 600, Txns: 300, ImplicitTxns: 0}},
		{"list", passes.LevelCSE, interp.Stats{Steps: 182499, OpensR: 22175, OpensU: 290, Undos: 433, Loads: 32900, Stores: 433, Allocs: 145, Calls: 600, Txns: 300, ImplicitTxns: 0}},
		{"list", passes.LevelUpgrade, interp.Stats{Steps: 182499, OpensR: 22175, OpensU: 290, Undos: 433, Loads: 32900, Stores: 433, Allocs: 145, Calls: 600, Txns: 300, ImplicitTxns: 0}},
		{"list", passes.LevelHoist, interp.Stats{Steps: 182499, OpensR: 22175, OpensU: 290, Undos: 433, Loads: 32900, Stores: 433, Allocs: 145, Calls: 600, Txns: 300, ImplicitTxns: 0}},
		{"list", passes.LevelFull, interp.Stats{Steps: 182066, OpensR: 22175, OpensU: 145, Undos: 145, Loads: 32900, Stores: 433, Allocs: 145, Calls: 600, Txns: 300, ImplicitTxns: 0}},
	}
	for _, w := range want {
		k, _ := ByName(w.kernel)
		if _, got := runKernel(t, k, w.level, core.New(), k.TestSize); got != w.stats {
			t.Errorf("%s/%s:\n got %+v\nwant %+v", w.kernel, w.level, got, w.stats)
		}
	}
}

// TestKernelUndoLoggedExact pins the undo entries each kernel's init and run
// log on the direct engine at full and TestSize. A field of a large object
// (an array) is logged once per transaction, by the object's own marks:
// sort's fill and its sort are one transaction each, and each logs the
// TestSize words it writes once, 400 in all, where the direct-mapped filter
// kept evicting and re-logging them (635); sieve logs each composite below
// TestSize once (1 695, 1 993 with the filter). The other kernels log no
// field twice in a transaction, so their counts are the filter's.
func TestKernelUndoLoggedExact(t *testing.T) {
	want := map[string]uint64{
		"sieve":  1695,
		"bst":    398,
		"hash":   500,
		"sort":   400,
		"matmul": 192,
		"list":   145,
	}
	for _, k := range All() {
		e := core.New()
		runKernel(t, k, passes.LevelFull, e, k.TestSize)
		if got := e.Stats().UndoLogged; got != want[k.Name] {
			t.Errorf("%s: UndoLogged = %d, want %d", k.Name, got, want[k.Name])
		}
	}
}

// TestSievePrimeCount pins the sieve's semantics with a known value:
// there are 303 primes below 2000.
func TestSievePrimeCount(t *testing.T) {
	got, _ := runKernel(t, Sieve(), passes.LevelFull, core.New(), 2000)
	if got != 303 {
		t.Fatalf("primes below 2000 = %d, want 303", got)
	}
}

// TestHoistHelpsArrayKernels: sieve's array opens collapse to O(1) per
// transaction once hoisting is enabled.
func TestHoistHelpsArrayKernels(t *testing.T) {
	_, naive := runKernel(t, Sieve(), passes.LevelNaive, core.New(), 2000)
	_, hoisted := runKernel(t, Sieve(), passes.LevelHoist, core.New(), 2000)
	if hoisted.OpensR+hoisted.OpensU >= (naive.OpensR+naive.OpensU)/100 {
		t.Errorf("hoisting left %d opens (naive %d); expected ~100x reduction",
			hoisted.OpensR+hoisted.OpensU, naive.OpensR+naive.OpensU)
	}
}

// TestNewObjHelpsAllocatingKernels: the list kernel allocates a node per
// insert; LevelFull must elide its initialization barriers.
func TestNewObjHelpsAllocatingKernels(t *testing.T) {
	_, hoist := runKernel(t, List(), passes.LevelHoist, core.New(), List().TestSize)
	_, full := runKernel(t, List(), passes.LevelFull, core.New(), List().TestSize)
	if full.OpensU >= hoist.OpensU {
		t.Errorf("full OpensU (%d) not below hoist (%d)", full.OpensU, hoist.OpensU)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("sieve"); !ok {
		t.Fatal("sieve not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("nonexistent kernel found")
	}
	if len(All()) != 6 {
		t.Fatalf("kernels = %d, want 6", len(All()))
	}
}
