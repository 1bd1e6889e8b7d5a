package harness

import (
	"fmt"
	"runtime"
	"time"

	"memtx/internal/core"
	"memtx/internal/engine"
	"memtx/internal/ostm"
	"memtx/internal/progs"
	"memtx/internal/rawengine"
	"memtx/internal/til"
	"memtx/internal/til/interp"
	"memtx/internal/til/parser"
	"memtx/internal/til/passes"
	"memtx/internal/wstm"
)

// EngineCell is one engine configuration of E1/E2: New returns a fresh
// engine, so no state leaks from one kernel run into the next.
type EngineCell struct {
	Name string
	New  func() engine.Engine
}

// Engines are E1's columns in table order: the uninstrumented baseline,
// then the three STM designs. E2 runs the first two. wstm gets 65 536
// stripes (4 MB), not its 1<<20 default (64 MB): every run builds a fresh
// engine, and BenchmarkE1 builds thousands; no E1 kernel is concurrent, so
// the table size cannot change which accesses conflict.
var Engines = []EngineCell{
	{"raw", func() engine.Engine { return rawengine.New() }},
	{"direct", func() engine.Engine { return core.New() }},
	{"wstm", func() engine.Engine { return wstm.New(wstm.WithStripes(1 << 16)) }},
	{"ostm", func() engine.Engine { return ostm.New() }},
}

// Compiled is a kernel compiled at one optimization level. One module
// serves any number of loads.
type Compiled struct {
	k   progs.Kernel
	mod *til.Module
}

// Compile parses k and applies the passes of level.
func Compile(k progs.Kernel, level passes.Level) (*Compiled, error) {
	m, err := parser.Parse(k.Name, k.Src)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", k.Name, err)
	}
	if _, err := passes.Apply(m, level); err != nil {
		return nil, fmt.Errorf("%s: passes: %w", k.Name, err)
	}
	return &Compiled{k, m}, nil
}

// Load loads the kernel on e, which should be fresh, and runs its Init. The
// machine is ready for Run; its Stats count from here.
func (c *Compiled) Load(e engine.Engine) (*interp.Machine, error) {
	p, err := interp.Load(c.mod, e)
	if err != nil {
		return nil, fmt.Errorf("%s: load: %w", c.k.Name, err)
	}
	mach := p.NewMachine()
	if c.k.Init != "" {
		if _, err := mach.Call(c.k.Init, interp.Word(c.k.InitArg)); err != nil {
			return nil, fmt.Errorf("%s: init: %w", c.k.Name, err)
		}
	}
	return mach, nil
}

// Run is the measured step: one call of the kernel's Run function with size
// on a loaded machine. It returns the kernel's checksum.
func (c *Compiled) Run(mach *interp.Machine, size uint64) (uint64, error) {
	sum, err := mach.Call(c.k.Run, interp.Word(size))
	if err != nil {
		return 0, fmt.Errorf("%s: run: %w", c.k.Name, err)
	}
	return sum.W, nil
}

// kernelRunBest loads and runs the kernel `reps` times on fresh engines from
// mk and returns the minimum time (reducing single-core GC/scheduler
// noise), with the checksum and stats of the first run.
func kernelRunBest(c *Compiled, mk func() engine.Engine, size uint64, reps int) (uint64, time.Duration, interp.Stats, error) {
	var best time.Duration
	var sum uint64
	var stats interp.Stats
	for i := 0; i < reps; i++ {
		mach, err := c.Load(mk())
		if err != nil {
			return 0, 0, interp.Stats{}, err
		}
		var got uint64
		runtime.GC() // isolate the timed section from earlier runs' garbage
		d := Time(func() { got, err = c.Run(mach, size) })
		if err != nil {
			return 0, 0, interp.Stats{}, err
		}
		if i == 0 {
			sum, stats, best = got, mach.Stats, d
		} else if got != sum {
			return 0, 0, interp.Stats{}, fmt.Errorf("%s: nondeterministic checksum %d vs %d", c.k.Name, got, sum)
		} else if d < best {
			best = d
		}
	}
	return sum, best, stats, nil
}

func kernelSize(k progs.Kernel, quick bool) uint64 {
	if quick {
		return k.TestSize
	}
	return k.BenchSize
}

// E1 compares single-threaded overhead of the three STM designs (all at full
// optimization) against the uninstrumented baseline — the paper's
// design-comparison figure: the direct-update object STM should have the
// lowest overhead, buffered designs the highest.
func E1(quick bool) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "STM design comparison, single-threaded overhead (normalized to uninstrumented)",
		Note:  "direct < ostm/wstm on most kernels; all > 1x",
		Header: []string{"kernel", "raw", "direct", "wstm", "ostm",
			"direct/raw", "wstm/raw", "ostm/raw"},
	}
	reps := 3
	if quick {
		reps = 1
	}
	for _, k := range progs.All() {
		size := kernelSize(k, quick)
		c, err := Compile(k, passes.LevelFull)
		if err != nil {
			return nil, err
		}
		var want uint64
		times := make([]time.Duration, len(Engines))
		for i, cell := range Engines {
			got, d, _, err := kernelRunBest(c, cell.New, size, reps)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				want = got
			} else if got != want {
				return nil, fmt.Errorf("E1: %s on %s: checksum %d, want %d", k.Name, cell.Name, got, want)
			}
			times[i] = d
		}
		row := []string{k.Name}
		for _, d := range times {
			row = append(row, d.Round(time.Microsecond).String())
		}
		for _, d := range times[1:] {
			row = append(row, Ratio(d, times[0]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// E2 ablates the compiler optimizations on the direct-update engine: static
// barrier counts, dynamic opens/undo-logs, and normalized time per level —
// the paper's central result that decomposed barriers plus classical
// optimizations recover most of the STM overhead.
func E2(quick bool) ([]*Table, error) {
	reps := 3
	if quick {
		reps = 1
	}
	var tables []*Table
	raw, direct := Engines[0], Engines[1]
	for _, k := range progs.All() {
		size := kernelSize(k, quick)
		full, err := Compile(k, passes.LevelFull)
		if err != nil {
			return nil, err
		}
		want, rawT, _, err := kernelRunBest(full, raw.New, size, reps)
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID:     "E2/" + k.Name,
			Title:  fmt.Sprintf("optimization ablation on %q (direct engine, n=%d)", k.Name, size),
			Note:   "static & dynamic barriers fall monotonically; time ratio falls toward raw",
			Header: []string{"level", "static", "opensR", "opensU", "undos", "filterhit", "time", "vs raw"},
		}
		for _, level := range passes.Levels {
			c, err := Compile(k, level)
			if err != nil {
				return nil, err
			}
			static := passes.CountBarriers(c.mod)

			var e engine.Engine
			got, d, st, err := kernelRunBest(c, func() engine.Engine {
				e = direct.New()
				return e
			}, size, reps)
			if err != nil {
				return nil, err
			}
			if got != want {
				return nil, fmt.Errorf("E2: %s at %s: checksum %d, want %d", k.Name, level, got, want)
			}
			t.AddRow(level.String(),
				fmt.Sprint(static.Total()),
				fmt.Sprint(st.OpensR),
				fmt.Sprint(st.OpensU),
				fmt.Sprint(st.Undos),
				fmt.Sprint(e.Stats().FilterHits),
				d.Round(time.Microsecond).String(),
				Ratio(d, rawT),
			)
		}
		tables = append(tables, t)
	}
	return tables, nil
}
