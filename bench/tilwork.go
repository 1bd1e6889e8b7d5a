package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"os"
	"sort"
	"time"

	"memtx"
	"memtx/internal/engine"
	"memtx/internal/progs"
	"memtx/internal/rawengine"
	"memtx/internal/til"
	"memtx/internal/til/interp"
	"memtx/internal/til/parser"
	"memtx/internal/til/passes"
)

// goldenFile holds each kernel's result at BenchSize as computed from the
// un-optimised module on the uninstrumented engine (see writeGolden) — never
// from the optimised run it is compared with.
//
//go:embed testdata/kernels.golden
var goldenFile []byte

// golden returns the expected result of each kernel by name.
func golden() (map[string]uint64, error) {
	want := make(map[string]uint64)
	for _, line := range bytes.Split(goldenFile, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var name string
		var size, sum uint64
		if _, err := fmt.Sscanf(string(line), "%s %d %d", &name, &size, &sum); err != nil {
			return nil, fmt.Errorf("kernels.golden: %q: %v", line, err)
		}
		k, ok := progs.ByName(name)
		if !ok || k.BenchSize != size {
			return nil, fmt.Errorf("kernels.golden: %q does not name a kernel at its BenchSize", line)
		}
		want[name] = sum
	}
	return want, nil
}

// writeGolden computes the golden file: each kernel parsed and, with no pass
// applied, run on internal/rawengine, which has no barriers to get wrong.
func writeGolden(path string) error {
	var b bytes.Buffer
	b.WriteString("# kernel size result — un-optimised module on internal/rawengine; rewrite with -write-golden\n")
	for _, k := range progs.All() {
		m, err := parser.Parse(k.Name, k.Src)
		if err != nil {
			return err
		}
		sum, _, err := runKernel(k, m, rawengine.New())
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s %d %d\n", k.Name, k.BenchSize, sum)
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// compiled is a kernel after the compiler: parsed and run through the pass
// pipeline up to a level.
type compiled struct {
	k   progs.Kernel
	mod *til.Module
}

func compile(k progs.Kernel, level passes.Level) (*compiled, error) {
	m, err := parser.Parse(k.Name, k.Src)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", k.Name, err)
	}
	if _, err := passes.Apply(m, level); err != nil {
		return nil, fmt.Errorf("%s: passes: %w", k.Name, err)
	}
	return &compiled{k: k, mod: m}, nil
}

func directEngine() engine.Engine {
	return memtx.New(memtx.WithDesign(memtx.DirectUpdate)).Engine()
}

// runKernel loads m on e, which must be fresh because kernels mutate their
// globals, runs the kernel once at BenchSize and returns its result and how
// long the run itself took.
func runKernel(k progs.Kernel, m *til.Module, e engine.Engine) (uint64, time.Duration, error) {
	p, err := interp.Load(m, e)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: load: %w", k.Name, err)
	}
	mach := p.NewMachine()
	if k.Init != "" {
		if _, err := mach.Call(k.Init, interp.Word(k.InitArg)); err != nil {
			return 0, 0, fmt.Errorf("%s: init: %w", k.Name, err)
		}
	}
	t0 := time.Now()
	v, err := mach.Call(k.Run, interp.Word(k.BenchSize))
	d := time.Since(t0)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: run: %w", k.Name, err)
	}
	return v.W, d, nil
}

// setupTIL is what til.kernels sets up: every kernel parsed, optimised and
// loaded once on the direct-update engine.
func setupTIL() ([]*compiled, float64, error) {
	t0 := time.Now()
	var cs []*compiled
	for _, k := range progs.All() {
		c, err := compile(k, passes.LevelFull)
		if err != nil {
			return nil, 0, err
		}
		if _, err := interp.Load(c.mod, directEngine()); err != nil {
			return nil, 0, fmt.Errorf("%s: load: %w", k.Name, err)
		}
		cs = append(cs, c)
	}
	return cs, time.Since(t0).Seconds(), nil
}

// runTIL is the measured run of til.kernels: passes over the six kernels,
// each on a fresh engine, until the time is up. An operation is one kernel
// run.
func runTIL(cfg *runConfig) (*result, error) {
	res := newResult(tilName)
	listeners, stores := listenersOpened.Load(), storesBuilt.Load()
	want, err := golden()
	if err != nil {
		return nil, err
	}
	var cs []*compiled
	setupS, setups, err := setupMedian(cfg, func() (func() error, float64, error) {
		var s float64
		var err error
		cs, s, err = setupTIL()
		return func() error { return nil }, s, err
	})
	if err != nil {
		return nil, err
	}

	// pass runs the six kernels once each and returns how long their runs
	// took together.
	pass := func(perKernel []hist) (time.Duration, error) {
		var total time.Duration
		for i, c := range cs {
			sum, d, err := runKernel(c.k, c.mod, directEngine())
			if err != nil {
				return 0, err
			}
			res.check(sum == want[c.k.Name], "%s returned %d, the golden file says %d", c.k.Name, sum, want[c.k.Name])
			total += d
			if perKernel != nil {
				perKernel[i].record(int64(d))
			}
		}
		return total, nil
	}
	// Warm up with as many whole passes as fit; a pass takes near half a
	// second.
	start := time.Now()
	for time.Since(start)+500*time.Millisecond <= cfg.warmup {
		if _, err := pass(nil); err != nil {
			return nil, err
		}
	}
	// The kernels differ a hundredfold in length, so the run of one kernel
	// has no common scale; the operation that is timed is a pass over all six.
	var passTimes []float64 // in nanoseconds; few enough to keep them all
	perKernel := make([]hist, len(cs))
	start = time.Now()
	for time.Since(start) < cfg.measure {
		d, err := pass(perKernel)
		if err != nil {
			return nil, err
		}
		passTimes = append(passTimes, float64(d))
	}
	elapsed := time.Since(start).Seconds()
	assertNoServer(res, listeners, stores)

	const us = 1e3
	n := uint64(len(passTimes))
	sort.Float64s(passTimes)
	res.put("ops_per_s", float64(len(passTimes)*len(cs))/elapsed, "ops/s", n*uint64(len(cs)))
	res.put("p50_us", median(passTimes)/us, "us", n)
	res.put("setup_s", setupS, "s", uint64(setups))
	res.info("p99_us", passTimes[(99*len(passTimes)+99)/100-1]/us, "us", n)
	for i, c := range cs {
		res.info("run_ms_"+c.k.Name, perKernel[i].quantile(0.5)/1e6, "ms", perKernel[i].n)
	}
	return res, nil
}
