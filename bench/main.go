// Command bench is the repository's benchmark: five named workloads over
// stmkvd and the STM beneath it, end-to-end metrics measured with tracing off,
// and a separate traced run for the per-layer numbers. See README.md here and
// BENCHMARK.json at the root of the repository.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// The fixed configuration: stmkvd's own defaults and a load of two
// connections. None of it is derived from the host, so that two machines run
// the same benchmark.
const (
	conns      = 2 // client connections, and never more goroutines driving a closed loop
	pipeline   = 8 // requests each connection keeps in flight in the closed loop
	kvShards   = 16
	kvBuckets  = 1024
	walBatch   = 8
	walEvery   = time.Millisecond
	snapEvery  = 2 * time.Second
	defaultRun = 16 // seconds measured per workload
)

var kvSpecs = []*kvSpec{
	{
		name: "kv.read-mostly", get: 95, set: 5,
		keys: 200_000, valueSize: 100,
		rate: 40_000, p99LimitUs: 2_000, traceOps: 50_000,
	},
	{
		name: "kv.contended", get: 20, incr: 50, transfer: 30,
		keys: 1_000, valueSize: 100, counters: 1_000, accounts: 256, theta: 0.99,
		rate: 40_000, p99LimitUs: 2_000, traceOps: 50_000,
	},
	{
		// One client at pipeline 1 pays a group-commit wait per write, about
		// 600 operations a second here, so the traced passes are shorter.
		name: "kv.write-durable", get: 10, set: 80, transfer: 10,
		keys: 100_000, valueSize: 100, accounts: 256, durable: true,
		rate: 2_000, p99LimitUs: 20_000, traceOps: 3_000,
	},
}

const (
	stmName = "stm.txds"
	tilName = "til.kernels"
)

var workloadNames = []string{"kv.read-mostly", "kv.contended", "kv.write-durable", stmName, tilName}

// metric is one reported number. N is the number of samples behind a
// quantile or a median, 0 where that does not apply.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     uint64  `json:"n,omitempty"`
}

// result is what one workload reported in one run.
type result struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Metrics   []metric `json:"metrics"` // the declared ones: end to end, or per layer in a traced run
	Info      []metric `json:"info"`    // informational rows
	Failures  []string `json:"failures,omitempty"`
}

func newResult(workload string) *result { return &result{Workload: workload, Correct: true} }

// fail counts n failed operations or checks.
func (r *result) fail(n uint64, format string, args ...any) {
	if n == 0 {
		return
	}
	r.Failed += n
	r.Correct = false
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness gate or bypass assertion into attempted, and
// into failed when it does not hold.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(1, format, args...)
	}
}

func (r *result) put(name string, v float64, unit string, n uint64) {
	r.Metrics = append(r.Metrics, metric{name, v, unit, n})
}

func (r *result) info(name string, v float64, unit string, n uint64) {
	r.Info = append(r.Info, metric{name, v, unit, n})
}

// runConfig is how long and from which seed a run measures. Only the smoke
// test shortens the phases.
type runConfig struct {
	seed      uint64
	measure   time.Duration // measured time per workload; kv.* split it between the two loops
	warmup    time.Duration
	setups    int           // set-up is done at least this many times and setup_s is the median
	setupFill time.Duration // and again while all set-ups together took less than this
	traceCut  float64       // scales the traced passes' operation counts
	scratch   string        // where WAL directories and span files go
	traceOut  string        // span file of a traced run; "" for <scratch>/trace-<workload>.json
}

// runWorkload runs one workload, measured or traced.
func runWorkload(name string, cfg *runConfig, traced bool) (*result, error) {
	for _, s := range kvSpecs {
		if s.name == name {
			if traced {
				return traceKV(s, cfg)
			}
			return runKV(s, cfg)
		}
	}
	switch name {
	case stmName:
		if traced {
			return traceSTM(cfg)
		}
		return runSTM(cfg)
	case tilName:
		if traced {
			return traceTIL(cfg)
		}
		return runTIL(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// header states where and on what the numbers were taken.
type header struct {
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Commit     string         `json:"commit"`
	Config     map[string]any `json:"config"`
}

func newHeader(cfg *runConfig) header {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return header{
		Seed: cfg.seed, Seconds: cfg.measure.Seconds(),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit,
		Config: map[string]any{
			"connections": conns, "closed_loop_pipeline": pipeline,
			"kv":     fmt.Sprintf("Shards %d, Buckets %d, Design direct, CM fixed", kvShards, kvBuckets),
			"server": "server.Config{} (read batch 64, write batch 16, 128 in flight)",
			"wal": fmt.Sprintf("FsyncBatch %d, FsyncInterval %v, SnapshotEvery %v, incremental snapshots, default append queue",
				walBatch, walEvery, snapEvery),
			"warmup_s": cfg.warmup.Seconds(), "setups_per_run": fmt.Sprintf("%d, up to 25 while they take under %v together", cfg.setups, cfg.setupFill),
			"scratch_fs": fsType(cfg.scratch),
		},
	}
}

// report is what -json writes and -compare reads: one entry of Runs per run
// of the suite.
type report struct {
	Header header      `json:"header"`
	Runs   [][]*result `json:"runs"`
}

func printResult(r *result) {
	row := func(kind string, m metric) {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Printf("%-17s %-6s %-32s %16.4f %s%s\n", r.Workload, kind, m.Name, m.Value, m.Unit, n)
	}
	for _, m := range r.Metrics {
		row("metric", m)
	}
	for _, m := range r.Info {
		row("info", m)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-17s %-6s %-32s %16.6f ratio  (%d failed of %d attempted)\n", r.Workload, "metric", "fail_frac", frac, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Printf("%-17s FAILED %s\n", r.Workload, f)
	}
}

// resultLine is the last line of output of a run of one workload.
func resultLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(r.Metrics))
	for _, m := range r.Metrics {
		ms[m.Name] = mv{m.Value, m.Unit}
	}
	attempted := r.Attempted
	if attempted == 0 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, attempted, r.Failed, ms})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// options are the command line.
type options struct {
	workload, traceOut, jsonOut  string
	seed                         uint64
	seconds                      float64
	trace, aa, pair              int
	compare, ladder, writeGolden bool
	args                         []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all five, one after another)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the load generator")
	flag.Float64Var(&o.seconds, "seconds", defaultRun, "seconds measured per workload")
	flag.IntVar(&o.trace, "trace", 0, "1: do the traced run and print the per-layer metrics; 0: the measured run")
	flag.StringVar(&o.traceOut, "trace-out", "", "file the traced run writes its spans to (default <scratch>/trace-<workload>.json)")
	flag.StringVar(&o.jsonOut, "json", "", "also write the full report to this file")
	flag.IntVar(&o.aa, "aa", 0, "run the suite N times on this build and report each metric's spread against its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two report files: -compare A.json B.json")
	flag.IntVar(&o.pair, "pair", 0, "run N pairs of two benchmark binaries in alternating order and compare: -pair N A B")
	flag.BoolVar(&o.ladder, "ladder", false, "step the open-loop rate of each kv.* workload through five rates (informational)")
	flag.BoolVar(&o.writeGolden, "write-golden", false, "rewrite testdata/kernels.golden from the un-optimised kernels on the uninstrumented engine")
	flag.Parse()
	o.args = flag.Args()
	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	if o.writeGolden {
		return writeGolden(filepath.Join("testdata", "kernels.golden"))
	}
	if o.compare {
		if len(o.args) != 2 {
			return fmt.Errorf("-compare wants two report files")
		}
		return compareFiles(o.args[0], o.args[1])
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1")
	}
	cfg := &runConfig{
		seed:      o.seed,
		measure:   time.Duration(o.seconds * float64(time.Second)),
		warmup:    time.Second,
		setups:    3,
		setupFill: time.Second,
		traceCut:  1,
		scratch:   filepath.Join(".bench_build", "run"),
		traceOut:  o.traceOut,
	}
	if o.pair > 0 {
		if len(o.args) != 2 {
			return fmt.Errorf("-pair wants two benchmark binaries")
		}
		return runPairs(o.pair, o.args[0], o.args[1], o.workload, cfg)
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	if o.ladder {
		return runLadder(names, cfg)
	}

	rep := report{Header: newHeader(cfg)}
	hb, err := json.Marshal(rep.Header)
	if err != nil {
		return err
	}
	fmt.Printf("header %s\n", hb)
	ok := true
	for i := 0; i < max(o.aa, 1); i++ {
		var results []*result
		for _, name := range names {
			r, err := runWorkload(name, cfg, o.trace == 1)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			printResult(r)
			ok = ok && r.Correct
			results = append(results, r)
		}
		rep.Runs = append(rep.Runs, results)
	}
	if o.jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, b, 0o644); err != nil {
			return err
		}
	}
	if o.aa > 0 {
		if err := printSpreads(rep.Runs); err != nil {
			return err
		}
	}
	// The result lines come last: with -workload there is one, and it is the
	// last line of output, as the driver reads it.
	for _, r := range rep.Runs[len(rep.Runs)-1] {
		fmt.Println(resultLine(r))
	}
	if !ok {
		return fmt.Errorf("a correctness gate or bypass assertion failed")
	}
	return nil
}
