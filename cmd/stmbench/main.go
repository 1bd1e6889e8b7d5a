// Command stmbench regenerates the paper's evaluation tables and figures
// (experiments E1..E7 in DESIGN.md).
//
// Usage:
//
//	stmbench                 # run everything at full scale
//	stmbench -e e1,e3        # run selected experiments
//	stmbench -quick          # small parameters (seconds, for smoke runs)
//	stmbench -kvload host:port  # drive the stmkvd load mix against a live server
//
// Output is a series of aligned text tables, one per paper table/figure,
// each annotated with the shape the paper reports so results can be compared
// at a glance. EXPERIMENTS.md records a reference run.
//
// The same experiment cells run as testing.B benches (bench_test.go, `go
// test -bench BenchmarkE`). Live metrics come from stmkvd -serve-metrics.
//
// -kvload is the client half of the daemon drills: it seeds a running
// stmkvd, drives one closed-loop load run, optionally audits the account
// sum (-kv-verify), and prints one row. Performance claims about the store
// come from bench/ (see BENCHMARK.json), not from this driver.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"memtx/internal/harness"
)

func main() {
	var (
		exps  = flag.String("e", "all", "comma-separated experiments to run (e1..e7, or 'all')")
		quick = flag.Bool("quick", false, "use small test-scale parameters")

		kvAddr         = flag.String("kvload", "", "drive the stmkvd load mix against the server at this host:port")
		kvConns        = flag.Int("kv-conns", 4, "client connections per load run")
		kvKeys         = flag.Int("kv-keys", 10000, "GET/SET key-space size")
		kvValSize      = flag.Int("kv-valsize", 64, "SET value size in bytes")
		kvReadFrac     = flag.Float64("kv-readfrac", 0.8, "fraction of GETs in the mix")
		kvTransferFrac = flag.Float64("kv-transferfrac", 0.1, "fraction of two-key TRANSFERs in the mix")
		kvIncrFrac     = flag.Float64("kv-incrfrac", 0, "fraction of INCRs over the counter key space in the mix")
		kvMix          = flag.String("kv-mix", "", "YCSB-style mix preset: ycsb-a, ycsb-b or ycsb-c (overrides -kv-readfrac/-kv-transferfrac)")
		kvDist         = flag.String("kv-dist", "uniform", "key distribution: uniform, zipf:THETA or hot:FRAC")
		kvDuration     = flag.Duration("kv-duration", 5*time.Second, "measurement window")
		kvPipeline     = flag.Int("kv-pipeline", 1, "requests in flight per connection")
		kvVerify       = flag.Bool("kv-verify", false, "audit account-sum conservation after the load run")
	)
	flag.Parse()

	if *kvAddr != "" {
		lo, err := kvOptions{
			addr:         *kvAddr,
			conns:        *kvConns,
			keys:         *kvKeys,
			valSize:      *kvValSize,
			readFrac:     *kvReadFrac,
			transferFrac: *kvTransferFrac,
			incrFrac:     *kvIncrFrac,
			mix:          *kvMix,
			dist:         *kvDist,
			duration:     *kvDuration,
			pipeline:     *kvPipeline,
			quick:        *quick,
		}.loadOptions()
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmbench: %v\n", err)
			flag.Usage()
			os.Exit(2)
		}
		if err := runKVLoad(lo, *kvVerify); err != nil {
			fmt.Fprintf(os.Stderr, "stmbench: kvload: %v\n", err)
			os.Exit(1)
		}
		return
	}

	ids := harness.ExperimentIDs
	if *exps != "all" {
		ids = strings.Split(*exps, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(strings.ToLower(id))
		tables, err := harness.Run(id, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
	}
}
