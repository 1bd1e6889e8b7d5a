// Command stmbench regenerates the paper's evaluation tables and figures
// (experiments E1..E7 in DESIGN.md).
//
// Usage:
//
//	stmbench                 # run everything at full scale
//	stmbench -e e1,e3        # run selected experiments
//	stmbench -quick          # small parameters (seconds, for smoke runs)
//	stmbench -e e7 -watch 2s # print live per-interval metrics to stderr
//	stmbench -serve :8080    # expose /metrics (Prometheus) and /stats.json
//	stmbench -benchjson f.json  # write machine-readable perf points and exit
//	stmbench -kvload self    # in-process stmkvd load sweep over shard counts
//	stmbench -kvload host:port  # drive a live stmkvd server instead
//
// Output is a series of aligned text tables, one per paper table/figure,
// each annotated with the shape the paper reports so results can be compared
// at a glance. EXPERIMENTS.md records a reference run.
//
// With -serve, the engines each experiment constructs are registered in a
// live registry and served over HTTP while the experiments run; after the
// last experiment the server keeps running (final counter values remain
// scrapable) until interrupted. With -watch, a reporter prints commit
// throughput, per-cause abort counts, and p50/p99 attempt latency for every
// active engine each interval.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"memtx/internal/harness"
	"memtx/internal/obs"
)

func main() {
	var (
		exps      = flag.String("e", "all", "comma-separated experiments to run (e1..e7, or 'all')")
		quick     = flag.Bool("quick", false, "use small test-scale parameters")
		serve     = flag.String("serve", "", "serve live metrics on this address (e.g. :8080) while running")
		pprofFlag = flag.Bool("pprof", false, "with -serve, also expose /debug/pprof/ profiling endpoints")
		watch     = flag.Duration("watch", 0, "print live metrics to stderr at this interval (e.g. 2s)")
		benchJSON = flag.String("benchjson", "", "write per-experiment throughput and allocs/op as JSON to this file, then exit")

		kvAddr         = flag.String("kvload", "", "drive the stmkvd load mix: 'self' for an in-process sweep, or a host:port")
		kvShards       = flag.String("kv-shards", "1,4", "shard counts to sweep with -kvload self")
		kvConns        = flag.Int("kv-conns", 4, "client connections per load run")
		kvKeys         = flag.Int("kv-keys", 10000, "GET/SET key-space size")
		kvValSize      = flag.Int("kv-valsize", 64, "SET value size in bytes")
		kvReadFrac     = flag.Float64("kv-readfrac", 0.8, "fraction of GETs in the mix")
		kvTransferFrac = flag.Float64("kv-transferfrac", 0.1, "fraction of two-key TRANSFERs in the mix")
		kvIncrFrac     = flag.Float64("kv-incrfrac", 0, "fraction of INCRs over the counter key space in the mix")
		kvMix          = flag.String("kv-mix", "", "YCSB-style mix presets to sweep (ycsb-a, ycsb-b, ycsb-c; comma-separated; overrides -kv-readfrac/-kv-transferfrac)")
		kvDist         = flag.String("kv-dist", "uniform", "key distributions to sweep: uniform, zipf:THETA, hot:FRAC (comma-separated)")
		kvDuration     = flag.Duration("kv-duration", 5*time.Second, "measurement window per cell")
		kvPipeline     = flag.Int("kv-pipeline", 1, "requests in flight per connection")
		kvBatch        = flag.String("kv-batch", "0", "server read-batch bounds to sweep with -kvload self (0 = server default, -1 = off)")
		kvWriteBatch   = flag.String("kv-write-batch", "0", "server write-batch bounds to sweep with -kvload self (0 = server default, -1 = off)")
		kvCM           = flag.String("kv-cm", "fixed", "contention-management policies to sweep with -kvload self (fixed, adaptive; comma-separated)")
		kvProcs        = flag.String("kv-procs", "0", "GOMAXPROCS values to sweep with -kvload self (0 = leave the process default)")
		kvWALBatch     = flag.String("kv-wal-batch", "-1", "WAL group-commit fsync batches to sweep with -kvload self (-1 = durability off; comma-separated)")
		kvWALInterval  = flag.Duration("kv-wal-interval", time.Millisecond, "WAL group-commit fsync interval for -kv-wal-batch cells")
		kvMaxInflight  = flag.Int("kv-max-inflight", 0, "self-hosted server transaction-concurrency bound (0 = server default)")

		kvCmdDeadline  = flag.Duration("kv-cmd-deadline", 0, "self-hosted server per-command deadline (0 = unbounded)")
		kvQueueTimeout = flag.Duration("kv-queue-timeout", 0, "self-hosted server shed bound: max wait for a txn slot before BUSY (0 = queue forever)")
		kvVerify       = flag.Bool("kv-verify", false, "audit account-sum conservation after each load run")

		kvChaosSeed     = flag.Uint64("kv-chaos-seed", 1, "fault-injector seed for -kv-chaos-* rates")
		kvChaosAbort    = flag.Int("kv-chaos-abort", 0, "injected abort rate per point, PPM (self cells only)")
		kvChaosDelay    = flag.Int("kv-chaos-delay", 0, "injected delay rate per point, PPM (self cells only)")
		kvChaosPanic    = flag.Int("kv-chaos-panic", 0, "injected panic rate per point, PPM (self cells only)")
		kvChaosDelayMax = flag.Duration("kv-chaos-delay-max", time.Millisecond, "upper bound on each injected delay")
	)
	flag.Parse()

	if *kvAddr != "" {
		if err := runKVLoad(kvOptions{
			addr:          *kvAddr,
			shards:        *kvShards,
			conns:         *kvConns,
			keys:          *kvKeys,
			valSize:       *kvValSize,
			readFrac:      *kvReadFrac,
			transferFrac:  *kvTransferFrac,
			incrFrac:      *kvIncrFrac,
			mixes:         *kvMix,
			dists:         *kvDist,
			duration:      *kvDuration,
			pipeline:      *kvPipeline,
			batches:       *kvBatch,
			writeBatches:  *kvWriteBatch,
			cms:           *kvCM,
			procs:         *kvProcs,
			walBatches:    *kvWALBatch,
			walInterval:   *kvWALInterval,
			maxInflight:   *kvMaxInflight,
			benchJSON:     *benchJSON,
			quick:         *quick,
			cmdDeadline:   *kvCmdDeadline,
			queueTimeout:  *kvQueueTimeout,
			verify:        *kvVerify,
			chaosSeed:     *kvChaosSeed,
			chaosAbort:    *kvChaosAbort,
			chaosDelay:    *kvChaosDelay,
			chaosPanic:    *kvChaosPanic,
			chaosDelayMax: *kvChaosDelayMax,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "stmbench: kvload: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" {
		report, err := harness.BenchJSON(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmbench: benchjson: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*benchJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmbench: benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmbench: benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "stmbench: wrote %d bench points to %s\n", len(report.Results), *benchJSON)
		return
	}

	serving := *serve != "" || *watch > 0
	if serving {
		reg := obs.NewRegistry()
		harness.SetRegistry(reg)
		if *serve != "" {
			handler := reg.Handler()
			what := "/metrics and /stats.json"
			if *pprofFlag {
				handler = obs.DebugHandler(handler)
				what += " and /debug/pprof/"
			}
			srv := &http.Server{Addr: *serve, Handler: handler}
			go func() {
				if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
					fmt.Fprintf(os.Stderr, "stmbench: serve: %v\n", err)
					os.Exit(1)
				}
			}()
			fmt.Fprintf(os.Stderr, "stmbench: serving %s on %s\n", what, *serve)
		}
		if *watch > 0 {
			stop := harness.StartWatch(os.Stderr, *watch)
			defer stop()
		}
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

	if *serve != "" {
		fmt.Fprintf(os.Stderr, "stmbench: experiments done; still serving on %s (Ctrl-C to exit)\n", *serve)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
}
