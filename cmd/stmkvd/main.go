// Command stmkvd serves a sharded transactional key-value store over TCP.
//
// Every command runs as one transaction on the paper's direct-update STM.
// Each shard owns its own transaction manager: single-key commands commit
// shard-locally, and multi-key commands (MGET, MSET, TRANSFER) whose keys
// span shards stay atomic through the store's ascending-order cross-shard
// commit. The wire protocol and command set are documented in
// internal/server.
//
// Usage:
//
//	stmkvd                               # serve on :7070, 16 shards
//	stmkvd -addr :7070 -shards 4         # explicit listen address and shard count
//	stmkvd -serve-metrics :8080          # expose /metrics and /stats.json
//	stmkvd -serve-metrics :8080 -pprof   # also expose /debug/pprof/
//	stmkvd -max-batch 0                  # disable read-snapshot batching
//	stmkvd -max-write-batch 0            # disable hot-key write batching
//	stmkvd -cmd-deadline 5ms -queue-timeout 1ms   # bounded commands + load shedding
//	stmkvd -wal-dir /var/lib/stmkvd/wal  # durable: log commits, replay on boot
//	stmkvd -wal-dir wal -wal-fsync-batch 64 -snapshot-every 30s   # tuned group commit
//
// With -wal-dir, every commit goes through one store-wide log and append
// pipeline, and checkpoints are per-shard incremental snapshots (dirty keys
// merged into the previous snapshot, a full scan every 8th checkpoint per
// shard); neither is configurable.
//
// SIGINT/SIGTERM starts a graceful drain: the listener closes, in-flight
// requests finish, and the process exits once every connection has flushed
// (bounded by -drain-timeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memtx/internal/kv"
	"memtx/internal/obs"
	"memtx/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":7070", "TCP listen address")
		shards       = flag.Int("shards", 16, "number of store shards (rounded up to a power of two)")
		buckets      = flag.Int("buckets", 1024, "hash buckets per shard (rounded up to a power of two)")
		maxInflight  = flag.Int("max-inflight", 128, "max concurrently executing transactions (0 = default)")
		maxBatch     = flag.Int("max-batch", server.DefaultMaxBatch, "max pipelined read-only commands coalesced into one snapshot transaction (0 = off)")
		maxWBatch    = flag.Int("max-write-batch", server.DefaultMaxWriteBatch, "max pipelined same-shard SET/INCR commands coalesced into one write transaction (0 = off)")
		serveMetrics = flag.String("serve-metrics", "", "serve /metrics and /stats.json on this address (e.g. :8080)")
		pprofFlag    = flag.Bool("pprof", false, "with -serve-metrics, also expose /debug/pprof/ profiling endpoints")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "max time to wait for in-flight requests on shutdown")

		cmdDeadline  = flag.Duration("cmd-deadline", 0, "per-command transactional deadline; past it the command gets an ERR (0 = unbounded)")
		queueTimeout = flag.Duration("queue-timeout", 0, "max wait for a transaction slot before shedding the command with BUSY (0 = queue forever)")
		readTimeout  = flag.Duration("read-timeout", 0, "max time a client may take to finish delivering a started frame (0 = unbounded; idle connections are never evicted)")
		writeTimeout = flag.Duration("write-timeout", 0, "max time per response write before the client is evicted (0 = unbounded)")

		walDir        = flag.String("wal-dir", "", "write-ahead-log directory; enables durability (replay on boot, log on commit)")
		walBatch      = flag.Int("wal-fsync-batch", 8, "group-commit size: an open group fsyncs once this many records await durability, or as soon as every appended record has asked for it (1 = fsync per commit, 0 = fsync only on shutdown)")
		walInterval   = flag.Duration("wal-fsync-interval", time.Millisecond, "max time an open group waits for an appended record whose commit has not yet asked for durability (0 = fsync at once)")
		walSegBytes   = flag.Int64("wal-segment-bytes", 0, "log segment rotation threshold in bytes (0 = 64 MiB)")
		snapshotEvery = flag.Duration("snapshot-every", time.Minute, "interval between snapshot checkpoints (truncating covered log segments; 0 = never)")
		walScrubEvery = flag.Duration("wal-scrub-interval", 0, "background scrub period: re-verify sealed log segments and snapshots, quarantining corrupt files (0 = never)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "stmkvd: ", log.LstdFlags)

	cfg := kv.Config{Shards: *shards, Buckets: *buckets}
	var store *kv.Store
	if *walDir != "" {
		bootStart := time.Now()
		var stats *kv.RecoveryStats
		var err error
		store, stats, err = kv.Open(cfg, kv.DurableConfig{
			Dir:                  *walDir,
			FsyncBatch:           *walBatch,
			FsyncInterval:        *walInterval,
			SegmentBytes:         *walSegBytes,
			SnapshotEvery:        *snapshotEvery,
			IncrementalSnapshots: true,
			ScrubInterval:        *walScrubEvery,
		})
		if err != nil {
			logger.Fatalf("wal recovery: %v", err)
		}
		logger.Printf("wal: recovered %s in %v (%d snapshot pairs, %d records, torn tail %v)",
			*walDir, time.Since(bootStart).Round(time.Millisecond),
			stats.SnapshotPairs, stats.Records, stats.TornTail)
	} else {
		store = kv.New(cfg)
	}
	batch := *maxBatch
	if batch <= 0 {
		batch = -1 // flag 0 means off; Config 0 would mean the default
	}
	wbatch := *maxWBatch
	if wbatch <= 0 {
		wbatch = -1
	}
	srv := server.New(store, server.Config{
		MaxInflight:   *maxInflight,
		MaxBatch:      batch,
		MaxWriteBatch: wbatch,
		ErrorLog:      logger,
		CmdDeadline:   *cmdDeadline,
		QueueTimeout:  *queueTimeout,
		ReadTimeout:   *readTimeout,
		WriteTimeout:  *writeTimeout,
	})

	if *serveMetrics != "" {
		what := "/metrics and /stats.json"
		if *pprofFlag {
			what += " and /debug/pprof/"
		}
		msrv := &http.Server{Addr: *serveMetrics, Handler: metricsHandler(store, srv, *pprofFlag)}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Fatalf("metrics server: %v", err)
			}
		}()
		logger.Printf("serving %s on %s", what, *serveMetrics)
	} else if *pprofFlag {
		logger.Printf("-pprof ignored without -serve-metrics")
	}

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(*addr) }()
	logger.Printf("serving on %s (%d shards)", *addr, store.Shards())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		logger.Fatalf("serve: %v", err)
	case s := <-sig:
		logger.Printf("%v: draining (max %v)", s, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("drain incomplete: %v", err)
		os.Exit(1)
	}
	if err := <-done; err != server.ErrServerClosed {
		logger.Printf("serve: %v", err)
		os.Exit(1)
	}
	// Every in-flight request has finished; flush and fsync the WAL's pending
	// groups so no acknowledged write rides out the shutdown in a buffer.
	if err := store.Close(); err != nil {
		logger.Printf("wal close: %v", err)
		os.Exit(1)
	}
	st := store.Stats()
	fmt.Fprintf(os.Stderr, "stmkvd: drained cleanly; %d transactions committed\n", st.Commits)
}

// metricsHandler is what -serve-metrics serves: the store's, the server's
// and, for a durable store, the log's metric sources, plus /debug/pprof/
// when withPprof is set.
func metricsHandler(store *kv.Store, srv *server.Server, withPprof bool) http.Handler {
	sources := []obs.Source{{Name: "kv", Src: store}, {Name: "kvd", Src: srv}}
	if m := store.WAL(); m != nil {
		sources = append(sources, obs.Source{Name: "wal", Src: m})
	}
	h := obs.Handler(sources...)
	if withPprof {
		h = obs.DebugHandler(h)
	}
	return h
}
