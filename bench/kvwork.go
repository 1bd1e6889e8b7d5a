package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memtx"
	"memtx/internal/kv"
	"memtx/internal/server"
)

// storesBuilt counts stores the benchmark created, for the assertion that
// stm.txds and til.kernels bypass the kv layer.
var storesBuilt atomic.Int64

var kvConfig = kv.Config{Shards: kvShards, Buckets: kvBuckets, Design: memtx.DirectUpdate, CM: memtx.CMFixed}

// kvEnv is a store served in-process on a loopback listener with the load
// generator's connections open to it.
type kvEnv struct {
	spec      *kvSpec
	store     *kv.Store
	srv       *server.Server
	ln        *listener
	served    chan error
	clients   []*client
	dir       string // WAL directory; "" when not durable
	setupS    float64
	recoveryS float64
	recovery  *kv.RecoveryStats
}

// setupKV builds what a kv.* workload runs against, and times it: from the
// first allocation of the store to the moment every connection has had an
// answer. On the durable workload that is: open, preload half the keys,
// checkpoint, preload the rest and the accounts, close, and open again — so
// the time contains a recovery over a fixed snapshot and log tail. io and fs
// are the traced run's counting wrappers; snap is the checkpoint period.
func setupKV(spec *kvSpec, cfg *runConfig, io *ioCounts, fs *timingFS, snap time.Duration) (e *kvEnv, err error) {
	t0 := time.Now()
	e = &kvEnv{spec: spec}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	storesBuilt.Add(1)
	if !spec.durable {
		e.store = kv.New(kvConfig)
		if err := preload(e.store, spec, 0, spec.keys, true); err != nil {
			return e, err
		}
	} else {
		if e.dir, err = os.MkdirTemp(cfg.scratch, "wal-"); err != nil {
			return e, err
		}
		dcfg := kv.DurableConfig{
			Dir: e.dir, FsyncBatch: walBatch, FsyncInterval: walEvery,
			SnapshotEvery: snap, IncrementalSnapshots: true,
		}
		if fs != nil {
			dcfg.FS = fs
		}
		st, _, err := kv.Open(kvConfig, dcfg)
		if err != nil {
			return e, err
		}
		e.store = st
		if err := preload(st, spec, 0, spec.keys/2, false); err != nil {
			return e, err
		}
		if err := st.Checkpoint(); err != nil {
			return e, err
		}
		if err := preload(st, spec, spec.keys/2, spec.keys, true); err != nil {
			return e, err
		}
		e.store = nil
		if err := st.Close(); err != nil {
			return e, err
		}
		r0 := time.Now()
		if e.store, e.recovery, err = kv.Open(kvConfig, dcfg); err != nil {
			return e, err
		}
		e.recoveryS = time.Since(r0).Seconds()
	}
	e.srv = server.New(e.store, server.Config{})
	if e.ln, err = listen(io); err != nil {
		return e, err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(e.ln) }()
	for i := 0; i < conns; i++ {
		c, err := dial(spec, e.ln.Addr().String())
		if err != nil {
			return e, err
		}
		e.clients = append(e.clients, c)
		if err := c.roundTrip([]op{{kind: opGet}}); err != nil {
			return e, err
		}
	}
	e.setupS = time.Since(t0).Seconds()
	return e, nil
}

// preload stores keys lo..hi-1 at version 0 and, when asked, the counters at
// zero and the accounts at their initial balance. On a durable store the
// writes defer their group-commit wait the way the server's connections do.
func preload(st *kv.Store, spec *kvSpec, lo, hi int, others bool) error {
	sb := st.NewSyncBatch()
	var key, val []byte
	n := 0
	put := func(body func(t *kv.Tx) error) error {
		if err := st.AtomicKeyDefer(nil, memtx.TxOptions{}, key, sb, body); err != nil {
			return err
		}
		if n++; n%1024 == 0 {
			return sb.Wait()
		}
		return nil
	}
	for id := lo; id < hi; id++ {
		key = appendKey(key[:0], 'k', uint32(id))
		val = appendValue(val[:0], uint32(id), 0, spec.valueSize)
		if err := put(func(t *kv.Tx) error { t.Set(key, val); return nil }); err != nil {
			return err
		}
	}
	if others {
		for id := 0; id < spec.counters; id++ {
			key = appendKey(key[:0], 'c', uint32(id))
			if err := put(func(t *kv.Tx) error { t.SetInt(key, 0); return nil }); err != nil {
				return err
			}
		}
		for id := 0; id < spec.accounts; id++ {
			key = appendKey(key[:0], 'a', uint32(id))
			if err := put(func(t *kv.Tx) error { t.SetInt(key, initialBalance); return nil }); err != nil {
				return err
			}
		}
	}
	return sb.Wait()
}

// close stops everything setupKV started and waits for it.
func (e *kvEnv) close() error {
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range e.clients {
		c.nc.Close()
	}
	if e.served != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		note(e.srv.Shutdown(ctx))
		cancel()
		if err := <-e.served; !errors.Is(err, server.ErrServerClosed) {
			note(err)
		}
	} else if e.ln != nil {
		e.ln.Close()
	}
	if e.store != nil {
		note(e.store.Close())
	}
	if e.dir != "" {
		note(os.RemoveAll(e.dir))
	}
	return first
}

// tally adds up what the connections saw so far.
func (e *kvEnv) tally() tally {
	var t tally
	for _, c := range e.clients {
		t.add(&c.tally)
	}
	return t
}

// perConn runs fn once per connection, each on its own goroutine, and returns
// the first error.
func (e *kvEnv) perConn(fn func(i int, c *client) error) error {
	errs := make([]error, len(e.clients))
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setupMedian sets up at least cfg.setups times — and, while all of it has
// taken less than cfg.setupFill, up to 25 times, because a set-up of a
// millisecond needs more repeats for a steady median than one of a second —
// keeps the last and returns the median time and the number of set-ups.
func setupMedian(cfg *runConfig, setup func() (teardown func() error, seconds float64, err error)) (float64, int, error) {
	var times []float64
	var teardown func() error
	total := 0.0
	for i := 0; i < cfg.setups || (total < cfg.setupFill.Seconds() && i < 25); i++ {
		if teardown != nil {
			if err := teardown(); err != nil {
				return 0, 0, err
			}
		}
		// The garbage of the set-up before is not this one's work.
		runtime.GC()
		td, s, err := setup()
		if err != nil {
			return 0, 0, err
		}
		teardown = td
		times = append(times, s)
		total += s
	}
	return median(times), len(times), nil
}

// kvCycles is the number of closed-loop and open-loop slices a measured kv.*
// run alternates between.
const kvCycles = 5

// runKV is the measured run of a kv.* workload: set-up, warm-up, the closed
// loop for throughput alternating with the open loop at the workload's fixed
// rate for latency, then the correctness gates.
func runKV(spec *kvSpec, cfg *runConfig) (*result, error) {
	res := newResult(spec.name)
	var e *kvEnv
	setupS, setups, err := setupMedian(cfg, func() (func() error, float64, error) {
		var err error
		if e, err = setupKV(spec, cfg, nil, nil, snapEvery); err != nil {
			return nil, 0, err
		}
		return e.close, e.setupS, nil
	})
	if err != nil {
		return nil, err
	}
	defer e.close()

	gens := newGens(spec, cfg.seed)
	// No phase may hang on a server that stopped answering.
	deadline := time.Now().Add(cfg.warmup + cfg.measure + 60*time.Second)
	for _, c := range e.clients {
		c.nc.SetDeadline(deadline)
	}
	closed := func(d time.Duration) (ops uint64, busy time.Duration, err error) {
		var mu sync.Mutex
		err = e.perConn(func(i int, c *client) error {
			n, el, err := c.closedLoop(gens[i], pipeline, d)
			mu.Lock()
			ops += n
			busy += el
			mu.Unlock()
			return err
		})
		return ops, busy, err
	}
	if _, _, err := closed(cfg.warmup); err != nil {
		res.fail(1, "warm-up: %v", err)
	}

	// The measured time is cut into cycles of a closed-loop slice and an
	// open-loop slice, so that both loops sample the whole run: this
	// machine's speed shifts by a tenth and more for seconds at a time, and a
	// phase measured in one block would report whichever speed it met. Five
	// cycles in 16 s do not line up with the 2 s checkpoint period either.
	closedD := cfg.measure * 3 / 8 / kvCycles
	openD := cfg.measure/kvCycles - closedD
	interval := time.Second / time.Duration(spec.rate)
	statsBefore := e.store.Stats()
	var closedOps uint64
	var closedBusy time.Duration
	var open openResult
	for cycle := 0; cycle < kvCycles; cycle++ {
		ops, busy, err := closed(closedD)
		if err != nil {
			res.fail(1, "closed loop: %v", err)
			break
		}
		closedOps += ops
		closedBusy += busy
		o, err := openLoop(e.clients, gens, interval, openD)
		if err != nil {
			res.fail(1, "open loop: %v", err)
			break
		}
		open.lat.merge(&o.lat)
		open.late.merge(&o.late)
		open.backlog += o.backlog
		for k := range open.byKind {
			open.byKind[k].merge(&o.byKind[k])
		}
	}
	stats := e.store.Stats().Sub(statsBefore)

	t := e.tally()
	res.Attempted += t.attempted
	res.fail(t.failed, "%d requests failed; first: %s", t.failed, t.firstErr)
	verifyKV(res, spec, e.store, t.incrSum)
	assertBypass(res, spec, e)

	const us = 1e3
	n := open.lat.n
	res.put("ops_per_s", float64(closedOps)*conns/closedBusy.Seconds(), "ops/s", closedOps)
	res.put("p50_us", open.lat.quantile(0.50)/us, "us", n)
	res.put("setup_s", setupS, "s", uint64(setups))

	// The 99th percentile is where this machine's own stalls land: it moved
	// by a factor of two and more between runs of one build, so it is
	// reported and not gated.
	res.info("p99_us", open.lat.quantile(0.99)/us, "us", n)

	res.info("open_rate", float64(spec.rate), "ops/s", 0)
	res.info("open_p90_us", open.lat.quantile(0.90)/us, "us", n)
	res.info("open_p999_us", open.lat.quantile(0.999)/us, "us", n)
	for k := range open.byKind {
		if h := &open.byKind[k]; h.n > 0 {
			res.info("open_p50_us_"+opNames[k], h.quantile(0.50)/us, "us", h.n)
			res.info("open_p99_us_"+opNames[k], h.quantile(0.99)/us, "us", h.n)
		}
	}
	res.info("gen_late_us", open.late.quantile(0.50)/us, "us", open.late.n)
	res.info("gen_late_p99_us", open.late.quantile(0.99)/us, "us", open.late.n)
	res.info("open_backlog_end", float64(open.backlog), "count", 0)
	res.info("transfers_declined", float64(t.declined), "count", 0)
	res.info("commit_ratio", ratio(stats.Commits, stats.Starts), "ratio", stats.Starts)
	if spec.durable {
		res.info("recovery_s", e.recoveryS, "s", 0)
		res.info("recovered_records", float64(e.recovery.Records), "count", 0)
		res.info("recovered_snapshot_pairs", float64(e.recovery.SnapshotPairs), "count", 0)
	}
	return res, nil
}

// verifyKV is the full read-back: every key must hold a well-formed value of
// that key, the counters must add up to the acknowledged INCRs and the
// accounts to what they started with.
func verifyKV(res *result, spec *kvSpec, st *kv.Store, incrSum uint64) {
	bad := uint64(0)
	for id := 0; id < spec.keys; id++ {
		v, ok := st.Get(keyOf('k', uint32(id)))
		if !ok || !checkValue(v, uint32(id), spec.valueSize) {
			bad++
		}
	}
	res.Attempted += uint64(spec.keys)
	res.fail(bad, "read-back: %d of %d keys missing or holding a malformed value", bad, spec.keys)

	sum := func(class byte, n int) (total int64, err error) {
		for id := 0; id < n; id++ {
			v, ok := st.Get(keyOf(class, uint32(id)))
			if !ok {
				return 0, fmt.Errorf("%c%07d missing", class, id)
			}
			x, err := kv.ParseInt(v)
			if err != nil {
				return 0, err
			}
			total += x
		}
		return total, nil
	}
	if spec.counters > 0 {
		got, err := sum('c', spec.counters)
		res.check(err == nil && uint64(got) == incrSum, "counters add up to %d, acknowledged INCRs to %d (%v)", got, incrSum, err)
	}
	if spec.accounts > 0 {
		got, err := sum('a', spec.accounts)
		want := int64(spec.accounts) * initialBalance
		res.check(err == nil && got == want, "accounts add up to %d, want %d (%v)", got, want, err)
	}
}

// assertBypass checks that the layers a workload is meant to bypass did no
// work, so that "this workload should not move" is a checked property.
func assertBypass(res *result, spec *kvSpec, e *kvEnv) {
	if !spec.durable {
		res.check(e.store.WAL() == nil, "a workload without durability has a WAL attached")
	}
	if spec.transfer == 0 {
		res.check(e.store.CrossCommits() == 0, "%d cross-shard commits on a workload of single-key commands", e.store.CrossCommits())
	}
	res.check(e.ln.accepted.Load() == conns, "listener accepted %d connections, want %d", e.ln.accepted.Load(), conns)
}
