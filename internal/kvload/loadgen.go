package kvload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"memtx/internal/kv"
	"memtx/internal/server/wire"
)

// Options configures one closed-loop load run against a live server.
type Options struct {
	// Addr is the server's host:port.
	Addr string
	// Conns is the number of concurrent client connections (default 4).
	Conns int
	// Keys is the size of the GET/SET key space (default 10000).
	Keys int
	// ValueSize is the SET payload size in bytes (default 64).
	ValueSize int
	// Dist is the key-popularity distribution every keyed draw uses — GET
	// and SET keys, TRANSFER accounts, and INCR counters alike. The zero
	// value is uniform. Preload and VerifySum always cover the full
	// keyspace regardless of Dist: skew shapes which keys get traffic, not
	// which keys exist.
	Dist Dist
	// Mix is the label of the YCSB-style preset ApplyMix installed, if
	// any; it only annotates results, the fractions below are what run.
	Mix string
	// ReadFrac is the fraction of operations that are GETs (default 0.8;
	// negative disables reads entirely).
	ReadFrac float64
	// TransferFrac is the fraction of operations that are two-key TRANSFERs
	// over the account key space (default 0.1; negative disables transfers).
	TransferFrac float64
	// IncrFrac is the fraction of operations that are INCRs over a
	// dedicated counter key space sized like Keys (default 0; negative
	// disables). Counters live outside the account space so VerifySum's
	// conservation audit stays exact. The remainder of the mix are SETs.
	IncrFrac float64
	// Accounts is the size of the TRANSFER account space (default 256).
	Accounts int
	// InitialBalance seeds each account (default 1000).
	InitialBalance int64
	// Duration is how long to drive load (default 5s).
	Duration time.Duration
	// Pipeline is the number of requests in flight per connection
	// (default 1: strict request/response).
	Pipeline int
	// Seed makes key choice deterministic across runs (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 4
	}
	if o.Keys <= 0 {
		o.Keys = 10000
	}
	if o.ValueSize <= 0 {
		o.ValueSize = 64
	}
	switch {
	case o.ReadFrac == 0:
		o.ReadFrac = 0.8
	case o.ReadFrac < 0:
		o.ReadFrac = 0
	case o.ReadFrac > 1:
		o.ReadFrac = 1
	}
	switch {
	case o.TransferFrac == 0:
		o.TransferFrac = 0.1
	case o.TransferFrac < 0:
		o.TransferFrac = 0
	}
	if o.IncrFrac < 0 {
		o.IncrFrac = 0
	}
	if o.ReadFrac+o.TransferFrac > 1 {
		o.TransferFrac = 1 - o.ReadFrac
	}
	if o.ReadFrac+o.TransferFrac+o.IncrFrac > 1 {
		o.IncrFrac = 1 - o.ReadFrac - o.TransferFrac
	}
	if o.Accounts <= 0 {
		o.Accounts = 256
	}
	if o.InitialBalance <= 0 {
		o.InitialBalance = 1000
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Pipeline <= 0 {
		o.Pipeline = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// String describes the load o runs, after defaults: the server, the
// connections and pipeline depth, and the operation mix.
func (o Options) String() string {
	o = o.withDefaults()
	return fmt.Sprintf("%s: %d conns, pipeline %d, %.0f%% GET / %.0f%% TRANSFER / %.0f%% INCR / rest SET",
		o.Addr, o.Conns, o.Pipeline, 100*o.ReadFrac, 100*o.TransferFrac, 100*o.IncrFrac)
}

// Result summarizes one load run.
type Result struct {
	Ops        uint64            // operations completed
	Errors     uint64            // ERR responses (a bug unless a command deadline is active)
	Busy       uint64            // BUSY responses: commands shed by the server under overload
	Reconnects uint64            // connections re-dialed after a transport failure mid-run
	Elapsed    time.Duration     // wall-clock measurement window
	Throughput float64           // operations per second
	RTT        HistogramSnapshot // per round-trip latency, ns (one round trip = Pipeline ops)
}

// ApplyMix installs a YCSB-style operation-mix preset: "ycsb-a" is 50/50
// read/update, "ycsb-b" is 95/5, "ycsb-c" is read-only. Updates are SETs;
// transfers are turned off so the preset's ratios are exact (set
// TransferFrac afterwards to reintroduce them).
func (o *Options) ApplyMix(name string) error {
	switch name {
	case "ycsb-a":
		o.ReadFrac = 0.5
	case "ycsb-b":
		o.ReadFrac = 0.95
	case "ycsb-c":
		o.ReadFrac = 1.0
	default:
		return fmt.Errorf("kvload: unknown mix %q (want ycsb-a, ycsb-b, or ycsb-c)", name)
	}
	o.TransferFrac = -1
	o.Mix = name
	return nil
}

func key(i int) []byte  { return []byte(fmt.Sprintf("key-%07d", i)) }
func acct(i int) []byte { return []byte(fmt.Sprintf("acct-%05d", i)) }
func ctr(i int) []byte  { return []byte(fmt.Sprintf("ctr-%07d", i)) }

// acctKeys lists the whole account space, in account order.
func acctKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = acct(i)
	}
	return keys
}

// Preload seeds the key and counter spaces through one pipelined connection
// so a load run starts from a fully populated store. The account space is
// seeded only when no account exists yet. A store that already holds every
// account — seeded by an earlier run, or recovered from its log — keeps its
// balances, so a later VerifySum audits what the server kept rather than what
// Preload just wrote. A store holding only some accounts is an error naming
// the first missing one.
func Preload(o Options) error {
	o = o.withDefaults()
	c, err := Dial(o.Addr)
	if err != nil {
		return err
	}
	defer func() { c.Close() }()

	accts := acctKeys(o.Accounts)
	chunk := len(accts)
	have, err := readAccounts(&c, o.Addr, accts, &chunk)
	if err != nil {
		return fmt.Errorf("kvload: preload: %w", err)
	}
	missing, present := -1, 0
	for i, v := range have {
		if v != nil {
			present++
		} else if missing < 0 {
			missing = i
		}
	}
	seedAccounts := present == 0
	if !seedAccounts && missing >= 0 {
		return fmt.Errorf("kvload: preload: account %d (%s) missing, %d of %d accounts exist", missing, accts[missing], present, len(accts))
	}

	val := patternValue(o.ValueSize, 0)
	const batch = 64
	pairs := make([][]byte, 0, 2*batch)
	// Each MSET batch is idempotent, so preload can retry through a server
	// that is shedding load or enforcing command deadlines: BUSY and ERR
	// responses retry on the same connection, transport failures redial
	// first. A big MSET is one big transaction — under a tight command
	// deadline it may never fit — so repeated failures halve the chunk size
	// down to single-key writes, which always squeeze through.
	chunk = 2 * batch
	flush := func() error {
		fails := 0
		for sent := 0; sent < len(pairs); {
			n := chunk
			if rest := len(pairs) - sent; n > rest {
				n = rest
			}
			err := c.MSet(pairs[sent : sent+n]...)
			if err == nil {
				sent += n
				fails = 0
				continue
			}
			if fails++; fails > 100 {
				return fmt.Errorf("kvload: preload: %w", err)
			}
			if fails%3 == 0 && chunk > 2 {
				chunk /= 2
				chunk -= chunk % 2
			}
			var re *RemoteError
			var be *BusyError
			if !errors.As(err, &re) && !errors.As(err, &be) {
				c.Close()
				nc, derr := Dial(o.Addr)
				if derr != nil {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				c = nc
			}
		}
		pairs = pairs[:0]
		return nil
	}
	add := func(k, v []byte) error {
		pairs = append(pairs, k, v)
		if len(pairs) == 2*batch {
			return flush()
		}
		return nil
	}
	for i := 0; i < o.Keys; i++ {
		if err := add(key(i), val); err != nil {
			return err
		}
	}
	if seedAccounts {
		bal := kv.FormatInt(o.InitialBalance)
		for _, k := range accts {
			if err := add(k, bal); err != nil {
				return err
			}
		}
	}
	// Counters, like keys and accounts, are seeded across the full keyspace:
	// the distribution decides which of them get traffic, never which exist.
	if o.IncrFrac > 0 {
		zero := kv.FormatInt(0)
		for i := 0; i < o.Keys; i++ {
			if err := add(ctr(i), zero); err != nil {
				return err
			}
		}
	}
	return flush()
}

// patternValue builds a deterministic payload of n bytes.
func patternValue(n int, salt byte) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(i)*31 + salt
	}
	return v
}

// Run drives the configured mix against a live server and reports
// aggregate throughput and per-round-trip latency. The store should be
// seeded first (Preload); Run does not seed, so back-to-back runs measure
// a warm server.
func Run(o Options) (*Result, error) {
	o = o.withDefaults()
	clients := make([]*Client, o.Conns)
	for i := range clients {
		c, err := Dial(o.Addr)
		if err != nil {
			for _, prev := range clients[:i] {
				prev.Close()
			}
			return nil, err
		}
		clients[i] = c
	}

	var (
		ops        atomic.Uint64
		errs       atomic.Uint64
		busy       atomic.Uint64
		reconnects atomic.Uint64
		rtt        Histogram
		wg         sync.WaitGroup
		runErr     atomic.Value
	)
	// Samplers are immutable and shared; each worker draws from them with
	// its own seeded rand, so runs stay deterministic per connection.
	samp := samplers{
		keys:  NewSampler(o.Dist, o.Keys),
		accts: NewSampler(o.Dist, o.Accounts),
		ctrs:  NewSampler(o.Dist, o.Keys),
	}
	start := time.Now()
	deadline := start.Add(o.Duration)
	for i := range clients {
		wg.Add(1)
		// Each worker owns its connection: a transport failure mid-run (say,
		// a slow-client eviction) is answered by re-dialing, so a degrading
		// server costs throughput instead of aborting the measurement.
		// Responses lost with the old connection are simply not counted.
		go func(c *Client, seed int64) {
			defer wg.Done()
			defer func() { c.Close() }()
			r := rand.New(rand.NewSource(seed))
			val := patternValue(o.ValueSize, byte(seed))
			for time.Now().Before(deadline) {
				t0 := time.Now()
				n, err := issueBatch(c, r, o, samp, val)
				ops.Add(uint64(n.ok))
				errs.Add(uint64(n.errs))
				busy.Add(uint64(n.busy))
				if err != nil {
					c.Close()
					nc, derr := Dial(o.Addr)
					if derr != nil {
						runErr.Store(derr)
						return
					}
					c = nc
					reconnects.Add(1)
					continue
				}
				rtt.ObserveDuration(time.Since(t0))
			}
		}(clients[i], o.Seed+int64(i))
	}
	wg.Wait()
	elapsed := time.Since(start)

	if err, _ := runErr.Load().(error); err != nil {
		return nil, err
	}
	res := &Result{
		Ops:        ops.Load(),
		Errors:     errs.Load(),
		Busy:       busy.Load(),
		Reconnects: reconnects.Load(),
		Elapsed:    elapsed,
		RTT:        rtt.Snapshot(),
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Ops) / elapsed.Seconds()
	}
	return res, nil
}

type batchCount struct{ ok, errs, busy int }

// samplers bundles the per-keyspace distribution samplers one run shares
// across its workers.
type samplers struct {
	keys  *Sampler
	accts *Sampler
	ctrs  *Sampler
}

// issueBatch pipelines one window of Pipeline requests and reads all
// responses. Every keyed draw goes through the run's distribution sampler,
// so skew applies uniformly to GET/SET keys, TRANSFER accounts, and INCR
// counters.
func issueBatch(c *Client, r *rand.Rand, o Options, samp samplers, val []byte) (batchCount, error) {
	for i := 0; i < o.Pipeline; i++ {
		p := r.Float64()
		var err error
		switch {
		case p < o.ReadFrac:
			err = c.Send("GET", wire.Blob(key(samp.keys.Next(r))))
		case p < o.ReadFrac+o.TransferFrac:
			src, dst := samp.accts.Next(r), samp.accts.Next(r)
			amount := wire.Bare(string(kv.FormatInt(1 + int64(r.Intn(10)))))
			err = c.Send("TRANSFER", wire.Blob(acct(src)), wire.Blob(acct(dst)), amount)
		case p < o.ReadFrac+o.TransferFrac+o.IncrFrac:
			err = c.Send("INCR", wire.Blob(ctr(samp.ctrs.Next(r))), wire.Bare("1"))
		default:
			err = c.Send("SET", wire.Blob(key(samp.keys.Next(r))), wire.Blob(val))
		}
		if err != nil {
			return batchCount{}, err
		}
	}
	if err := c.Flush(); err != nil {
		return batchCount{}, err
	}
	var n batchCount
	for i := 0; i < o.Pipeline; i++ {
		_, err := c.Recv()
		if err != nil {
			if _, remote := err.(*RemoteError); remote {
				n.errs++
				continue
			}
			if _, shed := err.(*BusyError); shed {
				n.busy++
				continue
			}
			return n, err
		}
		n.ok++
	}
	return n, nil
}

// VerifySum audits conservation after a run: the balances over the account
// space must still sum to Accounts × InitialBalance. Transient failures
// (the server may still be shedding right after an overloaded run) are retried
// briefly, and a whole-space MGET that cannot fit the server's command
// deadline degrades to chunked reads — consistent here because the load has
// stopped, though straggling transfers from killed connections can still
// land mid-pass, so a torn-looking sum is re-read before being reported.
// A missing account is unambiguous and reported immediately.
func VerifySum(o Options) error {
	o = o.withDefaults()
	keys := acctKeys(o.Accounts)
	want := int64(o.Accounts) * o.InitialBalance
	var lastErr error
	chunk := len(keys)
	for try := 0; try < 8; try++ {
		if try > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		c, err := Dial(o.Addr)
		if err != nil {
			lastErr = err
			continue
		}
		vals, err := readAccounts(&c, o.Addr, keys, &chunk)
		c.Close()
		if err != nil {
			lastErr = err
			continue
		}
		var sum int64
		for i, v := range vals {
			if v == nil {
				return fmt.Errorf("kvload: verify: account %d missing", i)
			}
			n, err := kv.ParseInt(v)
			if err != nil {
				return fmt.Errorf("kvload: verify: account %d balance %q: %w", i, v, err)
			}
			sum += n
		}
		if sum == want {
			return nil
		}
		lastErr = fmt.Errorf("kvload: verify: balance sum %d, want %d: a fault tore a transfer", sum, want)
	}
	return fmt.Errorf("kvload: verify failed: %w", lastErr)
}

// readAccounts reads keys in *chunk-sized MGets, retrying each chunk through
// BUSY, ERR, and transport failures (redialing *c as needed) and halving
// *chunk when the server keeps rejecting — the same degradation ladder as
// Preload, kept across calls so later passes start at a size that fits.
func readAccounts(c **Client, addr string, keys [][]byte, chunk *int) ([][]byte, error) {
	vals := make([][]byte, 0, len(keys))
	fails := 0
	for read := 0; read < len(keys); {
		n := *chunk
		if rest := len(keys) - read; n > rest {
			n = rest
		}
		vs, err := (*c).MGet(keys[read : read+n]...)
		if err == nil {
			vals = append(vals, vs...)
			read += n
			fails = 0
			continue
		}
		if fails++; fails > 100 {
			return nil, err
		}
		if fails%3 == 0 && *chunk > 1 {
			*chunk /= 2
		}
		var re *RemoteError
		var be *BusyError
		if !errors.As(err, &re) && !errors.As(err, &be) {
			(*c).Close()
			nc, derr := Dial(addr)
			if derr != nil {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			*c = nc
		}
	}
	return vals, nil
}
