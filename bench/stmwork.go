package main

import (
	"sync"
	"time"

	"memtx"
	"memtx/internal/engine"
	"memtx/internal/txds"
)

// The stm.txds workload: no server and no store, just the engine under the
// data structures of internal/txds, at the Synchrobench mix.
const (
	stmWorkers   = conns
	stmKeyRange  = 65536
	stmBuckets   = stmKeyRange / 4
	stmAccounts  = 64
	stmBalance   = 1000
	stmSampleGap = 16 // every 16th operation is timed on its own
)

// stmEnv is one transactional memory holding a hash map, a search tree and a
// bank, with the maps prefilled to half the key range.
type stmEnv struct {
	tm      *memtx.TM
	hm      *txds.HashMap
	bst     *txds.BST
	bank    *txds.Bank
	hmSize  int
	bstSize int
	setupS  float64
}

func stmValue(k uint64) uint64 { return k*2 + 1 }

func setupSTM(seed uint64) *stmEnv {
	t0 := time.Now()
	e := &stmEnv{tm: memtx.New(memtx.WithDesign(memtx.DirectUpdate))}
	eng := e.tm.Engine()
	e.hm = txds.NewHashMap(eng, stmBuckets)
	e.bst = txds.NewBST(eng)
	e.bank = txds.NewBank(eng, stmAccounts, stmBalance)
	r := newRNG(seed).fork(1 << 32)
	for e.hmSize < stmKeyRange/2 {
		if k := uint64(r.intn(stmKeyRange)); e.hm.PutAtomic(k, stmValue(k)) {
			e.hmSize++
		}
	}
	for e.bstSize < stmKeyRange/2 {
		if k := uint64(r.intn(stmKeyRange)); e.bst.InsertAtomic(k, stmValue(k)) {
			e.bstSize++
		}
	}
	e.setupS = time.Since(t0).Seconds()
	return e
}

// stmWorker is one goroutine's state: its random stream and what it did.
type stmWorker struct {
	r             *rng
	ops, wrong    uint64
	hmNet, bstNet int // successful inserts minus successful removes
}

// step does one data-structure operation: 40 % on the hash map and 40 % on
// the tree, each 80 % lookups, 10 % inserts and 10 % removes, and 20 %
// transfers between two accounts. A lookup that finds a key must find the
// value every insert of that key stores.
func (w *stmWorker) step(e *stmEnv) {
	w.ops++
	p := w.r.intn(100)
	if p >= 80 {
		i := w.r.intn(stmAccounts)
		j := (i + 1 + w.r.intn(stmAccounts-1)) % stmAccounts
		e.bank.TransferAtomic(i, j, uint64(1+w.r.intn(5)))
		return
	}
	k := uint64(w.r.intn(stmKeyRange))
	kind := w.r.intn(10)
	if p < 40 {
		switch {
		case kind < 8:
			if v, ok := e.hm.GetAtomic(k); ok && v != stmValue(k) {
				w.wrong++
			}
		case kind == 8:
			if e.hm.PutAtomic(k, stmValue(k)) {
				w.hmNet++
			}
		default:
			if e.hm.RemoveAtomic(k) {
				w.hmNet--
			}
		}
		return
	}
	switch {
	case kind < 8:
		var v uint64
		var ok bool
		err := engine.RunReadOnly(e.tm.Engine(), func(tx engine.Txn) error {
			v, ok = e.bst.Get(tx, k)
			return nil
		})
		if err != nil || ok && v != stmValue(k) {
			w.wrong++
		}
	case kind == 8:
		if e.bst.InsertAtomic(k, stmValue(k)) {
			w.bstNet++
		}
	default:
		if e.bst.RemoveAtomic(k) {
			w.bstNet--
		}
	}
}

// drive runs the workers for d and returns the operations per second they
// completed together and the latency of every stmSampleGap-th operation, which
// is timed on its own; the clock read that ends it also tells the worker when
// to stop.
func (e *stmEnv) drive(ws []*stmWorker, d time.Duration) (opsPerS float64, lat *hist) {
	lats := make([]hist, len(ws))
	rates := make([]float64, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start, ops := time.Now(), 0
			for {
				for j := 1; j < stmSampleGap; j++ {
					w.step(e)
				}
				t1 := time.Since(start)
				w.step(e)
				t2 := time.Since(start)
				lats[i].record(int64(t2 - t1))
				if ops += stmSampleGap; t2 >= d {
					rates[i] = float64(ops) / t2.Seconds()
					return
				}
			}
		}()
	}
	wg.Wait()
	lat = &lats[0]
	for i := 1; i < len(ws); i++ {
		lat.merge(&lats[i])
		rates[0] += rates[i]
	}
	return rates[0], lat
}

// verify checks the structures against what the workers did to them.
func (e *stmEnv) verify(res *result, ws []*stmWorker) {
	hm, bst := e.hmSize, e.bstSize
	for _, w := range ws {
		res.Attempted += w.ops
		res.fail(w.wrong, "%d lookups returned a value no insert stored", w.wrong)
		hm += w.hmNet
		bst += w.bstNet
	}
	res.check(e.hm.LenAtomic() == hm, "hash map holds %d keys, inserts minus removes say %d", e.hm.LenAtomic(), hm)
	keys := e.bst.KeysAtomic()
	res.check(len(keys) == bst && e.bst.SizeAtomic() == bst, "tree holds %d keys (size %d), inserts minus removes say %d", len(keys), e.bst.SizeAtomic(), bst)
	ordered := true
	for i := 1; i < len(keys); i++ {
		ordered = ordered && keys[i-1] < keys[i]
	}
	res.check(ordered, "tree keys are not in ascending order")
	res.check(e.bank.TotalAtomic() == stmAccounts*stmBalance, "bank total is %d, want %d", e.bank.TotalAtomic(), stmAccounts*stmBalance)
}

func newSTMWorkers(seed uint64, n int) []*stmWorker {
	ws := make([]*stmWorker, n)
	for i := range ws {
		ws[i] = &stmWorker{r: newRNG(seed).fork(uint64(i))}
	}
	return ws
}

// assertNoServer is the bypass assertion of the workloads without a request
// stream: no listener was opened and no store built.
func assertNoServer(res *result, listeners, stores int64) {
	res.check(listenersOpened.Load() == listeners, "a listener was opened on a workload that bypasses the server")
	res.check(storesBuilt.Load() == stores, "a store was built on a workload that bypasses kv")
}

// runSTM is the measured run of stm.txds.
func runSTM(cfg *runConfig) (*result, error) {
	res := newResult(stmName)
	listeners, stores := listenersOpened.Load(), storesBuilt.Load()
	var e *stmEnv
	setupS, setups, _ := setupMedian(cfg, func() (func() error, float64, error) {
		e = setupSTM(cfg.seed)
		return func() error { return nil }, e.setupS, nil
	})
	ws := newSTMWorkers(cfg.seed, stmWorkers)
	e.drive(ws, cfg.warmup)
	before := e.tm.Stats()
	opsPerS, lat := e.drive(ws, cfg.measure)
	st := e.tm.Stats().Sub(before)
	e.verify(res, ws)
	assertNoServer(res, listeners, stores)

	const us = 1e3
	res.put("ops_per_s", opsPerS, "ops/s", lat.n*stmSampleGap)
	res.put("p50_us", lat.quantile(0.50)/us, "us", lat.n)
	res.put("setup_s", setupS, "s", uint64(setups))
	res.info("p99_us", lat.quantile(0.99)/us, "us", lat.n)
	res.info("op_p999_us", lat.quantile(0.999)/us, "us", lat.n)
	res.info("commit_ratio", float64(st.Commits)/float64(st.Starts), "ratio", st.Starts)
	res.info("key_range", stmKeyRange, "count", 0)
	return res, nil
}
