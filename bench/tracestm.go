package main

import (
	"sync"
	"time"

	"memtx"
	"memtx/internal/engine"
	"memtx/internal/progs"
	"memtx/internal/til/interp"
	"memtx/internal/til/passes"
)

// traceSTM is the traced run of stm.txds: a fixed number of operations on one
// goroutine, first with tracing off and then with a span around each, so that
// every engine counter repeats exactly; then two goroutines for the same
// number of operations each, for what only contention shows.
func traceSTM(cfg *runConfig) (*result, error) {
	res := newResult(stmName)
	listeners, stores := listenersOpened.Load(), storesBuilt.Load()
	n := int(200_000 * cfg.traceCut)
	e := setupSTM(cfg.seed)

	w := newSTMWorkers(cfg.seed, 1)[0]
	t0 := time.Now()
	for i := 0; i < n; i++ {
		w.step(e)
	}
	untraced := float64(n) / time.Since(t0).Seconds()

	tr := newTracer()
	before, mallocsA := e.tm.Stats(), mallocs()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		s := tr.begin("stm.op", -1, int32(i))
		w.step(e)
		tr.end(s)
	}
	traced := float64(n) / time.Since(t0).Seconds()
	mallocsA = mallocs() - mallocsA
	st := e.tm.Stats().Sub(before)

	nothing := func(*memtx.Tx) error { return nil }
	for i := 0; i < n/10; i++ {
		s := tr.begin("engine.txn.update", -1, int32(i))
		err := e.tm.Atomic(nothing)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("engine.txn.readonly", -1, int32(i))
		err = e.tm.ReadOnly(nothing)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}

	ws := append([]*stmWorker{w}, newSTMWorkers(cfg.seed+1, stmWorkers)...)
	before = e.tm.Stats()
	abortsBefore := e.tm.Metrics()
	var wg sync.WaitGroup
	for _, w := range ws[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				w.step(e)
			}
		}()
	}
	wg.Wait()
	stP := e.tm.Stats().Sub(before)
	abortsP := e.tm.Metrics().Sub(abortsBefore)

	e.verify(res, ws)
	assertNoServer(res, listeners, stores)
	lts := tr.analyse()
	printLayers(res, lts)
	if err := tr.write(cfg.spanFile(stmName)); err != nil {
		return nil, err
	}
	med := func(name string) float64 { return medianNs(lts, name) }
	res.putLayers(map[string]float64{
		"commit_ratio":             ratio(stP.Commits, stP.Starts),
		"aborts":                   float64(stP.Aborts),
		"cm_waits_per_commit":      ratio(stP.CMWaits, stP.Commits),
		"ro_fast_commit_frac":      ratio(st.ROFastCommits, st.Commits),
		"txn_overhead_update_ns":   med("engine.txn.update"),
		"txn_overhead_readonly_ns": med("engine.txn.readonly"),
		"allocs_per_op":            float64(mallocsA) / float64(n),
		"barriers_dynamic":         float64(st.OpenForRead + st.OpenForUpdate + st.UndoLogged),
		"filter_hit_frac":          ratio(st.FilterHits, st.FilterHits+st.ReadLogEntries+st.UndoLogged),
		"trace_overhead_frac":      1 - traced/untraced,
	})
	res.info("trace_ops", float64(n), "count", 0)
	res.info("untraced_ops_per_s", untraced, "ops/s", uint64(n))
	res.info("traced_ops_per_s", traced, "ops/s", uint64(n))
	res.info("pass_a_commits", float64(st.Commits), "count", 0)
	for _, cause := range engine.AbortCauses {
		res.info("contended_aborts_"+cause.String(), float64(abortsP.Aborts(cause)), "count", 0)
	}
	return res, nil
}

// traceTIL is the traced run of til.kernels: each kernel compiled at every
// pass level for the static barrier counts, then compiled, loaded and run once
// at full optimisation with a span around each step, on one goroutine and with
// no timer, so that the dynamic barrier counts repeat exactly.
func traceTIL(cfg *runConfig) (*result, error) {
	res := newResult(tilName)
	listeners, stores := listenersOpened.Load(), storesBuilt.Load()
	want, err := golden()
	if err != nil {
		return nil, err
	}
	static := make(map[passes.Level]int)
	for _, level := range passes.Levels {
		for _, k := range progs.All() {
			c, err := compile(k, level)
			if err != nil {
				return nil, err
			}
			static[level] += passes.CountBarriers(c.mod).Total()
		}
		res.info("barriers_static:"+level.String(), float64(static[level]), "count", 0)
	}

	// The same pass untraced first, as the base of the tracing overhead.
	cs, _, err := setupTIL()
	if err != nil {
		return nil, err
	}
	var untracedNs int64
	for _, c := range cs {
		_, d, err := runKernel(c.k, c.mod, directEngine())
		if err != nil {
			return nil, err
		}
		untracedNs += int64(d)
	}

	tr := newTracer()
	var dyn engine.Stats
	var interpStats interp.Stats
	var compileNs, runNs int64
	for i, k := range progs.All() {
		op := int32(i)
		root := tr.begin("til.kernel", -1, op)
		s := tr.begin("til.compile", root, op)
		c, err := compile(k, passes.LevelFull)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		compileNs += tr.spans[s].end - tr.spans[s].start

		eng := directEngine()
		s = tr.begin("til.load", root, op)
		p, err := interp.Load(c.mod, eng)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		mach := p.NewMachine()
		if k.Init != "" {
			s = tr.begin("til.init", root, op)
			_, err = mach.Call(k.Init, interp.Word(k.InitArg))
			tr.end(s)
			if err != nil {
				return nil, err
			}
		}
		s = tr.begin("til.run", root, op)
		sum, err := mach.Call(k.Run, interp.Word(k.BenchSize))
		tr.end(s)
		if err != nil {
			return nil, err
		}
		d := tr.spans[s].end - tr.spans[s].start
		runNs += d
		tr.end(root)
		res.check(sum.W == want[k.Name], "%s returned %d, the golden file says %d", k.Name, sum.W, want[k.Name])
		res.info("run_ms:"+k.Name, float64(d)/1e6, "ms", 0)
		dyn = dyn.Add(eng.Stats())
		interpStats.Steps += mach.Stats.Steps
		interpStats.Txns += mach.Stats.Txns
	}
	assertNoServer(res, listeners, stores)
	printLayers(res, tr.analyse())
	if err := tr.write(cfg.spanFile(tilName)); err != nil {
		return nil, err
	}
	res.putLayers(map[string]float64{
		"commit_ratio":          ratio(dyn.Commits, dyn.Starts),
		"aborts":                float64(dyn.Aborts),
		"ro_fast_commit_frac":   ratio(dyn.ROFastCommits, dyn.Commits),
		"barriers_dynamic":      float64(dyn.OpenForRead + dyn.OpenForUpdate + dyn.UndoLogged),
		"filter_hit_frac":       ratio(dyn.FilterHits, dyn.FilterHits+dyn.ReadLogEntries+dyn.UndoLogged),
		"barriers_static_naive": float64(static[passes.LevelNaive]),
		"barriers_static_full":  float64(static[passes.LevelFull]),
		"til_compile_ms":        float64(compileNs) / 1e6,
		"til_run_ms":            float64(runNs) / 1e6,
		"trace_overhead_frac":   1 - float64(untracedNs)/float64(runNs),
	})
	res.info("commits", float64(dyn.Commits), "count", 0)
	res.info("interp_steps", float64(interpStats.Steps), "count", 0)
	res.info("interp_txns", float64(interpStats.Txns), "count", 0)
	return res, nil
}
