package main

import (
	"testing"
	"time"

	"memtx/internal/kv"
	"memtx/internal/race"
	"memtx/internal/wal/walfs"
)

// TestSmoke runs every workload, measured and traced, with 300 ms phases and
// short traced passes, and checks that each emits exactly the metrics
// BENCHMARK.json declares, with the declared units, that every gate and bypass
// assertion holds, and that the whole thing stays fast enough for go test.
func TestSmoke(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(m.Workloads), len(workloadNames))
	}
	if m.RunSeconds != defaultRun {
		t.Errorf("BENCHMARK.json measures %d s per run, the benchmark's default is %d", m.RunSeconds, defaultRun)
	}
	for i, d := range m.EndToEnd {
		if i >= len(endToEnd) || endToEnd[i] != (decl{d.Name, d.Unit, d.Better}) {
			t.Errorf("end_to_end[%d] = %+v does not match the benchmark's table", i, d)
		}
	}
	for i, d := range m.PerLayer {
		if i >= len(perLayer) || perLayer[i] != (decl{d.Name, d.Unit, d.Better}) {
			t.Errorf("per_layer[%d] = %+v does not match the benchmark's table", i, d)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the benchmark %d+%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}

	cfg := &runConfig{
		seed: 1, measure: 300 * time.Millisecond, warmup: 50 * time.Millisecond,
		setups: 1, traceCut: 0.04, scratch: t.TempDir(),
	}
	start := time.Now()
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, w.Name, workloadNames[i])
		}
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			r, err := runWorkload(w.Name, cfg, traced)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.Name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s (traced=%v): %d of %d failed: %v", w.Name, traced, r.Failed, r.Attempted, r.Failures)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s (traced=%v): %d metrics, want %d", w.Name, traced, len(r.Metrics), len(want))
				continue
			}
			for j, got := range r.Metrics {
				if got.Name != want[j].name || got.Unit != want[j].unit {
					t.Errorf("%s (traced=%v): metric %d is %s [%s], want %s [%s]", w.Name, traced, j, got.Name, got.Unit, want[j].name, want[j].unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: %s = %v; end-to-end metrics are never 0", w.Name, got.Name, got.Value)
				}
			}
		}
	}
	if el := time.Since(start); el > 15*time.Second && !race.Enabled {
		t.Errorf("the smoke run took %v, want under 15 s", el)
	}
}

// TestTracedCountsRepeat: with one client and no timer, the counts the traced
// run calls exact are the same on every run.
func TestTracedCountsRepeat(t *testing.T) {
	exact := []string{"wire_bytes_per_op", "barriers_dynamic", "ro_fast_commit_frac", "cross_shard_frac"}
	for _, name := range []string{"kv.contended", stmName} {
		var first *result
		for i := 0; i < 2; i++ {
			cfg := &runConfig{seed: 5, setups: 1, traceCut: 0.04, scratch: t.TempDir()}
			r, err := runWorkload(name, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = r
				continue
			}
			for j, m := range r.Metrics {
				for _, e := range exact {
					if m.Name == e && m.Value != first.Metrics[j].Value {
						t.Errorf("%s: %s is %v in one traced run and %v in the next", name, e, first.Metrics[j].Value, m.Value)
					}
				}
			}
		}
	}
}

// TestGatesFail makes each correctness gate of the read-back fail once.
func TestGatesFail(t *testing.T) {
	spec := &kvSpec{name: "test", keys: 50, valueSize: 100, counters: 4, accounts: 4}
	st := kv.New(kvConfig)
	if err := preload(st, spec, 0, spec.keys, true); err != nil {
		t.Fatal(err)
	}
	failed := func(incrSum uint64) uint64 {
		res := newResult(spec.name)
		verifyKV(res, spec, st, incrSum)
		if (res.Failed == 0) != res.Correct {
			t.Errorf("failed=%d but correct=%v", res.Failed, res.Correct)
		}
		return res.Failed
	}
	if n := failed(0); n != 0 {
		t.Fatalf("a freshly preloaded store fails %d gates", n)
	}
	if n := failed(5); n != 1 {
		t.Errorf("an unapplied INCR fails %d gates, want 1", n)
	}
	st.Set(keyOf('k', 7), appendValue(nil, 8, 0, spec.valueSize)) // another key's value
	st.Set(keyOf('k', 9), []byte("garbage"))
	if n := failed(0); n != 2 {
		t.Errorf("two bad values fail %d gates, want 2", n)
	}
	st.Set(keyOf('a', 1), kv.FormatInt(initialBalance+1))
	if n := failed(0); n != 3 {
		t.Errorf("money from nowhere: %d gates fail, want 3", n)
	}

	e := setupSTM(1)
	ws := newSTMWorkers(1, 1)
	for i := 0; i < 1000; i++ {
		ws[0].step(e)
	}
	res := newResult(stmName)
	e.verify(res, ws)
	if !res.Correct {
		t.Fatalf("stm.txds fails its gates untouched: %v", res.Failures)
	}
	e.hm.RemoveAtomic(firstKey(e))
	res = newResult(stmName)
	e.verify(res, ws)
	if res.Failed != 1 {
		t.Errorf("a key removed behind the workers' back fails %d gates, want 1", res.Failed)
	}
}

func firstKey(e *stmEnv) uint64 {
	for k := uint64(0); ; k++ {
		if _, ok := e.hm.GetAtomic(k); ok {
			return k
		}
	}
}

// TestDurabilityCheck runs pass C of the traced durable run on its own, and
// checks that the crash state it recovers from holds fsynced bytes only.
func TestDurabilityCheck(t *testing.T) {
	j := []walfs.Op{
		{Kind: walfs.OpWrite, Path: "a", Data: []byte("1")},
		{Kind: walfs.OpSync, Path: "a"},
		{Kind: walfs.OpWrite, Path: "a", Data: []byte("2")},
		{Kind: walfs.OpWrite, Path: "b", Data: []byte("3")},
	}
	if got := fsyncedOnly(j); len(got) != 2 || got[0].Kind != walfs.OpWrite || string(got[0].Data) != "1" || got[1].Kind != walfs.OpSync {
		t.Errorf("fsyncedOnly kept %v", got)
	}
	res := newResult("kv.write-durable")
	spec := *kvSpecs[2]
	vals := make(map[string]float64)
	cfg := &runConfig{seed: 1, scratch: t.TempDir()}
	if err := traceDurability(&spec, cfg, 200, res, vals); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 {
		t.Errorf("durability check: %d of %d failed: %v", res.Failed, res.Attempted, res.Failures)
	}
	if v := vals["wal_bytes_per_user_byte"]; v < 1 || v > 10 {
		t.Errorf("wal_bytes_per_user_byte = %v", v)
	}
}
