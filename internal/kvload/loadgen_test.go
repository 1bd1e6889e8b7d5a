package kvload

import (
	"testing"
	"time"
)

// TestRunSelfGrid smoke-tests the full self-hosted path: store + server on
// loopback, preload, a short load run, and the engine commit cross-check.
func TestRunSelfGrid(t *testing.T) {
	o := Options{
		Conns:     2,
		Keys:      200,
		ValueSize: 16,
		Accounts:  16,
		Duration:  200 * time.Millisecond,
		Pipeline:  4,
	}
	points, err := RunSelfGrid([]int{1, 4}, []int{-1, 0}, []int{0, 1}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("got %d grid points, want 8", len(points))
	}
	for _, p := range points {
		if p.Design != "direct" {
			t.Errorf("design = %q", p.Design)
		}
		if p.Result.Ops == 0 {
			t.Errorf("shards=%d batch=%d: zero ops completed", p.Shards, p.MaxBatch)
		}
		if p.Result.Errors != 0 {
			t.Errorf("shards=%d batch=%d: %d ERR responses from a valid mix", p.Shards, p.MaxBatch, p.Result.Errors)
		}
		if p.CommittedTxns == 0 {
			t.Errorf("shards=%d batch=%d: engine shows zero commits", p.Shards, p.MaxBatch)
		}
		if p.Result.Throughput <= 0 {
			t.Errorf("shards=%d batch=%d: throughput = %v", p.Shards, p.MaxBatch, p.Result.Throughput)
		}
		switch {
		case p.MaxBatch < 0 && p.ReadBatches != 0:
			t.Errorf("batch=off cell executed %d snapshot batches", p.ReadBatches)
		case p.MaxBatch == 0 && p.ReadBatches == 0:
			t.Errorf("batch=default cell executed no snapshot batches under a read-heavy pipelined mix")
		}
	}
}

// TestOptionsDefaults pins the defaulting rules the CLI flags rely on.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Conns != 4 || o.Keys != 10000 || o.ValueSize != 64 || o.Pipeline != 1 {
		t.Errorf("unexpected defaults: %+v", o)
	}
	if o.ReadFrac != 0.8 || o.TransferFrac != 0.1 {
		t.Errorf("unexpected mix defaults: read=%v transfer=%v", o.ReadFrac, o.TransferFrac)
	}
	// An explicit read fraction that would push the mix over 1.0 clamps the
	// transfer share instead of silently exceeding it.
	o = Options{ReadFrac: 0.95, TransferFrac: 0.2}.withDefaults()
	if o.ReadFrac+o.TransferFrac > 1 {
		t.Errorf("mix exceeds 1: read=%v transfer=%v", o.ReadFrac, o.TransferFrac)
	}
}
