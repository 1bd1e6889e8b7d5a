package main

import (
	"math"
	"sort"
	"testing"
)

// TestHistQuantiles compares the recorder's quantiles with a sorted-sample
// reference on three shapes of input and requires agreement within 1 %.
func TestHistQuantiles(t *testing.T) {
	r := newRNG(7)
	inputs := map[string]func() float64{
		"uniform":     func() float64 { return 1000 + 9e6*r.float() },
		"exponential": func() float64 { return 50e3 * -math.Log(1-r.float()) },
		"bimodal": func() float64 {
			if r.intn(100) < 97 {
				return 80e3 + 20e3*r.float()
			}
			return 30e6 + 10e6*r.float()
		},
	}
	for name, draw := range inputs {
		var h hist
		ref := make([]float64, 200_000)
		for i := range ref {
			v := math.Floor(draw())
			ref[i] = v
			h.record(int64(v))
		}
		sort.Float64s(ref)
		for _, q := range []float64{0.5, 0.99, 0.999} {
			want := ref[int(math.Ceil(q*float64(len(ref))))-1]
			got := h.quantile(q)
			if math.Abs(got-want) > 0.01*want {
				t.Errorf("%s p%v: histogram %.1f, sorted samples %.1f (n=%d): off by %.2f %%", name, 100*q, got, want, h.n, 100*math.Abs(got-want)/want)
			} else {
				t.Logf("%s p%v: %.1f against %.1f, n=%d", name, 100*q, got, want, h.n)
			}
		}
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<20 + 1<<13, 1 << 39, 1 << 45} {
		i := histIndex(v)
		if i < prev || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d after %d", v, i, prev)
		}
		prev = i
		if lo, width := histBounds(i); v < 1<<40 && (float64(v) < lo || float64(v) >= lo+width || width > 1 && width > float64(v)/128) {
			t.Errorf("bucket of %d is [%.0f, %.0f)", v, lo, lo+width)
		}
	}
}

func TestMergeAndWindows(t *testing.T) {
	var a, b hist
	for i := 1; i <= 100; i++ {
		a.record(int64(i) * 1000)
		b.record(int64(i+100) * 1000)
	}
	a.merge(&b)
	if a.n != 200 || math.Abs(a.quantile(0.5)-100e3) > 1e3 {
		t.Errorf("merged median %.0f of n=%d", a.quantile(0.5), a.n)
	}
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, Python's statistics.quantiles gives 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestSelfTime: children are clipped to the parent and overlaps count once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{name: "request", start: 0, end: 100, parent: -1},
		{name: "server.read", start: -10, end: 20, parent: 0},
		{name: "wal.fs.sync", start: 10, end: 30, parent: 0},
		{name: "server.write", start: 50, end: 60, parent: 0},
	}
	for _, lt := range tr.analyse() {
		if lt.name == "request" && (lt.busyNs != 100 || lt.selfNs != 60) {
			t.Errorf("request: busy %d self %d, want 100 and 60", lt.busyNs, lt.selfNs)
		}
	}
}
