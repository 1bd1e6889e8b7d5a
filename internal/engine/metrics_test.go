package engine

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// Value 0 lands in bucket 0; 1 in bucket 1; 2..3 in bucket 2; etc.
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(1024) // bits.Len64 = 11
	h.Observe(math.MaxUint64)
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 2 || s.Counts[11] != 1 {
		t.Fatalf("bucket counts wrong: %v", s.Counts)
	}
	if s.Counts[HistogramBuckets-1] != 1 {
		t.Fatalf("overflow value must land in the last bucket: %v", s.Counts)
	}
	if got := s.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	wantSum := uint64(0 + 1 + 2 + 3 + 1024)
	wantSum += math.MaxUint64 // wraps mod 2^64, matching the atomic sum
	if s.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 99 observations of ~1µs (bucket bound 1023), 1 of ~1ms.
	for i := 0; i < 99; i++ {
		h.Observe(1000)
	}
	h.Observe(1_000_000)
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 != 1023 {
		t.Fatalf("p50 = %d, want 1023", p50)
	}
	if p99 := s.Quantile(0.99); p99 != 1023 {
		t.Fatalf("p99 = %d, want 1023 (99th observation is still small)", p99)
	}
	if p100 := s.Quantile(1.0); p100 < 1_000_000 {
		t.Fatalf("p100 = %d, want >= 1000000", p100)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	if bucketBound(0) != 0 || bucketBound(3) != 7 {
		t.Fatalf("bucketBound wrong: %d %d", bucketBound(0), bucketBound(3))
	}
	if bucketBound(HistogramBuckets-1) != math.MaxUint64 {
		t.Fatal("last bucket must be unbounded")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers = 8
	const per = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count(); got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
}

func TestMetricsRecorder(t *testing.T) {
	var r Recorder
	a, b := r.Stripe(), r.Stripe()
	var n Stats
	attempt := func(s *Stripe, committed bool, cause AbortCause) {
		s.Begin()
		s.Finish(&n, committed, cause)
	}
	attempt(a, false, CauseValidation)
	attempt(b, false, CauseValidation)
	attempt(a, false, CauseCMKill)
	attempt(b, true, CauseExplicit)
	attempt(a, false, AbortCause(200)) // out of range: recorded as explicit

	s := r.Stats()
	if want := [NumAbortCauses]uint64{CauseValidation: 2, CauseCMKill: 1, CauseExplicit: 1}; s.AbortsByCause != want {
		t.Fatalf("aborts by cause = %v, want %v", s.AbortsByCause, want)
	}
	if s.Starts != 5 || s.Commits != 1 || s.Aborts != 4 {
		t.Fatalf("Stats = %+v, want 5 starts, 1 commit, 4 aborts", s)
	}
}

func TestAbortCauseStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range AbortCauses {
		name := c.String()
		if name == "" || name == "unknown" {
			t.Fatalf("cause %d has no label", c)
		}
		if seen[name] {
			t.Fatalf("duplicate cause label %q", name)
		}
		seen[name] = true
	}
	if AbortCause(200).String() != "unknown" {
		t.Fatal("out-of-range cause must print unknown")
	}
}
