package kvload

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistogramBuckets is the number of log-scaled buckets. Bucket i counts
// values v with bits.Len64(v) == i, i.e. bucket 0 holds v == 0 and bucket
// i >= 1 holds 2^(i-1) <= v < 2^i; the last bucket also absorbs everything
// larger. With 40 buckets, nanosecond latencies are resolved up to ~9
// minutes — far beyond any round trip this repository measures.
const HistogramBuckets = 40

// Histogram is a bounded log-scaled histogram maintained entirely with
// atomic counters, so the load generator's connections record into it
// without locks and snapshots can be taken while they run.
type Histogram struct {
	counts [HistogramBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.counts[min(bits.Len64(v), HistogramBuckets-1)].Add(1)
}

// ObserveDuration records a duration in nanoseconds (negative durations
// clamp to zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(uint64(max(d, 0)))
}

// Snapshot copies the histogram's counters. Taken while writers are active
// it is approximate: individual buckets are exact, but the set need not
// correspond to one instant.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Counts [HistogramBuckets]uint64
}

// bucketBound returns the inclusive upper bound of bucket i (the largest
// value the bucket can hold); the final bucket is unbounded and reports
// MaxUint64.
func bucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= HistogramBuckets-1 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Count returns the total number of observations.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// bucket bound at which the cumulative count reaches q of the total. With
// log-scaled buckets the result is exact to within a factor of two, which is
// the resolution the load tables need.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			return bucketBound(i)
		}
	}
	return bucketBound(HistogramBuckets - 1)
}
