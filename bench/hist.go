package main

import (
	"math"
	"math/bits"
)

// hist is the benchmark's latency recorder: a fixed-size log-linear histogram
// of nanosecond values. Each power-of-two range is cut into 1<<histSub equal
// buckets, so a reported quantile is off by at most 1/(1<<histSub) = 0.8 % —
// against the factor of two of engine.Histogram, which is why no reported
// quantile comes from there.
// A hist is not safe for concurrent use; each recording goroutine owns one and
// they are merged when the phase ends.
type hist struct {
	n      uint64
	counts [histBuckets]uint64
}

const (
	histSub = 7
	// Values up to 2^40 ns (18 minutes) have their own bucket; larger ones
	// are clamped into the last.
	histMaxExp  = 40 - histSub
	histBuckets = (histMaxExp + 1) << histSub
)

func histIndex(v uint64) int {
	if v < 1<<histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSub - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	return (e+1)<<histSub | int(v>>uint(e))&(1<<histSub-1)
}

// histBounds returns the lowest value of bucket i and the bucket's width.
func histBounds(i int) (lo, width float64) {
	if i < 1<<histSub {
		return float64(i), 1
	}
	e := uint(i>>histSub) - 1
	return float64(uint64(1<<histSub|i&(1<<histSub-1)) << e), float64(uint64(1) << e)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value at rank ceil(q*n) in nanoseconds, 0 when empty.
// Within the bucket that holds the rank the samples are taken to lie evenly,
// which puts a lone sample at the middle of its bucket.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, width := histBounds(i)
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	panic("unreachable: the counts add up to n")
}
