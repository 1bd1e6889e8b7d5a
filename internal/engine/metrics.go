package engine

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// AbortCause classifies why a transaction attempt was rolled back. The
// taxonomy follows the conflict points of the paper's runtime: optimistic
// reads fail validation, eager ownership acquisition collides with another
// owner, the contention manager gives up, a doomed (zombie) attempt computes
// an error that must not escape, or the user aborts deliberately.
type AbortCause uint8

const (
	// CauseValidation: the read set failed validation (at commit, at an
	// explicit Validate, or eagerly at read time in snapshot-based designs).
	CauseValidation AbortCause = iota
	// CauseOwnership: an open found the object (or its stripe) owned or
	// locked by another transaction and could not proceed.
	CauseOwnership
	// CauseCMKill: the contention manager decided to abandon the attempt
	// after waiting on an owner.
	CauseCMKill
	// CauseDoomed: the body returned an error while the snapshot was
	// inconsistent; the attempt was rolled back and retried instead of
	// surfacing the zombie-computed error.
	CauseDoomed
	// CauseExplicit: user-invoked Abort, or a body error on a consistent
	// snapshot (which aborts without retrying).
	CauseExplicit
	// CauseDeadline: the attempt was abandoned at a contention-manager wait
	// because the transaction's bound context was canceled or its RunCtx
	// deadline passed while it waited on another owner.
	CauseDeadline

	// NumAbortCauses is the number of causes in the taxonomy.
	NumAbortCauses = int(CauseDeadline) + 1
)

// String returns the short label used in tables and export formats.
func (c AbortCause) String() string {
	switch c {
	case CauseValidation:
		return "validation"
	case CauseOwnership:
		return "ownership"
	case CauseCMKill:
		return "cm-kill"
	case CauseDoomed:
		return "doomed"
	case CauseExplicit:
		return "explicit"
	case CauseDeadline:
		return "deadline"
	}
	return "unknown"
}

// AbortCauses lists the taxonomy in recording order, for iteration by
// reporters.
var AbortCauses = [NumAbortCauses]AbortCause{
	CauseValidation, CauseOwnership, CauseCMKill, CauseDoomed, CauseExplicit,
	CauseDeadline,
}

// HistogramBuckets is the number of log-scaled buckets. Bucket i counts
// values v with bits.Len64(v) == i, i.e. bucket 0 holds v == 0 and bucket
// i >= 1 holds 2^(i-1) <= v < 2^i; the last bucket also absorbs everything
// larger. With 40 buckets, nanosecond latencies are resolved up to ~9
// minutes — far beyond any transaction this repository runs.
const HistogramBuckets = 40

// Histogram is a bounded log-scaled histogram maintained entirely with
// atomic counters, so the engines' hot paths can record into it without
// locks and snapshots can be taken while transactions are in flight.
type Histogram struct {
	counts [HistogramBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= HistogramBuckets {
		i = HistogramBuckets - 1
	}
	h.counts[i].Add(1)
	if v != 0 {
		h.sum.Add(v)
	}
}

// ObserveDuration records a duration in nanoseconds (negative durations
// clamp to zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Snapshot copies the histogram's counters. Taken while writers are active
// it is approximate: individual buckets are exact, but the set need not
// correspond to one instant.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.addFrom(h)
	return s
}

// addFrom adds h's counters into s.
func (s *HistogramSnapshot) addFrom(h *Histogram) {
	for i := range h.counts {
		s.Counts[i] += h.counts[i].Load()
	}
	s.Sum += h.sum.Load()
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Counts [HistogramBuckets]uint64
	Sum    uint64 // sum of all observed values
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
// the resolution the paper-style tables need.
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

// Sub returns the bucket-by-bucket difference s - t, for per-interval
// reporting.
func (s HistogramSnapshot) Sub(t HistogramSnapshot) HistogramSnapshot {
	var d HistogramSnapshot
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - t.Counts[i]
	}
	d.Sum = s.Sum - t.Sum
	return d
}

// Metrics is the observability view of an engine's Recorder: abort causes
// and the retry histogram. Every transaction records into its own stripe
// (see Recorder); Snapshot sums the stripes. It holds counts only: no engine
// reads a clock to record an attempt.
//
// Recording conventions (the conformance suite in internal/enginetest pins
// them):
//
//   - every abort records exactly one cause;
//   - every successful Run/RunReadOnly observes Retries once with the
//     number of conflicted attempts that preceded the commit, on the stripe
//     of the transaction that committed.
type Metrics Recorder

// Snapshot sums the stripes. Like Stats, a snapshot taken while
// transactions are in flight is approximate.
func (m *Metrics) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	for i := range m.stripes {
		c := &m.stripes[i]
		for j := range c.abortCauses {
			s.AbortsByCause[j] += c.abortCauses[j].Load()
		}
		s.Retries.addFrom(&c.retries)
	}
	return s
}

// MetricsSnapshot is a point-in-time copy of a Metrics recorder.
type MetricsSnapshot struct {
	// AbortsByCause is indexed by AbortCause.
	AbortsByCause [NumAbortCauses]uint64

	Retries HistogramSnapshot // conflicted attempts per successful Run txn
}

// AbortTotal sums the per-cause abort counters.
func (s MetricsSnapshot) AbortTotal() uint64 {
	var n uint64
	for _, v := range s.AbortsByCause {
		n += v
	}
	return n
}

// Aborts returns the count for one cause.
func (s MetricsSnapshot) Aborts(c AbortCause) uint64 {
	if int(c) >= NumAbortCauses {
		return 0
	}
	return s.AbortsByCause[c]
}

// Sub returns the difference s - t, counter by counter, for per-interval
// reporting.
func (s MetricsSnapshot) Sub(t MetricsSnapshot) MetricsSnapshot {
	var d MetricsSnapshot
	for i := range s.AbortsByCause {
		d.AbortsByCause[i] = s.AbortsByCause[i] - t.AbortsByCause[i]
	}
	d.Retries = s.Retries.Sub(t.Retries)
	return d
}
