package engine

import (
	"sync/atomic"
	"time"
	"unsafe"
)

// cacheLine is the coherence granule the stripes are padded to.
const cacheLine = 64

// NumStripes is the number of stripes in a Recorder. Pooled transactions are
// handed stripes round-robin, so up to NumStripes transactions live at once
// record without writing a cache line another of them writes.
const NumStripes = 16

// Recorder is an engine's statistics recorder: its Stats counters, the
// abort causes and retry histogram behind Metrics, and the
// contention-management account behind CM. It is striped so that disjoint
// transactions write no shared cache line: every pooled transaction records
// into the stripe the pool gave it (Stripe), and the readers (Stats,
// Metrics().Snapshot, CM().Stats) sum the stripes. The zero value is ready
// to use; a Recorder must not be copied after first use.
type Recorder struct {
	_       [cacheLine]byte // keeps stripe 0 off the line of the fields before it
	stripes [NumStripes]Stripe
	next    atomic.Uint32 // round-robin cursor; written only when a pool builds a transaction
}

// stripeCounters is what one stripe records.
type stripeCounters struct {
	// Stats.
	starts, commits, aborts                atomic.Uint64
	openForRead, openForUpdate, undoLogged atomic.Uint64
	readLogEntries, filterHits, localSkips atomic.Uint64
	compactions, readLogDropped, cmWaits   atomic.Uint64

	// Metrics.
	abortCauses [NumAbortCauses]atomic.Uint64
	retries     Histogram // conflicted attempts before each Run that committed

	// CM.
	outcomes, waits, spins, sleeps, sleepNanos atomic.Uint64

	// index is the stripe's position in its Recorder, stored when the
	// stripe is handed out (stripe 0 needs no store).
	index atomic.Uint32
}

// Stripe is one cache-line-padded share of a Recorder. Its size is a
// multiple of the cache line and its padding is at least one line, so no
// line holds counters of two stripes, whatever the Recorder's alignment.
type Stripe struct {
	stripeCounters
	_ [cacheLine + (cacheLine-unsafe.Sizeof(stripeCounters{})%cacheLine)%cacheLine]byte
}

// Stripe hands out the recorder's stripes round-robin. Engines call it once
// per transaction their pool builds, not per transaction begun.
func (r *Recorder) Stripe() *Stripe {
	i := (r.next.Add(1) - 1) % NumStripes
	s := &r.stripes[i]
	s.index.Store(i)
	return s
}

// Index returns the stripe's position in its Recorder, in [0, NumStripes).
// Callers that keep counters of their own beside the engine's stripe them by
// it, so a transaction's counts land where no concurrent one's do.
func (s *Stripe) Index() int { return int(s.index.Load()) }

// Striped is implemented by transactions that record into one stripe of
// their engine's Recorder. Drive uses it to count an attempt's outcome, and
// the runners its retries, on that stripe.
type Striped interface {
	Stripe() *Stripe
}

// StripeOf returns the stripe tx records into, or e's first stripe when tx
// has none (a wrapper or an engine without stripes); e is tx's engine.
func StripeOf(tx Txn, e Engine) *Stripe {
	if s, ok := tx.(Striped); ok {
		return s.Stripe()
	}
	return e.CM().stripe0()
}

// Begin counts one transaction start.
func (s *Stripe) Begin() { s.starts.Add(1) }

// Finish folds one finished attempt into the stripe: its commit or its abort
// with cause, and its operation counters n (whose Starts, Commits and Aborts
// are not read). Counters that are 0, as most are on most transactions, are
// not written.
func (s *Stripe) Finish(n *Stats, committed bool, cause AbortCause) {
	if committed {
		s.commits.Add(1)
	} else {
		if int(cause) >= NumAbortCauses {
			cause = CauseExplicit
		}
		s.abortCauses[cause].Add(1)
		s.aborts.Add(1)
	}
	add := func(dst *atomic.Uint64, v uint64) {
		if v != 0 {
			dst.Add(v)
		}
	}
	add(&s.openForRead, n.OpenForRead)
	add(&s.openForUpdate, n.OpenForUpdate)
	add(&s.undoLogged, n.UndoLogged)
	add(&s.readLogEntries, n.ReadLogEntries)
	add(&s.filterHits, n.FilterHits)
	add(&s.localSkips, n.LocalSkips)
	add(&s.compactions, n.Compactions)
	add(&s.readLogDropped, n.ReadLogDropped)
	add(&s.cmWaits, n.CMWaits)
}

// ObserveRetries records the number of conflicted attempts a successful
// transaction needed before committing (0 = first try).
func (s *Stripe) ObserveRetries(aborted int) {
	if aborted < 0 {
		aborted = 0
	}
	s.retries.Observe(uint64(aborted))
}

// ObserveOutcome counts one attempt outcome, conflicted or committed.
func (s *Stripe) ObserveOutcome() { s.outcomes.Add(1) }

func (s *Stripe) noteSpin() {
	s.waits.Add(1)
	s.spins.Add(1)
}

func (s *Stripe) noteSleep(d time.Duration) {
	s.waits.Add(1)
	s.sleeps.Add(1)
	s.sleepNanos.Add(uint64(d))
}

// Stats sums the stripes' counters. Starts is loaded last, after every other
// counter of every stripe: a transaction's start and its commit or abort land
// on the same stripe, start first, so Commits + Aborts <= Starts holds in
// every snapshot, even one taken while transactions are in flight.
func (r *Recorder) Stats() Stats {
	var s Stats
	for i := range r.stripes {
		c := &r.stripes[i]
		s.Commits += c.commits.Load()
		s.Aborts += c.aborts.Load()
		s.OpenForRead += c.openForRead.Load()
		s.OpenForUpdate += c.openForUpdate.Load()
		s.UndoLogged += c.undoLogged.Load()
		s.ReadLogEntries += c.readLogEntries.Load()
		s.FilterHits += c.filterHits.Load()
		s.LocalSkips += c.localSkips.Load()
		s.Compactions += c.compactions.Load()
		s.ReadLogDropped += c.readLogDropped.Load()
		s.CMWaits += c.cmWaits.Load()
	}
	for i := range r.stripes {
		s.Starts += r.stripes[i].starts.Load()
	}
	return s
}

// Metrics returns the recorder's Metrics view.
func (r *Recorder) Metrics() *Metrics { return (*Metrics)(r) }

// CM returns the recorder's contention-management view.
func (r *Recorder) CM() *CM { return (*CM)(r) }
