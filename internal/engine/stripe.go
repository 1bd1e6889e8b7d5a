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

// Recorder is an engine's statistics recorder, read as one Stats snapshot.
// It is striped so that disjoint transactions write no shared cache line:
// every pooled transaction records into the stripe the pool gave it
// (Stripe), and Stats sums the stripes. A stripe counts only what cannot be
// derived: aborts are the sum of their causes. The zero value is ready to
// use; a Recorder must not be copied after first use.
type Recorder struct {
	_       [cacheLine]byte // keeps stripe 0 off the line of the fields before it
	stripes [NumStripes]Stripe
	next    atomic.Uint32 // round-robin cursor; written only when a pool builds a transaction
}

// stripeCounters is what one stripe records.
type stripeCounters struct {
	starts, commits                        atomic.Uint64
	abortCauses                            [NumAbortCauses]atomic.Uint64
	openForRead, openForUpdate, undoLogged atomic.Uint64
	readLogEntries, filterHits, localSkips atomic.Uint64
	compactions, readLogDropped, cmWaits   atomic.Uint64

	// Counted by Drive and its Backoff.
	outcomes, spins, sleeps, sleepNanos atomic.Uint64

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
// their engine's Recorder. Drive uses it to count an attempt's outcome and
// backoff on that stripe.
type Striped interface {
	Stripe() *Stripe
}

// StripeOf returns the stripe tx records into, or nil when tx has none (a
// wrapper, or an engine without a Recorder).
func StripeOf(tx Txn) *Stripe {
	if s, ok := tx.(Striped); ok {
		return s.Stripe()
	}
	return nil
}

// Begin counts one transaction start.
func (s *Stripe) Begin() { s.starts.Add(1) }

// Finish folds one finished attempt into the stripe: its commit or its abort
// with cause, and its operation counters n (OpenForRead through CMWaits; no
// other field of n is read). Counters that are 0, as most are on most
// transactions, are not written.
func (s *Stripe) Finish(n *Stats, committed bool, cause AbortCause) {
	if committed {
		s.commits.Add(1)
	} else {
		if int(cause) >= NumAbortCauses {
			cause = CauseExplicit
		}
		s.abortCauses[cause].Add(1)
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

// ObserveOutcome counts one attempt outcome, conflicted or committed.
func (s *Stripe) ObserveOutcome() { s.outcomes.Add(1) }

func (s *Stripe) noteSpin() { s.spins.Add(1) }

func (s *Stripe) noteSleep(d time.Duration) {
	s.sleeps.Add(1)
	s.sleepNanos.Add(uint64(d))
}

// Stats sums the stripes' counters, and the abort causes into Aborts.
// Starts is loaded last, after every other counter of every stripe: a
// transaction's start and its commit or abort land on the same stripe, start
// first, so Commits + Aborts <= Starts holds in every snapshot, even one
// taken while transactions are in flight.
func (r *Recorder) Stats() Stats {
	var s Stats
	for i := range r.stripes {
		c := &r.stripes[i]
		s.Commits += c.commits.Load()
		for j := range c.abortCauses {
			s.AbortsByCause[j] += c.abortCauses[j].Load()
		}
		s.OpenForRead += c.openForRead.Load()
		s.OpenForUpdate += c.openForUpdate.Load()
		s.UndoLogged += c.undoLogged.Load()
		s.ReadLogEntries += c.readLogEntries.Load()
		s.FilterHits += c.filterHits.Load()
		s.LocalSkips += c.localSkips.Load()
		s.Compactions += c.compactions.Load()
		s.ReadLogDropped += c.readLogDropped.Load()
		s.CMWaits += c.cmWaits.Load()
		s.Outcomes += c.outcomes.Load()
		s.BackoffSpins += c.spins.Load()
		s.BackoffSleeps += c.sleeps.Load()
		s.BackoffSleepNanos += c.sleepNanos.Load()
	}
	for _, n := range s.AbortsByCause {
		s.Aborts += n
	}
	for i := range r.stripes {
		s.Starts += r.stripes[i].starts.Load()
	}
	return s
}
