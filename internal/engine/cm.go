package engine

import (
	"sync/atomic"
	"time"
)

// CM is a per-engine contention-management account. Every engine embeds one
// and exposes it via Engine.CM; the retry driver (Drive) binds its Backoff to
// it and feeds it attempt outcomes. Pacing itself is fixed (see Backoff): the
// CM only counts. Stats reads the counts; a store exports their sum over its
// shards as the stmkv_cm_* metric families.
//
// All fields are atomics: outcomes arrive from every worker goroutine and
// snapshots are taken while transactions are in flight.
type CM struct {
	outcomes   atomic.Uint64 // attempt outcomes observed (commits + aborts)
	waits      atomic.Uint64 // backoff waits between attempts (spins + sleeps)
	spins      atomic.Uint64 // waits satisfied by yielding the processor
	sleeps     atomic.Uint64 // waits that slept
	sleepNanos atomic.Uint64 // total nanoseconds of backoff sleep
}

// ObserveOutcome counts one attempt outcome, conflicted or committed.
func (c *CM) ObserveOutcome() { c.outcomes.Add(1) }

func (c *CM) noteSpin() {
	c.waits.Add(1)
	c.spins.Add(1)
}

func (c *CM) noteSleep(d time.Duration) {
	c.waits.Add(1)
	c.sleeps.Add(1)
	c.sleepNanos.Add(uint64(d))
}

// CMStats is a snapshot of a CM account; every field is a monotonic counter.
type CMStats struct {
	Outcomes   uint64 // attempt outcomes observed
	Waits      uint64 // backoff waits between attempts
	Spins      uint64 // waits satisfied by yielding
	Sleeps     uint64 // waits that slept
	SleepNanos uint64 // total backoff sleep time, ns
}

// Stats snapshots the account. Like engine Stats, a snapshot taken while
// transactions are in flight is approximate.
func (c *CM) Stats() CMStats {
	return CMStats{
		Outcomes:   c.outcomes.Load(),
		Waits:      c.waits.Load(),
		Spins:      c.spins.Load(),
		Sleeps:     c.sleeps.Load(),
		SleepNanos: c.sleepNanos.Load(),
	}
}

// Add merges t into s for sharded aggregation: every counter sums.
func (s CMStats) Add(t CMStats) CMStats {
	return CMStats{
		Outcomes:   s.Outcomes + t.Outcomes,
		Waits:      s.Waits + t.Waits,
		Spins:      s.Spins + t.Spins,
		Sleeps:     s.Sleeps + t.Sleeps,
		SleepNanos: s.SleepNanos + t.SleepNanos,
	}
}
