package engine

// CM is the contention-management view of an engine's Recorder. The retry
// driver (Drive) binds its Backoff to the stripe of each attempt's
// transaction and counts the attempt's outcome there. Pacing itself is fixed
// (see Backoff): the CM only counts. Stats sums the stripes; a store exports
// their sum over its shards as the stmkv_cm_* metric families.
type CM Recorder

// stripe0 is where Drive counts an attempt whose transaction has no stripe.
func (c *CM) stripe0() *Stripe { return &c.stripes[0] }

// CMStats is a snapshot of a CM account; every field is a monotonic counter.
type CMStats struct {
	Outcomes   uint64 // attempt outcomes observed
	Waits      uint64 // backoff waits between attempts
	Spins      uint64 // waits satisfied by yielding
	Sleeps     uint64 // waits that slept
	SleepNanos uint64 // total backoff sleep time, ns
}

// Stats sums the stripes. Like engine Stats, a snapshot taken while
// transactions are in flight is approximate.
func (c *CM) Stats() CMStats {
	var s CMStats
	for i := range c.stripes {
		st := &c.stripes[i]
		s.Outcomes += st.outcomes.Load()
		s.Waits += st.waits.Load()
		s.Spins += st.spins.Load()
		s.Sleeps += st.sleeps.Load()
		s.SleepNanos += st.sleepNanos.Load()
	}
	return s
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
