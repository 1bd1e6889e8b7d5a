package engine

import (
	"testing"
	"time"
)

// TestCMFixedPolicyInert pins that observing outcomes only counts them:
// pacing is fixed, so no wait counter moves however many attempts conflict.
func TestCMFixedPolicyInert(t *testing.T) {
	var r Recorder
	st := r.Stripe()
	for i := 0; i < 512; i++ {
		st.ObserveOutcome()
	}
	if s := r.Stats(); s != (Stats{Outcomes: 512}) {
		t.Fatalf("after 512 outcomes: %+v, want only Outcomes 512", s)
	}
}

// TestBackoffAccountsWaits checks the fixed pacing schedule through a bound
// stripe's backoff counters: the first four waits spin, later ones sleep,
// and the n-th sleep lasts at most base << n.
func TestBackoffAccountsWaits(t *testing.T) {
	var r Recorder
	var b Backoff
	b.Bind(r.Stripe())
	for i := 0; i < 6; i++ {
		b.Wait()
	}
	s := r.Stats()
	if s.BackoffSpins != 4 || s.BackoffSleeps != 2 {
		t.Fatalf("spins/sleeps = %d/%d, want 4/2", s.BackoffSpins, s.BackoffSleeps)
	}
	if s.BackoffSleepNanos == 0 {
		t.Fatal("sleeps recorded no time")
	}
	if max := uint64((2 + 4) * backoffBaseSleep / time.Nanosecond); s.BackoffSleepNanos > max {
		t.Fatalf("sleep nanos %d exceed (2+4)*base = %d", s.BackoffSleepNanos, max)
	}
}
