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
	if s := r.CM().Stats(); s != (CMStats{Outcomes: 512}) {
		t.Fatalf("after 512 outcomes: %+v, want only Outcomes 512", s)
	}
}

// TestCMStatsAdd pins the sharded-aggregation merge rule: every counter sums.
func TestCMStatsAdd(t *testing.T) {
	a := CMStats{Outcomes: 10, Waits: 3, Spins: 2, Sleeps: 1, SleepNanos: 100}
	b := CMStats{Outcomes: 20, Waits: 7, Spins: 4, Sleeps: 3, SleepNanos: 50}
	want := CMStats{Outcomes: 30, Waits: 10, Spins: 6, Sleeps: 4, SleepNanos: 150}
	if got := a.Add(b); got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
}

// TestBackoffAccountsWaits checks the fixed pacing schedule through a bound
// stripe's CM counters: the first four waits spin, later ones sleep, and the
// n-th sleep lasts at most base << n.
func TestBackoffAccountsWaits(t *testing.T) {
	var r Recorder
	var b Backoff
	b.Bind(r.Stripe())
	for i := 0; i < 6; i++ {
		b.Wait()
	}
	s := r.CM().Stats()
	if s.Waits != 6 || s.Spins != 4 || s.Sleeps != 2 {
		t.Fatalf("waits/spins/sleeps = %d/%d/%d, want 6/4/2", s.Waits, s.Spins, s.Sleeps)
	}
	if s.SleepNanos == 0 {
		t.Fatal("sleeps recorded no time")
	}
	if max := uint64((2 + 4) * backoffBaseSleep / time.Nanosecond); s.SleepNanos > max {
		t.Fatalf("sleep nanos %d exceed (2+4)*base = %d", s.SleepNanos, max)
	}
}
