package engine

import (
	"fmt"
	"sync/atomic"
	"time"
)

// CMPolicy selects how a transaction manager paces re-execution under
// contention.
type CMPolicy uint8

const (
	// CMFixed is the historical policy: a fixed spin-vs-sleep threshold and a
	// fixed randomized-exponential backoff cap, identical for every
	// transaction regardless of how contended the engine currently is.
	CMFixed CMPolicy = iota
	// CMAdaptive estimates the engine's abort rate with an EWMA and adapts
	// the spin threshold and backoff cap to it: under light contention
	// retries spin longer and may back off further apart; under heavy
	// contention they stop wasting CPU on spins and come back on a short,
	// tightly-jittered cap instead of oversleeping an 8ms window on a
	// microsecond-scale hot key. It also honors karma priority: transactions
	// that have already lost attempts wait out owners at contention-manager
	// wait points instead of killing themselves, so long transactions stop
	// starving under skew.
	CMAdaptive
)

// String returns the flag spelling ("fixed" or "adaptive").
func (p CMPolicy) String() string {
	if p == CMAdaptive {
		return "adaptive"
	}
	return "fixed"
}

// ParseCMPolicy parses the -cm flag spellings.
func ParseCMPolicy(s string) (CMPolicy, error) {
	switch s {
	case "", "fixed":
		return CMFixed, nil
	case "adaptive":
		return CMAdaptive, nil
	}
	return CMFixed, fmt.Errorf("engine: unknown contention-management policy %q (want fixed or adaptive)", s)
}

// Adaptation tiers: the EWMA abort-rate estimate (ppm) selects a
// (spin threshold, backoff cap shift) pair. The fixed policy always uses the
// historical backoffSpinAttempts/backoffMaxShift constants.
const (
	cmAdaptEvery = 64 // outcomes between knob recomputations (power of two)

	cmEWMAShift = 6 // EWMA smoothing: alpha = 1/64

	cmLowPPM  = 20_000  // below 2% aborts: contention-free regime
	cmMidPPM  = 200_000 // below 20%: moderate contention
	cmHighPPM = 500_000 // below 50%: heavy contention; above: pathological
)

// CM is a per-engine contention-management controller. Every engine embeds
// one and exposes it via Engine.CM; the retry driver (Drive) binds its
// Backoff to it and feeds it attempt outcomes. Under CMFixed it only accounts
// (the stm_cm_* metrics stay live either way); under CMAdaptive it
// additionally publishes spin/cap knobs that Backoff consults before every
// wait.
//
// All fields are atomics: outcomes arrive from every worker goroutine and
// snapshots are taken while transactions are in flight. The EWMA update is a
// racy read-modify-write on purpose — it is a statistical estimate feeding a
// heuristic, not an invariant, and a lost update under contention only makes
// the estimate marginally staler.
type CM struct {
	adaptive atomic.Bool

	outcomes atomic.Uint64 // attempt outcomes observed (commits + aborts)
	ewmaPPM  atomic.Uint64 // abort-rate estimate, parts per million

	// Knobs published by adapt() and consulted by Backoff. Zero means "use
	// the fixed defaults" so the zero CM value behaves exactly like the
	// pre-adaptive code.
	spinLimit atomic.Int32
	capShift  atomic.Int32

	// Counters behind the stm_cm_* metric families.
	waits       atomic.Uint64 // backoff waits between attempts (spins + sleeps)
	spins       atomic.Uint64 // waits satisfied by yielding the processor
	sleeps      atomic.Uint64 // waits that slept
	sleepNanos  atomic.Uint64 // total nanoseconds of backoff sleep
	karmaDefers atomic.Uint64 // CM waits extended because the waiter had karma
	adaptations atomic.Uint64 // knob recomputations that changed a knob
}

// SetPolicy switches the controller between fixed and adaptive pacing. Safe
// to call at any time, including while transactions are running; switching
// back to fixed resets the knobs to the defaults.
func (c *CM) SetPolicy(p CMPolicy) {
	c.adaptive.Store(p == CMAdaptive)
	if p != CMAdaptive {
		c.spinLimit.Store(0)
		c.capShift.Store(0)
	}
}

// Policy returns the current pacing policy.
func (c *CM) Policy() CMPolicy {
	if c.adaptive.Load() {
		return CMAdaptive
	}
	return CMFixed
}

// ObserveOutcome feeds one attempt outcome (conflicted or committed) into the
// abort-rate estimate and, under the adaptive policy, periodically recomputes
// the pacing knobs.
func (c *CM) ObserveOutcome(conflicted bool) {
	n := c.outcomes.Add(1)
	var x uint64
	if conflicted {
		x = 1_000_000
	}
	old := c.ewmaPPM.Load()
	c.ewmaPPM.Store(old - old>>cmEWMAShift + x>>cmEWMAShift)
	if c.adaptive.Load() && n&(cmAdaptEvery-1) == 0 {
		c.adapt()
	}
}

// adapt maps the current abort-rate estimate to a (spin, cap) tier. The
// shape follows the usual spin-then-block wisdom: spinning is worth it only
// while conflicts are rare and short; once aborts dominate, yielding quickly
// and sleeping on a short cap desynchronizes the herd without parking anyone
// for milliseconds.
func (c *CM) adapt() {
	r := c.ewmaPPM.Load()
	var spin, shift int32
	switch {
	case r < cmLowPPM:
		spin, shift = 6, 12
	case r < cmMidPPM:
		spin, shift = backoffSpinAttempts, 10
	case r < cmHighPPM:
		spin, shift = 2, 8
	default:
		spin, shift = 1, 6
	}
	spinChanged := c.spinLimit.Swap(spin) != spin
	capChanged := c.capShift.Swap(shift) != shift
	if spinChanged || capChanged {
		c.adaptations.Add(1)
	}
}

// spinLimitNow returns the current spin-vs-sleep threshold.
func (c *CM) spinLimitNow() int {
	if s := c.spinLimit.Load(); s > 0 {
		return int(s)
	}
	return backoffSpinAttempts
}

// capShiftNow returns the current backoff cap (sleep <= base << cap).
func (c *CM) capShiftNow() int {
	if s := c.capShift.Load(); s > 0 {
		return int(s)
	}
	return backoffMaxShift
}

func (c *CM) noteSpin() {
	c.waits.Add(1)
	c.spins.Add(1)
}

func (c *CM) noteSleep(d time.Duration) {
	c.waits.Add(1)
	c.sleeps.Add(1)
	c.sleepNanos.Add(uint64(d))
}

// NoteKarmaDefer counts one ownership acquisition whose contention-manager
// wait was extended because the waiting transaction carried karma (prior
// lost attempts). Engines with in-attempt wait points (the direct-update
// engine's OpenForUpdate) call it.
func (c *CM) NoteKarmaDefer() { c.karmaDefers.Add(1) }

// DeferAttempt maps a waiter's wait-round counter to the value fed to the
// contention manager's give-up policy. Under the fixed policy (or with no
// karma) the counter passes through unchanged. Under the adaptive policy a
// waiter with karma k has its rounds discounted 2^min(k,3)-fold, which
// multiplies any bounded policy's patience by up to 8x: a transaction that
// has already lost several attempts has invested work worth more than an
// early CMKill, which is exactly the starvation case karma exists to break.
func (c *CM) DeferAttempt(attempt, karma int) int {
	if !c.adaptive.Load() || karma <= 0 {
		return attempt
	}
	if karma > 3 {
		karma = 3
	}
	return attempt >> uint(karma)
}

// CMStats is a snapshot of a CM controller. PolicyAdaptive, AbortEWMAPpm,
// SpinLimit, and CapShift are gauges; the rest are monotonic counters.
type CMStats struct {
	PolicyAdaptive uint64 // 1 when the adaptive policy is enabled
	Outcomes       uint64 // attempt outcomes observed
	AbortEWMAPpm   uint64 // current abort-rate estimate, ppm
	SpinLimit      uint64 // current spin-vs-sleep threshold
	CapShift       uint64 // current backoff cap shift
	Waits          uint64 // backoff waits between attempts
	Spins          uint64 // waits satisfied by yielding
	Sleeps         uint64 // waits that slept
	SleepNanos     uint64 // total backoff sleep time, ns
	KarmaDefers    uint64 // CM waits extended by karma priority
	Adaptations    uint64 // knob recomputations that changed a knob
}

// Stats snapshots the controller. Like engine Stats, a snapshot taken while
// transactions are in flight is approximate.
func (c *CM) Stats() CMStats {
	var s CMStats
	if c.adaptive.Load() {
		s.PolicyAdaptive = 1
	}
	s.Outcomes = c.outcomes.Load()
	s.AbortEWMAPpm = c.ewmaPPM.Load()
	s.SpinLimit = uint64(c.spinLimitNow())
	s.CapShift = uint64(c.capShiftNow())
	s.Waits = c.waits.Load()
	s.Spins = c.spins.Load()
	s.Sleeps = c.sleeps.Load()
	s.SleepNanos = c.sleepNanos.Load()
	s.KarmaDefers = c.karmaDefers.Load()
	s.Adaptations = c.adaptations.Load()
	return s
}

// Add merges t into s for sharded aggregation: counters sum; the gauges keep
// the maximum, so a store-wide view reports "adaptive" if any shard is
// adaptive and the most contended shard's estimate.
func (s CMStats) Add(t CMStats) CMStats {
	max := func(a, b uint64) uint64 {
		if a > b {
			return a
		}
		return b
	}
	return CMStats{
		PolicyAdaptive: max(s.PolicyAdaptive, t.PolicyAdaptive),
		Outcomes:       s.Outcomes + t.Outcomes,
		AbortEWMAPpm:   max(s.AbortEWMAPpm, t.AbortEWMAPpm),
		SpinLimit:      max(s.SpinLimit, t.SpinLimit),
		CapShift:       max(s.CapShift, t.CapShift),
		Waits:          s.Waits + t.Waits,
		Spins:          s.Spins + t.Spins,
		Sleeps:         s.Sleeps + t.Sleeps,
		SleepNanos:     s.SleepNanos + t.SleepNanos,
		KarmaDefers:    s.KarmaDefers + t.KarmaDefers,
		Adaptations:    s.Adaptations + t.Adaptations,
	}
}

// KarmaSetter is implemented by transactions that accept a karma priority
// hint: the number of attempts this logical transaction has already lost.
// BeginAttempt sets it, from the count Drive hands each attempt, before every
// re-execution so engines with in-attempt contention-manager wait points can
// grant repeatedly-aborted transactions more patience.
type KarmaSetter interface {
	SetKarma(karma int)
}
