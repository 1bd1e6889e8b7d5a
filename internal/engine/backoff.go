package engine

import (
	"context"
	"runtime"
	"time"
)

// Backoff implements randomized exponential backoff between transaction
// re-executions. Early retries only yield the processor; once a transaction
// has conflicted repeatedly it sleeps for a bounded, jittered interval.
//
// The zero value is ready to use (and stays on the caller's stack — Run's
// fast path must not allocate); the RNG is seeded on first use. Binding a
// stripe counts every wait in its Recorder's Stats (BackoffSpins and
// BackoffSleeps).
type Backoff struct {
	attempt int
	rng     uint64
	st      *Stripe // optional wait accounting
}

const (
	backoffSpinAttempts = 4
	backoffBaseSleep    = 500 * time.Nanosecond
	backoffMaxShift     = 14 // cap sleep at base << 14 ≈ 8ms
)

// Bind attaches a stripe (nil detaches): subsequent waits are counted on it.
func (b *Backoff) Bind(st *Stripe) { b.st = st }

func (b *Backoff) next() uint64 {
	if b.rng == 0 {
		// Seed from the monotonic clock; the quality bar is only "threads
		// desynchronize", not statistical randomness.
		b.rng = uint64(time.Now().UnixNano()) | 1
	}
	// xorshift64*
	x := b.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	b.rng = x
	return x * 0x2545F4914F6CDD1D
}

// duration advances the attempt counter and computes how long this wait
// should sleep; zero means "yield only" (still within the spin threshold).
// Both Wait and WaitCtx are thin wrappers around it.
func (b *Backoff) duration() time.Duration {
	b.attempt++
	if b.attempt <= backoffSpinAttempts {
		if b.st != nil {
			b.st.noteSpin()
		}
		return 0
	}
	shift := b.attempt - backoffSpinAttempts
	if shift > backoffMaxShift {
		shift = backoffMaxShift
	}
	window := uint64(1) << uint(shift)
	d := backoffBaseSleep * time.Duration(1+b.next()%window)
	if b.st != nil {
		b.st.noteSleep(d)
	}
	return d
}

func (b *Backoff) Wait() {
	d := b.duration()
	if d == 0 {
		runtime.Gosched()
		return
	}
	time.Sleep(d)
}

// WaitCtx is Wait bounded by a context and an absolute deadline (zero means
// none): the sleep is clamped to the deadline and interrupted by
// cancellation, so a RunCtx caller re-checks its bounds promptly instead of
// finishing a multi-millisecond backoff first. The timer allocation is
// acceptable here — this is the contended slow path, never the first retry.
func (b *Backoff) WaitCtx(ctx context.Context, deadline time.Time) {
	d := b.duration()
	if d == 0 {
		runtime.Gosched()
		return
	}
	if !deadline.IsZero() {
		remain := time.Until(deadline)
		if remain <= 0 {
			return
		}
		if d > remain {
			d = remain
		}
	}
	done := ctx.Done()
	if done == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	select {
	case <-done:
		if !t.Stop() {
			<-t.C
		}
	case <-t.C:
	}
}
