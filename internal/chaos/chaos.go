// Package chaos is a deterministic, seedable fault injector for the STM
// engines and the stmkvd server. Named injection points are threaded through
// the transactional hot paths (ownership acquisition, commit-time validation,
// write-back, contention-manager waits) and the server's connection loop
// (frame read, response write, handler execution); at each point an enabled
// injector may force an abort, inject a bounded delay, or panic, with
// per-point parts-per-million rates.
//
// Decisions are a pure function of (seed, arrival index, point): two runs
// that reach the injection points in the same order make identical decisions,
// so a failing chaos run reproduces from its seed. Under concurrency the
// arrival order — and therefore the exact decision sequence — depends on
// scheduling, but the decision *rates* and the accounting below do not.
//
// The injector is installed process-wide via Enable/Disable. Disabled (the
// default) every instrumented site costs one atomic pointer load and a nil
// check — no allocation, no branch into injector code — so the zero-alloc
// guarantees on the server's read path hold verbatim.
package chaos

import (
	"fmt"
	"sync/atomic"
	"time"

	"memtx/internal/engine"
)

// Point names one instrumented site. STM points (OpenForRead through CMWait)
// are stepped from inside transaction attempts, where an injected abort
// becomes an ordinary engine retry; server points (FrameRead through Handler)
// are decided by the connection loop, where an injected "abort" kills the
// connection instead.
type Point uint8

const (
	// OpenForRead fires in the read barrier after the local-creator fast
	// path; injected aborts are classified CauseValidation.
	OpenForRead Point = iota
	// OpenForUpdate fires in the write barrier before ownership acquisition;
	// injected aborts are classified CauseOwnership.
	OpenForUpdate
	// CommitValidate fires at commit entry, before any lock or ownership is
	// taken, so an injected abort or panic unwinds with nothing held.
	CommitValidate
	// WriteBack fires after validation succeeds, while locks/ownership are
	// held. Only delays are legal here — New clamps abort and panic rates to
	// zero — because unwinding mid-write-back would corrupt committed state.
	WriteBack
	// CMWait fires each time a writer finds its target owned and is about to
	// consult the contention manager; injected aborts are classified
	// CauseCMKill (the fault a real CM give-up produces).
	CMWait
	// FrameRead fires after each request frame arrives; abort/panic
	// decisions kill the connection mid-pipeline.
	FrameRead
	// RespWrite fires before each response batch is written; abort/panic
	// decisions kill the connection with responses undelivered.
	RespWrite
	// Handler fires before each command executes; a panic decision exercises
	// the server's panic recovery.
	Handler
	// WALAppend fires after a committed write-set is appended to the shard's
	// log buffer. The transaction is already committed in memory, so only
	// delays are legal — New clamps abort and panic rates to zero.
	WALAppend
	// WALFsync fires in the shard's appender goroutine just before a group's
	// fsync, while the group's waiters are parked on it. Delay-only, like
	// WALAppend: the records being flushed are committed state.
	WALFsync
	// SnapshotWrite fires at the start of a snapshot checkpoint attempt; an
	// injected abort skips the attempt (a later one retries), and a panic is
	// recovered by the checkpointer.
	SnapshotWrite
	// WALScrub fires at the start of a background scrub pass; an injected
	// abort skips the pass (a later one retries), and delays stretch it.
	WALScrub

	// NumPoints is the number of named injection points.
	NumPoints = int(WALScrub) + 1
)

// String returns the metric label for the point.
func (p Point) String() string {
	switch p {
	case OpenForRead:
		return "open_for_read"
	case OpenForUpdate:
		return "open_for_update"
	case CommitValidate:
		return "commit_validate"
	case WriteBack:
		return "write_back"
	case CMWait:
		return "cm_wait"
	case FrameRead:
		return "frame_read"
	case RespWrite:
		return "resp_write"
	case Handler:
		return "handler"
	case WALAppend:
		return "wal_append"
	case WALFsync:
		return "wal_fsync"
	case SnapshotWrite:
		return "snapshot_write"
	case WALScrub:
		return "wal_scrub"
	}
	return "unknown"
}

// Action is one decision outcome.
type Action uint8

const (
	// ActNone means the point passes through unfaulted.
	ActNone Action = iota
	// ActAbort forces a transactional retry (STM points) or a connection
	// kill (server points).
	ActAbort
	// ActDelay injects a bounded sleep.
	ActDelay
	// ActPanic panics with *InjectedPanic.
	ActPanic

	// NumActions is the number of decision outcomes.
	NumActions = int(ActPanic) + 1
)

// String returns the metric label for the action.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActAbort:
		return "abort"
	case ActDelay:
		return "delay"
	case ActPanic:
		return "panic"
	}
	return "unknown"
}

// PointConfig sets one point's fault rates in parts per million per step.
// Rates are applied in panic, abort, delay order from one uniform draw, so
// their sum should stay ≤ 1e6.
type PointConfig struct {
	AbortPPM uint32
	DelayPPM uint32
	PanicPPM uint32
	// MaxDelay bounds an injected delay; the actual sleep is uniform in
	// [1ns, MaxDelay]. Zero disables delays even if DelayPPM > 0.
	MaxDelay time.Duration
}

// Config seeds an Injector.
type Config struct {
	// Seed determines the whole decision sequence. Zero is a valid seed.
	Seed uint64
	// Points holds per-point rates; zero-valued entries inject nothing.
	Points [NumPoints]PointConfig
}

// Uniform builds a Config applying the same rates to every point each fault
// kind is legal at: WriteBack takes delays only, the transport points
// (FrameRead/RespWrite) map abort to a connection kill and never panic, and
// Handler takes delays and panics (a handler "abort" has no defined meaning).
func Uniform(seed uint64, abortPPM, delayPPM, panicPPM uint32, maxDelay time.Duration) Config {
	cfg := Config{Seed: seed}
	for p := 0; p < NumPoints; p++ {
		pc := &cfg.Points[p]
		pc.DelayPPM = delayPPM
		pc.MaxDelay = maxDelay
		switch Point(p) {
		case WriteBack, WALAppend, WALFsync:
		case FrameRead, RespWrite:
			pc.AbortPPM = abortPPM
		case Handler:
			pc.PanicPPM = panicPPM
		case SnapshotWrite, WALScrub:
			pc.AbortPPM = abortPPM
			pc.PanicPPM = panicPPM
		default:
			pc.AbortPPM = abortPPM
			pc.PanicPPM = panicPPM
		}
	}
	return cfg
}

// InjectedPanic is the panic value raised by an ActPanic decision, so
// recovery sites can tell injected faults from real bugs.
type InjectedPanic struct {
	Point Point
}

func (p *InjectedPanic) Error() string {
	return fmt.Sprintf("chaos: injected panic at %s", p.Point)
}

// Injector makes fault decisions and accounts for every one it injects.
// All methods are safe for concurrent use.
type Injector struct {
	seed     uint64
	seq      atomic.Uint64
	points   [NumPoints]PointConfig
	injected [NumPoints][NumActions]atomic.Uint64
}

// New builds an injector. Abort and panic rates at WriteBack, WALAppend, and
// WALFsync are clamped to zero: those points run on behalf of transactions
// that are already committed (or committing with locks held), and unwinding
// there would corrupt or silently drop committed state.
func New(cfg Config) *Injector {
	in := &Injector{seed: cfg.Seed, points: cfg.Points}
	for _, p := range []Point{WriteBack, WALAppend, WALFsync} {
		in.points[p].AbortPPM = 0
		in.points[p].PanicPPM = 0
	}
	return in
}

// active holds the process-wide injector; nil means disabled.
var active atomic.Pointer[Injector]

// Active returns the enabled injector, or nil. Instrumented sites call this
// on every pass; it is a single atomic load.
func Active() *Injector { return active.Load() }

// Enable installs in as the process-wide injector.
func Enable(in *Injector) { active.Store(in) }

// Disable removes the process-wide injector; instrumented sites revert to
// their no-op fast path.
func Disable() { active.Store(nil) }

// Delay sleeps if the enabled injector draws a delay at p; with no injector
// it is a single atomic load. For the delay-only points (WALAppend, WALFsync),
// where any other action is clamped away by New.
func Delay(p Point) {
	if in := Active(); in != nil {
		if _, d := in.Decide(p); d > 0 {
			time.Sleep(d)
		}
	}
}

// mix64 is a splitmix64-style finalizer: a bijective scramble good enough to
// turn (seed, seq, point) into independent-looking uniform draws.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Decide draws the fault decision for one arrival at p and accounts for it.
// The caller applies the action: server points interpret ActAbort as a
// connection kill; STM points should use Step instead, which applies the
// decision itself.
func (in *Injector) Decide(p Point) (Action, time.Duration) {
	pc := &in.points[p]
	if pc.AbortPPM == 0 && pc.DelayPPM == 0 && pc.PanicPPM == 0 {
		return ActNone, 0
	}
	seq := in.seq.Add(1)
	h := mix64(in.seed ^ seq*0x9e3779b97f4a7c15 ^ uint64(p)<<56)
	roll := uint32(h % 1_000_000)
	act := ActNone
	var d time.Duration
	switch {
	case roll < pc.PanicPPM:
		act = ActPanic
	case roll < pc.PanicPPM+pc.AbortPPM:
		act = ActAbort
	case roll < pc.PanicPPM+pc.AbortPPM+pc.DelayPPM && pc.MaxDelay > 0:
		act = ActDelay
		d = 1 + time.Duration((h>>20)%uint64(pc.MaxDelay))
	}
	in.injected[p][act].Add(1)
	return act, d
}

// Step draws and applies the decision for one arrival at an STM point:
// delays sleep in place, aborts panic with *engine.Retry carrying the
// point's abort cause (unwound by the engine's normal retry machinery), and
// panics raise *InjectedPanic. Callers must be at a site where the
// transaction can legally abort — New guarantees this for WriteBack by
// allowing delays only.
func (in *Injector) Step(p Point) {
	act, d := in.Decide(p)
	switch act {
	case ActDelay:
		time.Sleep(d)
	case ActAbort:
		engine.AbandonCause(abortCause(p), "chaos: injected abort at %s", p)
	case ActPanic:
		panic(&InjectedPanic{Point: p})
	}
}

// abortCause maps an STM point to the taxonomy cause a real fault at that
// point would carry.
func abortCause(p Point) engine.AbortCause {
	switch p {
	case OpenForUpdate:
		return engine.CauseOwnership
	case CMWait:
		return engine.CauseCMKill
	}
	return engine.CauseValidation
}

// Seed returns the injector's seed, for logging a reproducible run.
func (in *Injector) Seed() uint64 { return in.seed }

// Injected returns how many times action a was decided at point p.
func (in *Injector) Injected(p Point, a Action) uint64 {
	return in.injected[p][a].Load()
}

// InjectedTotal returns the count of injected faults (aborts, delays, and
// panics; ActNone passes excluded) across all points.
func (in *Injector) InjectedTotal() uint64 {
	var n uint64
	for p := 0; p < NumPoints; p++ {
		for a := 1; a < NumActions; a++ {
			n += in.injected[p][a].Load()
		}
	}
	return n
}
