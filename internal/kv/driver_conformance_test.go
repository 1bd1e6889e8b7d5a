package kv

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"memtx/internal/engine"
)

// The retry-driver conformance suite: engine.Drive is the repository's one
// re-execution loop, and this test pushes one table of cases through its
// three callers — engine.Run*/Run*Ctx, the kv single-shard runner, and the kv
// cross-shard runner — on every engine, asserting that all of them bound,
// pace, and account attempts identically.

// countingEngine wraps a shard's real engine so the test can count the
// transactions the driver begins.
type countingEngine struct {
	engine.Engine
	begins *int
}

func (e countingEngine) Begin() engine.Txn {
	*e.begins++
	return e.Engine.Begin()
}

func (e countingEngine) BeginReadOnly() engine.Txn {
	*e.begins++
	return e.Engine.BeginReadOnly()
}

// driverPath is one caller of engine.Drive under test.
type driverPath struct {
	name string
	// run executes body under the path's runner; body calls touch to perform
	// the path's transactional reads.
	run func(ctx context.Context, opts engine.RunOptions, readonly bool, body func(touch func()) error) error
	// bump commits, from a separate transaction, a write that invalidates
	// what touch read.
	bump func()
	// begins is how many shard transactions one attempt begins.
	begins int
}

var errBoom = errors.New("conformance: body error")

func TestRetryDriverConformance(t *testing.T) {
	type driverCase struct {
		name      string
		ctx       func() (context.Context, context.CancelFunc) // nil: a nil ctx
		opts      engine.RunOptions
		readonly  bool
		conflicts int   // leading attempts that abandon; -1 = every attempt
		cancelAt  int   // attempt that cancels ctx before abandoning; 0 = never
		doomFirst bool  // attempt 1 returns errBoom from an invalidated snapshot
		bodyErr   error // what the first non-conflicting attempt returns

		wantErr      error  // exact body error expected back; nil with wantOp "" = commit
		wantOp       string // TimeoutError.Op expected
		wantCause    error  // what the TimeoutError unwraps to
		wantAttempts int    // -1 = at least one (time-bounded cases)
	}
	background := func() (context.Context, context.CancelFunc) {
		return context.WithCancel(context.Background())
	}
	cases := []driverCase{
		{name: "commit-first-try", wantAttempts: 1},
		{name: "conflicts-then-commit", conflicts: 3, wantAttempts: 4},
		{name: "conflicts-then-commit-bounded", ctx: background, opts: engine.RunOptions{MaxAttempts: 10}, conflicts: 3, wantAttempts: 4},
		{name: "ctx-cancelled-before-start", ctx: func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}, wantOp: "canceled", wantCause: context.Canceled, wantAttempts: 0},
		{name: "ctx-cancelled-mid-run", ctx: background, conflicts: -1, cancelAt: 2,
			wantOp: "canceled", wantCause: context.Canceled, wantAttempts: 2},
		{name: "ctx-deadline", ctx: func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 15*time.Millisecond)
		}, conflicts: -1, wantOp: "deadline", wantCause: context.DeadlineExceeded, wantAttempts: -1},
		{name: "max-elapsed", opts: engine.RunOptions{MaxElapsed: 15 * time.Millisecond}, conflicts: -1,
			wantOp: "max-elapsed", wantCause: engine.ErrRetryBudget, wantAttempts: -1},
		{name: "max-attempts", opts: engine.RunOptions{MaxAttempts: 3}, conflicts: -1,
			wantOp: "max-attempts", wantCause: engine.ErrRetryBudget, wantAttempts: 3},
		{name: "validated-body-error", bodyErr: errBoom, wantErr: errBoom, wantAttempts: 1},
		{name: "validated-body-error-after-conflicts", conflicts: 2, bodyErr: errBoom, wantErr: errBoom, wantAttempts: 3},
		// A cross-shard writer's exclusive gates make a doomed body
		// unreachable, so the doomed case runs every path read-only.
		{name: "doomed-body-error", readonly: true, doomFirst: true, wantAttempts: 2},
	}

	designs(t, func(t *testing.T, s *Store) {
		begins := 0
		for i := range s.shards {
			s.shards[i].eng = countingEngine{Engine: s.shards[i].eng, begins: &begins}
		}
		keyA := []byte("conf-a")
		var keyB []byte
		for i := 0; keyB == nil; i++ {
			if k := []byte(fmt.Sprintf("conf-b%d", i)); s.KeyShard(k) != s.KeyShard(keyA) {
				keyB = k
			}
		}
		s.Set(keyA, []byte("0"))
		s.Set(keyB, []byte("0"))
		eng := s.shards[0].eng
		obj := eng.NewObj(1, 0)
		bumps := 0
		bumpKey := func() {
			bumps++
			s.Set(keyA, []byte(fmt.Sprint(bumps)))
		}

		paths := []driverPath{
			{
				name:   "engine",
				begins: 1,
				run: func(ctx context.Context, opts engine.RunOptions, readonly bool, body func(func()) error) error {
					wrap := func(tx engine.Txn) error {
						return body(func() {
							tx.OpenForRead(obj)
							tx.LoadWord(obj, 0)
						})
					}
					bounded := ctx != nil || opts != (engine.RunOptions{})
					switch {
					case bounded && readonly:
						return engine.RunReadOnlyCtx(ctx, eng, opts, wrap)
					case bounded:
						return engine.RunCtx(ctx, eng, opts, wrap)
					case readonly:
						return engine.RunReadOnly(eng, wrap)
					}
					return engine.Run(eng, wrap)
				},
				bump: func() {
					bumps++
					if err := engine.Run(eng, func(tx engine.Txn) error {
						tx.OpenForUpdate(obj)
						tx.LogForUndoWord(obj, 0)
						tx.StoreWord(obj, 0, uint64(bumps))
						return nil
					}); err != nil {
						t.Fatalf("bump: %v", err)
					}
				},
			},
			{
				name:   "kv-single",
				begins: 1,
				run: func(ctx context.Context, opts engine.RunOptions, readonly bool, body func(func()) error) error {
					wrap := func(tx *Tx) error { return body(func() { tx.Get(keyA) }) }
					if readonly {
						return s.ViewKeysCtx(ctx, opts, [][]byte{keyA}, wrap)
					}
					return s.AtomicKeyDefer(ctx, opts, keyA, nil, wrap)
				},
				bump: bumpKey,
			},
			{
				name:   "kv-cross",
				begins: 2,
				run: func(ctx context.Context, opts engine.RunOptions, readonly bool, body func(func()) error) error {
					wrap := func(tx *Tx) error {
						return body(func() {
							tx.Get(keyA)
							tx.Get(keyB)
						})
					}
					keys := [][]byte{keyA, keyB}
					if readonly {
						return s.ViewKeysCtx(ctx, opts, keys, wrap)
					}
					return s.AtomicKeysDefer(ctx, opts, keys, nil, wrap)
				},
				bump: bumpKey,
			},
		}

		for _, p := range paths {
			for _, c := range cases {
				t.Run(p.name+"/"+c.name, func(t *testing.T) {
					var ctx context.Context
					cancel := context.CancelFunc(func() {})
					if c.ctx != nil {
						ctx, cancel = c.ctx()
					}
					defer cancel()

					begins = 0
					outcomes := s.CMStats().Outcomes
					attempts := 0
					err := p.run(ctx, c.opts, c.readonly, func(touch func()) error {
						attempts++
						touch()
						if c.cancelAt == attempts {
							cancel()
						}
						if c.doomFirst && attempts == 1 {
							// The interfering writer is a transaction of its
							// own; keep it out of this run's accounting.
							nb, no := begins, s.CMStats().Outcomes
							p.bump()
							begins = nb
							outcomes += s.CMStats().Outcomes - no
							return errBoom
						}
						if c.conflicts < 0 || attempts <= c.conflicts {
							engine.AbandonCause(engine.CauseValidation, "conformance: forced conflict")
						}
						return c.bodyErr
					})

					switch {
					case c.wantOp != "":
						var te *engine.TimeoutError
						if !errors.As(err, &te) {
							t.Fatalf("err = %v, want *engine.TimeoutError", err)
						}
						if te.Op != c.wantOp || !errors.Is(err, c.wantCause) {
							t.Fatalf("TimeoutError op %q cause %v, want op %q cause %v", te.Op, errors.Unwrap(err), c.wantOp, c.wantCause)
						}
						if te.Attempts != attempts {
							t.Fatalf("TimeoutError.Attempts = %d, body ran %d times", te.Attempts, attempts)
						}
					case err != c.wantErr:
						t.Fatalf("err = %v, want %v", err, c.wantErr)
					}
					if c.wantAttempts >= 0 && attempts != c.wantAttempts {
						t.Fatalf("body ran %d times, want %d", attempts, c.wantAttempts)
					}
					if c.wantAttempts < 0 && attempts < 1 {
						t.Fatal("time-bounded case never ran the body")
					}
					if begins != attempts*p.begins {
						t.Fatalf("%d transactions begun over %d attempts, want %d per attempt", begins, attempts, p.begins)
					}
					// Exactly one ObserveOutcome per attempt.
					if got := s.CMStats().Outcomes - outcomes; got != uint64(attempts) {
						t.Fatalf("CM observed %d outcomes over %d attempts", got, attempts)
					}
				})
			}
		}
	})
}
