package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

// bindFakeTxn is a fakeTxn that records RunCtx's CtxBinder call.
type bindFakeTxn struct {
	fakeTxn
	boundCtx      context.Context
	boundDeadline time.Time
}

func (f *bindFakeTxn) BindContext(ctx context.Context, deadline time.Time) {
	f.boundCtx = ctx
	f.boundDeadline = deadline
}

func TestRunCtxCommitsLikeRun(t *testing.T) {
	tx := &fakeTxn{}
	e := &fakeEngine{txns: []*fakeTxn{tx}}
	calls := 0
	err := RunCtx(context.Background(), e, RunOptions{}, func(Txn) error { calls++; return nil })
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if calls != 1 || !tx.committed {
		t.Fatalf("calls=%d committed=%v", calls, tx.committed)
	}
}

func TestRunCtxReturnsValidatedBodyError(t *testing.T) {
	tx := &fakeTxn{}
	e := &fakeEngine{txns: []*fakeTxn{tx}}
	boom := errors.New("boom")
	if err := RunCtx(context.Background(), e, RunOptions{MaxAttempts: 1}, func(Txn) error { return boom }); err != boom {
		t.Fatalf("err = %v, want boom (not a TimeoutError)", err)
	}
}

func TestRunCtxAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &fakeEngine{txns: []*fakeTxn{{}}}
	calls := 0
	err := RunCtx(ctx, e, RunOptions{}, func(Txn) error { calls++; return nil })
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if te.Op != "canceled" || !errors.Is(err, context.Canceled) {
		t.Fatalf("op=%q unwrap=%v, want canceled/context.Canceled", te.Op, errors.Unwrap(te))
	}
	if calls != 0 || te.Attempts != 0 {
		t.Fatalf("body ran %d times (attempts %d) under a dead context", calls, te.Attempts)
	}
	if !te.Timeout() {
		t.Fatal("TimeoutError.Timeout() must report true")
	}
}

func TestRunCtxMaxAttempts(t *testing.T) {
	// Every attempt conflicts at commit; the budget must stop the loop.
	e := &fakeEngine{txns: []*fakeTxn{{commitErr: ErrConflict}}}
	calls := 0
	err := RunCtx(context.Background(), e, RunOptions{MaxAttempts: 3}, func(Txn) error { calls++; return nil })
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if te.Op != "max-attempts" || !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("op=%q unwrap=%v, want max-attempts/ErrRetryBudget", te.Op, errors.Unwrap(te))
	}
	if calls != 3 || te.Attempts != 3 {
		t.Fatalf("calls=%d attempts=%d, want 3", calls, te.Attempts)
	}
}

func TestRunCtxMaxElapsed(t *testing.T) {
	e := &fakeEngine{txns: []*fakeTxn{{commitErr: ErrConflict}}}
	start := time.Now()
	err := RunCtx(context.Background(), e, RunOptions{MaxElapsed: 30 * time.Millisecond}, func(Txn) error { return nil })
	elapsed := time.Since(start)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if te.Op != "max-elapsed" || !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("op=%q unwrap=%v, want max-elapsed/ErrRetryBudget", te.Op, errors.Unwrap(te))
	}
	if te.Attempts == 0 {
		t.Fatal("budget expired before any attempt ran")
	}
	// The backoff clamp must keep the overshoot small relative to the ~8ms
	// max sleep, not let a full backoff window run past the deadline.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("gave up after %v, far past the 30ms budget", elapsed)
	}
}

func TestRunCtxDeadlineExpiresMidBackoff(t *testing.T) {
	// A context deadline (not a budget) must surface as op "deadline" with
	// context.DeadlineExceeded, even when it fires during a backoff sleep.
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	e := &fakeEngine{txns: []*fakeTxn{{commitErr: ErrConflict}}}
	err := RunCtx(ctx, e, RunOptions{}, func(Txn) error { return nil })
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if te.Op != "deadline" || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("op=%q unwrap=%v, want deadline/context.DeadlineExceeded", te.Op, errors.Unwrap(te))
	}
	if te.Attempts == 0 {
		t.Fatal("deadline fired before any attempt ran")
	}
}

func TestRunCtxBindsContextAndDeadline(t *testing.T) {
	// A shim engine hands out the one transaction, so its CtxBinder
	// implementation is what RunCtx sees.
	tx := &bindFakeTxn{}
	be := &binderEngine{tx: tx}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if err := RunCtx(ctx, be, RunOptions{MaxElapsed: time.Minute}, func(Txn) error { return nil }); err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if tx.boundCtx != ctx {
		t.Fatal("transaction was not bound to the caller's context")
	}
	// MaxElapsed (1m) expires before the ctx deadline (1h), so the bound
	// deadline must be the budget's, roughly a minute out.
	if d := time.Until(tx.boundDeadline); d <= 0 || d > time.Minute {
		t.Fatalf("bound deadline %v out, want ~1m (the tighter MaxElapsed bound)", d)
	}
}

// binderEngine returns one CtxBinder-capable transaction.
type binderEngine struct {
	tx *bindFakeTxn
}

func (e *binderEngine) Name() string           { return "binder-fake" }
func (e *binderEngine) NewObj(int, int) Handle { return nil }
func (e *binderEngine) Stats() Stats           { return Stats{} }
func (e *binderEngine) Begin() Txn             { return e.tx }
func (e *binderEngine) BeginReadOnly() Txn     { return e.tx }
