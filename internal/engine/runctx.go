package engine

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// RunOptions bounds Drive's retry loop. The zero value applies no bound
// beyond the context's own deadline and cancellation.
type RunOptions struct {
	// MaxAttempts caps total attempts (1 means no retry); 0 means unlimited.
	MaxAttempts int
	// MaxElapsed caps the total time spent across attempts, measured from
	// the Drive call; 0 means unlimited. It combines with a context
	// deadline by taking whichever expires first.
	MaxElapsed time.Duration
}

// ErrRetryBudget reports that a transaction gave up because its RunOptions
// budget (MaxAttempts or MaxElapsed) ran out, as opposed to its context
// being canceled or timing out. Returned wrapped in *TimeoutError.
var ErrRetryBudget = errors.New("engine: retry budget exhausted")

// TimeoutError reports that Drive gave up without committing. Unwrap
// yields context.Canceled, context.DeadlineExceeded, or ErrRetryBudget;
// Timeout marks it retriable for net.Error-style checks.
type TimeoutError struct {
	// Op names the bound that fired: "canceled", "deadline", "max-attempts",
	// or "max-elapsed".
	Op string
	// Attempts counts how many attempts ran before giving up.
	Attempts int
	// Elapsed is the wall-clock time from the Drive call to the give-up.
	Elapsed time.Duration

	cause error
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("engine: transaction %s after %d attempt(s) in %v", e.Op, e.Attempts, e.Elapsed)
}

func (e *TimeoutError) Unwrap() error { return e.cause }

// Timeout reports true: the transaction did not commit but may be retried
// later.
func (e *TimeoutError) Timeout() bool { return true }

// CtxBinder is implemented by transactions that can observe cancellation
// and deadlines mid-attempt — at contention-manager wait points, where an
// eager-ownership attempt can otherwise block indefinitely behind a stalled
// owner. BeginAttempt binds every transaction it begins whose engine supports it;
// a bound attempt whose deadline passes at a wait point abandons itself with
// CauseDeadline and the loop gives up on the next bound check.
type CtxBinder interface {
	BindContext(ctx context.Context, deadline time.Time)
}

// RunCtx is Run bounded by a context and a retry budget. Between attempts it
// observes ctx cancellation, ctx's deadline, opts.MaxElapsed, and
// opts.MaxAttempts; engines implementing CtxBinder additionally observe the
// ctx and deadline at contention-manager waits inside an attempt. On any
// bound firing it returns a *TimeoutError instead of retrying; a committed
// attempt or a validated body error returns exactly as Run does.
func RunCtx(ctx context.Context, e Engine, opts RunOptions, body func(tx Txn) error) error {
	return run(ctx, opts, e, false, body)
}

// RunReadOnlyCtx is RunCtx for transactions that perform no updates.
func RunReadOnlyCtx(ctx context.Context, e Engine, opts RunOptions, body func(tx Txn) error) error {
	return run(ctx, opts, e, true, body)
}
