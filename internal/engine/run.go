package engine

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Retry is the panic value used by transactional operations to signal that
// the current transaction attempt has encountered a conflict and must be
// re-executed. It never escapes Run.
type Retry struct {
	// Why describes the conflict for diagnostics.
	Why string
	// Cause classifies the conflict for the abort-cause taxonomy. The zero
	// value is CauseValidation, the most common conflict kind.
	Cause AbortCause
}

func (r *Retry) String() string { return "engine: retry: " + r.Why }

// Abandon panics with a *Retry carrying the given reason, classified as an
// ownership conflict (the historical common case). Use AbandonCause when a
// different cause applies.
func Abandon(format string, args ...any) {
	AbandonCause(CauseOwnership, format, args...)
}

// AbandonCause panics with a *Retry carrying the given abort cause and
// reason. Engines call it from the middle of an operation that cannot
// continue (for example, OpenForUpdate losing an ownership race after the
// contention manager gave up, or a snapshot read observing a too-new
// version).
func AbandonCause(cause AbortCause, format string, args ...any) {
	panic(&Retry{Why: fmt.Sprintf(format, args...), Cause: cause})
}

// Run executes body as a transaction against e, retrying on conflict until
// the body commits or returns a non-nil error. It is the engine-neutral
// equivalent of the paper's re-execution loop around an atomic block.
//
// The body may be executed multiple times and therefore must be free of
// non-transactional side effects. A non-nil error from the body aborts the
// transaction and is returned to the caller without retrying.
func Run(e Engine, body func(tx Txn) error) error {
	return run(nil, RunOptions{}, e, false, body)
}

// RunReadOnly is Run for transactions that perform no updates.
func RunReadOnly(e Engine, body func(tx Txn) error) error {
	return run(nil, RunOptions{}, e, true, body)
}

// RunReadOnlyOnce executes body as a single read-only transaction attempt
// with no retry loop: on conflict it reports conflicted=true and returns,
// leaving the retry policy to the caller. Serving layers use it to attempt a
// batched read snapshot and fall back to per-command execution instead of
// spinning. Like Run, a non-nil body error aborts the attempt — unless the
// attempt was doomed (failed validation), which is reported as a conflict.
func RunReadOnlyOnce(e Engine, body func(tx Txn) error) (err error, conflicted bool) {
	return Attempt(e.BeginReadOnly(), body)
}

// Drive is the one re-execution loop in this repository: every retrying
// entry point (Run, RunReadOnly, RunCtx, RunReadOnlyCtx, and the kv store's
// single-shard and cross-shard runners) is a thin caller, so every engine and
// every layer retries under the identical policy. It calls attempt until one
// does not conflict and returns that attempt's error together with the number
// of conflicted attempts before it; err == nil means the attempt committed.
//
// Drive owns the bound checks (ctx cancellation, ctx's deadline,
// opts.MaxElapsed, opts.MaxAttempts — each reported as a *TimeoutError), the
// backoff between attempts, and the count of every outcome. attempt receives
// the ctx and effective deadline to bind into the transactions it begins (see
// BeginAttempt), and returns the stripe of the first transaction it started
// (StripeOf), or nil if it started none. Drive counts the outcome, and the
// backoff wait after it, on that stripe (cm's first stripe for nil), so
// disjoint transactions share no counter. On a commit it also returns that
// attempt's stripe, on which the caller records the commit's retries.
// Locks an attempt needs are the attempt's own business: it takes and
// releases them inside the callback, so a panic unwinding through Drive
// cannot leak them.
//
// A nil ctx with zero opts is the unbounded fast path: no clock reads, and
// attempt is handed a nil ctx and zero deadline. A nil ctx with non-zero opts
// means context.Background().
func Drive(ctx context.Context, opts RunOptions, cm *CM,
	attempt func(ctx context.Context, deadline time.Time) (st *Stripe, err error, conflicted bool)) (int, *Stripe, error) {

	bounded := ctx != nil || opts != (RunOptions{})
	var start, deadline time.Time
	budgetDeadline := false // the effective deadline came from MaxElapsed
	if bounded {
		if ctx == nil {
			ctx = context.Background()
		}
		start = time.Now()
		deadline, _ = ctx.Deadline()
		if opts.MaxElapsed > 0 {
			if b := start.Add(opts.MaxElapsed); deadline.IsZero() || b.Before(deadline) {
				deadline, budgetDeadline = b, true
			}
		}
	}
	var backoff Backoff
	conflicts := 0
	for {
		if bounded {
			if cerr := ctx.Err(); cerr != nil {
				op := "canceled"
				if errors.Is(cerr, context.DeadlineExceeded) {
					op = "deadline"
				}
				return conflicts, nil, &TimeoutError{Op: op, Attempts: conflicts, Elapsed: time.Since(start), cause: cerr}
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				op, cause := "deadline", error(context.DeadlineExceeded)
				if budgetDeadline {
					op, cause = "max-elapsed", ErrRetryBudget
				}
				return conflicts, nil, &TimeoutError{Op: op, Attempts: conflicts, Elapsed: time.Since(start), cause: cause}
			}
		}
		st, err, conflicted := attempt(ctx, deadline)
		if st == nil {
			st = cm.stripe0()
		}
		st.ObserveOutcome()
		if !conflicted {
			return conflicts, st, err
		}
		conflicts++
		backoff.Bind(st)
		if !bounded {
			backoff.Wait()
			continue
		}
		if opts.MaxAttempts > 0 && conflicts >= opts.MaxAttempts {
			return conflicts, nil, &TimeoutError{Op: "max-attempts", Attempts: conflicts, Elapsed: time.Since(start), cause: ErrRetryBudget}
		}
		backoff.WaitCtx(ctx, deadline)
	}
}

// BeginAttempt begins one transaction attempt on e the way Drive's callers
// must: bound to ctx and deadline when the engine's transactions can observe
// them (ctx nil on the unbounded path).
func BeginAttempt(ctx context.Context, deadline time.Time, e Engine, readonly bool) Txn {
	var tx Txn
	if readonly {
		tx = e.BeginReadOnly()
	} else {
		tx = e.Begin()
	}
	if ctx != nil {
		if cb, ok := tx.(CtxBinder); ok {
			cb.BindContext(ctx, deadline)
		}
	}
	return tx
}

// run drives body on e: one BeginAttempt + Attempt per Drive iteration, and
// on commit the retry histogram of the committing transaction's stripe
// records how many aborted attempts it took.
func run(ctx context.Context, opts RunOptions, e Engine, readonly bool, body func(tx Txn) error) error {
	conflicts, st, err := Drive(ctx, opts, e.CM(), func(ctx context.Context, deadline time.Time) (*Stripe, error, bool) {
		tx := BeginAttempt(ctx, deadline, e, readonly)
		st := StripeOf(tx, e)
		err, conflicted := Attempt(tx, body)
		return st, err, conflicted
	})
	if err == nil {
		st.ObserveRetries(conflicts)
	}
	return err
}

// Attempt runs one execution of the body on an already-begun transaction,
// translating Retry panics and commit conflicts into conflicted=true. Any
// other panic propagates after the transaction is rolled back. It is
// exported for layers that manage their own begin/retry policy around the
// standard attempt semantics — the kv store's runners hold shard gates
// across exactly one attempt, inside the callback they hand Drive.
func Attempt(tx Txn, body func(tx Txn) error) (err error, conflicted bool) {
	return AttemptWith(tx, body, nil)
}

// AttemptWith is Attempt with the commit step swapped out: when commit is
// non-nil it runs in place of tx.Commit() and must call it. The kv store's
// durable commit path uses this to couple the engine commit with the
// write-ahead-log append under one shard-local mutex, so log order matches
// commit order. The hook observes the same contract as tx.Commit — returning
// ErrConflict counts as a conflicted attempt.
func AttemptWith(tx Txn, body func(tx Txn) error, commit func(tx Txn) error) (err error, conflicted bool) {
	committed := false
	defer func() {
		if committed {
			return
		}
		r := recover()
		if r == nil {
			return
		}
		if rt, ok := r.(*Retry); ok {
			// Attribute the abort to the cause the conflicting operation
			// reported before rolling back.
			tx.SetAbortCause(rt.Cause)
			tx.Abort()
			err, conflicted = nil, true
			return
		}
		tx.Abort()
		panic(r)
	}()

	if err := body(tx); err != nil {
		// The engines are not opaque: the body may have computed its error
		// from an inconsistent (doomed) snapshot. Only a validated error is
		// allowed to escape; a doomed attempt retries instead.
		doomed := tx.Validate() != nil
		if doomed {
			tx.SetAbortCause(CauseDoomed)
		}
		tx.Abort()
		committed = true // suppress the deferred recovery path
		if doomed {
			return nil, true
		}
		return err, false
	}
	if commit != nil {
		err = commit(tx)
	} else {
		err = tx.Commit()
	}
	committed = true
	if err == ErrConflict {
		return nil, true
	}
	return err, false
}
