package engine

import (
	"errors"
	"testing"
	"time"
)

// fakeTxn is a scriptable Txn for exercising Run's control flow.
type fakeTxn struct {
	commitErr   error
	validateErr error
	aborted     bool
	committed   bool
	cause       AbortCause
}

func (f *fakeTxn) OpenForRead(Handle)            {}
func (f *fakeTxn) OpenForUpdate(Handle)          {}
func (f *fakeTxn) LogForUndoWord(Handle, int)    {}
func (f *fakeTxn) LogForUndoRef(Handle, int)     {}
func (f *fakeTxn) LoadWord(Handle, int) uint64   { return 0 }
func (f *fakeTxn) StoreWord(Handle, int, uint64) {}
func (f *fakeTxn) LoadRef(Handle, int) Handle    { return nil }
func (f *fakeTxn) StoreRef(Handle, int, Handle)  {}
func (f *fakeTxn) Alloc(nw, nr int) Handle       { return nil }
func (f *fakeTxn) AllocBytes(...[]byte) Handle   { return nil }
func (f *fakeTxn) LoadBytes(Handle) string       { return "" }
func (f *fakeTxn) Validate() error               { return f.validateErr }
func (f *fakeTxn) Compact()                      {}
func (f *fakeTxn) ReadOnly() bool                { return false }
func (f *fakeTxn) SetAbortCause(c AbortCause)    { f.cause = c }
func (f *fakeTxn) Abort()                        { f.aborted = true }
func (f *fakeTxn) Commit() error {
	f.committed = true
	return f.commitErr
}

// fakeEngine hands out scripted transactions in sequence.
type fakeEngine struct {
	txns []*fakeTxn
	next int
}

func (e *fakeEngine) Name() string           { return "fake" }
func (e *fakeEngine) NewObj(int, int) Handle { return nil }
func (e *fakeEngine) Stats() Stats           { return Stats{} }
func (e *fakeEngine) BeginReadOnly() Txn     { return e.Begin() }
func (e *fakeEngine) Begin() Txn {
	t := e.txns[e.next]
	if e.next < len(e.txns)-1 {
		e.next++
	}
	return t
}

func TestRunCommitsFirstTry(t *testing.T) {
	tx := &fakeTxn{}
	e := &fakeEngine{txns: []*fakeTxn{tx}}
	calls := 0
	if err := Run(e, func(Txn) error { calls++; return nil }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 1 || !tx.committed || tx.aborted {
		t.Fatalf("calls=%d committed=%v aborted=%v", calls, tx.committed, tx.aborted)
	}
}

func TestRunRetriesOnCommitConflict(t *testing.T) {
	t1 := &fakeTxn{commitErr: ErrConflict}
	t2 := &fakeTxn{}
	e := &fakeEngine{txns: []*fakeTxn{t1, t2}}
	calls := 0
	if err := Run(e, func(Txn) error { calls++; return nil }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if !t2.committed {
		t.Fatal("second attempt not committed")
	}
}

func TestRunRetriesOnAbandon(t *testing.T) {
	t1 := &fakeTxn{}
	t2 := &fakeTxn{}
	e := &fakeEngine{txns: []*fakeTxn{t1, t2}}
	calls := 0
	err := Run(e, func(Txn) error {
		calls++
		if calls == 1 {
			Abandon("scripted conflict %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if !t1.aborted {
		t.Fatal("abandoned attempt was not rolled back")
	}
}

func TestRunReturnsValidatedBodyError(t *testing.T) {
	tx := &fakeTxn{}
	e := &fakeEngine{txns: []*fakeTxn{tx}}
	boom := errors.New("boom")
	if err := Run(e, func(Txn) error { return boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if !tx.aborted || tx.committed {
		t.Fatalf("error path must abort without committing (aborted=%v committed=%v)", tx.aborted, tx.committed)
	}
}

func TestRunRetriesDoomedBodyError(t *testing.T) {
	t1 := &fakeTxn{validateErr: ErrConflict} // the error was computed doomed
	t2 := &fakeTxn{}
	e := &fakeEngine{txns: []*fakeTxn{t1, t2}}
	calls := 0
	err := Run(e, func(Txn) error {
		calls++
		if calls == 1 {
			return errors.New("zombie-derived error")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("doomed error escaped: %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestRunPropagatesForeignPanic(t *testing.T) {
	tx := &fakeTxn{}
	e := &fakeEngine{txns: []*fakeTxn{tx}}
	defer func() {
		if r := recover(); r != "user panic" {
			t.Fatalf("recover = %v, want user panic", r)
		}
		if !tx.aborted {
			t.Fatal("transaction not aborted on foreign panic")
		}
	}()
	_ = Run(e, func(Txn) error { panic("user panic") })
}

func TestRetryStringAndAbandon(t *testing.T) {
	defer func() {
		r := recover()
		rt, ok := r.(*Retry)
		if !ok {
			t.Fatalf("Abandon panicked with %T", r)
		}
		if rt.Why != "object 7 busy" {
			t.Fatalf("Why = %q", rt.Why)
		}
		if rt.String() == "" {
			t.Fatal("empty Retry string")
		}
	}()
	Abandon("object %d busy", 7)
}

func TestRunAttributesAbortCauses(t *testing.T) {
	// Abandon's cause reaches the aborted transaction via SetAbortCause.
	t1 := &fakeTxn{}
	t2 := &fakeTxn{}
	e := &fakeEngine{txns: []*fakeTxn{t1, t2}}
	calls := 0
	err := Run(e, func(Txn) error {
		calls++
		if calls == 1 {
			AbandonCause(CauseCMKill, "scripted kill")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if t1.cause != CauseCMKill {
		t.Fatalf("abandoned attempt cause = %v, want cm-kill", t1.cause)
	}
	if calls != 2 || !t1.aborted || !t2.committed {
		t.Fatalf("calls=%d, first aborted=%v, second committed=%v; want one retry", calls, t1.aborted, t2.committed)
	}

	// A doomed body error is attributed to CauseDoomed.
	d1 := &fakeTxn{validateErr: ErrConflict}
	d2 := &fakeTxn{}
	e2 := &fakeEngine{txns: []*fakeTxn{d1, d2}}
	calls = 0
	err = Run(e2, func(Txn) error {
		calls++
		if calls == 1 {
			return errors.New("zombie")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d1.cause != CauseDoomed {
		t.Fatalf("doomed attempt cause = %v, want doomed", d1.cause)
	}
}

func TestBackoffEscalates(t *testing.T) {
	var b Backoff
	start := time.Now()
	for i := 0; i < backoffSpinAttempts; i++ {
		b.Wait() // spin phase: must be fast
	}
	if spin := time.Since(start); spin > 50*time.Millisecond {
		t.Fatalf("spin phase took %v", spin)
	}
	// Sleep phase: bounded by base << maxShift per wait.
	start = time.Now()
	for i := 0; i < 5; i++ {
		b.Wait()
	}
	max := time.Duration(5) * backoffBaseSleep * (1 << backoffMaxShift) * 2
	if d := time.Since(start); d > max {
		t.Fatalf("sleep phase took %v, cap %v", d, max)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Starts: 10, Commits: 8, Aborts: 2, OpenForRead: 100, FilterHits: 5}
	b := Stats{Starts: 4, Commits: 3, Aborts: 1, OpenForRead: 40, FilterHits: 2}
	d := a.Sub(b)
	if d.Starts != 6 || d.Commits != 5 || d.Aborts != 1 || d.OpenForRead != 60 || d.FilterHits != 3 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestAttemptWithCommitHook(t *testing.T) {
	tx := &fakeTxn{}
	hooked := false
	err, conflicted := AttemptWith(tx, func(Txn) error { return nil }, func(inner Txn) error {
		hooked = true
		return inner.Commit()
	})
	if err != nil || conflicted {
		t.Fatalf("err=%v conflicted=%v", err, conflicted)
	}
	if !hooked || !tx.committed {
		t.Fatalf("hooked=%v committed=%v", hooked, tx.committed)
	}
}

func TestAttemptWithHookConflict(t *testing.T) {
	tx := &fakeTxn{}
	err, conflicted := AttemptWith(tx, func(Txn) error { return nil }, func(Txn) error {
		return ErrConflict
	})
	if err != nil || !conflicted {
		t.Fatalf("hook ErrConflict: err=%v conflicted=%v", err, conflicted)
	}
}

func TestAttemptWithHookSkippedOnBodyError(t *testing.T) {
	tx := &fakeTxn{}
	boom := errors.New("boom")
	hooked := false
	err, conflicted := AttemptWith(tx, func(Txn) error { return boom }, func(Txn) error {
		hooked = true
		return nil
	})
	if err != boom || conflicted || hooked {
		t.Fatalf("err=%v conflicted=%v hooked=%v", err, conflicted, hooked)
	}
	if !tx.aborted {
		t.Fatal("failed body was not rolled back")
	}
}

func TestAttemptWithHookSkippedOnRetry(t *testing.T) {
	tx := &fakeTxn{}
	hooked := false
	err, conflicted := AttemptWith(tx, func(Txn) error {
		Abandon("scripted conflict")
		return nil
	}, func(Txn) error {
		hooked = true
		return nil
	})
	if err != nil || !conflicted || hooked {
		t.Fatalf("err=%v conflicted=%v hooked=%v", err, conflicted, hooked)
	}
}
