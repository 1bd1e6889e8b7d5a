package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"memtx/internal/chaos"
	"memtx/internal/engine"
)

// chaosTransferConfig injects every legal fault kind into the STM points at
// rates high enough that a few thousand transfers hit all of them.
func chaosTransferConfig(seed uint64) chaos.Config {
	cfg := chaos.Config{Seed: seed}
	for _, p := range []chaos.Point{chaos.OpenForRead, chaos.OpenForUpdate, chaos.CommitValidate, chaos.CMWait} {
		cfg.Points[p] = chaos.PointConfig{
			AbortPPM: 30_000,
			DelayPPM: 10_000,
			PanicPPM: 5_000,
			MaxDelay: 50 * time.Microsecond,
		}
	}
	cfg.Points[chaos.WriteBack] = chaos.PointConfig{DelayPPM: 20_000, MaxDelay: 50 * time.Microsecond}
	return cfg
}

// TestChaosTransferInvariants hammers a bank-transfer workload while the
// chaos layer injects aborts, delays, and panics into every STM hot path,
// then proves the two invariants a broken rollback would violate: the money
// is conserved, and no object is left owned (a leaked owned bit would wedge
// every later writer).
func TestChaosTransferInvariants(t *testing.T) {
	e := New()
	const (
		accounts = 64
		initBal  = 1000
	)
	objs := make([]*Obj, accounts)
	for i := range objs {
		h := e.NewObj(1, 0)
		objs[i] = h.(*Obj)
		if err := engine.Run(e, func(tx engine.Txn) error {
			tx.OpenForUpdate(h)
			tx.LogForUndoWord(h, 0)
			tx.StoreWord(h, 0, initBal)
			return nil
		}); err != nil {
			t.Fatalf("seed account %d: %v", i, err)
		}
	}

	in := chaos.New(chaosTransferConfig(42))
	chaos.Enable(in)
	defer chaos.Disable()

	iters := 2000
	if testing.Short() {
		iters = 500
	}
	workers := 8
	var wg sync.WaitGroup
	panicCounts := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < iters; i++ {
				a, b := rng.Intn(accounts), rng.Intn(accounts)
				if a == b {
					continue
				}
				// Open in index order so two transfers cannot wait on each
				// other forever; the CM would resolve it anyway, but the
				// test should measure chaos faults, not deadlock churn.
				if a > b {
					a, b = b, a
				}
				ha, hb := engine.Handle(objs[a]), engine.Handle(objs[b])
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, injected := r.(*chaos.InjectedPanic); !injected {
								panic(r)
							}
							panicCounts[w]++
						}
					}()
					_ = engine.Run(e, func(tx engine.Txn) error {
						tx.OpenForUpdate(ha)
						tx.OpenForUpdate(hb)
						tx.LogForUndoWord(ha, 0)
						tx.LogForUndoWord(hb, 0)
						va := tx.LoadWord(ha, 0)
						vb := tx.LoadWord(hb, 0)
						amt := uint64(rng.Intn(10))
						if va < amt {
							return nil
						}
						tx.StoreWord(ha, 0, va-amt)
						tx.StoreWord(hb, 0, vb+amt)
						return nil
					})
				}()
			}
		}(w)
	}
	wg.Wait()
	chaos.Disable()

	if in.InjectedTotal() == 0 {
		t.Fatal("chaos injected nothing; the run proved nothing")
	}
	panics := 0
	for _, n := range panicCounts {
		panics += n
	}
	t.Logf("injected faults: %d (recovered panics: %d)", in.InjectedTotal(), panics)

	// Invariant 1: no object is left owned. Every transaction has finished,
	// so every STM word must be a plain version again and no owner tag may
	// survive its release.
	for i, o := range objs {
		if w, owner := o.meta.Load(), o.owner.Load(); w&ownedBit != 0 || owner != 0 {
			t.Fatalf("account %d left owned after all workers finished (word %#x, owner txn %d)", i, w, owner)
		}
	}

	// Invariant 2: conservation. Sum the balances in one transaction.
	var sum uint64
	if err := engine.RunReadOnly(e, func(tx engine.Txn) error {
		sum = 0
		for _, o := range objs {
			tx.OpenForRead(o)
			sum += tx.LoadWord(o, 0)
		}
		return nil
	}); err != nil {
		t.Fatalf("summing balances: %v", err)
	}
	if want := uint64(accounts * initBal); sum != want {
		t.Fatalf("balance sum %d, want %d: a fault tore a transfer", sum, want)
	}

	// Accounting: the engine must agree with itself once quiescent. Aborts
	// is the sum of the abort causes, so every injected abort must have
	// recorded exactly one.
	s := e.Stats()
	if s.Starts != s.Commits+s.Aborts {
		t.Fatalf("starts %d != commits %d + aborts %d (causes %v)", s.Starts, s.Commits, s.Aborts, s.AbortsByCause)
	}

	// The retry driver saw every attempt that ran to an outcome: an injected
	// panic unwinds through it before its attempt is observed.
	if s.Outcomes+uint64(panics) != s.Starts {
		t.Fatalf("outcomes %d + recovered panics %d != starts %d", s.Outcomes, panics, s.Starts)
	}
}

// waitForever is a contention manager that never gives up, so a transaction
// blocked on an owner stays at the wait point until its deadline fires.
type waitForever struct{}

func (waitForever) Name() string { return "wait-forever" }

func (waitForever) Wait(int) bool {
	runtime.Gosched()
	return true
}

func TestDeadlineAbortsAtCMWait(t *testing.T) {
	e := New(WithContentionManager(waitForever{}))
	h := e.NewObj(1, 0)

	holder := e.Begin()
	holder.OpenForUpdate(h)
	defer holder.Abort()

	start := time.Now()
	err := engine.RunCtx(context.Background(), e, engine.RunOptions{MaxElapsed: 30 * time.Millisecond},
		func(tx engine.Txn) error {
			tx.OpenForUpdate(h)
			return nil
		})
	elapsed := time.Since(start)
	var te *engine.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if te.Op != "max-elapsed" || !errors.Is(err, engine.ErrRetryBudget) {
		t.Fatalf("op=%q unwrap=%v, want max-elapsed/ErrRetryBudget", te.Op, errors.Unwrap(te))
	}
	if elapsed > 5*time.Second {
		t.Fatalf("gave up after %v: the CM wait ignored the deadline", elapsed)
	}
	if got := e.Stats().AbortsByCause[engine.CauseDeadline]; got == 0 {
		t.Fatal("no CauseDeadline abort recorded for the expired wait")
	}
}

func TestCancelAbortsAtCMWait(t *testing.T) {
	e := New(WithContentionManager(waitForever{}))
	h := e.NewObj(1, 0)

	holder := e.Begin()
	holder.OpenForUpdate(h)
	defer holder.Abort()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := engine.RunCtx(ctx, e, engine.RunOptions{}, func(tx engine.Txn) error {
		tx.OpenForUpdate(h)
		return nil
	})
	var te *engine.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if te.Op != "canceled" || !errors.Is(err, context.Canceled) {
		t.Fatalf("op=%q unwrap=%v, want canceled/context.Canceled", te.Op, errors.Unwrap(te))
	}
	if got := e.Stats().AbortsByCause[engine.CauseDeadline]; got == 0 {
		t.Fatal("no CauseDeadline abort recorded for the canceled wait")
	}
}
