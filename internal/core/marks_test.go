package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"memtx/internal/engine"
)

// TestUndoMarksDeduplicateExactly: a large object's undo log keeps one entry
// per field and owner whatever the filter's size, and a hit counts as a
// filter hit. The marks sit in the words array's spare capacity, one stamp
// word and then two bits per index.
func TestUndoMarksDeduplicateExactly(t *testing.T) {
	for _, shape := range [][2]int{{3, 0}, {0, 3}, {40, 1}, {1, 40}} {
		nw, nr := shape[0], shape[1]
		l := New().NewObj(nw, nr).(*Obj).large()
		if got, want := len(l.marks()), 1+(2*max(nw, nr)+63)/64; got != want {
			t.Errorf("(%d, %d): %d mark words, want %d", nw, nr, got, want)
		}
	}
	for _, size := range []int{0, 16, 4096} {
		e := New(WithFilterSize(size))
		h := e.NewObj(3, 3)
		before := e.Stats()
		tx := e.Begin()
		tx.OpenForUpdate(h)
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < 3; i++ {
				tx.LogForUndoWord(h, i)
				tx.LogForUndoRef(h, i)
			}
		}
		tx.Abort()
		d := e.Stats().Sub(before)
		if d.UndoLogged != 6 || d.FilterHits != 12 {
			t.Errorf("filter %d: UndoLogged %d, FilterHits %d; want 6 and 12", size, d.UndoLogged, d.FilterHits)
		}
	}
}

// TestUndoMarksAcrossOwners: two goroutines take one large object in turn,
// each writing every field twice and then committing or aborting. A commit
// leaves every word one value and every ref the target that value names; an
// abort's last write does not, so an owner that finds the fields otherwise
// has met an abort that was not undone. The marks are plain data passed from
// owner to owner; under -race this also checks that the STM word's release
// and CAS order each hand-off.
func TestUndoMarksAcrossOwners(t *testing.T) {
	const nw, nr = 5, 3
	iters := 1000
	if testing.Short() {
		iters = 200
	}
	e := New()
	h := e.NewObj(nw, nr)
	var targets [nw + nr]engine.Handle
	for k := range targets {
		targets[k] = e.NewObj(1, 0)
	}
	// write stores v+step*i in word i and the target it names in ref i.
	write := func(tx engine.Txn, v, step uint64) {
		for i := 0; i < max(nw, nr); i++ {
			x := v + step*uint64(i)
			if i < nw {
				tx.LogForUndoWord(h, i)
				tx.StoreWord(h, i, x)
			}
			if i < nr {
				tx.LogForUndoRef(h, i)
				tx.StoreRef(h, i, targets[x%uint64(len(targets))])
			}
		}
	}
	if err := engine.Run(e, func(tx engine.Txn) error {
		tx.OpenForUpdate(h)
		write(tx, 0, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	errAbort := errors.New("abort")
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				next, abort := uint64(1+g*iters+k), k%3 == 0
				err := engine.Run(e, func(tx engine.Txn) error {
					tx.OpenForUpdate(h)
					v := tx.LoadWord(h, 0)
					for i := 0; i < nw; i++ {
						if got := tx.LoadWord(h, i); got != v {
							t.Errorf("owner found word %d = %d, word 0 = %d", i, got, v)
						}
					}
					for i := 0; i < nr; i++ {
						if tx.LoadRef(h, i) != targets[v%uint64(len(targets))] {
							t.Errorf("owner found ref %d not naming word 0's target", i)
						}
					}
					write(tx, next, 0)
					runtime.Gosched() // let the other goroutine wait on h
					if abort {
						write(tx, next, 1)
						return errAbort
					}
					write(tx, next+1, 0)
					return nil
				})
				if err != nil && (err != errAbort || !abort) {
					t.Errorf("goroutine %d: %v", g, err)
				}
				if t.Failed() {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := e.Stats()
	t.Logf("%d commits, %d aborts, %d contention waits", s.Commits, s.Aborts, s.CMWaits)
}
