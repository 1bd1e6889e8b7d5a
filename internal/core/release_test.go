//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"weak"
)

// TestReleasedEntryDropsObject pins the update log's lifetime rule from the
// object's side: a pooled transaction keeps its update log's backing array
// for the next attempt, so a released entry must not keep its object alive.
// Two objects are updated in one transaction (so their entries share the
// array), the transaction releases them by each of the three release paths,
// and the one the test drops must be collected while the other stays
// reachable.
func TestReleasedEntryDropsObject(t *testing.T) {
	for name, finish := range map[string]func(tx *Txn, keep, drop *Obj) error{
		"commit": func(tx *Txn, keep, drop *Obj) error {
			update(tx, keep)
			update(tx, drop)
			return tx.Commit()
		},
		"abort": func(tx *Txn, keep, drop *Obj) error {
			update(tx, keep)
			update(tx, drop)
			tx.Abort()
			return nil
		},
		"rollback-to": func(tx *Txn, keep, drop *Obj) error {
			update(tx, keep)
			sp := tx.Save()
			update(tx, drop)
			tx.RollbackTo(sp)
			return tx.Commit()
		},
	} {
		t.Run(name, func(t *testing.T) {
			e := New()
			keep := e.NewObj(1, 0).(*Obj)
			w, err := updateAndDrop(e, keep, finish)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10 && w.Value() != nil; i++ {
				runtime.GC() // the second cycle also empties the Txn pool
			}
			if w.Value() != nil {
				t.Fatal("an object dropped after its update was released is still reachable")
			}
			runtime.KeepAlive(keep)
		})
	}
}

func update(tx *Txn, o *Obj) {
	tx.OpenForUpdate(o)
	tx.LogForUndoWord(o, 0)
	tx.StoreWord(o, 0, 1)
}

// updateAndDrop runs finish over keep and a fresh object and returns only a
// weak pointer to the latter, so nothing on the test's stack holds it.
func updateAndDrop(e *Engine, keep *Obj, finish func(tx *Txn, keep, drop *Obj) error) (weak.Pointer[Obj], error) {
	drop := e.NewObj(1, 0).(*Obj)
	err := finish(e.begin(false), keep, drop)
	return weak.Make(drop), err
}
