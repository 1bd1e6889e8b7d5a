package core

import (
	"testing"

	"memtx/internal/engine"
)

// BenchmarkDisjoint measures how transactions that share no written object
// scale with the number of CPUs (run it with -cpu 1,2). In "update" each
// goroutine increments its own one-field object; in "read" every goroutine
// reads the same object in a read-only transaction. Any word the engine
// writes on behalf of every transaction shows up as ns/op that does not fall
// when a CPU is added.
func BenchmarkDisjoint(b *testing.B) {
	b.Run("update", func(b *testing.B) {
		e := New()
		b.RunParallel(func(pb *testing.PB) {
			h := e.NewObj(1, 0)
			body := func(tx engine.Txn) error {
				tx.OpenForUpdate(h)
				tx.LogForUndoWord(h, 0)
				tx.StoreWord(h, 0, tx.LoadWord(h, 0)+1)
				return nil
			}
			for pb.Next() {
				if err := engine.Run(e, body); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("read", func(b *testing.B) {
		e := New()
		h := e.NewObj(1, 0)
		b.RunParallel(func(pb *testing.PB) {
			body := func(tx engine.Txn) error {
				tx.OpenForRead(h)
				_ = tx.LoadWord(h, 0)
				return nil
			}
			for pb.Next() {
				if err := engine.RunReadOnly(e, body); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
