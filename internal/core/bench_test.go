package core

import (
	"math/rand/v2"
	"sync/atomic"
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

// BenchmarkReadChain measures a read open's memory traffic: each op is one
// read-only transaction that follows 32 links of a random cycle through
// readChainLen objects of 1 word and 2 refs, whose working set (8 MiB of
// 64-byte objects) exceeds a core's L2. Every step opens an object, loads its
// word and loads a ref, so ns/op tracks the cache lines a visit touches. Run
// it with -cpu 1,2; goroutines start at different points of the cycle.
func BenchmarkReadChain(b *testing.B) {
	const readChainLen, steps = 1 << 17, 32
	e := New()
	objs := make([]engine.Handle, readChainLen)
	for i := range objs {
		objs[i] = e.NewObj(1, 2)
	}
	perm := rand.New(rand.NewPCG(1, 2)).Perm(readChainLen)
	if err := engine.Run(e, func(tx engine.Txn) error {
		for i, p := range perm {
			next := objs[perm[(i+1)%len(perm)]]
			tx.OpenForUpdate(objs[p])
			tx.LogForUndoRef(objs[p], 0)
			tx.StoreRef(objs[p], 0, next)
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	var start atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := objs[perm[start.Add(readChainLen/8)%readChainLen]]
		var sum uint64
		body := func(tx engine.Txn) error {
			for range steps {
				tx.OpenForRead(h)
				sum += tx.LoadWord(h, 0)
				h = tx.LoadRef(h, 0)
			}
			return nil
		}
		for pb.Next() {
			if err := engine.RunReadOnly(e, body); err != nil {
				b.Error(err)
				return
			}
		}
		_ = sum
	})
}
