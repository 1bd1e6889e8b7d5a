package kv

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"memtx"
	"memtx/internal/chaos"
	"memtx/internal/engine"
	"memtx/internal/kv/histcheck"
)

var allDesigns = []memtx.Design{memtx.DirectUpdate, memtx.BufferedWord, memtx.BufferedObject}

// bucketKeys returns n keys that all land in one bucket of a one-shard store.
func bucketKeys(t *testing.T, s *Store, n int) [][]byte {
	t.Helper()
	bucket := func(k []byte) uint64 { return (hashKey(k) >> 16) & uint64(s.buckets-1) }
	keys := [][]byte{[]byte("bk-0")}
	for i := 1; len(keys) < n && i < 1_000_000; i++ {
		if k := []byte(fmt.Sprintf("bk-%d", i)); bucket(k) == bucket(keys[0]) {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("found only %d keys sharing a bucket, want %d", len(keys), n)
	}
	return keys
}

// TestGetCostIndependentOfBucketLoad pins what the slot vector and the
// immutable entries buy: a GET opens the directory, the bucket header and the
// vector whatever the bucket's load, because hashes are compared inside the
// vector and the key's entry is read without an open; and an INCR of an
// existing key walks once, its write reusing the slot its read found.
func TestGetCostIndependentOfBucketLoad(t *testing.T) {
	for _, d := range allDesigns {
		t.Run(d.String(), func(t *testing.T) {
			s := New(Config{Shards: 1, Buckets: 16, Design: d})
			keys := bucketKeys(t, s, 40)
			opens := func(op func()) uint64 {
				before := s.ShardStats(0).OpenForRead
				op()
				return s.ShardStats(0).OpenForRead - before
			}
			const want = 3
			filled := 0
			for _, load := range []int{1, 8, 40} {
				for ; filled < load; filled++ {
					s.Set(keys[filled], FormatInt(int64(filled)))
				}
				for _, k := range keys[:load] {
					if got := opens(func() { s.Get(k) }); got != want {
						t.Errorf("bucket load %d: GET %s opened %d objects, want %d", load, k, got, want)
					}
				}
			}
			incr := opens(func() {
				if err := s.AtomicKey(keys[0], func(tx *Tx) error {
					_, err := tx.Add(keys[0], 1)
					return err
				}); err != nil {
					t.Fatal(err)
				}
			})
			if incr != want {
				t.Errorf("INCR of an existing key opened %d objects for read, want %d as a GET does", incr, want)
			}
		})
	}
}

// TestWriteAfterConcurrentDeleteMovedItsSlot pins the interleaving that
// stales any slot a transaction found earlier: transaction A reads the key in
// the last slot of a full vector, a delete of another key in that bucket
// commits and moves A's key into the hole, and then A writes its key. On
// engines whose reads see the live vector the last slot is now empty; A must
// abort and retry, not take the empty slot for an absent key and grow the
// vector.
func TestWriteAfterConcurrentDeleteMovedItsSlot(t *testing.T) {
	for _, d := range allDesigns {
		t.Run(d.String(), func(t *testing.T) {
			s := New(Config{Shards: 1, Buckets: 16, Design: d})
			keys := bucketKeys(t, s, 8) // capacity 8, full
			for _, k := range keys {
				s.Set(k, []byte("v"))
			}
			mine, other := keys[7], keys[0]
			attempts := 0
			err := s.AtomicKey(mine, func(tx *Tx) error {
				attempts++
				if _, ok := tx.Get(mine); !ok {
					return fmt.Errorf("attempt %d: %s missing before the write", attempts, mine)
				}
				if attempts == 1 {
					done := make(chan bool)
					go func() { done <- s.Delete(other) }()
					if !<-done {
						return fmt.Errorf("concurrent delete of %s found nothing", other)
					}
				}
				tx.Set(mine, []byte("A"))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if attempts < 2 {
				t.Errorf("A committed on attempt %d over a delete that moved its slot; want a retry", attempts)
			}
			if got, ok := s.Get(mine); !ok || string(got) != "A" {
				t.Errorf("%s = %q,%v after A, want \"A\"", mine, got, ok)
			}
			if _, ok := s.Get(other); ok {
				t.Errorf("%s survived its delete", other)
			}
			if n := s.Len(); n != len(keys)-1 {
				t.Errorf("Len = %d, want %d", n, len(keys)-1)
			}
			checkQuiescent(t, s)
		})
	}
}

// TestOneBucketUnderConcurrentWriters drives one slot vector through every
// write shape while readers watch it. Sixteen keys share a bucket, four per
// writer, so each writer's model of its own keys is exact. Each round has an
// insert phase (every writer inserts its keys: the first round grows the
// vector 2 → 4 → 8 → 16, later ones fill it in place) and a churn phase
// (overwrites, deletes that move another writer's slot into the hole, and
// get-then-set transactions), ending in
// deletes of every key except in the last round. Two readers GET and MGET
// throughout, injected aborts make attempts retry, and the history must
// linearize and the final store match the writers' models.
//
// The store order those readers rely on is checked first, deterministically:
// on the direct-update engine a doomed reader that straddles a rollback can
// see a slot below the count it loaded already emptied, so no storm can tell
// a wrong order from a legal zombie view.
func TestOneBucketUnderConcurrentWriters(t *testing.T) {
	t.Run("store-order", testSlotStoreOrder)
	for _, d := range allDesigns {
		t.Run(d.String(), func(t *testing.T) { oneBucketStorm(t, d) })
	}
}

// orderTxn records the stores a kv operation issues, in order.
type orderTxn struct {
	engine.Txn
	stores []storeOp
}

type storeOp struct {
	h     engine.Handle
	field string // "w<i>", "r<i>", or "r<i>=nil" for a ref cleared
}

func (o *orderTxn) StoreWord(h engine.Handle, i int, v uint64) {
	o.stores = append(o.stores, storeOp{h: h, field: fmt.Sprintf("w%d", i)})
	o.Txn.StoreWord(h, i, v)
}

func (o *orderTxn) StoreRef(h engine.Handle, i int, r engine.Handle) {
	f := fmt.Sprintf("r%d", i)
	if r == nil {
		f += "=nil"
	}
	o.stores = append(o.stores, storeOp{h: h, field: f})
	o.Txn.StoreRef(h, i, r)
}

// on lists, in order, the fields stored into h.
func (o *orderTxn) on(h engine.Handle) []string {
	var fs []string
	for _, st := range o.stores {
		if st.h == h {
			fs = append(fs, st.field)
		}
	}
	return fs
}

// testSlotStoreOrder pins the orders the zombie rules depend on: an
// in-place insert fills its slot before it stores the count, a delete clears
// the vacated slot before it stores the count, and a grown vector is
// complete before the header points at it.
func testSlotStoreOrder(t *testing.T) {
	s := New(Config{Shards: 1, Buckets: 16})
	keys := bucketKeys(t, s, 5)
	for _, k := range keys[:3] { // capacity 4 after the third insert
		s.Set(k, []byte("v"))
	}
	sh := &s.shards[0]
	run := func(op func(tx *Tx)) (*orderTxn, slot) {
		raw := &orderTxn{Txn: sh.eng.Begin()}
		tx := &Tx{s: s, sid: 0, raw: raw}
		before := tx.lookup(hashKey(keys[0]), keys[0])
		op(tx)
		if err := raw.Commit(); err != nil {
			t.Fatal(err)
		}
		return raw, before
	}
	check := func(what string, got []string, want ...string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s stored %v into the vector, want %v", what, got, want)
		}
	}

	raw, at := run(func(tx *Tx) { tx.Set(keys[3], []byte("v")) })
	check("an in-place insert into slot 3", raw.on(at.vec), "w5", "r3", "w0")

	raw, at = run(func(tx *Tx) { tx.Delete(keys[1]) })
	check("deleting slot 1 of 4", raw.on(at.vec), "w3", "r1", "r3=nil", "w0")

	raw, at = run(func(tx *Tx) {
		tx.Set(keys[1], []byte("v")) // refills the vector
		tx.Set(keys[4], []byte("v")) // grows it
	})
	if last := raw.stores[len(raw.stores)-1]; last.h != at.hdr || last.field != "r0" {
		t.Errorf("growing ended with a store of %s, want the header's ref last", last.field)
	}
}

func oneBucketStorm(t *testing.T, d memtx.Design) {
	const writers, perWriter, readers, churn = 4, 4, 2, 12
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	s := New(Config{Shards: 1, Buckets: 16, Design: d})
	keys := bucketKeys(t, s, writers*perWriter)
	own := func(w int) [][]byte { return keys[w*perWriter : (w+1)*perWriter] }

	// Aborts only: a losing attempt retries inside its runner, so no
	// injected panic reaches the workers.
	cfg := chaos.Config{Seed: 29}
	for _, p := range []chaos.Point{chaos.OpenForRead, chaos.OpenForUpdate, chaos.CommitValidate} {
		cfg.Points[p] = chaos.PointConfig{AbortPPM: 20_000}
	}
	chaos.Enable(chaos.New(cfg))
	defer chaos.Disable()

	rec := histcheck.NewRecorder(writers + readers)
	models := make([]map[string]string, writers)
	for w := range models {
		models[w] = map[string]string{}
	}
	stop := make(chan struct{})
	var watchers sync.WaitGroup

	for r := 0; r < readers; r++ {
		watchers.Add(1)
		go func(wk *histcheck.Worker, x uint64) {
			defer watchers.Done()
			next := func(n int) int {
				x = x*6364136223846793005 + 1442695040888963407
				return int((x >> 33) % uint64(n))
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, b := keys[next(len(keys))], keys[next(len(keys))]
				if next(2) == 0 {
					c := wk.Begin()
					var out []byte
					var ok bool
					if err := s.ViewKey(a, func(tx *Tx) error { out, ok = tx.Get(a); return nil }); err != nil {
						t.Errorf("get: %v", err)
						return
					}
					wk.End(histcheck.Op{Kind: histcheck.Get, Key: string(a), Out: string(out), OK: ok, Call: c})
					continue
				}
				c := wk.Begin()
				var outA, outB []byte
				var okA, okB bool
				if err := s.ViewKeys([][]byte{a, b}, func(tx *Tx) error {
					outA, okA = tx.Get(a)
					outB, okB = tx.Get(b)
					return nil
				}); err != nil {
					t.Errorf("mget: %v", err)
					return
				}
				wk.End(histcheck.Op{Kind: histcheck.Get, Key: string(a), Out: string(outA), OK: okA, Call: c})
				wk.End(histcheck.Op{Kind: histcheck.Get, Key: string(b), Out: string(outB), OK: okB, Call: c})
			}
		}(rec.Worker(writers+r), uint64(r)*2654435761+7)
	}
	// writer runs one phase of writer w against its own keys.
	writer := func(w, round int, insert bool, x *uint64) {
		wk, model := rec.Worker(w), models[w]
		next := func(n int) int {
			*x = *x*6364136223846793005 + 1442695040888963407
			return int((*x >> 33) % uint64(n))
		}
		seq := 0
		set := func(k []byte) {
			val := fmt.Sprintf("w%d-r%d-%d", w, round, seq)
			seq++
			c := wk.Begin()
			if err := s.AtomicKey(k, func(tx *Tx) error { tx.Set(k, []byte(val)); return nil }); err != nil {
				t.Errorf("set: %v", err)
			}
			wk.End(histcheck.Op{Kind: histcheck.Set, Key: string(k), Arg: val, Call: c})
			model[string(k)] = val
		}
		del := func(k []byte) {
			c := wk.Begin()
			var removed bool
			if err := s.AtomicKey(k, func(tx *Tx) error { removed = tx.Delete(k); return nil }); err != nil {
				t.Errorf("del: %v", err)
			}
			wk.End(histcheck.Op{Kind: histcheck.Del, Key: string(k), OK: removed, Call: c})
			delete(model, string(k))
		}
		if insert {
			for _, k := range own(w) {
				set(k)
			}
			return
		}
		for i := 0; i < churn; i++ {
			k := own(w)[next(perWriter)]
			switch next(3) {
			case 0:
				set(k)
			case 1:
				del(k)
			default: // get-then-set in one transaction
				val := fmt.Sprintf("w%d-r%d-%d", w, round, seq)
				seq++
				c := wk.Begin()
				var old []byte
				var had bool
				if err := s.AtomicKey(k, func(tx *Tx) error {
					old, had = tx.Get(k)
					tx.Set(k, []byte(val))
					return nil
				}); err != nil {
					t.Errorf("get-then-set: %v", err)
				}
				if had {
					wk.End(histcheck.Op{Kind: histcheck.CAS, Key: string(k), Arg: string(old), Arg2: val, OK: true, Call: c})
				} else {
					wk.End(histcheck.Op{Kind: histcheck.Set, Key: string(k), Arg: val, Call: c})
				}
				model[string(k)] = val
			}
		}
		if round < rounds-1 {
			for _, k := range own(w) {
				if _, ok := model[string(k)]; ok {
					del(k)
				}
			}
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		seeds := make([]uint64, writers)
		for w := range seeds {
			seeds[w] = uint64(w)*0x9e3779b97f4a7c15 + 1
		}
		for round := 0; round < rounds; round++ {
			for _, insert := range []bool{true, false} {
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						writer(w, round, insert, &seeds[w])
					}(w)
				}
				wg.Wait()
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("one-bucket workload did not finish within 60s: an update is wedged")
	}
	close(stop)
	watchers.Wait()
	chaos.Disable()

	h := rec.History()
	if err := histcheck.Check(h); err != nil {
		t.Fatalf("history of %d ops not linearizable: %v", len(h), err)
	}
	want := 0
	for w, model := range models {
		for _, k := range own(w) {
			got, ok := s.Get(k)
			exp, expOK := model[string(k)]
			if ok != expOK || string(got) != exp {
				t.Errorf("final %s = %q,%v; the writer's model says %q,%v", k, got, ok, exp, expOK)
			}
		}
		want += len(model)
	}
	if n := s.Len(); n != want {
		t.Errorf("Len = %d, want %d", n, want)
	}
	var capacity uint64
	if err := s.View(func(tx *Tx) error {
		tx.eachVec(0, func(raw engine.Txn, vec engine.Handle, _ int) { capacity = raw.LoadWord(vec, vecCap) })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if capacity != writers*perWriter {
		t.Errorf("vector capacity %d after %d keys shared its bucket, want %d", capacity, writers*perWriter, writers*perWriter)
	}
	checkQuiescent(t, s)
}
