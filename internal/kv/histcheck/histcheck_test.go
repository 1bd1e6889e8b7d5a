package histcheck_test

import (
	"fmt"
	"sync"
	"testing"

	"memtx"
	"memtx/internal/kv"
	"memtx/internal/kv/histcheck"
)

// mk builds an op with explicit stamps for the hand-crafted histories.
func mk(kind histcheck.Kind, key, arg, arg2, out string, ok bool, call, ret int64) histcheck.Op {
	return histcheck.Op{Kind: kind, Key: key, Arg: arg, Arg2: arg2, Out: out, OK: ok, Call: call, Return: ret}
}

// TestCheckerAcceptsLegalHistories pins the checker's positive side: known
// linearizable histories, including genuinely concurrent ones that only
// work under one of the possible orders, must pass.
func TestCheckerAcceptsLegalHistories(t *testing.T) {
	cases := map[string][]histcheck.Op{
		"sequential": {
			mk(histcheck.Set, "x", "1", "", "", true, 1, 2),
			mk(histcheck.Get, "x", "", "", "1", true, 3, 4),
			mk(histcheck.Del, "x", "", "", "", true, 5, 6),
			mk(histcheck.Get, "x", "", "", "", false, 7, 8),
		},
		"concurrent-set-get-either-order": {
			// get overlaps the set; both missing and "1" are legal — this
			// one observed the write.
			mk(histcheck.Set, "x", "1", "", "", true, 1, 4),
			mk(histcheck.Get, "x", "", "", "1", true, 2, 3),
		},
		"concurrent-set-get-other-order": {
			mk(histcheck.Set, "x", "1", "", "", true, 1, 4),
			mk(histcheck.Get, "x", "", "", "", false, 2, 3),
		},
		"cas-success-chain": {
			mk(histcheck.Set, "x", "a", "", "", true, 1, 2),
			mk(histcheck.CAS, "x", "a", "b", "", true, 3, 6),
			mk(histcheck.CAS, "x", "a", "c", "", false, 4, 5), // loser saw "b" or ran second
			mk(histcheck.Get, "x", "", "", "b", true, 7, 8),
		},
		"independent-keys": {
			mk(histcheck.Set, "x", "1", "", "", true, 1, 6),
			mk(histcheck.Set, "y", "2", "", "", true, 2, 5),
			mk(histcheck.Get, "y", "", "", "2", true, 7, 8),
			mk(histcheck.Get, "x", "", "", "1", true, 9, 10),
		},
	}
	for name, h := range cases {
		if err := histcheck.Check(h); err != nil {
			t.Errorf("%s: legal history rejected: %v", name, err)
		}
	}
}

// TestCheckerRejectsViolations pins the negative side: histories with a
// stale read, a phantom value, a lost delete, or an impossible CAS result
// must be rejected — otherwise the harness proves nothing.
func TestCheckerRejectsViolations(t *testing.T) {
	cases := map[string][]histcheck.Op{
		"stale-read": {
			mk(histcheck.Set, "x", "1", "", "", true, 1, 2),
			mk(histcheck.Set, "x", "2", "", "", true, 3, 4),
			mk(histcheck.Get, "x", "", "", "1", true, 5, 6),
		},
		"phantom-value": {
			mk(histcheck.Set, "x", "1", "", "", true, 1, 2),
			mk(histcheck.Get, "x", "", "", "ghost", true, 3, 4),
		},
		"read-before-any-write": {
			mk(histcheck.Get, "x", "", "", "1", true, 1, 2),
			mk(histcheck.Set, "x", "1", "", "", true, 3, 4),
		},
		"lost-delete": {
			mk(histcheck.Set, "x", "1", "", "", true, 1, 2),
			mk(histcheck.Del, "x", "", "", "", true, 3, 4),
			mk(histcheck.Get, "x", "", "", "1", true, 5, 6),
		},
		"impossible-cas": {
			mk(histcheck.Set, "x", "a", "", "", true, 1, 2),
			mk(histcheck.CAS, "x", "z", "b", "", true, 3, 4), // swapped without a match
		},
		"double-cas-same-old": {
			// Both CASes claim to have swapped from "a", but nothing
			// restored "a" in between.
			mk(histcheck.Set, "x", "a", "", "", true, 1, 2),
			mk(histcheck.CAS, "x", "a", "b", "", true, 3, 6),
			mk(histcheck.CAS, "x", "a", "c", "", true, 4, 5),
		},
	}
	for name, h := range cases {
		if err := histcheck.Check(h); err == nil {
			t.Errorf("%s: non-linearizable history accepted", name)
		}
	}
}

// runWorkers drives n workers against the store and returns the checked
// history size. Each worker loops a deterministic pseudo-random mix over
// the given keys, recording every operation; written values are unique per
// (worker, iteration) so the model can tell writes apart.
func runWorkers(t *testing.T, s *kv.Store, keys [][]byte, workers, iters int, cross bool) int {
	t.Helper()
	rec := histcheck.NewRecorder(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := rec.Worker(w)
			r := uint64(w)*2654435761 + 12345
			next := func(n int) int {
				r = r*6364136223846793005 + 1442695040888963407
				return int((r >> 33) % uint64(n))
			}
			for i := 0; i < iters; i++ {
				k := keys[next(len(keys))]
				ks := string(k)
				val := fmt.Sprintf("w%d-%d", w, i)
				kindRoll := next(100)
				switch {
				case kindRoll < 35: // GET
					c := wk.Begin()
					var out string
					var ok bool
					if err := s.Run(nil, memtx.TxOptions{}, [][]byte{k}, true, nil, func(tx *kv.Tx) error {
						v, o := tx.Get(k)
						out, ok = string(v), o
						return nil
					}); err != nil {
						t.Errorf("get: %v", err)
						return
					}
					wk.End(histcheck.Op{Kind: histcheck.Get, Key: ks, Out: out, OK: ok, Call: c})
				case kindRoll < 65: // SET
					c := wk.Begin()
					if err := s.Run(nil, memtx.TxOptions{}, [][]byte{k}, false, nil, func(tx *kv.Tx) error {
						tx.Set(k, []byte(val))
						return nil
					}); err != nil {
						t.Errorf("set: %v", err)
						return
					}
					wk.End(histcheck.Op{Kind: histcheck.Set, Key: ks, Arg: val, Call: c})
				case kindRoll < 75: // DEL
					c := wk.Begin()
					var removed bool
					if err := s.Run(nil, memtx.TxOptions{}, [][]byte{k}, false, nil, func(tx *kv.Tx) error {
						removed = tx.Delete(k)
						return nil
					}); err != nil {
						t.Errorf("del: %v", err)
						return
					}
					wk.End(histcheck.Op{Kind: histcheck.Del, Key: ks, OK: removed, Call: c})
				case kindRoll < 85: // CAS from a freshly observed value
					old, have := s.Get(k)
					if !have {
						continue
					}
					c := wk.Begin()
					var swapped bool
					if err := s.Run(nil, memtx.TxOptions{}, [][]byte{k}, false, nil, func(tx *kv.Tx) error {
						swapped = tx.CompareAndSet(k, old, []byte(val))
						return nil
					}); err != nil {
						t.Errorf("cas: %v", err)
						return
					}
					wk.End(histcheck.Op{Kind: histcheck.CAS, Key: ks, Arg: string(old), Arg2: val, OK: swapped, Call: c})
				case kindRoll < 93 && cross: // MSET across two keys
					k2 := keys[next(len(keys))]
					if string(k2) == ks {
						continue
					}
					pair := [][]byte{k, k2}
					c := wk.Begin()
					if err := s.Run(nil, memtx.TxOptions{}, pair, false, nil, func(tx *kv.Tx) error {
						tx.Set(k, []byte(val))
						tx.Set(k2, []byte(val))
						return nil
					}); err != nil {
						t.Errorf("mset: %v", err)
						return
					}
					// Project the atomic multi-key write into one recorded
					// op per key; both share the parent's call stamp.
					wk.End(histcheck.Op{Kind: histcheck.Set, Key: ks, Arg: val, Call: c})
					wk.End(histcheck.Op{Kind: histcheck.Set, Key: string(k2), Arg: val, Call: c})
				case cross: // MGET across two keys
					k2 := keys[next(len(keys))]
					if string(k2) == ks {
						continue
					}
					pair := [][]byte{k, k2}
					c := wk.Begin()
					var out1, out2 string
					var ok1, ok2 bool
					if err := s.Run(nil, memtx.TxOptions{}, pair, true, nil, func(tx *kv.Tx) error {
						v1, o1 := tx.Get(k)
						v2, o2 := tx.Get(k2)
						out1, ok1 = string(v1), o1
						out2, ok2 = string(v2), o2
						return nil
					}); err != nil {
						t.Errorf("mget: %v", err)
						return
					}
					wk.End(histcheck.Op{Kind: histcheck.Get, Key: ks, Out: out1, OK: ok1, Call: c})
					wk.End(histcheck.Op{Kind: histcheck.Get, Key: string(k2), Out: out2, OK: ok2, Call: c})
				default: // cross mix disabled: fall back to a plain set
					c := wk.Begin()
					if err := s.Run(nil, memtx.TxOptions{}, [][]byte{k}, false, nil, func(tx *kv.Tx) error {
						tx.Set(k, []byte(val))
						return nil
					}); err != nil {
						t.Errorf("set: %v", err)
						return
					}
					wk.End(histcheck.Op{Kind: histcheck.Set, Key: ks, Arg: val, Call: c})
				}
			}
		}(w)
	}
	wg.Wait()

	h := rec.History()
	if err := histcheck.Check(h); err != nil {
		t.Fatalf("history of %d ops not linearizable: %v", len(h), err)
	}
	return len(h)
}

// designs runs a subtest per STM design: the harness must hold against all
// three engines.
func designs(t *testing.T, f func(t *testing.T, s *kv.Store)) {
	for _, d := range []memtx.Design{memtx.DirectUpdate, memtx.BufferedWord, memtx.BufferedObject} {
		t.Run(d.String(), func(t *testing.T) {
			f(t, kv.New(kv.Config{Shards: 4, Buckets: 8, Design: d}))
		})
	}
}

// TestSingleShardLinearizable checks the per-shard commit path: workers
// hammer single-key commands on a small contended key space and the
// resulting history must linearize.
func TestSingleShardLinearizable(t *testing.T) {
	designs(t, func(t *testing.T, s *kv.Store) {
		keys := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma"), []byte("delta")}
		iters := 200
		if testing.Short() {
			iters = 50
		}
		n := runWorkers(t, s, keys, 4, iters, false)
		t.Logf("checked %d single-key ops", n)
	})
}

// TestCrossShardLinearizable adds shard-spanning MSET/MGET to the mix: the
// projections of every atomic multi-key operation must linearize per key
// alongside the single-key traffic — a torn cross-shard publish or a
// non-atomic snapshot shows up as a stale or phantom read.
func TestCrossShardLinearizable(t *testing.T) {
	designs(t, func(t *testing.T, s *kv.Store) {
		// One key per shard so every MSET/MGET pair spans two managers.
		keys := make([][]byte, s.Shards())
		for i := range keys {
			keys[i] = keyOnShard(t, s, i)
		}
		iters := 200
		if testing.Short() {
			iters = 50
		}
		n := runWorkers(t, s, keys, 4, iters, true)
		t.Logf("checked %d ops incl. cross-shard projections", n)
	})
}

// keyOnShard fabricates a key hashing to the given shard.
func keyOnShard(t *testing.T, s *kv.Store, shard int) []byte {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		k := []byte(fmt.Sprintf("hk-%d-%d", shard, i))
		if s.KeyShard(k) == shard {
			return k
		}
	}
	t.Fatalf("no key found for shard %d", shard)
	return nil
}
