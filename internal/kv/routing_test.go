package kv

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"memtx"
	"memtx/internal/enginetest"
)

// keyOn fabricates the n-th distinct key that hashes to the given shard.
func keyOn(t *testing.T, s *Store, shard, n int) []byte {
	t.Helper()
	found := 0
	for i := 0; i < 1_000_000; i++ {
		k := []byte(fmt.Sprintf("rk-%d-%d", shard, i))
		if s.KeyShard(k) == shard {
			if found == n {
				return k
			}
			found++
		}
	}
	t.Fatalf("no key found for shard %d", shard)
	return nil
}

// TestSingleShardRouting pins the tentpole's core claim: a single-key
// command runs entirely inside its key's shard — exactly one shard's
// transaction counters move, and the other shards' managers stay idle.
func TestSingleShardRouting(t *testing.T) {
	designs(t, func(t *testing.T, s *Store) {
		key := keyOn(t, s, 2, 0)
		before := make([]uint64, s.Shards())
		for i := range before {
			before[i] = s.ShardStats(i).Starts
		}
		if err := s.Run(nil, memtx.TxOptions{}, [][]byte{key}, false, nil, func(tx *Tx) error {
			tx.Set(key, []byte("v"))
			return nil
		}); err != nil {
			t.Fatalf("AtomicKey: %v", err)
		}
		var hit []byte
		if err := s.Run(nil, memtx.TxOptions{}, [][]byte{key}, true, nil, func(tx *Tx) error {
			hit, _ = tx.Get(key)
			return nil
		}); err != nil {
			t.Fatalf("ViewKey: %v", err)
		}
		if !bytes.Equal(hit, []byte("v")) {
			t.Fatalf("ViewKey read %q, want \"v\"", hit)
		}
		for i := range before {
			moved := s.ShardStats(i).Starts - before[i]
			if i == 2 && moved == 0 {
				t.Errorf("shard 2 (the key's shard) started no transactions")
			}
			if i != 2 && moved != 0 {
				t.Errorf("shard %d started %d transaction(s) for a shard-2 key", i, moved)
			}
		}
		if got := s.CrossCommits(); got != 0 {
			t.Errorf("single-key commands drove %d cross-shard commits, want 0", got)
		}
	})
}

// TestSingleShardWritersDoNotWaitOnOtherShards is the structural half of
// the sharding claim: single-shard writers on different shards share no
// lock. Writer A parks inside its single-key Run body after a Set, with its
// attempt open, its shard's gate held shared and its bucket owned. Writer B,
// on another shard, must still commit. Only a lock outside A's shard — a
// store-wide one — could hold B up, so the check needs no timing ratio.
func TestSingleShardWritersDoNotWaitOnOtherShards(t *testing.T) {
	stores := map[string]func(t *testing.T) *Store{
		"memory": func(t *testing.T) *Store { return New(Config{Shards: 4, Buckets: 8}) },
		"durable": func(t *testing.T) *Store {
			s, _, err := Open(Config{Shards: 4, Buckets: 8}, testDurableConfig(t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			defer s.Close()
			kx, ky := keyOn(t, s, 0, 0), keyOn(t, s, 1, 0)

			parked := make(chan struct{})
			release := make(chan struct{})
			var once sync.Once
			aDone := make(chan error, 1)
			go func() {
				aDone <- s.Run(nil, memtx.TxOptions{}, [][]byte{kx}, false, nil, func(tx *Tx) error {
					tx.Set(kx, []byte("a"))
					once.Do(func() { close(parked) })
					<-release
					return nil
				})
			}()
			<-parked

			bDone := make(chan error, 1)
			go func() {
				bDone <- s.Run(nil, memtx.TxOptions{}, [][]byte{ky}, false, nil, func(tx *Tx) error {
					tx.Set(ky, []byte("b"))
					return nil
				})
			}()
			select {
			case err := <-bDone:
				if err != nil {
					t.Errorf("writer B: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Errorf("writer B on shard 1 did not commit within 2s while writer A held shard 0")
				close(release)
				<-bDone
				<-aDone
				return
			}
			close(release)
			if err := <-aDone; err != nil {
				t.Fatalf("writer A: %v", err)
			}
			for k, want := range map[string]string{string(kx): "a", string(ky): "b"} {
				if got, _ := s.Get([]byte(k)); string(got) != want {
					t.Errorf("%s = %q, want %q", k, got, want)
				}
			}
		})
	}
}

// TestSingleShardBoundary checks that a single-shard transaction refuses to
// touch a key belonging to another shard: silent misrouting would read or
// write unversioned state outside the transaction's manager.
func TestSingleShardBoundary(t *testing.T) {
	s := New(Config{Shards: 4, Buckets: 8})
	local := keyOn(t, s, 0, 0)
	foreign := keyOn(t, s, 3, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign-shard access inside AtomicKey did not panic")
		}
	}()
	_ = s.Run(nil, memtx.TxOptions{}, [][]byte{local}, false, nil, func(tx *Tx) error {
		tx.Set(foreign, []byte("x")) // wrong shard: must panic, not misroute
		return nil
	})
}

// TestDeclaredShardSet checks the multi-key analogue: Run pins the
// shard set to the declared keys, and touching a key outside it panics.
func TestDeclaredShardSet(t *testing.T) {
	s := New(Config{Shards: 4, Buckets: 8})
	a, b := keyOn(t, s, 0, 0), keyOn(t, s, 1, 0)
	undeclared := keyOn(t, s, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("undeclared-shard access inside AtomicKeys did not panic")
		}
	}()
	_ = s.Run(nil, memtx.TxOptions{}, [][]byte{a, b}, false, nil, func(tx *Tx) error {
		tx.Set(a, []byte("1"))
		tx.Set(b, []byte("2"))
		tx.Set(undeclared, []byte("3"))
		return nil
	})
}

// TestMultiKeyRouting checks that Run picks the commit path by the
// keys' actual shard spread: co-located keys commit on the single-shard
// path, spanning keys take the cross-shard path.
func TestMultiKeyRouting(t *testing.T) {
	designs(t, func(t *testing.T, s *Store) {
		// Co-located: two distinct keys on the same shard.
		a0, a1 := keyOn(t, s, 1, 0), keyOn(t, s, 1, 1)
		if err := s.Run(nil, memtx.TxOptions{}, [][]byte{a0, a1}, false, nil, func(tx *Tx) error {
			tx.Set(a0, []byte("x"))
			tx.Set(a1, []byte("y"))
			return nil
		}); err != nil {
			t.Fatalf("co-located AtomicKeys: %v", err)
		}
		if got := s.CrossCommits(); got != 0 {
			t.Fatalf("co-located multi-key commit took the cross-shard path (%d cross commits)", got)
		}

		// Spanning: keys on different shards.
		b0, b1 := keyOn(t, s, 0, 0), keyOn(t, s, 3, 0)
		if err := s.Run(nil, memtx.TxOptions{}, [][]byte{b0, b1}, false, nil, func(tx *Tx) error {
			tx.Set(b0, []byte("x"))
			tx.Set(b1, []byte("y"))
			return nil
		}); err != nil {
			t.Fatalf("spanning AtomicKeys: %v", err)
		}
		if got := s.CrossCommits(); got != 1 {
			t.Fatalf("spanning multi-key commit: CrossCommits = %d, want 1", got)
		}
		// Both writes visible.
		for _, k := range [][]byte{a0, a1, b0, b1} {
			if _, ok := s.Get(k); !ok {
				t.Fatalf("key %q lost after multi-key commit", k)
			}
		}

		// A read-only Run across shards reads a consistent cut without panicking.
		err := s.Run(nil, memtx.TxOptions{}, [][]byte{b0, b1}, true, nil, func(tx *Tx) error {
			tx.Get(b0)
			tx.Get(b1)
			return nil
		})
		if err != nil {
			t.Fatalf("ViewKeys: %v", err)
		}
	})
}

// TestShardedStatsConformance runs the aggregated-statistics conformance
// suite: per-shard Starts == Commits + Aborts at quiescence, and the
// store-wide Stats is exactly the sum of the per-shard views — under a
// workload mixing single-shard and cross-shard transactions.
func TestShardedStatsConformance(t *testing.T) {
	for _, d := range []memtx.Design{memtx.DirectUpdate, memtx.BufferedWord, memtx.BufferedObject} {
		t.Run(d.String(), func(t *testing.T) {
			s := New(Config{Shards: 4, Buckets: 8, Design: d})
			enginetest.RunShardedStats(t, s, func() {
				var wg sync.WaitGroup
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < 100; i++ {
							k := []byte(fmt.Sprintf("w%d-%d", w, i%16))
							s.Set(k, FormatInt(int64(i)))
							s.Get(k)
							if i%5 == 0 {
								k2 := []byte(fmt.Sprintf("w%d-%d", (w+1)%4, (i+7)%16))
								_ = s.Run(nil, memtx.TxOptions{}, [][]byte{k, k2}, false, nil, func(tx *Tx) error {
									tx.Set(k, []byte("a"))
									tx.Set(k2, []byte("b"))
									return nil
								})
							}
						}
					}(w)
				}
				wg.Wait()
			})
		})
	}
}
