package kv

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"memtx"
	"memtx/internal/enginetest"
)

// designs runs a subtest against a small store per STM design: the kv layer
// is written against the public API only, so all three engines must serve
// it identically.
func designs(t *testing.T, f func(t *testing.T, s *Store)) {
	for _, d := range []memtx.Design{memtx.DirectUpdate, memtx.BufferedWord, memtx.BufferedObject} {
		t.Run(d.String(), func(t *testing.T) {
			f(t, New(Config{Shards: 4, Buckets: 8, Design: d}))
		})
	}
}

func TestBasicOps(t *testing.T) {
	designs(t, func(t *testing.T, s *Store) {
		if _, ok := s.Get([]byte("missing")); ok {
			t.Fatal("Get on empty store reported a value")
		}
		// Value sizes around the word and cache-line sizes.
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 64, 255} {
			key := []byte(fmt.Sprintf("key-%d", n))
			val := bytes.Repeat([]byte{byte(n + 1)}, n)
			s.Set(key, val)
			got, ok := s.Get(key)
			if !ok || !bytes.Equal(got, val) {
				t.Fatalf("Get(%q) = %q,%v after Set(%q)", key, got, ok, val)
			}
		}
		if n := s.Len(); n != 10 {
			t.Fatalf("Len = %d, want 10", n)
		}

		// Overwrite.
		s.Set([]byte("key-1"), []byte("new"))
		if got, _ := s.Get([]byte("key-1")); !bytes.Equal(got, []byte("new")) {
			t.Fatalf("overwrite lost: got %q", got)
		}
		if n := s.Len(); n != 10 {
			t.Fatalf("Len after overwrite = %d, want 10", n)
		}

		// Delete.
		if !s.Delete([]byte("key-1")) || s.Delete([]byte("key-1")) {
			t.Fatal("Delete should succeed once then report absence")
		}
		if _, ok := s.Get([]byte("key-1")); ok {
			t.Fatal("deleted key still readable")
		}

		// CAS.
		s.Set([]byte("c"), []byte("old"))
		if s.CompareAndSet([]byte("c"), []byte("wrong"), []byte("x")) {
			t.Fatal("CAS matched a wrong expected value")
		}
		if !s.CompareAndSet([]byte("c"), []byte("old"), []byte("new")) {
			t.Fatal("CAS failed to match the current value")
		}
		if got, _ := s.Get([]byte("c")); !bytes.Equal(got, []byte("new")) {
			t.Fatalf("CAS result = %q, want \"new\"", got)
		}
		if s.CompareAndSet([]byte("nope"), []byte(""), []byte("x")) {
			t.Fatal("CAS matched a missing key")
		}
	})
}

// TestEntryKeyLengths pins the entry layout, one record holding the key's
// length, the key and the value: key lengths straddle each byte boundary of
// the length prefix, and every read path splits the entry back into the key
// and value it was built from.
func TestEntryKeyLengths(t *testing.T) {
	designs(t, func(t *testing.T, s *Store) {
		model := map[string]string{}
		for _, kn := range []int{0, 1, 127, 128, 129, 16383, 16384} {
			for _, vn := range []int{0, 1, 100, 5000} {
				key := bytes.Repeat([]byte{'k'}, kn)
				val := bytes.Repeat([]byte{byte('a' + vn%26)}, vn)
				s.Set(key, val)
				model[string(key)] = string(val)
				got, ok := s.Get(key)
				if !ok || !bytes.Equal(got, val) {
					t.Fatalf("key of %d bytes: Get read %d bytes (ok=%v), want %d", kn, len(got), ok, vn)
				}
				var blob []byte
				if err := s.ViewKey(key, func(tx *Tx) error {
					blob, ok = tx.AppendGetBlob([]byte("+"), key)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("+$%d:%s", vn, val); !ok || string(blob) != want {
					t.Fatalf("key of %d bytes: AppendGetBlob gave %d bytes, want %d", kn, len(blob), len(want))
				}
			}
			key := bytes.Repeat([]byte{'k'}, kn)
			if !s.CompareAndSet(key, []byte(model[string(key)]), []byte("41")) {
				t.Fatalf("key of %d bytes: CAS missed the current value", kn)
			}
			if err := s.AtomicKey(key, func(tx *Tx) error {
				_, err := tx.Add(key, 1)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			model[string(key)] = "42"
		}
		scanned := map[string]string{}
		if err := s.View(func(tx *Tx) error {
			for sid := range s.shards {
				tx.scanShard(sid, func(k, v []byte) { scanned[string(k)] = string(v) })
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(scanned) != fmt.Sprint(model) {
			t.Fatalf("scan found %d keys that differ from the %d set", len(scanned), len(model))
		}
	})
}

// TestEmptyAndBinaryKeys covers the degenerate keys a wire server will
// forward verbatim.
func TestEmptyAndBinaryKeys(t *testing.T) {
	s := New(Config{Shards: 2, Buckets: 2})
	keys := [][]byte{{}, {0}, {0, 0}, []byte("a\x00b"), {0xff, 0xfe, 0x00, 0x01}}
	for i, k := range keys {
		s.Set(k, []byte{byte(i)})
	}
	for i, k := range keys {
		got, ok := s.Get(k)
		if !ok || !bytes.Equal(got, []byte{byte(i)}) {
			t.Fatalf("key %x: got %x,%v", k, got, ok)
		}
	}
	if n := s.Len(); n != len(keys) {
		t.Fatalf("Len = %d, want %d", n, len(keys))
	}
}

// TestChainCollisions forces every key into the same bucket-count regime by
// using a tiny table, exercising chain walks, middle deletes, and prev
// rewiring.
func TestChainCollisions(t *testing.T) {
	s := New(Config{Shards: 1, Buckets: 2})
	const n = 100
	for i := 0; i < n; i++ {
		s.Set([]byte(fmt.Sprintf("k%03d", i)), FormatInt(int64(i)))
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	// Delete every third key, then verify the survivors.
	for i := 0; i < n; i += 3 {
		if !s.Delete([]byte(fmt.Sprintf("k%03d", i))) {
			t.Fatalf("Delete(k%03d) missed", i)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := s.Get([]byte(fmt.Sprintf("k%03d", i)))
		if i%3 == 0 {
			if ok {
				t.Fatalf("k%03d should be deleted", i)
			}
			continue
		}
		if !ok || !bytes.Equal(v, FormatInt(int64(i))) {
			t.Fatalf("k%03d = %q,%v", i, v, ok)
		}
	}
}

// TestMultiKeyAtomicity is the in-process version of the server invariant
// test: concurrent transfers across shard boundaries conserve the total.
func TestMultiKeyAtomicity(t *testing.T) {
	designs(t, func(t *testing.T, s *Store) {
		const accounts = 32
		const initial = 1000
		const workers = 4
		transfers := 400
		if testing.Short() {
			transfers = 100
		}
		for i := 0; i < accounts; i++ {
			s.Set(acct(i), FormatInt(initial))
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				r := uint64(seed)*2654435761 + 1
				next := func(n int) int {
					r = r*6364136223846793005 + 1442695040888963407
					return int((r >> 33) % uint64(n))
				}
				for i := 0; i < transfers; i++ {
					src, dst := next(accounts), next(accounts)
					amount := int64(next(50))
					err := s.Atomic(func(tx *Tx) error {
						sv, err := tx.Int(acct(src))
						if err != nil {
							return err
						}
						if sv < amount {
							return nil // insufficient funds: commit unchanged
						}
						tx.SetInt(acct(src), sv-amount)
						dv, err := tx.Int(acct(dst))
						if err != nil {
							return err
						}
						tx.SetInt(acct(dst), dv+amount)
						return nil
					})
					if err != nil {
						t.Errorf("transfer: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()

		var total int64
		err := s.View(func(tx *Tx) error {
			total = 0
			for i := 0; i < accounts; i++ {
				v, err := tx.Int(acct(i))
				if err != nil {
					return err
				}
				total += v
			}
			return nil
		})
		if err != nil {
			t.Fatalf("audit: %v", err)
		}
		if total != accounts*initial {
			t.Fatalf("total = %d, want %d: transfers were not atomic", total, accounts*initial)
		}
	})
}

func acct(i int) []byte { return []byte(fmt.Sprintf("acct-%04d", i)) }

// TestShardSpread sanity-checks that the hash reaches every shard and that
// the shard/bucket index ranges use independent bits.
func TestShardSpread(t *testing.T) {
	s := New(Config{Shards: 8, Buckets: 4})
	hit := make([]bool, s.Shards())
	for i := 0; i < 1000; i++ {
		h := hashKey([]byte(fmt.Sprintf("key-%d", i)))
		hit[h&uint64(s.Shards()-1)] = true
	}
	for i, ok := range hit {
		if !ok {
			t.Fatalf("shard %d never hit by 1000 keys", i)
		}
	}
}

func TestIntHelpers(t *testing.T) {
	s := New(Config{Shards: 1, Buckets: 2})
	err := s.Atomic(func(tx *Tx) error {
		if v, err := tx.Int([]byte("n")); err != nil || v != 0 {
			t.Errorf("missing key Int = %d,%v; want 0,nil", v, err)
		}
		if v, err := tx.Add([]byte("n"), 5); err != nil || v != 5 {
			t.Errorf("Add = %d,%v; want 5,nil", v, err)
		}
		if v, err := tx.Add([]byte("n"), -7); err != nil || v != -2 {
			t.Errorf("Add = %d,%v; want -2,nil", v, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get([]byte("n")); !bytes.Equal(v, []byte("-2")) {
		t.Fatalf("stored integer = %q, want \"-2\"", v)
	}
	s.Set([]byte("junk"), []byte("not-a-number"))
	if _, err := ParseInt([]byte("not-a-number")); err == nil {
		t.Fatal("ParseInt accepted junk")
	}
	err = s.Atomic(func(tx *Tx) error {
		_, err := tx.Int([]byte("junk"))
		return err
	})
	if err == nil {
		t.Fatal("Int on junk value did not propagate an error")
	}
}

// TestOpCounters checks retry-safe op accounting: counters fold in once per
// committed transaction and reflect only the committed attempt.
func TestOpCounters(t *testing.T) {
	s := New(Config{Shards: 2, Buckets: 2})
	s.Set([]byte("a"), []byte("1"))        // 1 set
	s.Get([]byte("a"))                     // 1 get
	s.Delete([]byte("a"))                  // 1 delete
	s.CompareAndSet([]byte("a"), nil, nil) // 1 cas (miss still counts)
	want := map[Op]uint64{OpGet: 1, OpSet: 1, OpDelete: 1, OpCAS: 1}
	for o, w := range want {
		// Int/Add piggyback on Get/Set, so compare >=.
		if got := s.OpCount(o); got != w {
			t.Errorf("OpCount(%v) = %d, want %d", o, got, w)
		}
	}

	// An aborted transaction must not count.
	wantErr := fmt.Errorf("boom")
	if err := s.Atomic(func(tx *Tx) error {
		tx.Set([]byte("x"), []byte("y"))
		return wantErr
	}); err != wantErr {
		t.Fatalf("Atomic error = %v, want %v", err, wantErr)
	}
	if got := s.OpCount(OpSet); got != 1 {
		t.Errorf("aborted Set counted: OpCount(set) = %d, want 1", got)
	}

	// Concurrent commits on both shards, single-shard and cross-shard,
	// fold into the striped counters; the sums stay exact.
	const workers, rounds = 4, 300
	k0, k1 := keyOn(t, s, 0, 0), keyOn(t, s, 1, 0)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := [][]byte{k0, k1}[w%2]
			for range rounds {
				s.Set(own, []byte("v"))
				if err := s.AtomicKeys([][]byte{k0, k1}, func(tx *Tx) error {
					tx.Set(k0, []byte("a"))
					tx.Set(k1, []byte("b"))
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := s.OpCount(OpSet), uint64(1+workers*rounds*3); got != want {
		t.Errorf("after concurrent commits: OpCount(set) = %d, want %d", got, want)
	}
	if got, want := s.CrossCommits(), uint64(workers*rounds); got != want {
		t.Errorf("after concurrent commits: CrossCommits = %d, want %d", got, want)
	}
}

// TestMetricSourceConformance runs the obs source conformance suite against
// the store while concurrent workers hammer it.
func TestMetricSourceConformance(t *testing.T) {
	s := New(Config{Shards: 4, Buckets: 8})
	enginetest.RunMetricSource(t, s, func() {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := []byte(fmt.Sprintf("k%d-%d", w, i%16))
					s.Set(k, []byte("v"))
					s.Get(k)
					if i%8 == 0 {
						s.Delete(k)
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

// TestCeilPow2Clamps pins the rounding of Config.Shards and Config.Buckets,
// including counts past the largest power of two an int holds, where
// doubling would overflow to zero and never terminate.
func TestCeilPow2Clamps(t *testing.T) {
	cases := []struct{ n, def, hi, want int }{
		{0, 16, maxShards, 16},
		{-1, 1024, maxBuckets, 1024},
		{1, 16, maxShards, 1},
		{3, 16, maxShards, 4},
		{4, 16, maxShards, 4},
		{maxShards, 16, maxShards, maxShards},
		{maxShards + 1, 16, maxShards, maxShards},
		{1<<62 + 1, 16, maxShards, maxShards},
		{math.MaxInt, 16, maxShards, maxShards},
		{math.MaxInt, 1024, maxBuckets, maxBuckets},
	}
	for _, c := range cases {
		got := make(chan int, 1)
		go func() { got <- ceilPow2(c.n, c.def, c.hi) }()
		select {
		case g := <-got:
			if g != c.want {
				t.Errorf("ceilPow2(%d, %d, %d) = %d, want %d", c.n, c.def, c.hi, g, c.want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("ceilPow2(%d, %d, %d) did not return", c.n, c.def, c.hi)
		}
	}
}
