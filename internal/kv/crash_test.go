package kv

import (
	"fmt"
	"os"
	"testing"
	"time"

	"memtx"
)

// Crash drill: a child process (this test binary re-executed) hammers the
// store with cross-shard transfers and single-shard writes, the parent
// SIGKILLs it mid-load a few times, and the final in-process recovery must
// conserve the transferred sum — the invariant every transfer preserves — no
// matter where the kill landed.

const (
	crashEnvDir  = "KV_CRASH_DIR"
	crashAccts   = 64
	crashBalance = 1000
)

func crashAcctKey(i int) []byte { return []byte(fmt.Sprintf("acct-%04d", i)) }

// TestCrashRecoveryDaemon is the child body; it only runs when re-executed by
// TestCrashRecovery with the directory env set, and then it never returns.
func TestCrashRecoveryDaemon(t *testing.T) {
	dir := os.Getenv(crashEnvDir)
	if dir == "" {
		t.Skip("not a crash-drill child")
	}
	s, _, err := Open(Config{Shards: 4, Buckets: 256},
		DurableConfig{Dir: dir, FsyncBatch: 8, FsyncInterval: time.Millisecond})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child open: %v\n", err)
		os.Exit(3)
	}
	// Seed once: the marker commits last, so a kill during seeding leaves it
	// absent and the next boot reseeds over the partial state.
	if _, ok := s.Get([]byte("seeded")); !ok {
		for i := 0; i < crashAccts; i++ {
			s.Set(crashAcctKey(i), []byte(fmt.Sprintf("%d", crashBalance)))
		}
		s.Set([]byte("seeded"), []byte("1"))
	}
	fmt.Println("CHILD-READY") // parent waits for this before killing
	// Several workers keep transfers in flight concurrently so the kill can
	// land between a transfer's participant appends and its group fsync.
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := w; ; i += 4 {
				from, to := i%crashAccts, (i*7+3)%crashAccts
				if from == to {
					continue
				}
				err := s.Run(nil, memtx.TxOptions{}, [][]byte{crashAcctKey(from), crashAcctKey(to)}, false, nil, func(t *Tx) error {
					if _, err := t.Add(crashAcctKey(from), -1); err != nil {
						return err
					}
					_, err := t.Add(crashAcctKey(to), 1)
					return err
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "child transfer: %v\n", err)
					os.Exit(3)
				}
				// Interleave unrelated single-shard writes too.
				s.Set([]byte(fmt.Sprintf("noise-%03d", i%512)), []byte(fmt.Sprintf("%d", i)))
			}
		}(w)
	}
	select {} // run until killed
}

func TestCrashRecovery(t *testing.T) {
	if os.Getenv(crashEnvDir) != "" {
		t.Skip("crash-drill child must not recurse")
	}
	if testing.Short() {
		t.Skip("crash drill re-executes the test binary")
	}
	dir := t.TempDir()
	runCrashCycles(t, dir, crashEnvDir, "TestCrashRecoveryDaemon", 3)

	// Final recovery in-process: the transfer sum must be conserved.
	s, stats, err := Open(Config{Shards: 4, Buckets: 256},
		DurableConfig{Dir: dir, FsyncBatch: 8, FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if stats.Records == 0 {
		t.Fatalf("final recovery replayed nothing: %+v", stats)
	}
	if _, ok := s.Get([]byte("seeded")); !ok {
		t.Fatal("store lost its seed marker")
	}
	var sum int64
	err = s.Run(nil, memtx.TxOptions{}, nil, true, nil, func(tx *Tx) error {
		sum = 0
		for i := 0; i < crashAccts; i++ {
			v, err := tx.Int(crashAcctKey(i))
			if err != nil {
				return err
			}
			sum += v
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != crashAccts*crashBalance {
		t.Fatalf("sum %d after crash recovery, want %d — a cross-shard transfer tore", sum, crashAccts*crashBalance)
	}
	t.Logf("recovery stats: %+v", *stats)
}
