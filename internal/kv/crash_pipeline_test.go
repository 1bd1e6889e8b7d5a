package kv

import (
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"

	"memtx"
)

// runCrashCycles re-executes this test binary as daemonTest with env set to
// dir, waits for CHILD-READY, lets the load run briefly, and SIGKILLs it —
// once per cycle. Shared by the crash drills.
func runCrashCycles(t *testing.T, dir, env, daemonTest string, cycles int) {
	t.Helper()
	for cycle := 0; cycle < cycles; cycle++ {
		cmd := exec.Command(os.Args[0], "-test.run", "^"+daemonTest+"$", "-test.v")
		cmd.Env = append(os.Environ(), env+"="+dir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		ready := make(chan error, 1)
		go func() {
			buf := make([]byte, 1)
			line := ""
			for {
				if _, err := stdout.Read(buf); err != nil {
					ready <- fmt.Errorf("child died before ready: %v", err)
					return
				}
				if buf[0] == '\n' {
					if line == "CHILD-READY" {
						ready <- nil
						go func() { // drain so the child never blocks on stdout
							b := make([]byte, 4096)
							for {
								if _, err := stdout.Read(b); err != nil {
									return
								}
							}
						}()
						return
					}
					line = ""
					continue
				}
				line += string(buf[:1])
			}
		}()
		select {
		case err := <-ready:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			_ = cmd.Process.Kill()
			t.Fatal("child never became ready")
		}
		time.Sleep(time.Duration(50+cycle*75) * time.Millisecond)
		if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		_ = cmd.Wait()
	}
}

// The pipeline crash drill: same transfer invariant as TestCrashRecovery, but
// configured so the kill lands with a deep append queue (large fsync groups,
// records parked between LSN reservation and their vectored write) and with
// incremental checkpoints merging snapshots underneath the load.

const crashPipeEnvDir = "KV_CRASH_PIPE_DIR"

func crashPipeConfig(dir string) DurableConfig {
	return DurableConfig{
		Dir:                  dir,
		FsyncBatch:           64,
		FsyncInterval:        5 * time.Millisecond,
		SnapshotEvery:        20 * time.Millisecond,
		IncrementalSnapshots: true,
		fullSnapshotEvery:    4,
	}
}

// TestCrashRecoveryPipelineDaemon is the child body; it only runs when
// re-executed by TestCrashRecoveryPipeline and then never returns.
func TestCrashRecoveryPipelineDaemon(t *testing.T) {
	dir := os.Getenv(crashPipeEnvDir)
	if dir == "" {
		t.Skip("not a crash-drill child")
	}
	s, _, err := Open(Config{Shards: 4, Buckets: 256}, crashPipeConfig(dir))
	if err != nil {
		fmt.Fprintf(os.Stderr, "child open: %v\n", err)
		os.Exit(3)
	}
	if _, ok := s.Get([]byte("seeded")); !ok {
		for i := 0; i < crashAccts; i++ {
			s.Set(crashAcctKey(i), []byte(fmt.Sprintf("%d", crashBalance)))
		}
		s.Set([]byte("seeded"), []byte("1"))
	}
	fmt.Println("CHILD-READY")
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
				// Single-shard churn keeps the append queues deep and the
				// per-shard dirty sets busy for the checkpointer.
				s.Set([]byte(fmt.Sprintf("noise-%03d", i%512)), []byte(fmt.Sprintf("%d", i)))
			}
		}(w)
	}
	select {} // run until killed
}

func TestCrashRecoveryPipeline(t *testing.T) {
	if os.Getenv(crashPipeEnvDir) != "" || os.Getenv(crashEnvDir) != "" {
		t.Skip("crash-drill child must not recurse")
	}
	if testing.Short() {
		t.Skip("crash drill re-executes the test binary")
	}
	dir := t.TempDir()
	runCrashCycles(t, dir, crashPipeEnvDir, "TestCrashRecoveryPipelineDaemon", 3)

	s, stats, err := Open(Config{Shards: 4, Buckets: 256}, crashPipeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if _, ok := s.Get([]byte("seeded")); !ok {
		t.Fatal("store lost its seed marker")
	}
	var sum int64
	var off []string // accounts not at crashBalance, "key=balance"
	var missing []string
	err = s.Run(nil, memtx.TxOptions{}, nil, true, nil, func(tx *Tx) error {
		sum, off, missing = 0, off[:0], missing[:0]
		for i := 0; i < crashAccts; i++ {
			key := crashAcctKey(i)
			if _, ok := tx.Get(key); !ok {
				missing = append(missing, string(key))
			}
			v, err := tx.Int(key)
			if err != nil {
				return err
			}
			if v != crashBalance {
				off = append(off, fmt.Sprintf("%s=%d", key, v))
			}
			sum += v
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != crashAccts*crashBalance {
		t.Logf("accounts off %d: %v", crashBalance, off)
		t.Logf("missing keys: %v", missing)
		t.Logf("recovery stats: %+v", *stats)
		t.Fatalf("sum %d after crash recovery, want %d — a cross-shard transfer tore", sum, crashAccts*crashBalance)
	}
	t.Logf("recovery stats: %+v", *stats)
}
