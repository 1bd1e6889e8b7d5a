package server_test

import (
	"bufio"
	"fmt"
	"sync"
	"testing"
	"time"

	"memtx/internal/chaos"
	"memtx/internal/kv"
	"memtx/internal/kvload"
	"memtx/internal/server"
	"memtx/internal/server/wire"
)

// sameShardKeys returns n distinct keys that all hash to one shard of s.
func sameShardKeys(t *testing.T, s *kv.Store, n int) [][]byte {
	t.Helper()
	shard := s.KeyShard([]byte("wb-0"))
	keys := [][]byte{[]byte("wb-0")}
	for i := 1; len(keys) < n; i++ {
		k := []byte(fmt.Sprintf("wb-%d", i))
		if s.KeyShard(k) == shard {
			keys = append(keys, k)
		}
		if i > 10000 {
			t.Fatal("could not find enough same-shard keys")
		}
	}
	return keys
}

// TestWriteBatchCoalescesIncrBurst pins the headline path: a pipelined
// burst of INCRs on one hot key, delivered in a single read, runs as one
// shard-local write transaction and still answers each increment with its
// own running total.
func TestWriteBatchCoalescesIncrBurst(t *testing.T) {
	store := kv.New(kv.Config{Shards: 4, Buckets: 64})
	srv, ln := startPipeServer(t, store, server.Config{})
	conn := ln.dial()
	t.Cleanup(func() { conn.Close() })

	const n = 8
	var burst []byte
	for i := 0; i < n; i++ {
		burst = wire.AppendFrame(burst, []byte("INCR $3:ctr 1"))
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 1; i <= n; i++ {
		body, err := wire.ReadFrame(br, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if want := fmt.Sprintf(":%d", i); string(body) != want {
			t.Fatalf("response %d = %q, want %q", i, body, want)
		}
	}
	if got := metricValue(t, srv, "stmkvd_write_batches_total"); got != 1 {
		t.Errorf("write batches = %d, want 1", got)
	}
	if got := metricValue(t, srv, "stmkvd_write_batched_commands_total"); got != n {
		t.Errorf("write batched commands = %d, want %d", got, n)
	}
	if got := metricValue(t, srv, "stmkvd_write_batch_fallbacks_total"); got != 0 {
		t.Errorf("write batch fallbacks = %d, want 0", got)
	}
}

// TestWriteBatchMixedPipelineOrder checks strict response ordering around
// batch boundaries when reads and writes interleave read→write→read→write in
// one pipelined window, and that the command that ends a batch of one kind
// still gets to start a batch of the other (the collector hands it back to
// the dispatcher) rather than running alone.
func TestWriteBatchMixedPipelineOrder(t *testing.T) {
	store := kv.New(kv.Config{Shards: 1, Buckets: 64})
	srv, ln := startPipeServer(t, store, server.Config{})
	conn := ln.dial()
	t.Cleanup(func() { conn.Close() })

	pipeline := []struct{ req, resp string }{
		{"GET $1:k", "NIL"}, // read batch 1
		{"PING", "PONG"},
		{"SET $1:k $2:v1", "OK"}, // write batch 1
		{"INCR $1:c 1", ":1"},
		{"GET $1:k", "VAL $2:v1"}, // read batch 2
		{"GET $1:c", "VAL $1:1"},
		{"INCR $1:c 2", ":3"}, // write batch 2
		{"SET $1:k $2:v2", "OK"},
		{"INCR $1:c 3", ":6"},
		{"DEL $1:k", ":1"},        // ends the write batch; never batches
		{"GET $1:k", "NIL"},       // read batch 3
		{"SET $1:k $2:v3", "OK"},  // a lone write runs per-command
		{"GET $1:k", "VAL $2:v3"}, // read batch 4
	}
	var burst []byte
	for _, p := range pipeline {
		burst = wire.AppendFrame(burst, []byte(p.req))
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i, p := range pipeline {
		body, err := wire.ReadFrame(br, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if string(body) != p.resp {
			t.Fatalf("response %d (%s) = %q, want %q", i, p.req, body, p.resp)
		}
	}
	for _, m := range []struct {
		name string
		want uint64
	}{
		{"stmkvd_read_batches_total", 4},
		{"stmkvd_read_batched_commands_total", 6},
		{"stmkvd_read_batch_fallbacks_total", 0},
		{"stmkvd_write_batches_total", 2},
		{"stmkvd_write_batched_commands_total", 5},
		{"stmkvd_write_batch_fallbacks_total", 0},
	} {
		if got := metricValue(t, srv, m.name); got != m.want {
			t.Errorf("%s = %d, want %d", m.name, got, m.want)
		}
	}
	for cmd, want := range map[server.Cmd]uint64{
		server.CmdGet: 5, server.CmdPing: 1, server.CmdSet: 3, server.CmdIncr: 3, server.CmdDel: 1,
	} {
		if got := srv.CmdCount(cmd); got != want {
			t.Errorf("%v commands counted = %d, want %d", cmd, got, want)
		}
	}
}

// TestWriteBatchCrossShardSplits pins the shard-locality rule: consecutive
// writes on different shards never coalesce (a cross-shard write batch would
// drag in the 2PC path), while same-shard neighbors still do.
func TestWriteBatchCrossShardSplits(t *testing.T) {
	store := kv.New(kv.Config{Shards: 4, Buckets: 64})
	srv, ln := startPipeServer(t, store, server.Config{})
	conn := ln.dial()
	t.Cleanup(func() { conn.Close() })

	shard0 := sameShardKeys(t, store, 2)
	var other []byte
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("xs-%d", i))
		if store.KeyShard(k) != store.KeyShard(shard0[0]) {
			other = k
			break
		}
	}
	var burst []byte
	frame := func(cmd string, args ...[]byte) {
		var as []wire.Arg
		for _, a := range args {
			as = append(as, wire.Blob(a))
		}
		burst = wire.AppendFrame(burst, wire.AppendCommand(nil, cmd, as...))
	}
	frame("SET", shard0[0], []byte("a"))
	frame("SET", shard0[1], []byte("b"))
	frame("SET", other, []byte("c"))
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		body, err := wire.ReadFrame(br, 0)
		if err != nil || string(body) != "OK" {
			t.Fatalf("response %d = %q, %v", i, body, err)
		}
	}
	// The two same-shard SETs batch; the cross-shard one is handed off and,
	// alone, runs per-command.
	if got := metricValue(t, srv, "stmkvd_write_batches_total"); got != 1 {
		t.Errorf("write batches = %d, want 1", got)
	}
	if got := metricValue(t, srv, "stmkvd_write_batched_commands_total"); got != 2 {
		t.Errorf("write batched commands = %d, want 2", got)
	}
}

// TestWriteBatchingDisabled pins the opt-out: with MaxWriteBatch < 0 every
// write runs per-command and the write-batch counters stay zero.
func TestWriteBatchingDisabled(t *testing.T) {
	store := kv.New(kv.Config{Shards: 1, Buckets: 16})
	srv, ln := startPipeServer(t, store, server.Config{MaxWriteBatch: -1})
	conn := ln.dial()
	t.Cleanup(func() { conn.Close() })

	var burst []byte
	for i := 0; i < 6; i++ {
		burst = wire.AppendFrame(burst, []byte("INCR $1:c 1"))
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 1; i <= 6; i++ {
		body, err := wire.ReadFrame(br, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(":%d", i); string(body) != want {
			t.Fatalf("response = %q, want %q", body, want)
		}
	}
	if got := metricValue(t, srv, "stmkvd_write_batches_total"); got != 0 {
		t.Errorf("write batches = %d, want 0 with write batching disabled", got)
	}
}

// TestWriteBatchAtomicToSnapshotReader drives pipelined two-key write
// bursts through the batch path while a concurrent snapshot reader audits
// the pair: because each burst commits as one transaction, the reader must
// never observe one key incremented without the other. Run with -race this
// is the write-batch atomicity proof.
func TestWriteBatchAtomicToSnapshotReader(t *testing.T) {
	store := kv.New(kv.Config{Shards: 1, Buckets: 64})
	_, ln := startPipeServer(t, store, server.Config{})
	conn := ln.dial()
	t.Cleanup(func() { conn.Close() })

	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	keyA, keyB := []byte("a"), []byte("b")

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		keys := [][]byte{keyA, keyB}
		for {
			select {
			case <-done:
				return
			default:
			}
			var a, b int64
			err := store.ViewKeys(keys, func(t *kv.Tx) error {
				var err error
				if a, err = t.Int(keyA); err != nil {
					return err
				}
				b, err = t.Int(keyB)
				return err
			})
			if err != nil {
				t.Errorf("snapshot read: %v", err)
				return
			}
			if a != b {
				t.Errorf("torn write batch: a=%d b=%d", a, b)
				return
			}
		}
	}()

	br := bufio.NewReader(conn)
	burst := wire.AppendFrame(nil, []byte("INCR $1:a 1"))
	burst = wire.AppendFrame(burst, []byte("INCR $1:b 1"))
	for i := 1; i <= rounds; i++ {
		if _, err := conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			body, err := wire.ReadFrame(br, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf(":%d", i); string(body) != want {
				t.Fatalf("round %d response %d = %q, want %q", i, j, body, want)
			}
		}
	}
	close(done)
	wg.Wait()
}

// TestWriteBatchChaosAllOrNothing hammers the batch path with seeded
// injected aborts under a tight command deadline, forcing batch
// transactions to fail and fall back per command. Accounting must stay
// exact: the final counter value equals the number of increments that were
// answered with success, never a partially applied batch.
func TestWriteBatchChaosAllOrNothing(t *testing.T) {
	srv, addr := startServer(t, server.Config{CmdDeadline: 3 * time.Millisecond})
	c := dial(t, addr)
	key := []byte("x")

	cfg := chaos.Config{Seed: 99}
	cfg.Points[chaos.OpenForUpdate] = chaos.PointConfig{AbortPPM: 400_000}
	chaos.Enable(chaos.New(cfg))
	defer chaos.Disable()

	const bursts, per = 60, 8
	oks := 0
	for i := 0; i < bursts; i++ {
		for j := 0; j < per; j++ {
			if err := c.Send("INCR", wire.Blob(key), wire.Bare("1")); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < per; j++ {
			if _, err := c.Recv(); err != nil {
				switch err.(type) {
				case *kvload.RemoteError, *kvload.BusyError:
					// Failed individually; not applied.
				default:
					t.Fatal(err)
				}
				continue
			}
			oks++
		}
	}
	chaos.Disable()

	v, ok, err := c.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	got := int64(0)
	if ok {
		if got, err = kv.ParseInt(v); err != nil {
			t.Fatal(err)
		}
	}
	if got != int64(oks) {
		t.Fatalf("counter = %d after %d successful INCRs: a batch applied partially", got, oks)
	}
	if fb := metricValue(t, srv, "stmkvd_write_batch_fallbacks_total"); fb == 0 {
		t.Log("no write-batch fallbacks occurred; chaos never failed a batch this run")
	}
}
