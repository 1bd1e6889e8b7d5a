package server_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"memtx/internal/kv"
	"memtx/internal/server"
	"memtx/internal/server/wire"
)

// TestBatchMixedPipelineOrder sends one burst holding reads, a PING, writes,
// and checks that batching preserves strict response order around the
// batch-ending write commands, and that the batch counters see exactly the
// two read runs the burst contains.
func TestBatchMixedPipelineOrder(t *testing.T) {
	store := kv.New(kv.Config{Shards: 4, Buckets: 64})
	srv, ln := startPipeServer(t, store, server.Config{})
	conn := ln.dial()
	t.Cleanup(func() { conn.Close() })

	var burst []byte
	for _, body := range []string{
		"SET $1:a $1:1",
		"GET $1:a",
		"PING",
		"MGET $1:a $1:b",
		"SET $1:a $1:2",
		"GET $1:a",
	} {
		burst = wire.AppendFrame(burst, []byte(body))
	}
	// One Write on a synchronous pipe: when it returns, every frame has been
	// transferred into the server's input buffer in a single read, so the
	// burst's reads are collected as batches deterministically:
	// [GET PING MGET] then, after the second SET, [GET].
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(conn)
	want := []string{"OK", "VAL $1:1", "PONG", "VALS $1:1 NIL", "OK", "VAL $1:2"}
	for i, w := range want {
		body, err := wire.ReadFrame(br, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if string(body) != w {
			t.Fatalf("response %d = %q, want %q", i, body, w)
		}
	}

	if got := metricValue(t, srv, "stmkvd_read_batches_total"); got != 2 {
		t.Errorf("read batches = %d, want 2", got)
	}
	if got := metricValue(t, srv, "stmkvd_read_batched_commands_total"); got != 4 {
		t.Errorf("batched commands = %d, want 4", got)
	}
	if got := metricValue(t, srv, "stmkvd_read_batch_fallbacks_total"); got != 0 {
		t.Errorf("batch fallbacks = %d, want 0 (no concurrent writers)", got)
	}
}

// TestBatchRespectsMaxBatch proves the batch bound: a burst of reads larger
// than MaxBatch splits into multiple snapshot batches, and a drain that
// begins while those batches are mid-flight still answers every buffered
// request before the connection closes.
func TestBatchRespectsMaxBatchAndDrain(t *testing.T) {
	const n = 10
	store := kv.New(kv.Config{Shards: 2, Buckets: 16})
	store.Set([]byte("k"), []byte("v"))
	srv, ln := startPipeServer(t, store, server.Config{MaxBatch: 4})
	conn := ln.dial()
	t.Cleanup(func() { conn.Close() })

	var burst []byte
	for i := 0; i < n; i++ {
		burst = wire.AppendFrame(burst, []byte("GET $1:k"))
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	// The Write has returned, so all n frames sit in the server's buffer.
	// Start the drain now — possibly mid-batch — in the background; the
	// responses must all still arrive, then EOF.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	br := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		body, err := wire.ReadFrame(br, 0)
		if err != nil {
			t.Fatalf("drain dropped buffered request %d: %v", i, err)
		}
		if string(body) != "VAL $1:v" {
			t.Fatalf("response %d = %q, want %q", i, body, "VAL $1:v")
		}
	}
	if _, err := wire.ReadFrame(br, 0); err == nil {
		t.Fatal("connection still open after drain")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	if got := metricValue(t, srv, "stmkvd_read_batches_total"); got < 2 {
		t.Errorf("read batches = %d, want >= 2 (MaxBatch=4 must split %d reads)", got, n)
	}
	if got := metricValue(t, srv, "stmkvd_read_batched_commands_total"); got != n {
		t.Errorf("batched commands = %d, want %d", got, n)
	}
}

// TestBatchedReadsUnderWrites hammers batched GET bursts against a
// concurrent stream of increments and checks the values observed over one
// connection never go backwards: a batch whose snapshot failed validation
// must fall back to per-command execution, not serve torn or stale data.
func TestBatchedReadsUnderWrites(t *testing.T) {
	_, addr := startServer(t, server.Config{MaxBatch: 8})
	writes := 300
	if testing.Short() {
		writes = 100
	}

	w := dial(t, addr)
	if err := w.Set([]byte("x"), []byte("0")); err != nil {
		t.Fatal(err)
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < writes; i++ {
			if _, err := w.Incr([]byte("x"), 1); err != nil {
				t.Errorf("INCR: %v", err)
				return
			}
		}
	}()

	r := dial(t, addr)
	last := int64(-1)
	for done := false; !done; {
		select {
		case <-writerDone:
			done = true
		default:
		}
		const burst = 8
		for i := 0; i < burst; i++ {
			if err := r.Send("GET", wire.Blob([]byte("x"))); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < burst; i++ {
			resp, err := r.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if resp.Name != "VAL" {
				t.Fatalf("GET response = %+v", resp)
			}
			v, err := kv.ParseInt(resp.Args[0].B)
			if err != nil {
				t.Fatalf("GET returned non-integer %q: %v", resp.Args[0].B, err)
			}
			if v < last {
				t.Fatalf("batched reads went backwards: %d after %d", v, last)
			}
			last = v
		}
	}
	// The writer has finished, so a final read must see every increment.
	v, ok, err := r.Get([]byte("x"))
	if err != nil || !ok {
		t.Fatalf("final GET = %v, %v", ok, err)
	}
	if got := string(v); got != fmt.Sprint(writes) {
		t.Fatalf("final value = %s, want %d", got, writes)
	}
}

// TestBatchingDisabled pins the opt-out: with MaxBatch < 0 every command
// runs as a batch of one and the batch counters stay zero.
func TestBatchingDisabled(t *testing.T) {
	store := kv.New(kv.Config{Shards: 2, Buckets: 16})
	store.Set([]byte("k"), []byte("v"))
	srv, ln := startPipeServer(t, store, server.Config{MaxBatch: -1})
	conn := ln.dial()
	t.Cleanup(func() { conn.Close() })

	var burst []byte
	for i := 0; i < 5; i++ {
		burst = wire.AppendFrame(burst, []byte("GET $1:k"))
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < 5; i++ {
		body, err := wire.ReadFrame(br, 0)
		if err != nil || !bytes.Equal(body, []byte("VAL $1:v")) {
			t.Fatalf("response %d = %q, %v", i, body, err)
		}
	}
	if got := metricValue(t, srv, "stmkvd_read_batches_total"); got != 0 {
		t.Errorf("read batches = %d, want 0 with batching disabled", got)
	}
}
