package server_test

import (
	"io"
	"runtime/debug"
	"testing"

	"memtx"
	"memtx/internal/kv"
	"memtx/internal/race"
	"memtx/internal/server"
	"memtx/internal/server/wire"
)

// disableGC turns the collector off so sync.Pool eviction cannot perturb the
// per-run counts, and skips under the race detector, whose shadow bookkeeping
// shows up in AllocsPerRun.
func disableGC(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestDispatchAllocs pins the server's end-to-end dispatch allocation budget
// over an in-memory connection. AllocsPerRun counts process-wide, so the
// client side of each round trip is itself allocation-free: prebuilt request
// frames, fixed-size response reads. The headline guarantee is the GET
// response path — frame read, parse, snapshot transaction, and response
// assembly — at zero allocations per op once the connection's scratch is
// warm; every other command gets its measured budget rather than zero because
// value records and retry closures are allocated by design.
func TestDispatchAllocs(t *testing.T) {
	disableGC(t)
	store := kv.New(kv.Config{Shards: 4, Buckets: 64})
	store.Set([]byte("k"), []byte("hello"))
	store.Set([]byte("ctr"), []byte("7"))
	store.Set([]byte("a"), []byte("100"))
	store.Set([]byte("b"), []byte("100"))
	srv, ln := startPipeServer(t, store, server.Config{})
	conn := ln.dial()
	t.Cleanup(func() { conn.Close() })

	// roundTrip sends one prebuilt request frame and reads the exact-size
	// response; responses here are chosen to have a fixed length.
	roundTrip := func(req []byte, wantResp string) func() {
		resp := make([]byte, len(wantResp))
		return func() {
			if _, err := conn.Write(req); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, resp); err != nil {
				t.Fatal(err)
			}
			if string(resp) != wantResp {
				t.Fatalf("response = %q, want %q", resp, wantResp)
			}
		}
	}

	// Budgets are the measured per-command costs, not aspirations: value
	// records, decimal formatting and the retry driver's closures are
	// allocated by design, and none of them may grow unnoticed.
	for _, row := range []struct {
		name, req, resp string
		max             float64
	}{
		{"GET", "GET $1:k", "12 VAL $5:hello\n", 0},
		{"GET-miss", "GET $4:none", "3 NIL\n", 0},
		{"SET", "SET $1:k $5:hello", "2 OK\n", 3},
		{"INCR", "INCR $3:ctr 0", "2 :7\n", 4},
		{"DEL", "DEL $4:none", "2 :0\n", 1},
		{"CAS", "CAS $1:k $5:hello $5:hello", "2 :1\n", 3},
		{"MSET", "MSET $1:k $5:hello", "2 OK\n", 3},
		{"TRANSFER", "TRANSFER $1:a $1:b 0", "2 :1\n", 11},
	} {
		op := roundTrip(wire.AppendFrame(nil, []byte(row.req)), row.resp)
		op() // warm the connection scratch and the pooled transaction
		if avg := testing.AllocsPerRun(200, op); avg > row.max {
			t.Errorf("%s path allocates %.2f allocs/op, want <= %v", row.name, avg, row.max)
		}
	}

	// A read batch that cannot take its snapshot re-runs each command as a
	// batch of one; holding a store-wide transaction open fails every
	// Reader.RunOnce at the gates, while the single-shard fallback needs none.
	hold, held := make(chan struct{}), make(chan struct{})
	go store.Run(nil, memtx.TxOptions{}, nil, false, nil, func(*kv.Tx) error {
		close(held)
		<-hold
		return nil
	})
	<-held
	defer close(hold)
	mget := roundTrip(wire.AppendFrame(nil, []byte("MGET $1:k")), "13 VALS $5:hello\n")
	mget()
	_, before := srv.BatchStats()
	if avg := testing.AllocsPerRun(200, mget); avg > 1 {
		t.Errorf("forced-fallback MGET path allocates %.2f allocs/op, want <= 1", avg)
	}
	if _, after := srv.BatchStats(); after-before < 200 {
		t.Errorf("only %d of 200 MGETs fell back; the held gates did not fail their batches", after-before)
	}
}

// TestDurableSetAllocs pins the durable SET budget end to end: frame read,
// parse, transaction, pooled WAL record encode, pipeline enqueue, and the
// group-commit durability wait before the ACK. The WAL layer itself must not
// add unpooled per-commit allocations on top of the in-memory SET path — the
// record buffer, effect capture, and sync scratch all come from pools.
func TestDurableSetAllocs(t *testing.T) {
	disableGC(t)
	store, _, err := kv.Open(kv.Config{Shards: 4, Buckets: 64},
		kv.DurableConfig{Dir: t.TempDir(), FsyncBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := store.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	_, ln := startPipeServer(t, store, server.Config{})
	conn := ln.dial()
	t.Cleanup(func() { conn.Close() })

	req := wire.AppendFrame(nil, []byte("SET $1:k $5:hello"))
	resp := make([]byte, len("2 OK\n"))
	set := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			t.Fatal(err)
		}
		if string(resp) != "2 OK\n" {
			t.Fatalf("response = %q", resp)
		}
	}
	set() // warm connection scratch, pooled transaction, and WAL pools
	if avg := testing.AllocsPerRun(200, set); avg > 30 {
		t.Errorf("durable SET path allocates %.2f allocs/op, want <= 30", avg)
	}
}
