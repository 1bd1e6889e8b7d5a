// Quickstart for the stmkvd serving layer, fully in-process: build a
// sharded transactional store, serve it on a loopback TCP listener, and
// drive it with the pipelining protocol client — including a multi-key
// TRANSFER that is atomic across shards: each shard owns its own transaction
// manager, and the store commits shard-spanning transactions through an
// ascending-order two-phase protocol.
//
// Run with: go run ./examples/kv
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"memtx/internal/kv"
	"memtx/internal/kvload"
	"memtx/internal/server"
)

func main() {
	// A 4-shard store on the direct-update engine, served on a random port.
	store := kv.New(kv.Config{Shards: 4})
	srv := server.New(store, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := kvload.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Plain key-value traffic. Values are arbitrary bytes.
	if err := c.Set([]byte("greeting"), []byte("hello, stm")); err != nil {
		log.Fatal(err)
	}
	v, _, err := c.Get([]byte("greeting"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greeting = %q\n", v)

	// Numeric helpers and a cross-key atomic transfer.
	if _, err := c.Incr([]byte("alice"), 100); err != nil {
		log.Fatal(err)
	}
	if ok, err := c.Transfer([]byte("alice"), []byte("bob"), 30); err != nil || !ok {
		log.Fatalf("transfer: ok=%v err=%v", ok, err)
	}
	// MGET reads both balances in one atomic snapshot.
	vals, err := c.MGet([]byte("alice"), []byte("bob"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice = %s, bob = %s (sum conserved)\n", vals[0], vals[1])

	// Compare-and-set: optimistic concurrency at the client.
	if ok, _ := c.CAS([]byte("greeting"), []byte("hello, stm"), []byte("bye")); !ok {
		log.Fatal("CAS should have matched")
	}

	// Drain: in-flight requests finish, then the server exits cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	<-done
	st := store.Stats()
	fmt.Printf("server drained; %d transactions committed, %d ops served\n",
		st.Commits, store.OpCount(kv.OpGet)+store.OpCount(kv.OpSet))
}
