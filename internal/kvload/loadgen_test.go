package kvload

import (
	"context"
	"io"
	"log"
	"net"
	"strings"
	"testing"
	"time"

	"memtx/internal/kv"
	"memtx/internal/server"
)

// startServer serves a fresh in-memory store on a loopback listener.
func startServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	srv := server.New(kv.New(kv.Config{Shards: 4, Buckets: 64}), server.Config{ErrorLog: log.New(io.Discard, "", 0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		<-done
	})
	return srv, ln.Addr().String()
}

// TestVerifySumAuditsWhatTheServerKept drives the remote path end to end:
// Preload seeds, Run sends every command of the mix without an ERR, and
// VerifySum holds. Then one balance is altered out of band and Preload runs
// again. Preload must leave existing accounts as they are, so the audit sees
// the alteration instead of a freshly reseeded account space.
func TestVerifySumAuditsWhatTheServerKept(t *testing.T) {
	srv, addr := startServer(t)
	o := Options{
		Addr:         addr,
		Conns:        2,
		Keys:         200,
		ValueSize:    16,
		Accounts:     16,
		ReadFrac:     0.4,
		TransferFrac: 0.2,
		IncrFrac:     0.2,
		Duration:     200 * time.Millisecond,
		Pipeline:     4,
	}
	if err := Preload(o); err != nil {
		t.Fatal(err)
	}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Errors != 0 {
		t.Fatalf("run: %d ops, %d ERR responses; want ops and no errors", res.Ops, res.Errors)
	}
	for _, c := range []server.Cmd{server.CmdGet, server.CmdSet, server.CmdTransfer, server.CmdIncr} {
		if srv.CmdCount(c) == 0 {
			t.Errorf("the mix sent no %v", c)
		}
	}
	if err := VerifySum(o); err != nil {
		t.Fatalf("verify after a clean run: %v", err)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set(acct(3), kv.FormatInt(7)); err != nil {
		t.Fatal(err)
	}
	if err := Preload(o); err != nil {
		t.Fatal(err)
	}
	if err := VerifySum(o); err == nil {
		t.Fatal("verify passed after an account was overwritten: Preload reseeded the account space")
	}

	// A store holding only some accounts is neither fresh nor intact.
	if _, err := c.Del(acct(5)); err != nil {
		t.Fatal(err)
	}
	err = Preload(o)
	if err == nil || !strings.Contains(err.Error(), string(acct(5))) {
		t.Fatalf("preload over a partial account space: err = %v, want one naming %s", err, acct(5))
	}
}

// TestOptionsDefaults pins the defaulting rules the CLI flags rely on.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Conns != 4 || o.Keys != 10000 || o.ValueSize != 64 || o.Pipeline != 1 {
		t.Errorf("unexpected defaults: %+v", o)
	}
	if o.ReadFrac != 0.8 || o.TransferFrac != 0.1 {
		t.Errorf("unexpected mix defaults: read=%v transfer=%v", o.ReadFrac, o.TransferFrac)
	}
	// An explicit read fraction that would push the mix over 1.0 clamps the
	// transfer share instead of silently exceeding it.
	o = Options{ReadFrac: 0.95, TransferFrac: 0.2}.withDefaults()
	if o.ReadFrac+o.TransferFrac > 1 {
		t.Errorf("mix exceeds 1: read=%v transfer=%v", o.ReadFrac, o.TransferFrac)
	}
}

// TestOptionsStringReportsWhatRuns checks that the description prints the
// fractions the load runs, not a preset's "off" sentinel: ycsb-a turns
// transfers off, so its title must read 0% TRANSFER.
func TestOptionsStringReportsWhatRuns(t *testing.T) {
	o := Options{Addr: "127.0.0.1:7070", Conns: 8, Pipeline: 8}
	if err := o.ApplyMix("ycsb-a"); err != nil {
		t.Fatal(err)
	}
	want := "127.0.0.1:7070: 8 conns, pipeline 8, 50% GET / 0% TRANSFER / 0% INCR / rest SET"
	if got := o.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
