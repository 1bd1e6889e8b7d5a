package server_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"memtx"
	"memtx/internal/chaos"
	"memtx/internal/kv"
	"memtx/internal/kvload"
	"memtx/internal/server"
	"memtx/internal/server/wire"
)

func chaosAcct(i int) []byte { return []byte(fmt.Sprintf("chaos-acct-%02d", i)) }

// serverChaosConfig injects faults into every layer at once: STM hot paths
// (aborts, delays up to stmDelay, panics), the transport (connection kills
// on read and write, delays), and the handler (panics, delays).
func serverChaosConfig(seed uint64, stmDelay time.Duration) chaos.Config {
	cfg := chaos.Config{Seed: seed}
	for _, p := range []chaos.Point{chaos.OpenForRead, chaos.OpenForUpdate, chaos.CommitValidate, chaos.CMWait} {
		cfg.Points[p] = chaos.PointConfig{
			AbortPPM: 20_000,
			DelayPPM: 5_000,
			PanicPPM: 2_000,
			MaxDelay: stmDelay,
		}
	}
	cfg.Points[chaos.WriteBack] = chaos.PointConfig{DelayPPM: 10_000, MaxDelay: stmDelay}
	cfg.Points[chaos.FrameRead] = chaos.PointConfig{AbortPPM: 2_000, DelayPPM: 2_000, MaxDelay: 200 * time.Microsecond}
	cfg.Points[chaos.RespWrite] = chaos.PointConfig{AbortPPM: 2_000, DelayPPM: 2_000, MaxDelay: 200 * time.Microsecond}
	cfg.Points[chaos.Handler] = chaos.PointConfig{DelayPPM: 2_000, PanicPPM: 2_000, MaxDelay: 200 * time.Microsecond}
	return cfg
}

// TestChaosServerInvariants drives a transfer workload through the full
// stack — wire protocol, shedding, deadlines, STM — while the injector
// kills connections, panics handlers, and aborts transactions, with some
// clients additionally vanishing mid-pipeline. Afterwards the money must be
// conserved, the engine unwedged, and its accounting consistent.
//
// The drill input squeezes the server — two transaction slots, a 200µs
// queue and a 2ms command budget against STM delays of up to 1ms — so every
// degradation path must also fire: shedding, command deadlines and panic
// recovery.
func TestChaosServerInvariants(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		iters := 300
		if testing.Short() {
			iters = 100
		}
		runServerChaos(t, iters, server.Config{
			MaxInflight:  4,
			CmdDeadline:  5 * time.Millisecond,
			QueueTimeout: time.Millisecond,
			ReadTimeout:  500 * time.Millisecond,
			WriteTimeout: 500 * time.Millisecond,
		}, serverChaosConfig(42, 50*time.Microsecond))
	})
	// Deadlines need a long injected delay and an abort in the same
	// command, so the drill keeps its full length under -short: at 300
	// transfers per worker a run without -race saw as few as one.
	t.Run("drill", func(t *testing.T) {
		srv := runServerChaos(t, 600, server.Config{
			MaxInflight:  2,
			CmdDeadline:  2 * time.Millisecond,
			QueueTimeout: 200 * time.Microsecond,
			ReadTimeout:  500 * time.Millisecond,
			WriteTimeout: 500 * time.Millisecond,
		}, serverChaosConfig(42, time.Millisecond))
		shed, panics, deadlines, _ := srv.RobustStats()
		t.Logf("shed %d, recovered panics %d, command deadlines %d", shed, panics, deadlines)
		if shed == 0 || panics == 0 || deadlines == 0 {
			t.Fatalf("a degradation path never fired: shed %d, recovered panics %d, command deadlines %d",
				shed, panics, deadlines)
		}
	})
}

// runServerChaos runs iters chaos transfers per worker against a server
// built from cfg with ccfg injected, checks the invariants, and returns the
// server for further assertions on its counters.
func runServerChaos(t *testing.T, iters int, cfg server.Config, ccfg chaos.Config) *server.Server {
	srv, addr := startServer(t, cfg)
	store := srv.Store()

	const (
		accounts = 32
		initial  = 1000
	)
	for i := 0; i < accounts; i++ {
		store.Set(chaosAcct(i), kv.FormatInt(initial))
	}

	in := chaos.New(ccfg)
	chaos.Enable(in)
	defer chaos.Disable()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := kvload.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer func() { c.Close() }()
			state := uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				return state
			}
			redial := func() bool {
				c.Close()
				nc, err := kvload.Dial(addr)
				if err != nil {
					t.Error(err)
					return false
				}
				c = nc
				return true
			}
			for i := 0; i < iters; i++ {
				if i%50 == 49 {
					// Mid-pipeline kill: leave transfers in flight and
					// vanish. The server must finish or abort them cleanly
					// with nobody reading the responses.
					for j := 0; j < 4; j++ {
						src, dst := next()%accounts, next()%accounts
						_ = c.Send("TRANSFER",
							wire.Blob(chaosAcct(int(src))), wire.Blob(chaosAcct(int(dst))),
							wire.Bare(string(kv.FormatInt(int64(next()%10)))))
					}
					_ = c.Flush()
					if !redial() {
						return
					}
					continue
				}
				src, dst := int(next()%accounts), int(next()%accounts)
				if src == dst {
					continue
				}
				_, err := c.Transfer(chaosAcct(src), chaosAcct(dst), int64(next()%10))
				if err != nil {
					var re *kvload.RemoteError
					var be *kvload.BusyError
					if errors.As(err, &re) || errors.As(err, &be) {
						continue // deadline/panic ERR or shed: handled cleanly
					}
					// Transport failure — an injected connection kill.
					if !redial() {
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	chaos.Disable()

	if in.InjectedTotal() == 0 {
		t.Fatal("chaos injected nothing; the run proved nothing")
	}
	t.Logf("injected faults: %d", in.InjectedTotal())

	// Connections from mid-pipeline kills may still be draining their
	// doomed responses; wait for the engine to quiesce before auditing.
	quiesceBy := time.Now().Add(10 * time.Second)
	for {
		st := store.Stats()
		if st.Starts == st.Commits+st.Aborts {
			break
		}
		if time.Now().After(quiesceBy) {
			t.Fatalf("engine never quiesced: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The stack must be unwedged: a plain transfer on a fresh connection
	// succeeds with chaos off.
	c, err := kvload.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Transfer(chaosAcct(0), chaosAcct(1), 1); err != nil {
		t.Fatalf("server wedged after chaos: %v", err)
	}

	// Conservation, read in one server-side snapshot.
	var sum int64
	if err := store.Run(nil, memtx.TxOptions{}, nil, true, nil, func(tx *kv.Tx) error {
		sum = 0
		for i := 0; i < accounts; i++ {
			v, ok := tx.Get(chaosAcct(i))
			if !ok {
				return fmt.Errorf("account %d vanished", i)
			}
			n, err := kv.ParseInt(v)
			if err != nil {
				return fmt.Errorf("account %d balance %q: %w", i, v, err)
			}
			sum += n
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := int64(accounts * initial); sum != want {
		t.Fatalf("balance sum %d, want %d: a fault tore a transfer", sum, want)
	}
	return srv
}
