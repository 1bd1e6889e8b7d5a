package chaos

import (
	"testing"
	"time"

	"memtx/internal/engine"
)

// fullConfig arms every point with every action; New clamps the
// delay-only points.
func fullConfig(seed uint64) Config {
	cfg := Config{Seed: seed}
	for p := range cfg.Points {
		cfg.Points[p] = PointConfig{AbortPPM: 200_000, DelayPPM: 100_000, PanicPPM: 50_000, MaxDelay: time.Microsecond}
	}
	return cfg
}

func TestDecideDeterministicForSeed(t *testing.T) {
	a := New(fullConfig(42))
	b := New(fullConfig(42))
	for i := 0; i < 10_000; i++ {
		p := Point(i % NumPoints)
		actA, dA := a.Decide(p)
		actB, dB := b.Decide(p)
		if actA != actB || dA != dB {
			t.Fatalf("draw %d at %s diverged: (%s,%v) vs (%s,%v)", i, p, actA, dA, actB, dB)
		}
	}
	if a.InjectedTotal() == 0 {
		t.Fatal("no faults injected over 10k draws at these rates")
	}
}

func TestDecideSeedsDiffer(t *testing.T) {
	a := New(fullConfig(1))
	b := New(fullConfig(2))
	same := 0
	const draws = 4096
	for i := 0; i < draws; i++ {
		actA, _ := a.Decide(OpenForRead)
		actB, _ := b.Decide(OpenForRead)
		if actA == actB {
			same++
		}
	}
	if same == draws {
		t.Fatal("different seeds produced identical decision sequences")
	}
}

func TestDecideRates(t *testing.T) {
	// Half the draws abort: the observed rate must land within a loose band.
	cfg := Config{Seed: 7}
	cfg.Points[OpenForRead] = PointConfig{AbortPPM: 500_000}
	in := New(cfg)
	const draws = 20_000
	for i := 0; i < draws; i++ {
		in.Decide(OpenForRead)
	}
	aborts := in.Injected(OpenForRead, ActAbort)
	if aborts < draws*4/10 || aborts > draws*6/10 {
		t.Fatalf("abort rate %d/%d far from configured 50%%", aborts, draws)
	}
	if got := in.Injected(OpenForRead, ActAbort) + in.Injected(OpenForRead, ActNone); got != draws {
		t.Fatalf("accounting: abort+none = %d, want %d", got, draws)
	}
}

func TestWriteBackClampedToDelays(t *testing.T) {
	cfg := Config{Seed: 3}
	cfg.Points[WriteBack] = PointConfig{
		AbortPPM: 1_000_000, PanicPPM: 1_000_000,
		DelayPPM: 100_000, MaxDelay: time.Nanosecond,
	}
	in := New(cfg)
	for i := 0; i < 2_000; i++ {
		in.Step(WriteBack) // must never panic or abort
	}
	if in.Injected(WriteBack, ActAbort) != 0 || in.Injected(WriteBack, ActPanic) != 0 {
		t.Fatal("WriteBack injected an abort or panic despite the clamp")
	}
	if in.Injected(WriteBack, ActDelay) == 0 {
		t.Fatal("WriteBack delays never fired at 10% over 2k draws")
	}
}

func TestStepAbortRaisesRetryWithPointCause(t *testing.T) {
	cases := []struct {
		p    Point
		want engine.AbortCause
	}{
		{OpenForRead, engine.CauseValidation},
		{OpenForUpdate, engine.CauseOwnership},
		{CommitValidate, engine.CauseValidation},
		{CMWait, engine.CauseCMKill},
	}
	for _, tc := range cases {
		cfg := Config{Seed: 1}
		cfg.Points[tc.p] = PointConfig{AbortPPM: 1_000_000}
		in := New(cfg)
		func() {
			defer func() {
				r := recover()
				rt, ok := r.(*engine.Retry)
				if !ok {
					t.Fatalf("%s: recovered %T, want *engine.Retry", tc.p, r)
				}
				if rt.Cause != tc.want {
					t.Fatalf("%s: cause %v, want %v", tc.p, rt.Cause, tc.want)
				}
			}()
			in.Step(tc.p)
		}()
	}
}

func TestStepPanicRaisesInjectedPanic(t *testing.T) {
	cfg := Config{Seed: 1}
	cfg.Points[Handler] = PointConfig{PanicPPM: 1_000_000}
	in := New(cfg)
	defer func() {
		ip, ok := recover().(*InjectedPanic)
		if !ok || ip.Point != Handler {
			t.Fatalf("recovered %v, want *InjectedPanic at handler", ip)
		}
	}()
	in.Step(Handler)
}

func TestEnableDisable(t *testing.T) {
	if Active() != nil {
		t.Fatal("injector active before Enable")
	}
	in := New(Config{Seed: 9})
	Enable(in)
	if Active() != in {
		t.Fatal("Enable did not install the injector")
	}
	Disable()
	if Active() != nil {
		t.Fatal("Disable left the injector installed")
	}
}
