package interp

import (
	"strings"
	"testing"
	"time"

	"memtx/internal/core"
	"memtx/internal/engine"
	"memtx/internal/rawengine"
	"memtx/internal/til/passes"
)

// callWithin runs m.Call(name) and fails the test if it has not returned
// within a generous bound, so a broken watchdog fails instead of hanging.
func callWithin(t *testing.T, m *Machine, name string, args ...Value) (Value, error) {
	t.Helper()
	type result struct {
		v   Value
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := m.Call(name, args...)
		done <- result{v, err}
	}()
	select {
	case r := <-done:
		return r.v, r.err
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not return: the watchdog never fired", name)
		return Value{}, nil
	}
}

func TestWatchdogTrapsRunawayTransaction(t *testing.T) {
	src := `
atomic func spin() {
entry:
  jmp loop
loop:
  jmp loop
}
`
	// The default ValidateEvery (50000) lies past MaxSteps, so the first
	// countdown ends at MaxSteps+1; at 100 the watchdog validates ten times
	// and must re-arm after each to reach MaxSteps at all.
	for _, every := range []int{50_000, 100} {
		m := loadProgram(t, src, passes.LevelFull, core.New()).NewMachine()
		m.MaxSteps, m.ValidateEvery = 1000, every
		_, err := callWithin(t, m, "spin")
		if !IsTrap(err) || !strings.Contains(err.Error(), "exceeded") {
			t.Fatalf("ValidateEvery %d: err = %v, want an \"exceeded\" trap", every, err)
		}
		if m.Stats.Steps != 1001 || m.Stats.Txns != 1 {
			t.Fatalf("ValidateEvery %d: steps %d txns %d, want 1001 and 1", every, m.Stats.Steps, m.Stats.Txns)
		}
	}
}

func TestRecursionTrapRestoresMachine(t *testing.T) {
	src := fibSrc + `
atomic func down(n) {
entry:
  x = call down n
  ret x
}
`
	m := loadProgram(t, src, passes.LevelFull, core.New()).NewMachine()
	_, err := m.Call("down", Word(1))
	if !IsTrap(err) || !strings.Contains(err.Error(), "call depth exceeded") {
		t.Fatalf("err = %v, want a \"call depth exceeded\" trap", err)
	}
	got, err := m.Call("fib", Word(15))
	if err != nil || got.W != 610 {
		t.Fatalf("fib(15) after the trap = %d, %v; want 610", got.W, err)
	}
}

// zombie wraps an engine so the next `script` transactions read a garbage
// value from every word field 0 — the inconsistent snapshot a doomed
// transaction can see on a non-opaque engine — and, when doomed is set, fail
// validation.
type zombie struct {
	engine.Engine
	script int
	doomed bool
}

func (e *zombie) Begin() engine.Txn         { return e.wrap(e.Engine.Begin()) }
func (e *zombie) BeginReadOnly() engine.Txn { return e.wrap(e.Engine.BeginReadOnly()) }

func (e *zombie) wrap(tx engine.Txn) engine.Txn {
	if e.script == 0 {
		return tx
	}
	e.script--
	return &zombieTxn{Txn: tx, doomed: e.doomed}
}

type zombieTxn struct {
	engine.Txn
	doomed bool
}

func (t *zombieTxn) LoadWord(h engine.Handle, i int) uint64 {
	if i == 0 {
		return 1 << 20 // no object has this many fields
	}
	return t.Txn.LoadWord(h, i)
}

func (t *zombieTxn) Validate() error {
	if t.doomed {
		return engine.ErrConflict
	}
	return t.Txn.Validate()
}

// boundsSrc indexes an object by a field of itself: consistent data keeps
// the index in range, a zombie read does not.
const boundsSrc = `
class P words=2 refs=0
global root P

atomic func init() {
entry:
  p = global root
  one = const 1
  storew p 0 one
  v = const 42
  storew p 1 v
  ret
}

atomic func get() {
entry:
  p = global root
  i = loadw p 0
  v = loadwi p i
  ret v
}

func peek() {
entry:
  p = global root
  i = loadw p 0
  v = loadwi p i
  ret v
}
`

func zombieMachine(t *testing.T, doomed bool) (*Machine, *zombie) {
	t.Helper()
	e := &zombie{Engine: core.New()}
	m := loadProgram(t, boundsSrc, passes.LevelFull, e).NewMachine()
	if _, err := m.Call("init"); err != nil {
		t.Fatalf("init: %v", err)
	}
	m.Stats = Stats{}
	e.script, e.doomed = 1, doomed
	return m, e
}

func TestBoundsFaultInDoomedTransactionRetries(t *testing.T) {
	m, e := zombieMachine(t, true)
	got, err := m.Call("get")
	if err != nil || got.W != 42 {
		t.Fatalf("get = %d, %v; want 42", got.W, err)
	}
	if m.Stats.Txns != 2 {
		t.Fatalf("Txns = %d, want 2 (one doomed attempt, one retry)", m.Stats.Txns)
	}
	if n := e.Metrics().Snapshot().Aborts(engine.CauseValidation); n != 1 {
		t.Fatalf("validation aborts = %d, want 1", n)
	}

	m, _ = zombieMachine(t, false)
	if _, err := m.Call("get"); !IsTrap(err) {
		t.Fatalf("bounds fault in a valid transaction: err = %v, want a trap", err)
	}
}

func TestBoundsFaultOutsideTransactionTraps(t *testing.T) {
	m, _ := zombieMachine(t, true)
	if _, err := m.Call("peek"); !IsTrap(err) {
		t.Fatalf("err = %v, want a trap", err)
	}
	if m.Stats.ImplicitTxns != 2 || m.Stats.Txns != 0 {
		t.Fatalf("implicit %d txns %d, want 2 and 0", m.Stats.ImplicitTxns, m.Stats.Txns)
	}
}

func TestCallsDoNotAllocate(t *testing.T) {
	m := loadProgram(t, fibSrc, passes.LevelFull, rawengine.New()).NewMachine()
	allocs := testing.AllocsPerRun(20, func() {
		if v, err := m.Call("fib", Word(15)); err != nil || v.W != 610 {
			t.Fatalf("fib(15) = %d, %v", v.W, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fib(15) allocated %.1f times per run, want 0", allocs)
	}
}
