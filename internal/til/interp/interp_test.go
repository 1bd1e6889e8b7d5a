package interp

import (
	"strings"
	"sync"
	"testing"

	"memtx/internal/core"
	"memtx/internal/engine"
	"memtx/internal/ostm"
	"memtx/internal/rawengine"
	"memtx/internal/til"
	"memtx/internal/til/parser"
	"memtx/internal/til/passes"
	"memtx/internal/wstm"
)

// engines returns one engine of each design. The raw engine is only used for
// single-threaded programs.
func engines() map[string]engine.Engine {
	return map[string]engine.Engine{
		"raw":    rawengine.New(),
		"direct": core.New(),
		"wstm":   wstm.New(wstm.WithStripes(1 << 12)),
		"ostm":   ostm.New(),
	}
}

func loadProgram(t *testing.T, src string, level passes.Level, e engine.Engine) *Program {
	t.Helper()
	m, err := parser.Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := passes.Apply(m, level); err != nil {
		t.Fatalf("passes: %v", err)
	}
	p, err := Load(m, e)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

const fibSrc = `
func fib(n) {
entry:
  two = const 2
  c = lt n two
  br c base rec
base:
  ret n
rec:
  one = const 1
  a = sub n one
  b = sub n two
  x = call fib a
  y = call fib b
  s = add x y
  ret s
}
`

func TestPureComputation(t *testing.T) {
	for name, e := range engines() {
		t.Run(name, func(t *testing.T) {
			p := loadProgram(t, fibSrc, passes.LevelFull, e)
			m := p.NewMachine()
			got, err := m.Call("fib", Word(15))
			if err != nil {
				t.Fatalf("Call: %v", err)
			}
			if got.W != 610 {
				t.Fatalf("fib(15) = %d, want 610", got.W)
			}
		})
	}
}

const counterSrc = `
class Counter words=1 refs=0
global ctr Counter

atomic func inc() {
entry:
  p = global ctr
  v = loadw p 0
  one = const 1
  w = add v one
  storew p 0 w
  ret w
}

atomic func get() {
entry:
  p = global ctr
  v = loadw p 0
  ret v
}
`

func TestAtomicCounterAllEnginesAllLevels(t *testing.T) {
	for name, mk := range map[string]func() engine.Engine{
		"direct": func() engine.Engine { return core.New() },
		"wstm":   func() engine.Engine { return wstm.New(wstm.WithStripes(1 << 12)) },
		"ostm":   func() engine.Engine { return ostm.New() },
	} {
		for _, level := range passes.Levels {
			t.Run(name+"/"+level.String(), func(t *testing.T) {
				p := loadProgram(t, counterSrc, level, mk())
				m := p.NewMachine()
				for i := 0; i < 10; i++ {
					if _, err := m.Call("inc"); err != nil {
						t.Fatalf("inc: %v", err)
					}
				}
				got, err := m.Call("get")
				if err != nil {
					t.Fatalf("get: %v", err)
				}
				if got.W != 10 {
					t.Fatalf("counter = %d, want 10", got.W)
				}
			})
		}
	}
}

func TestConcurrentCounter(t *testing.T) {
	for name, mk := range map[string]func() engine.Engine{
		"direct": func() engine.Engine { return core.New() },
		"wstm":   func() engine.Engine { return wstm.New(wstm.WithStripes(1 << 12)) },
		"ostm":   func() engine.Engine { return ostm.New() },
	} {
		t.Run(name, func(t *testing.T) {
			p := loadProgram(t, counterSrc, passes.LevelFull, mk())
			const goroutines = 8
			const perG = 100
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					m := p.NewMachine()
					for i := 0; i < perG; i++ {
						if _, err := m.Call("inc"); err != nil {
							t.Errorf("inc: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			m := p.NewMachine()
			got, err := m.Call("get")
			if err != nil {
				t.Fatalf("get: %v", err)
			}
			if got.W != goroutines*perG {
				t.Fatalf("counter = %d, want %d", got.W, goroutines*perG)
			}
		})
	}
}

const listSrc = `
class Node words=1 refs=1 refclasses=Node
class List words=0 refs=1 refclasses=Node
global lst List

atomic func push(v) {
entry:
  l = global lst
  n = new Node
  storew n 0 v
  h = loadr l 0
  storer n 0 h
  storer l 0 n
  ret
}

atomic func sum() {
entry:
  l = global lst
  s = const 0
  n = loadr l 0
  jmp loop
loop:
  c = isnil n
  br c done step
step:
  v = loadw n 0
  s = add s v
  n = loadr n 0
  jmp loop
done:
  ret s
}
`

func TestLinkedListAllLevels(t *testing.T) {
	for _, level := range passes.Levels {
		t.Run(level.String(), func(t *testing.T) {
			p := loadProgram(t, listSrc, level, core.New())
			m := p.NewMachine()
			want := uint64(0)
			for i := uint64(1); i <= 50; i++ {
				if _, err := m.Call("push", Word(i)); err != nil {
					t.Fatalf("push: %v", err)
				}
				want += i
			}
			got, err := m.Call("sum")
			if err != nil {
				t.Fatalf("sum: %v", err)
			}
			if got.W != want {
				t.Fatalf("sum = %d, want %d", got.W, want)
			}
		})
	}
}

func TestReadOnlyTransactionsUsed(t *testing.T) {
	e := core.New()
	p := loadProgram(t, counterSrc, passes.LevelFull, e)
	m := p.NewMachine()
	// get$tx must be marked read-only by the pipeline.
	gi := p.Mod.FuncByName("get")
	clone := p.Mod.Funcs[p.Mod.Funcs[gi].Instrumented]
	if !clone.ReadOnly {
		t.Fatal("get$tx not marked read-only")
	}
	if _, err := m.Call("get"); err != nil {
		t.Fatalf("get: %v", err)
	}
}

func TestTrapNilDeref(t *testing.T) {
	src := `
class P words=1 refs=1 refclasses=P
global root P

atomic func boom() {
entry:
  p = global root
  q = loadr p 0
  v = loadw q 0
  ret v
}
`
	p := loadProgram(t, src, passes.LevelFull, core.New())
	m := p.NewMachine()
	_, err := m.Call("boom")
	if err == nil {
		t.Fatal("expected trap on nil dereference")
	}
	if !IsTrap(err) {
		t.Fatalf("error %v is not a trap", err)
	}
}

func TestTrapDivisionByZero(t *testing.T) {
	src := `
func f(a, b) {
entry:
  q = div a b
  ret q
}
`
	p := loadProgram(t, src, passes.LevelNaive, rawengine.New())
	m := p.NewMachine()
	if _, err := m.Call("f", Word(10), Word(0)); err == nil || !IsTrap(err) {
		t.Fatalf("err = %v, want trap", err)
	}
}

func TestTrapOutOfBoundsField(t *testing.T) {
	src := `
class P words=1 refs=0
global root P

atomic func f(i) {
entry:
  p = global root
  v = loadwi p i
  ret v
}
`
	p := loadProgram(t, src, passes.LevelFull, core.New())
	m := p.NewMachine()
	if _, err := m.Call("f", Word(99)); err == nil || !IsTrap(err) {
		t.Fatalf("err = %v, want trap", err)
	}
}

func TestImplicitTransactionsOutsideAtomic(t *testing.T) {
	src := `
class P words=1 refs=0
global root P

func poke(v) {
entry:
  p = global root
  storew p 0 v
  r = loadw p 0
  ret r
}
`
	e := core.New()
	p := loadProgram(t, src, passes.LevelNaive, e)
	m := p.NewMachine()
	got, err := m.Call("poke", Word(123))
	if err != nil {
		t.Fatalf("poke: %v", err)
	}
	if got.W != 123 {
		t.Fatalf("poke = %d, want 123", got.W)
	}
	if m.Stats.ImplicitTxns == 0 {
		t.Fatal("expected implicit transactions for non-atomic memory access")
	}
}

func TestStatsCountOperations(t *testing.T) {
	p := loadProgram(t, counterSrc, passes.LevelNaive, core.New())
	m := p.NewMachine()
	if _, err := m.Call("inc"); err != nil {
		t.Fatalf("inc: %v", err)
	}
	if m.Stats.OpensR == 0 || m.Stats.OpensU == 0 || m.Stats.Undos == 0 {
		t.Fatalf("barrier stats missing: %+v", m.Stats)
	}
	if m.Stats.Loads != 1 || m.Stats.Stores != 1 {
		t.Fatalf("access stats = loads:%d stores:%d, want 1/1", m.Stats.Loads, m.Stats.Stores)
	}
}

func TestOptimizationReducesDynamicBarriers(t *testing.T) {
	// A loop over an array: naive code opens per access; hoisted code opens
	// once.
	src := `
class Arr words=128 refs=0
global data Arr

atomic func fill(n) {
entry:
  p = global data
  i = const 0
  jmp head
head:
  c = lt i n
  br c body exit
body:
  storewi p i i
  one = const 1
  i = add i one
  jmp head
exit:
  ret
}
`
	run := func(level passes.Level) Stats {
		p := loadProgram(t, src, level, core.New())
		m := p.NewMachine()
		if _, err := m.Call("fill", Word(100)); err != nil {
			t.Fatalf("fill(%s): %v", level, err)
		}
		return m.Stats
	}
	naive := run(passes.LevelNaive)
	hoisted := run(passes.LevelHoist)
	if naive.OpensU != 100 {
		t.Fatalf("naive OpensU = %d, want 100", naive.OpensU)
	}
	if hoisted.OpensU != 1 {
		t.Fatalf("hoisted OpensU = %d, want 1", hoisted.OpensU)
	}
	// Dynamic-index undo ops cannot be hoisted and remain per-iteration.
	if hoisted.Undos != naive.Undos {
		t.Fatalf("undos changed: naive %d, hoisted %d", naive.Undos, hoisted.Undos)
	}
}

// TestVerifyRejectsBadModule: Load refuses what Verify refuses, including
// an operator past the last BinKind, which the parser cannot express and
// which would otherwise lower to an opcode exec has no case for.
func TestVerifyRejectsBadModule(t *testing.T) {
	empty := til.NewModule("bad")
	f := &til.Func{Name: "f", NRegs: 1, Instrumented: -1}
	f.Blocks = []*til.Block{{Name: "entry"}} // empty block
	empty.AddFunc(f)

	binop := til.NewModule("bad")
	b := til.NewFuncBuilder("f", false, "a")
	b.Block("entry")
	b.Bin(til.BinGe+1, "r", "a", "a")
	b.Ret("r")
	binop.AddFunc(b.Done())

	for _, tc := range []struct {
		m    *til.Module
		want string
	}{{empty, "empty"}, {binop, "invalid binop"}} {
		if _, err := Load(tc.m, rawengine.New()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Load = %v, want an error naming %q", err, tc.want)
		}
	}
}
