package passes

import (
	"strings"
	"testing"

	"memtx/internal/til"
	"memtx/internal/til/parser"
)

// countOps tallies opcodes in a function.
func countOps(f *til.Func) map[til.Op]int {
	c := map[til.Op]int{}
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			c[blk.Instrs[i].Op]++
		}
	}
	return c
}

func instrumentedClone(t *testing.T, m *til.Module, name string) *til.Func {
	t.Helper()
	f := m.Funcs[m.FuncByName(name)]
	if f.Instrumented < 0 {
		t.Fatalf("%s has no instrumented clone", name)
	}
	return m.Funcs[f.Instrumented]
}

func TestInstrumentInsertsNaiveBarriers(t *testing.T) {
	src := `
class P words=2 refs=1
global root P

atomic func touch() {
entry:
  p = global root
  a = loadw p 0
  b = loadw p 1
  storew p 0 b
  q = loadr p 0
  ret a
}
`
	m := parser.MustParse("t", src)
	n := Instrument(m)
	if n != 1 {
		t.Fatalf("instrumented %d funcs, want 1", n)
	}
	clone := instrumentedClone(t, m, "touch")
	c := countOps(clone)
	// 3 loads -> 3 openr; 1 store -> 1 openu + 1 undow.
	if c[til.OpOpenR] != 3 || c[til.OpOpenU] != 1 || c[til.OpUndoW] != 1 {
		t.Fatalf("barriers = openr:%d openu:%d undow:%d, want 3/1/1\n%s",
			c[til.OpOpenR], c[til.OpOpenU], c[til.OpUndoW], til.PrintFunc(m, clone))
	}
	// The original is untouched.
	orig := m.Funcs[m.FuncByName("touch")]
	oc := countOps(orig)
	if oc[til.OpOpenR] != 0 && oc[til.OpOpenU] != 0 {
		t.Fatal("original function was instrumented in place")
	}
	if err := til.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestInstrumentRedirectsCalls(t *testing.T) {
	src := `
class P words=1 refs=0
global root P

func helper(p) {
entry:
  v = loadw p 0
  ret v
}

atomic func top() {
entry:
  p = global root
  v = call helper p
  ret v
}
`
	m := parser.MustParse("t", src)
	Instrument(m)
	topClone := instrumentedClone(t, m, "top")
	helperClone := instrumentedClone(t, m, "helper")
	found := false
	for _, blk := range topClone.Blocks {
		for i := range blk.Instrs {
			if in := &blk.Instrs[i]; in.Op == til.OpCall {
				found = true
				if m.Funcs[in.Callee] != helperClone {
					t.Fatalf("call targets %s, want %s", m.Funcs[in.Callee].Name, helperClone.Name)
				}
			}
		}
	}
	if !found {
		t.Fatal("no call in instrumented top")
	}
	// The original top still calls the original helper.
	for _, blk := range m.Funcs[m.FuncByName("top")].Blocks {
		for i := range blk.Instrs {
			if in := &blk.Instrs[i]; in.Op == til.OpCall {
				if m.Funcs[in.Callee].Name != "helper" {
					t.Fatalf("original call retargeted to %s", m.Funcs[in.Callee].Name)
				}
			}
		}
	}
}

func TestOpenCSERemovesStraightLineDuplicates(t *testing.T) {
	src := `
class P words=2 refs=0
global root P

atomic func f() {
entry:
  p = global root
  a = loadw p 0
  b = loadw p 1
  c = add a b
  ret c
}
`
	m := parser.MustParse("t", src)
	Instrument(m)
	clone := instrumentedClone(t, m, "f")
	removed := OpenCSE(clone)
	if removed != 1 {
		t.Fatalf("removed = %d, want 1\n%s", removed, til.PrintFunc(m, clone))
	}
	if c := countOps(clone); c[til.OpOpenR] != 1 {
		t.Fatalf("openr remaining = %d, want 1", c[til.OpOpenR])
	}
}

func TestOpenCSEKeepsOpensAcrossRedefinition(t *testing.T) {
	src := `
class P words=1 refs=1 refclasses=P
global root P

atomic func f() {
entry:
  p = global root
  a = loadw p 0
  p = loadr p 0
  b = loadw p 0
  c = add a b
  ret c
}
`
	m := parser.MustParse("t", src)
	Instrument(m)
	clone := instrumentedClone(t, m, "f")
	OpenCSE(clone)
	// p is redefined between the loads (and the middle loadr needs its own
	// open), so at least... the three accesses need: openr p (load a),
	// openr p (loadr, same p -> removable), openr p' (after redefinition).
	if c := countOps(clone); c[til.OpOpenR] != 2 {
		t.Fatalf("openr remaining = %d, want 2\n%s", c[til.OpOpenR], til.PrintFunc(m, clone))
	}
}

func TestOpenCSEBranchMeet(t *testing.T) {
	// Opened on only one arm of a branch: not available at the join.
	src := `
class P words=1 refs=0
global root P

atomic func f(x) {
entry:
  p = global root
  br x yes join
yes:
  a = loadw p 0
  jmp join
join:
  b = loadw p 0
  ret b
}
`
	m := parser.MustParse("t", src)
	Instrument(m)
	clone := instrumentedClone(t, m, "f")
	if removed := OpenCSE(clone); removed != 0 {
		t.Fatalf("removed %d opens across a partial path, want 0\n%s", removed, til.PrintFunc(m, clone))
	}
	// But if both arms open, the join's open is redundant.
	src2 := strings.Replace(src, "br x yes join", "br x yes no", 1)
	src2 = strings.Replace(src2, "join:\n", "no:\n  c = loadw p 0\n  jmp join\njoin:\n", 1)
	m2 := parser.MustParse("t2", src2)
	Instrument(m2)
	clone2 := instrumentedClone(t, m2, "f")
	if removed := OpenCSE(clone2); removed != 1 {
		t.Fatalf("removed = %d, want 1 (join open redundant)\n%s", removed, til.PrintFunc(m2, clone2))
	}
}

func TestUpgradeStrengthensRead(t *testing.T) {
	src := `
class P words=1 refs=0
global root P

atomic func f() {
entry:
  p = global root
  a = loadw p 0
  one = const 1
  b = add a one
  storew p 0 b
  ret b
}
`
	m := parser.MustParse("t", src)
	Instrument(m)
	clone := instrumentedClone(t, m, "f")
	upgraded := Upgrade(clone)
	if upgraded != 1 {
		t.Fatalf("upgraded = %d, want 1\n%s", upgraded, til.PrintFunc(m, clone))
	}
	OpenCSE(clone)
	c := countOps(clone)
	if c[til.OpOpenR] != 0 || c[til.OpOpenU] != 1 {
		t.Fatalf("after upgrade+cse: openr=%d openu=%d, want 0/1\n%s",
			c[til.OpOpenR], c[til.OpOpenU], til.PrintFunc(m, clone))
	}
}

func TestUpgradeRespectsPartialPaths(t *testing.T) {
	// The update happens on only one branch arm: the read open must stay.
	src := `
class P words=1 refs=0
global root P

atomic func f(x) {
entry:
  p = global root
  a = loadw p 0
  br x wr done
wr:
  storew p 0 a
  jmp done
done:
  ret a
}
`
	m := parser.MustParse("t", src)
	Instrument(m)
	clone := instrumentedClone(t, m, "f")
	if upgraded := Upgrade(clone); upgraded != 0 {
		t.Fatalf("upgraded = %d, want 0\n%s", upgraded, til.PrintFunc(m, clone))
	}
}

func TestUndoElide(t *testing.T) {
	src := `
class P words=2 refs=0
global root P

atomic func f(v) {
entry:
  p = global root
  storew p 0 v
  storew p 0 v
  storew p 1 v
  ret
}
`
	m := parser.MustParse("t", src)
	Instrument(m)
	clone := instrumentedClone(t, m, "f")
	removed := UndoElide(clone)
	if removed != 1 {
		t.Fatalf("undo removed = %d, want 1 (same word logged twice)\n%s", removed, til.PrintFunc(m, clone))
	}
	if c := countOps(clone); c[til.OpUndoW] != 2 {
		t.Fatalf("undow remaining = %d, want 2 (distinct words)", c[til.OpUndoW])
	}

	// An indexed store's undo names the index register: once the index is
	// redefined, the second store writes a different field and keeps its
	// undo entry.
	src = `
class P words=2 refs=0
global root P

atomic func g(v) {
entry:
  p = global root
  i = const 0
  one = const 1
  storewi p i v
  i = add i one
  storewi p i v
  ret
}
`
	m = parser.MustParse("t", src)
	Instrument(m)
	clone = instrumentedClone(t, m, "g")
	if removed := UndoElide(clone); removed != 0 {
		t.Fatalf("undo removed = %d, want 0 (the index was redefined between the stores)\n%s", removed, til.PrintFunc(m, clone))
	}
}

func TestHoistLoopInvariantOpen(t *testing.T) {
	src := `
class Arr words=64 refs=0
global data Arr

atomic func sum(n) {
entry:
  p = global data
  i = const 0
  s = const 0
  jmp head
head:
  c = lt i n
  br c body exit
body:
  v = loadwi p i
  s = add s v
  one = const 1
  i = add i one
  jmp head
exit:
  ret s
}
`
	m := parser.MustParse("t", src)
	Instrument(m)
	clone := instrumentedClone(t, m, "sum")
	hoisted := Hoist(clone)
	if hoisted != 1 {
		t.Fatalf("hoisted = %d, want 1\n%s", hoisted, til.PrintFunc(m, clone))
	}
	// The open must now sit outside the loop: no openr in the body block.
	for _, blk := range clone.Blocks {
		if blk.Name != "body" {
			continue
		}
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == til.OpOpenR {
				t.Fatalf("openr still in loop body\n%s", til.PrintFunc(m, clone))
			}
		}
	}
	if err := til.Verify(m); err != nil {
		t.Fatalf("verify after hoist: %v", err)
	}
}

func TestHoistLeavesVariantOpens(t *testing.T) {
	// The object register is redefined inside the loop (list traversal):
	// nothing may be hoisted.
	src := `
class Node words=1 refs=1 refclasses=Node
global head Node

atomic func last() {
entry:
  p = global head
  jmp loop
loop:
  n = loadr p 0
  c = isnil n
  br c done step
step:
  p = mov n
  jmp loop
done:
  v = loadw p 0
  ret v
}
`
	m := parser.MustParse("t", src)
	Instrument(m)
	clone := instrumentedClone(t, m, "last")
	if hoisted := Hoist(clone); hoisted != 0 {
		t.Fatalf("hoisted = %d, want 0\n%s", hoisted, til.PrintFunc(m, clone))
	}
}

func TestNewObjElide(t *testing.T) {
	src := `
class P words=1 refs=1 refclasses=P
global root P

atomic func build(v) {
entry:
  q = new P
  storew q 0 v
  r = mov q
  x = loadw r 0
  p = global root
  storer p 0 q
  ret x
}
`
	m := parser.MustParse("t", src)
	Instrument(m)
	clone := instrumentedClone(t, m, "build")
	removed := NewObjElide(clone)
	// storew q: openu+undow elided (2); loadw r (alias of q via mov): openr
	// elided (1). storer p keeps its barriers.
	if removed != 3 {
		t.Fatalf("removed = %d, want 3\n%s", removed, til.PrintFunc(m, clone))
	}
	c := countOps(clone)
	if c[til.OpOpenU] != 1 || c[til.OpUndoR] != 1 || c[til.OpOpenR] != 0 {
		t.Fatalf("barriers = %v\n%s", c, til.PrintFunc(m, clone))
	}
}

func TestImmutableElide(t *testing.T) {
	src := `
class Str words=2 refs=0 immutable=0
global s Str

atomic func f() {
entry:
  p = global s
  n = loadw p 0
  v = loadw p 1
  x = add n v
  ret x
}
`
	m := parser.MustParse("t", src)
	Instrument(m)
	clone := instrumentedClone(t, m, "f")
	removed := ImmutableElide(m, clone)
	if removed != 1 {
		t.Fatalf("removed = %d, want 1 (only field 0 is immutable)\n%s", removed, til.PrintFunc(m, clone))
	}
}

func TestMarkReadOnly(t *testing.T) {
	src := `
class P words=1 refs=0
global root P

atomic func reader() {
entry:
  p = global root
  v = loadw p 0
  ret v
}

atomic func writer(v) {
entry:
  p = global root
  storew p 0 v
  ret
}

atomic func indirect() {
entry:
  v = call reader
  ret v
}

atomic func tainted() {
entry:
  v = call writer2
  ret v
}

func writer2() {
entry:
  p = global root
  one = const 1
  storew p 0 one
  ret one
}
`
	m := parser.MustParse("t", src)
	Instrument(m)
	MarkReadOnly(m)
	check := func(name string, want bool) {
		t.Helper()
		clone := instrumentedClone(t, m, name)
		if clone.ReadOnly != want {
			t.Errorf("%s$tx ReadOnly = %v, want %v", name, clone.ReadOnly, want)
		}
	}
	check("reader", true)
	check("indirect", true)
	check("writer", false)
	check("tainted", false)
}

func TestApplyLevelsMonotone(t *testing.T) {
	src := `
class Node words=2 refs=1 immutable=1 refclasses=Node
global root Node

atomic func work(n) {
entry:
  p = global root
  i = const 0
  jmp head
head:
  c = lt i n
  br c body exit
body:
  a = loadw p 0
  b = loadw p 1
  s = add a b
  storew p 0 s
  q = new Node
  storew q 0 s
  one = const 1
  i = add i one
  jmp head
exit:
  v = loadw p 0
  ret v
}
`
	var prev int = 1 << 30
	for _, level := range Levels {
		m := parser.MustParse("t", src)
		res, err := Apply(m, level)
		if err != nil {
			t.Fatalf("Apply(%s): %v", level, err)
		}
		if res.Instrumented != 1 {
			t.Fatalf("Apply(%s): instrumented %d", level, res.Instrumented)
		}
		total := CountBarriers(m).Total()
		if total > prev {
			t.Errorf("level %s has %d static barriers, more than previous level's %d", level, total, prev)
		}
		prev = total
	}
	// The full pipeline must do strictly better than naive here.
	mNaive := parser.MustParse("t", src)
	_, _ = Apply(mNaive, LevelNaive)
	mFull := parser.MustParse("t", src)
	_, _ = Apply(mFull, LevelFull)
	if CountBarriers(mFull).Total() >= CountBarriers(mNaive).Total() {
		t.Errorf("full (%d) not better than naive (%d)",
			CountBarriers(mFull).Total(), CountBarriers(mNaive).Total())
	}
}
