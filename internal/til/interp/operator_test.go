package interp

import (
	"math"
	"strings"
	"testing"

	"memtx/internal/core"
	"memtx/internal/engine"
	"memtx/internal/rawengine"
	"memtx/internal/til"
)

// binOps is Go's own operator for each til.BinKind, in BinKind order. The
// interpreter masks shift counts to 6 bits.
var binOps = []func(a, b uint64) uint64{
	til.BinAdd: func(a, b uint64) uint64 { return a + b },
	til.BinSub: func(a, b uint64) uint64 { return a - b },
	til.BinMul: func(a, b uint64) uint64 { return a * b },
	til.BinDiv: func(a, b uint64) uint64 { return a / b },
	til.BinMod: func(a, b uint64) uint64 { return a % b },
	til.BinAnd: func(a, b uint64) uint64 { return a & b },
	til.BinOr:  func(a, b uint64) uint64 { return a | b },
	til.BinXor: func(a, b uint64) uint64 { return a ^ b },
	til.BinShl: func(a, b uint64) uint64 { return a << (b & 63) },
	til.BinShr: func(a, b uint64) uint64 { return a >> (b & 63) },
	til.BinLt:  func(a, b uint64) uint64 { return bit(a < b) },
	til.BinLe:  func(a, b uint64) uint64 { return bit(a <= b) },
	til.BinEq:  func(a, b uint64) uint64 { return bit(a == b) },
	til.BinNe:  func(a, b uint64) uint64 { return bit(a != b) },
	til.BinGt:  func(a, b uint64) uint64 { return bit(a > b) },
	til.BinGe:  func(a, b uint64) uint64 { return bit(a >= b) },
}

// bit is exec's b2w, restated so that no expected value comes from the
// code under test.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// operatorModule holds one function per operator, each a single
// instruction and its ret: every BinKind under its mnemonic, then isnil,
// refeq, constnil and mov.
func operatorModule(atomic bool) *til.Module {
	m := til.NewModule("operators")
	fn := func(name string, body func(b *til.FuncBuilder), params ...string) {
		b := til.NewFuncBuilder(name, atomic, params...)
		b.Block("entry")
		body(b)
		b.Ret("r")
		m.AddFunc(b.Done())
	}
	for k := range binOps {
		fn(til.BinKind(k).String(), func(b *til.FuncBuilder) { b.Bin(til.BinKind(k), "r", "a", "b") }, "a", "b")
	}
	fn("isnil", func(b *til.FuncBuilder) { b.IsNil("r", "a") }, "a")
	fn("refeq", func(b *til.FuncBuilder) { b.RefEq("r", "a", "b") }, "a", "b")
	fn("constnil", func(b *til.FuncBuilder) { b.ConstNil("r") })
	fn("mov", func(b *til.FuncBuilder) { b.Mov("r", "a") }, "a")
	return m
}

// TestEveryOperator runs every binary operator, isnil, refeq, constnil and
// mov through a one-instruction function, in and out of a transaction on the
// uninstrumented and the direct-update engine, and compares each result with
// Go's own operator. The kernels' golden results and difftest are computed
// by this same interpreter, so only a check against Go catches an operator
// that is wrong in exec.
func TestEveryOperator(t *testing.T) {
	if s := til.BinKind(len(binOps)).String(); !strings.HasPrefix(s, "bin(") {
		t.Fatalf("BinKind %d is %q, which binOps does not cover", len(binOps), s)
	}
	operands := []uint64{0, 1, 1 << 63, math.MaxUint64}
	shifts := []uint64{0, 63, 64, 127}
	for name, mk := range map[string]func() engine.Engine{
		"raw":    func() engine.Engine { return rawengine.New() },
		"direct": func() engine.Engine { return core.New() },
	} {
		for _, atomic := range []bool{false, true} {
			e := mk()
			p, err := Load(operatorModule(atomic), e)
			if err != nil {
				t.Fatalf("%s: load: %v", name, err)
			}
			m := p.NewMachine()
			call := func(fn string, want Value, args ...Value) {
				t.Helper()
				if got, err := m.Call(fn, args...); err != nil || got != want {
					t.Errorf("%s atomic=%v: %s%v = %+v, %v; want %+v", name, atomic, fn, args, got, err, want)
				}
			}

			for k, op := range binOps {
				kind := til.BinKind(k)
				bs := operands
				if kind == til.BinShl || kind == til.BinShr {
					bs = shifts
				}
				for _, a := range operands {
					for _, b := range bs {
						if b == 0 && (kind == til.BinDiv || kind == til.BinMod) {
							if _, err := m.Call(kind.String(), Word(a), Word(b)); !IsTrap(err) {
								t.Errorf("%s atomic=%v: %s(%d, 0): err = %v, want a trap", name, atomic, kind, a, err)
							}
							continue
						}
						call(kind.String(), Word(op(a, b)), Word(a), Word(b))
					}
				}
			}

			x, y := e.NewObj(1, 0), e.NewObj(1, 0)
			refs := []engine.Handle{nil, x, y}
			for _, a := range refs {
				call("isnil", Word(bit(a == nil)), Ref(a))
				call("mov", Ref(a), Ref(a))
				for _, b := range refs {
					call("refeq", Word(bit(a == b)), Ref(a), Ref(b))
				}
			}
			for _, a := range operands {
				call("mov", Word(a), Word(a))
			}
			call("constnil", Ref(nil))
		}
	}
}
