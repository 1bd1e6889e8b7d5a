// Package interp executes TIL modules against any STM engine.
//
// A Program binds a module to an engine and allocates the module's globals;
// Machines are per-goroutine executors sharing the Program, so concurrent
// workloads run one Machine per worker thread against the same heap.
//
// Load lowers each verified function once into a flat array of compact
// instructions (code) shared read-only by the Program's Machines: blocks laid
// end to end with jump targets resolved to pcs, int32 register operands, one
// opcode for each immediate/indexed memory pair and one for each binary
// operator. exec runs that array in one loop on a Machine-owned value stack
// with one dispatch per instruction, each call's register window stacked on
// its caller's, so calls allocate nothing.
//
// Transaction semantics mirror the paper's runtime:
//
//   - calling an atomic function outside a transaction starts one, executing
//     the function's instrumented clone (when the module has been through
//     passes.Instrument) and re-executing on conflict;
//   - calling an atomic function inside a transaction is flattened;
//   - read-only atomic functions (passes.MarkReadOnly) use the engine's
//     read-only protocol;
//   - the interpreter is zombie-tolerant: because the direct-update engine
//     is not opaque, a doomed transaction may read inconsistent data and
//     fault or loop; faults trigger validation-then-retry, and a step
//     watchdog — a countdown to the next step that must validate or enforce
//     MaxSteps — validates periodically inside long transactions.
//
// Inside a transaction, a barrier or memory access on a non-nil object
// calls the engine's Txn directly from its own case in exec. An engine panic
// that is neither a conflict nor a trap (a bounds panic on a zombie-computed
// index) is caught by the one recover of the transaction body, which
// validates, then retries or traps; outside any transaction, Call's recover
// reports it as a trap.
//
// Barrier instructions on nil references are no-ops (so speculative code
// motion is always safe); data accesses through nil are faults.
package interp

import (
	"errors"
	"fmt"
	"math"

	"memtx/internal/engine"
	"memtx/internal/til"
)

// Value is a TIL runtime value: a machine word or an object reference.
type Value struct {
	W     uint64
	R     engine.Handle
	IsRef bool
}

// Word returns a scalar value.
func Word(w uint64) Value { return Value{W: w} }

// Ref returns a reference value (h may be nil).
func Ref(h engine.Handle) Value { return Value{R: h, IsRef: true} }

// Stats counts dynamically executed operations across a Machine's lifetime.
type Stats struct {
	Steps        uint64
	OpensR       uint64
	OpensU       uint64
	Undos        uint64
	Loads        uint64
	Stores       uint64
	Allocs       uint64
	Calls        uint64
	Txns         uint64 // top-level transactions started (incl. retries)
	ImplicitTxns uint64 // single-op transactions for non-atomic memory access
}

// Program is a module loaded against an engine, with globals allocated.
type Program struct {
	Mod     *til.Module
	Eng     engine.Engine
	Globals []engine.Handle

	fns []fn // Mod.Funcs, lowered
}

// fn is a lowered til.Func.
type fn struct {
	f    *til.Func
	code []code
	src  []*til.Instr // the instruction each code was lowered from, for traps
	args []int32      // argument registers of every OpCall, in code order
	size int          // register window: NRegs plus the zero slot
}

// code is one lowered instruction. Its op is the til.Op of its source, except
// that an indexed memory op takes the op of its immediate form — the field
// index is always imm plus register idx, which is the zero slot for the
// immediate form — and an OpBin takes the opcode of its BinKind. Register
// operands are offsets into the frame's window; an absent operand (-1 in
// til.Instr, except a call's Dst) names the zero slot, whose value is always
// Value{}. x and y hold New's class, Global's global, Call's callee and the
// offset of its first argument in fn.args, Jmp's pc, and Br's pcs for A != 0
// and A == 0 — blocks are laid end to end.
type code struct {
	op        til.Op
	dst, a, b int32
	obj, idx  int32 // object and field-index registers of memory ops
	x, y      int32
	imm       uint64 // ConstW: the word; memory ops: the immediate field index
}

// The opcodes of the binary operators, one per til.BinKind in its order,
// numbered after til.OpRet.
const (
	opAdd = til.OpRet + 1 + til.Op(iota)
	opSub
	opMul
	opDiv
	opMod
	opAnd
	opOr
	opXor
	opShl
	opShr
	opLt
	opLe
	opEq
	opNe
	opGt
	opGe
)

// indexed maps each indexed memory op to the immediate form it is lowered to.
var indexed = map[til.Op]til.Op{
	til.OpLoadWI: til.OpLoadW, til.OpStoreWI: til.OpStoreW,
	til.OpLoadRI: til.OpLoadR, til.OpStoreRI: til.OpStoreR,
	til.OpUndoWI: til.OpUndoW, til.OpUndoRI: til.OpUndoR,
}

// Load verifies the module, lowers its functions, and allocates its globals
// on the engine.
func Load(m *til.Module, e engine.Engine) (*Program, error) {
	if err := til.Verify(m); err != nil {
		return nil, err
	}
	p := &Program{Mod: m, Eng: e, fns: make([]fn, len(m.Funcs))}
	for i, f := range m.Funcs {
		p.fns[i] = lower(f)
	}
	for _, g := range m.Globals {
		c := &m.Classes[g.Class]
		p.Globals = append(p.Globals, e.NewObj(c.NWords, c.NRefs))
	}
	return p, nil
}

// lower translates a verified function.
func lower(f *til.Func) fn {
	pcs := make([]int32, len(f.Blocks))
	n := 0
	for i, blk := range f.Blocks {
		pcs[i] = int32(n)
		n += len(blk.Instrs)
	}
	zero := int32(f.NRegs)
	reg := func(r int) int32 {
		if r < 0 {
			return zero
		}
		return int32(r)
	}
	l := fn{f: f, code: make([]code, 0, n), src: make([]*til.Instr, 0, n), size: f.NRegs + 1}
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			c := code{op: in.Op, dst: int32(in.Dst), a: reg(in.A), b: reg(in.B),
				obj: reg(in.Obj), idx: zero, imm: uint64(in.Idx)}
			switch in.Op {
			case til.OpConstW:
				c.imm = in.Imm
			case til.OpBin:
				c.op = opAdd + til.Op(in.Bin)
			case til.OpNew:
				c.x = int32(in.Class)
			case til.OpGlobal:
				c.x = int32(in.Idx)
			case til.OpCall:
				c.x, c.y = int32(in.Callee), int32(len(l.args))
				for _, r := range in.Args {
					l.args = append(l.args, int32(r))
				}
			case til.OpJmp:
				c.x = pcs[in.Then]
			case til.OpBr:
				c.x, c.y = pcs[in.Then], pcs[in.Else]
			}
			if op, ok := indexed[in.Op]; ok {
				c.op, c.idx, c.imm = op, int32(in.Idx), 0
			}
			l.code = append(l.code, c)
			l.src = append(l.src, in)
		}
	}
	return l
}

// Machine executes functions of one Program. Not safe for concurrent use;
// create one Machine per goroutine.
type Machine struct {
	prog *Program
	tx   engine.Txn

	// ValidateEvery is the number of interpreted steps between automatic
	// mid-transaction validations (zombie containment). <= 0 disables.
	ValidateEvery int
	// MaxSteps bounds the steps of a single transaction attempt; exceeding
	// it is reported as an error. <= 0 means the default of 1<<30.
	MaxSteps int
	// MaxDepth bounds call recursion.
	MaxDepth int

	Stats Stats

	stack []Value // register windows of the active frames
	depth int

	// The watchdog countdown: left steps until watch must run, out of armed.
	// Stats.Steps is brought up to date from them by flush.
	left, armed int
	txBase      uint64 // Stats.Steps when the current transaction attempt began
}

// idle arms the countdown outside transactions, where the watchdog is off.
const idle = math.MaxInt

// NewMachine returns an executor for the program.
func (p *Program) NewMachine() *Machine {
	return &Machine{prog: p, ValidateEvery: 50_000, MaxSteps: 1 << 30, MaxDepth: 4096, left: idle, armed: idle}
}

// trap is an interpreter fault (nil dereference, bad index, division by
// zero...). Inside a transaction a trap may be a zombie artifact and
// triggers validation; outside it is a program error.
type trap struct {
	msg string
}

func (t *trap) Error() string { return "til: trap: " + t.msg }

// Call invokes the named function. Atomic functions are wrapped in a
// transaction (with retry); plain functions execute directly, and any memory
// operations they perform run as implicit single-operation transactions.
func (m *Machine) Call(name string, args ...Value) (ret Value, err error) {
	fi := m.prog.Mod.FuncByName(name)
	if fi < 0 {
		return Value{}, fmt.Errorf("til: no function %q", name)
	}
	f := &m.prog.fns[fi]
	if len(args) != f.f.NParams {
		return Value{}, &trap{fmt.Sprintf("call %s: %d args, want %d", name, len(args), f.f.NParams)}
	}
	defer func() {
		r := recover()
		m.tx, m.depth = nil, 0
		m.arm(idle)
		if t, ok := r.(*trap); ok {
			ret, err = Value{}, t
		} else if r != nil { // an engine panic outside any transaction
			ret, err = Value{}, &trap{fmt.Sprint(r)}
		}
	}()
	copy(m.window(0, len(args)), args)
	return m.call(f, 0), nil
}

// call invokes f with its arguments at the bottom of the window at base,
// starting a transaction when f is atomic and none is running.
func (m *Machine) call(f *fn, base int) Value {
	if !f.f.Atomic || m.tx != nil {
		return m.exec(f, base)
	}
	t := f
	if f.f.Instrumented >= 0 {
		t = &m.prog.fns[f.f.Instrumented]
	}
	np, depth := f.f.NParams, m.depth
	var ret Value
	body := func(tx engine.Txn) error {
		defer m.contain()
		m.tx, m.depth = tx, depth
		m.Stats.Txns++
		m.arm(m.next(0))
		m.txBase = m.Stats.Steps
		// The body may overwrite its parameter registers, so every attempt
		// starts from a copy of the arguments.
		w := m.window(base+np, np)
		copy(w, m.stack[base:base+np])
		ret = m.exec(t, base+np)
		return nil
	}
	var err error
	if t.f.ReadOnly {
		err = engine.RunReadOnly(m.prog.Eng, body)
	} else {
		err = engine.Run(m.prog.Eng, body)
	}
	m.tx = nil
	m.arm(idle)
	if err != nil {
		// engine.Run only returns the body's error, and our body returns nil;
		// anything else is a bug.
		panic(&trap{fmt.Sprintf("transaction %s: %v", f.f.Name, err)})
	}
	return ret
}

// contain is the transaction body's recover. Conflicts and traps pass
// through; any other panic — an engine's bounds panic on a zombie-computed
// index — becomes a fault while the transaction can still validate.
func (m *Machine) contain() {
	switch r := recover().(type) {
	case nil:
	case *trap, *engine.Retry:
		panic(r)
	default:
		m.fault("%v", r)
	}
}

// window returns the n stack slots from base, growing the stack if needed. A
// frame keeps the window it was given even if a callee grows the stack: it
// only ever touches its own slots and copies arguments into the next window.
func (m *Machine) window(base, n int) []Value {
	if base+n > len(m.stack) {
		s := make([]Value, 2*(base+n))
		copy(s, m.stack)
		m.stack = s
	}
	return m.stack[base : base+n : base+n]
}

// fault raises a trap; inside a transaction it first validates, converting
// zombie-induced faults into retries.
func (m *Machine) fault(format string, args ...any) {
	if m.tx != nil {
		if m.tx.Validate() != nil {
			engine.AbandonCause(engine.CauseValidation, "fault in doomed transaction")
		}
	}
	panic(&trap{fmt.Sprintf(format, args...)})
}

// flush adds the steps counted down since the last flush to Stats.Steps.
func (m *Machine) flush() {
	m.Stats.Steps += uint64(m.armed - m.left)
	m.armed = m.left
}

// arm flushes the countdown and restarts it at n.
func (m *Machine) arm(n int) {
	m.flush()
	m.left, m.armed = n, n
}

// watch is the watchdog, run by exec when the countdown reaches zero inside
// a transaction: it validates every ValidateEvery steps, traps past
// MaxSteps, and re-arms for whichever comes next.
func (m *Machine) watch() {
	m.flush()
	s := int(m.Stats.Steps - m.txBase)
	if m.ValidateEvery > 0 && s%m.ValidateEvery == 0 && m.tx.Validate() != nil {
		engine.AbandonCause(engine.CauseValidation, "watchdog validation failed")
	}
	if max := orDefault(m.MaxSteps, 1<<30); s > max {
		m.fault("transaction exceeded %d steps", max)
	}
	m.arm(m.next(s))
}

// next returns how many steps after the s-th of a transaction the watchdog
// must run again.
func (m *Machine) next(s int) int {
	n := min(orDefault(m.MaxSteps, 1<<30), math.MaxInt-1) + 1 - s
	if v := m.ValidateEvery; v > 0 && v-s%v < n {
		n = v - s%v
	}
	return n
}

// orDefault returns v, or def when v <= 0.
func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// exec interprets f in the register window at base, whose first NParams
// slots hold the arguments, and returns f's result. A call recurses into
// exec with the callee's window stacked on top of this one.
func (m *Machine) exec(f *fn, base int) Value {
	if m.depth++; m.depth > orDefault(m.MaxDepth, 4096) {
		m.fault("call depth exceeded in %s", f.f.Name)
	}
	regs := m.window(base, f.size)
	clear(regs[f.f.NParams:])
	// A transaction started by a callee ends before the call returns, so the
	// frame's transaction is fixed.
	tx := m.tx
	for pc := 0; ; pc++ {
		c := &f.code[pc]
		if m.left--; m.left == 0 {
			m.watch()
		}
		switch c.op {
		case til.OpConstW:
			regs[c.dst] = Word(c.imm)
		case til.OpConstNil:
			regs[c.dst] = Ref(nil)
		case til.OpMov:
			regs[c.dst] = regs[c.a]
		case opAdd:
			regs[c.dst] = Word(regs[c.a].W + regs[c.b].W)
		case opSub:
			regs[c.dst] = Word(regs[c.a].W - regs[c.b].W)
		case opMul:
			regs[c.dst] = Word(regs[c.a].W * regs[c.b].W)
		case opDiv:
			if regs[c.b].W == 0 {
				m.fault("division by zero")
			}
			regs[c.dst] = Word(regs[c.a].W / regs[c.b].W)
		case opMod:
			if regs[c.b].W == 0 {
				m.fault("modulo by zero")
			}
			regs[c.dst] = Word(regs[c.a].W % regs[c.b].W)
		case opAnd:
			regs[c.dst] = Word(regs[c.a].W & regs[c.b].W)
		case opOr:
			regs[c.dst] = Word(regs[c.a].W | regs[c.b].W)
		case opXor:
			regs[c.dst] = Word(regs[c.a].W ^ regs[c.b].W)
		case opShl:
			regs[c.dst] = Word(regs[c.a].W << (regs[c.b].W & 63))
		case opShr:
			regs[c.dst] = Word(regs[c.a].W >> (regs[c.b].W & 63))
		case opLt:
			regs[c.dst] = Word(b2w(regs[c.a].W < regs[c.b].W))
		case opLe:
			regs[c.dst] = Word(b2w(regs[c.a].W <= regs[c.b].W))
		case opEq:
			regs[c.dst] = Word(b2w(regs[c.a].W == regs[c.b].W))
		case opNe:
			regs[c.dst] = Word(b2w(regs[c.a].W != regs[c.b].W))
		case opGt:
			regs[c.dst] = Word(b2w(regs[c.a].W > regs[c.b].W))
		case opGe:
			regs[c.dst] = Word(b2w(regs[c.a].W >= regs[c.b].W))
		case til.OpIsNil:
			regs[c.dst] = Word(b2w(regs[c.a].R == nil))
		case til.OpRefEq:
			regs[c.dst] = Word(b2w(regs[c.a].R == regs[c.b].R))
		case til.OpNew:
			cl := &m.prog.Mod.Classes[c.x]
			m.Stats.Allocs++
			if tx != nil {
				regs[c.dst] = Ref(tx.Alloc(cl.NWords, cl.NRefs))
			} else {
				regs[c.dst] = Ref(m.prog.Eng.NewObj(cl.NWords, cl.NRefs))
			}
		case til.OpGlobal:
			regs[c.dst] = Ref(m.prog.Globals[c.x])

		// A memory op or barrier on a non-nil object inside a transaction
		// counts itself and calls the engine; access handles the rest.
		case til.OpLoadW:
			if h := regs[c.obj].R; h != nil && tx != nil {
				m.Stats.Loads++
				regs[c.dst] = Word(tx.LoadWord(h, int(c.imm+regs[c.idx].W)))
			} else {
				m.access(f, pc, regs)
			}
		case til.OpStoreW:
			if h := regs[c.obj].R; h != nil && tx != nil {
				m.Stats.Stores++
				tx.StoreWord(h, int(c.imm+regs[c.idx].W), regs[c.a].W)
			} else {
				m.access(f, pc, regs)
			}
		case til.OpLoadR:
			if h := regs[c.obj].R; h != nil && tx != nil {
				m.Stats.Loads++
				regs[c.dst] = Ref(tx.LoadRef(h, int(c.imm+regs[c.idx].W)))
			} else {
				m.access(f, pc, regs)
			}
		case til.OpStoreR:
			if h := regs[c.obj].R; h != nil && tx != nil {
				m.Stats.Stores++
				tx.StoreRef(h, int(c.imm+regs[c.idx].W), regs[c.a].R)
			} else {
				m.access(f, pc, regs)
			}
		case til.OpOpenR:
			if h := regs[c.obj].R; h != nil && tx != nil {
				m.Stats.OpensR++
				tx.OpenForRead(h)
			} else {
				m.access(f, pc, regs)
			}
		case til.OpOpenU:
			if h := regs[c.obj].R; h != nil && tx != nil {
				m.Stats.OpensU++
				tx.OpenForUpdate(h)
			} else {
				m.access(f, pc, regs)
			}
		case til.OpUndoW:
			if h := regs[c.obj].R; h != nil && tx != nil {
				m.Stats.Undos++
				tx.LogForUndoWord(h, int(c.imm+regs[c.idx].W))
			} else {
				m.access(f, pc, regs)
			}
		case til.OpUndoR:
			if h := regs[c.obj].R; h != nil && tx != nil {
				m.Stats.Undos++
				tx.LogForUndoRef(h, int(c.imm+regs[c.idx].W))
			} else {
				m.access(f, pc, regs)
			}
		case til.OpValidate:
			if tx != nil && tx.Validate() != nil {
				engine.AbandonCause(engine.CauseValidation, "explicit validate failed")
			}

		case til.OpCall:
			m.Stats.Calls++
			g := &m.prog.fns[c.x]
			top := base + f.size
			args := m.window(top, g.f.NParams)
			for k, r := range f.args[c.y : int(c.y)+len(args)] {
				args[k] = regs[r]
			}
			if r := m.call(g, top); c.dst >= 0 {
				regs[c.dst] = r
			}
		case til.OpJmp:
			pc = int(c.x) - 1
		case til.OpBr:
			if regs[c.a].W != 0 {
				pc = int(c.x) - 1
			} else {
				pc = int(c.y) - 1
			}
		case til.OpRet:
			m.depth--
			return regs[c.a]
		}
	}
}

// access is the slow path of the memory op or barrier at pc: on a nil
// object a barrier is a no-op (so speculative code motion is always safe) and
// a data access faults; outside a transaction the op counts, then runs as a
// transaction of its own.
func (m *Machine) access(f *fn, pc int, regs []Value) {
	c := &f.code[pc]
	if regs[c.obj].R == nil {
		if f.src[pc].IsBarrier() {
			return
		}
		m.fault("nil reference in %s: %s", f.f.Name, til.FormatInstr(m.prog.Mod, f.f, f.src[pc]))
	}
	switch c.op {
	case til.OpLoadW, til.OpLoadR:
		m.Stats.Loads++
	case til.OpStoreW, til.OpStoreR:
		m.Stats.Stores++
	case til.OpOpenR:
		m.Stats.OpensR++
	case til.OpOpenU:
		m.Stats.OpensU++
	default:
		m.Stats.Undos++
	}
	m.Stats.ImplicitTxns++
	if err := engine.Run(m.prog.Eng, func(tx engine.Txn) error {
		h, i := regs[c.obj].R, int(c.imm+regs[c.idx].W)
		switch c.op {
		case til.OpLoadW:
			regs[c.dst] = Word(tx.LoadWord(h, i))
		case til.OpStoreW:
			tx.StoreWord(h, i, regs[c.a].W)
		case til.OpLoadR:
			regs[c.dst] = Ref(tx.LoadRef(h, i))
		case til.OpStoreR:
			tx.StoreRef(h, i, regs[c.a].R)
		case til.OpOpenR:
			tx.OpenForRead(h)
		case til.OpOpenU:
			tx.OpenForUpdate(h)
		case til.OpUndoW:
			tx.LogForUndoWord(h, i)
		case til.OpUndoR:
			tx.LogForUndoRef(h, i)
		}
		return nil
	}); err != nil {
		m.fault("implicit transaction: %v", err)
	}
}

func b2w(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// IsTrap reports whether err is an interpreter fault.
func IsTrap(err error) bool {
	var t *trap
	return errors.As(err, &t)
}
