package til

import "fmt"

// Verify checks structural well-formedness of a module:
//
//   - class, global, function, block, and register references are in range,
//     and so is every binary operator;
//   - every block is non-empty and ends in exactly one terminator;
//   - immediate field indices are within the class bounds wherever the class
//     is statically evident (OpNew results are not tracked here; the
//     interpreter enforces bounds dynamically);
//   - names are unique.
//
// It returns the first problem found.
func Verify(m *Module) error {
	seenClass := map[string]bool{}
	for i, c := range m.Classes {
		if c.Name == "" {
			return fmt.Errorf("class %d: empty name", i)
		}
		if seenClass[c.Name] {
			return fmt.Errorf("class %q: duplicate", c.Name)
		}
		seenClass[c.Name] = true
		if c.NWords < 0 || c.NRefs < 0 {
			return fmt.Errorf("class %q: negative field count", c.Name)
		}
		if c.ImmutableWords != nil && len(c.ImmutableWords) != c.NWords {
			return fmt.Errorf("class %q: immutable mask length %d != %d words", c.Name, len(c.ImmutableWords), c.NWords)
		}
		if c.RefClasses != nil && len(c.RefClasses) != c.NRefs {
			return fmt.Errorf("class %q: ref class list length %d != %d refs", c.Name, len(c.RefClasses), c.NRefs)
		}
		for _, rc := range c.RefClasses {
			if rc < -1 || rc >= len(m.Classes) {
				return fmt.Errorf("class %q: ref class index %d out of range", c.Name, rc)
			}
		}
	}

	seenGlobal := map[string]bool{}
	for i, g := range m.Globals {
		if g.Name == "" {
			return fmt.Errorf("global %d: empty name", i)
		}
		if seenGlobal[g.Name] {
			return fmt.Errorf("global %q: duplicate", g.Name)
		}
		seenGlobal[g.Name] = true
		if g.Class < 0 || g.Class >= len(m.Classes) {
			return fmt.Errorf("global %q: class index %d out of range", g.Name, g.Class)
		}
	}

	seenFunc := map[string]bool{}
	for _, f := range m.Funcs {
		if seenFunc[f.Name] {
			return fmt.Errorf("func %q: duplicate", f.Name)
		}
		seenFunc[f.Name] = true
		if err := verifyFunc(m, f); err != nil {
			return fmt.Errorf("func %q: %w", f.Name, err)
		}
	}
	return nil
}

func verifyFunc(m *Module, f *Func) error {
	if f.NParams > f.NRegs {
		return fmt.Errorf("%d params but only %d registers", f.NParams, f.NRegs)
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	if f.Instrumented != -1 && (f.Instrumented < 0 || f.Instrumented >= len(m.Funcs)) {
		return fmt.Errorf("instrumented link %d out of range", f.Instrumented)
	}
	for bi, blk := range f.Blocks {
		if len(blk.Instrs) == 0 {
			return fmt.Errorf("block %q (#%d): empty", blk.Name, bi)
		}
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			last := ii == len(blk.Instrs)-1
			if in.IsTerminator() != last {
				if last {
					return fmt.Errorf("block %q: does not end in a terminator", blk.Name)
				}
				return fmt.Errorf("block %q instr %d: terminator in mid-block", blk.Name, ii)
			}
			if err := verifyInstr(m, f, in); err != nil {
				return fmt.Errorf("block %q instr %d: %w", blk.Name, ii, err)
			}
		}
	}
	return nil
}

func verifyInstr(m *Module, f *Func, in *Instr) error {
	checkReg := func(r int, what string, optional bool) error {
		if r == -1 && optional {
			return nil
		}
		if r < 0 || r >= f.NRegs {
			return fmt.Errorf("%s register %d out of range", what, r)
		}
		return nil
	}
	checkBlock := func(b int) error {
		if b < 0 || b >= len(f.Blocks) {
			return fmt.Errorf("block target %d out of range", b)
		}
		return nil
	}

	if d := in.Defs(); d != -1 {
		if err := checkReg(d, "dst", false); err != nil {
			return err
		}
	}
	var uses []int
	for _, u := range in.Uses(uses) {
		if err := checkReg(u, "use", false); err != nil {
			return err
		}
	}

	switch in.Op {
	case OpConstW, OpConstNil, OpMov, OpIsNil, OpRefEq, OpValidate:
	case OpBin:
		if int(in.Bin) >= len(binNames) {
			return fmt.Errorf("invalid binop %d", in.Bin)
		}
	case OpNew:
		if in.Class < 0 || in.Class >= len(m.Classes) {
			return fmt.Errorf("new: class %d out of range", in.Class)
		}
	case OpGlobal:
		if in.Idx < 0 || in.Idx >= len(m.Globals) {
			return fmt.Errorf("global: index %d out of range", in.Idx)
		}
	case OpLoadW, OpStoreW, OpUndoW, OpLoadR, OpStoreR, OpUndoR:
		if in.Idx < 0 {
			return fmt.Errorf("negative field index %d", in.Idx)
		}
	case OpLoadWI, OpStoreWI, OpUndoWI, OpLoadRI, OpStoreRI, OpUndoRI:
		if err := checkReg(in.Idx, "index", false); err != nil {
			return err
		}
	case OpOpenR, OpOpenU:
	case OpCall:
		if in.Callee < 0 || in.Callee >= len(m.Funcs) {
			return fmt.Errorf("call: callee %d out of range", in.Callee)
		}
		if got, want := len(in.Args), m.Funcs[in.Callee].NParams; got != want {
			return fmt.Errorf("call %s: %d args, want %d", m.Funcs[in.Callee].Name, got, want)
		}
	case OpJmp:
		return checkBlock(in.Then)
	case OpBr:
		if err := checkBlock(in.Then); err != nil {
			return err
		}
		return checkBlock(in.Else)
	case OpRet:
	default:
		return fmt.Errorf("invalid opcode %d", in.Op)
	}
	return nil
}
