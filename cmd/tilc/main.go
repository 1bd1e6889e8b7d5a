// Command tilc is the TIL "compiler" driver: it parses a TIL module, runs
// the instrumentation and optimization pipeline at a chosen level, and can
// dump the transformed IR, report static barrier counts, and execute an
// entry function against a chosen STM engine with dynamic statistics.
//
// Usage:
//
//	tilc -level full prog.til                     # compile & dump IR
//	tilc -level cse -stats prog.til               # static barrier counts
//	tilc -run main -arg 1000 -engine direct x.til # compile and execute
//	tilc -run f -arg 10 -arg 3 x.til              # one -arg per parameter, in order
//	tilc -kernel sieve -level naive -run sieve -arg 2000   # built-in kernel
//
// Levels: naive, cse, upgrade, hoist, full. Engines: raw, direct, wstm,
// ostm.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"memtx/internal/core"
	"memtx/internal/engine"
	"memtx/internal/ostm"
	"memtx/internal/progs"
	"memtx/internal/rawengine"
	"memtx/internal/til"
	"memtx/internal/til/cfgutil"
	"memtx/internal/til/interp"
	"memtx/internal/til/parser"
	"memtx/internal/til/passes"
	"memtx/internal/wstm"
)

func main() {
	var args []interp.Value
	var shown []string
	flag.Func("arg", "word argument of -run; repeat once per parameter, in order", func(s string) error {
		w, err := strconv.ParseUint(s, 0, 64)
		args, shown = append(args, interp.Word(w)), append(shown, strconv.FormatUint(w, 10))
		return err
	})
	var (
		levelName = flag.String("level", "full", "optimization level: naive|cse|upgrade|hoist|full")
		dump      = flag.Bool("dump", false, "print the module after compilation")
		dot       = flag.String("dot", "", "print the named function's CFG in Graphviz dot syntax")
		stats     = flag.Bool("stats", false, "print static barrier counts and pass results")
		run       = flag.String("run", "", "function to execute after compilation")
		engName   = flag.String("engine", "direct", "engine for -run: raw|direct|wstm|ostm")
		kernel    = flag.String("kernel", "", "use a built-in kernel instead of a source file")
	)
	flag.Parse()

	level, ok := levelByName(*levelName)
	if !ok {
		fail("unknown level %q", *levelName)
	}

	var name, src string
	switch {
	case *kernel != "":
		k, ok := progs.ByName(*kernel)
		if !ok {
			fail("unknown kernel %q", *kernel)
		}
		name, src = k.Name, k.Src
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail("%v", err)
		}
		name, src = flag.Arg(0), string(data)
	default:
		fail("need exactly one source file or -kernel")
	}

	m, err := parser.Parse(name, src)
	if err != nil {
		fail("%v", err)
	}
	res, err := passes.Apply(m, level)
	if err != nil {
		fail("%v", err)
	}

	if *stats {
		c := passes.CountBarriers(m)
		fmt.Printf("level=%s instrumented=%d\n", res.Level, res.Instrumented)
		fmt.Printf("static barriers: openr=%d openu=%d undo=%d total=%d\n",
			c.OpenR, c.OpenU, c.Undo, c.Total())
		fmt.Printf("pass results: immutable=%d upgraded=%d opensElided=%d undosElided=%d hoisted=%d newobj=%d dce=%d readonlyFuncs=%d\n",
			res.ImmutableElided, res.Upgraded, res.OpensElided, res.UndosElided,
			res.Hoisted, res.NewObjElided, res.DeadRemoved, res.ReadOnlyFuncs)
	}
	if *dump {
		fmt.Print(til.Print(m))
	}
	if *dot != "" {
		fi := m.FuncByName(*dot)
		if fi < 0 {
			fail("no function %q for -dot", *dot)
		}
		fmt.Print(cfgutil.DOT(m, m.Funcs[fi]))
	}

	if *run != "" {
		e, ok := engineByName(*engName)
		if !ok {
			fail("unknown engine %q", *engName)
		}
		p, err := interp.Load(m, e)
		if err != nil {
			fail("%v", err)
		}
		mach := p.NewMachine()
		fn := m.FuncByName(*run)
		if fn < 0 {
			fail("no function %q", *run)
		}
		if want := m.Funcs[fn].NParams; len(args) != want {
			fail("%s has %d parameters, but %d -arg values were given", *run, want, len(args))
		}
		v, err := mach.Call(*run, args...)
		if err != nil {
			fail("run: %v", err)
		}
		fmt.Printf("%s(%s) = %d\n", *run, strings.Join(shown, ", "), v.W)
		fmt.Printf("dynamic: steps=%d opensR=%d opensU=%d undos=%d loads=%d stores=%d txns=%d\n",
			mach.Stats.Steps, mach.Stats.OpensR, mach.Stats.OpensU,
			mach.Stats.Undos, mach.Stats.Loads, mach.Stats.Stores, mach.Stats.Txns)
		es := e.Stats()
		fmt.Printf("engine:  commits=%d aborts=%d readlog=%d undologged=%d filterhits=%d localskips=%d\n",
			es.Commits, es.Aborts, es.ReadLogEntries, es.UndoLogged, es.FilterHits, es.LocalSkips)
	}
}

func levelByName(s string) (passes.Level, bool) {
	for _, l := range passes.Levels {
		if l.String() == s {
			return l, true
		}
	}
	return 0, false
}

func engineByName(s string) (engine.Engine, bool) {
	switch s {
	case "raw":
		return rawengine.New(), true
	case "direct":
		return core.New(), true
	case "wstm":
		return wstm.New(), true
	case "ostm":
		return ostm.New(), true
	}
	return nil, false
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tilc: "+format+"\n", args...)
	os.Exit(1)
}
