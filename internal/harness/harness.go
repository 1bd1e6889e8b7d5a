// Package harness runs the paper's experiments (E1..E7 in DESIGN.md) and
// formats their results as tables. Each experiment cell — a kernel on an
// engine, a structure under a mix, a transaction body — is defined once
// here: cmd/stmbench is a thin CLI over the tables, and bench_test.go wraps
// the same cells in testing.B benches.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Rand is a per-worker xorshift64* generator (deterministic, allocation
// free).
type Rand struct{ s uint64 }

// NewRand seeds a generator; seed 0 is remapped.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// Next returns the next pseudo-random value.
func (r *Rand) Next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }

// WorkerRand returns worker w's generator: each concurrent worker of a
// measurement draws from its own, deterministically seeded stream.
func WorkerRand(w int) *Rand { return NewRand(uint64(w)*0x9E3779B9 + 1) }

// Op is one operation of an experiment cell. It is safe to call from many
// workers at once, each passing its own generator.
type Op func(rng *Rand)

// Table is one result table, shaped like the corresponding paper
// table/figure.
type Table struct {
	ID     string
	Title  string
	Note   string // the shape the paper reports, for eyeballing results
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   (expected shape: %s)\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// Throughput runs op on `threads` workers, opsPerThread times each, and
// returns aggregate operations per second.
func Throughput(threads, opsPerThread int, op func(worker int, rng *Rand)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := WorkerRand(t)
			for i := 0; i < opsPerThread; i++ {
				op(t, rng)
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := float64(threads * opsPerThread)
	return total / elapsed.Seconds()
}

// Time measures f once and returns the wall-clock duration.
func Time(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// Ratio formats a/b with two decimals ("1.43x").
func Ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}

// Ops formats an ops/sec figure compactly.
func Ops(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// MaxThreads returns the top of the thread sweep for the scalability
// experiments: at least 8 workers even on small hosts, so that contention
// behaviour (lock convoying, abort rates) is visible under oversubscription.
// On a single-core machine the sweep measures synchronization overhead, not
// parallel speedup; EXPERIMENTS.md discusses how to read the shapes there.
func MaxThreads() int {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		return 8
	}
	return n
}

// ThreadCounts returns the thread sweep 1,2,4,... up to max (always
// including max).
func ThreadCounts(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for t := 1; t < max; t *= 2 {
		out = append(out, t)
	}
	out = append(out, max)
	return out
}

// Pct formats a fraction as a percentage.
func Pct(num, den uint64) string {
	if den == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}
