package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds since
// the tracer was made; parent is the index of the span that caused this one,
// or -1. Spans of one request share its op id.
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int32
}

// tracer keeps spans in memory until the run ends. All spans are recorded
// from the benchmark's own files, around its calls into a layer and inside
// the wrappers it hands to a layer (the listener given to the server, the
// filesystem given to the WAL); there are none inside the program.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// cur is the root span of the one request in flight (the traced passes
	// run one client at pipeline 1) and its op id, packed as span<<32|op, or
	// -1 between requests. The wrappers parent their spans to it.
	cur atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cur.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent, op int32) int32 {
	now := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: now, parent: parent, op: op})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int32) {
	now := t.now()
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// setCurrent marks span root of request op as the one in flight.
func (t *tracer) setCurrent(root, op int32) { t.cur.Store(int64(root)<<32 | int64(op)) }
func (t *tracer) clearCurrent()             { t.cur.Store(-1) }

// under records a finished span as a child of the request in flight. With no
// request in flight — background work between requests — it is a root.
func (t *tracer) under(name string, start, end int64) {
	parent, op := int32(-1), int32(-1)
	if c := t.cur.Load(); c >= 0 {
		parent, op = int32(c>>32), int32(c&0xffffffff)
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, op: op})
	t.mu.Unlock()
}

// layerTimes is the report of one span name.
type layerTimes struct {
	name   string
	count  int
	busyNs int64 // sum of durations
	selfNs int64 // busy minus what child spans cover
	dur    hist
}

// analyse computes busy and self time per span name. A span's self time is
// its duration minus the part of its interval that its child spans cover;
// children are clipped to the parent, so a blocked read that began before the
// request was sent counts only from the request's start, and overlapping
// children are counted once.
func (t *tracer) analyse() []*layerTimes {
	children := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	by := make(map[string]*layerTimes)
	for i, s := range t.spans {
		lt := by[s.name]
		if lt == nil {
			lt = &layerTimes{name: s.name}
			by[s.name] = lt
		}
		d := s.end - s.start
		lt.count++
		lt.busyNs += d
		lt.dur.record(d)
		lt.selfNs += d - t.covered(s, children[int32(i)])
	}
	out := make([]*layerTimes, 0, len(by))
	for _, lt := range by {
		out = append(out, lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered returns the length of the union of the kids' intervals inside p.
func (t *tracer) covered(p span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(t.spans[k].start, p.start), min(t.spans[k].end, p.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	sum, hi := int64(0), p.start
	for _, v := range ivs {
		if v.b > hi {
			sum += v.b - max(v.a, hi)
			hi = v.b
		}
	}
	return sum
}

// medianNs returns the median duration of the spans called name, 0 when there
// are none.
func medianNs(lts []*layerTimes, name string) float64 {
	for _, lt := range lts {
		if lt.name == name {
			return lt.dur.quantile(0.5)
		}
	}
	return 0
}

// write stores the spans as a JSON array, one object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "[")
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d}%s`+"\n",
			i, s.name, s.start, s.end, s.parent, s.op, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
