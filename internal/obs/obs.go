// Package obs exports engine observability data — the counter Stats and the
// abort-cause/latency Metrics every engine records — in two wire formats: an
// expvar-style JSON document and the Prometheus text exposition format. A
// Registry collects live engines under stable names; its Handler serves both
// formats over HTTP for `stmbench -serve`.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"memtx/internal/engine"
)

// Registry holds the engines whose metrics are exported. It is safe for
// concurrent use: experiments register engines while HTTP scrapes snapshot
// them.
type Registry struct {
	mu      sync.Mutex
	entries []regEntry
	sources sourceSet
}

type regEntry struct {
	name string
	eng  engine.Engine
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds e under name. Registering the same name again replaces the
// previous engine: experiments build a fresh engine per configuration, and a
// watcher wants the live one, not a graveyard of finished runs.
func (r *Registry) Register(name string, e engine.Engine) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.entries {
		if r.entries[i].name == name {
			r.entries[i].eng = e
			return
		}
	}
	r.entries = append(r.entries, regEntry{name, e})
}

// EngineSnapshot pairs one registered engine's name with a point-in-time copy
// of its counters, metrics, and contention-management controller.
type EngineSnapshot struct {
	Name    string
	Stats   engine.Stats
	Metrics engine.MetricsSnapshot
	CM      engine.CMStats
}

// Snapshot captures every registered engine, sorted by name so output is
// stable between scrapes.
func (r *Registry) Snapshot() []EngineSnapshot {
	r.mu.Lock()
	entries := make([]regEntry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()

	snaps := make([]EngineSnapshot, 0, len(entries))
	for _, e := range entries {
		snaps = append(snaps, EngineSnapshot{
			Name:    e.name,
			Stats:   e.eng.Stats(),
			Metrics: e.eng.Metrics().Snapshot(),
			CM:      e.eng.CM().Stats(),
		})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Name < snaps[j].Name })
	return snaps
}

// counterFamilies maps Prometheus family names to Stats accessors; aborts are
// handled separately so they can carry the cause label.
var counterFamilies = []struct {
	name, help string
	get        func(engine.Stats) uint64
}{
	{"memtx_tx_starts_total", "Transaction attempts started.", func(s engine.Stats) uint64 { return s.Starts }},
	{"memtx_tx_commits_total", "Transaction attempts committed.", func(s engine.Stats) uint64 { return s.Commits }},
	{"memtx_open_for_read_total", "OpenForRead barriers executed.", func(s engine.Stats) uint64 { return s.OpenForRead }},
	{"memtx_open_for_update_total", "OpenForUpdate barriers executed.", func(s engine.Stats) uint64 { return s.OpenForUpdate }},
	{"memtx_undo_logged_total", "Undo-log entries recorded.", func(s engine.Stats) uint64 { return s.UndoLogged }},
	{"memtx_read_log_entries_total", "Read-log entries recorded.", func(s engine.Stats) uint64 { return s.ReadLogEntries }},
	{"memtx_filter_hits_total", "Duplicate log requests absorbed by the filter.", func(s engine.Stats) uint64 { return s.FilterHits }},
	{"memtx_local_skips_total", "Barriers skipped on transaction-local objects.", func(s engine.Stats) uint64 { return s.LocalSkips }},
	{"memtx_compactions_total", "Read-log compaction passes.", func(s engine.Stats) uint64 { return s.Compactions }},
	{"memtx_read_log_dropped_total", "Read-log entries dropped by compaction.", func(s engine.Stats) uint64 { return s.ReadLogDropped }},
	{"memtx_cm_waits_total", "Contention-manager waits before retrying an open.", func(s engine.Stats) uint64 { return s.CMWaits }},
	{"memtx_tx_ro_fast_commits_total", "Read-only commits that skipped per-entry validation.", func(s engine.Stats) uint64 { return s.ROFastCommits }},
}

// histogramFamilies maps Prometheus histogram families to MetricsSnapshot
// accessors.
var histogramFamilies = []struct {
	name, help string
	get        func(engine.MetricsSnapshot) engine.HistogramSnapshot
}{
	{"memtx_attempt_duration_ns", "Wall-clock duration of each transaction attempt, in nanoseconds.",
		func(m engine.MetricsSnapshot) engine.HistogramSnapshot { return m.Attempts }},
	{"memtx_commit_duration_ns", "Wall-clock duration of each successful commit call, in nanoseconds.",
		func(m engine.MetricsSnapshot) engine.HistogramSnapshot { return m.Commits }},
	{"memtx_retries_per_commit", "Conflicted attempts preceding each successful transaction.",
		func(m engine.MetricsSnapshot) engine.HistogramSnapshot { return m.Retries }},
}

// cmFamilies maps the stm_cm_* Prometheus counter families to CMStats
// accessors.
var cmFamilies = []struct {
	name, help string
	get        func(engine.CMStats) uint64
}{
	{"stm_cm_outcomes_total", "Attempt outcomes observed by the contention manager.", func(c engine.CMStats) uint64 { return c.Outcomes }},
	{"stm_cm_waits_total", "Backoff waits between transaction attempts.", func(c engine.CMStats) uint64 { return c.Waits }},
	{"stm_cm_spins_total", "Backoff waits satisfied by yielding.", func(c engine.CMStats) uint64 { return c.Spins }},
	{"stm_cm_sleeps_total", "Backoff waits that slept.", func(c engine.CMStats) uint64 { return c.Sleeps }},
	{"stm_cm_sleep_ns_total", "Total backoff sleep time, ns.", func(c engine.CMStats) uint64 { return c.SleepNanos }},
}

// WritePrometheus renders the snapshots in the Prometheus text exposition
// format (version 0.0.4): counter families labelled by engine, aborts
// additionally labelled by cause, the stm_cm_* contention-management
// families, and the three latency/retry histograms with cumulative le
// buckets.
func WritePrometheus(w io.Writer, snaps []EngineSnapshot) error {
	for _, f := range counterFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", f.name, f.help, f.name)
		for _, s := range snaps {
			fmt.Fprintf(w, "%s{engine=%q} %d\n", f.name, s.Name, f.get(s.Stats))
		}
	}

	for _, f := range cmFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", f.name, f.help, f.name)
		for _, s := range snaps {
			fmt.Fprintf(w, "%s{engine=%q} %d\n", f.name, s.Name, f.get(s.CM))
		}
	}

	fmt.Fprintf(w, "# HELP memtx_tx_aborts_total Transaction attempts aborted, by cause.\n")
	fmt.Fprintf(w, "# TYPE memtx_tx_aborts_total counter\n")
	for _, s := range snaps {
		for _, c := range engine.AbortCauses {
			fmt.Fprintf(w, "memtx_tx_aborts_total{engine=%q,cause=%q} %d\n",
				s.Name, c.String(), s.Metrics.Aborts(c))
		}
	}

	for _, f := range histogramFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", f.name, f.help, f.name)
		for _, s := range snaps {
			h := f.get(s.Metrics)
			var cum uint64
			for i, c := range h.Counts {
				cum += c
				le := "+Inf"
				if i < engine.HistogramBuckets-1 {
					le = fmt.Sprint(engine.BucketBound(i))
				}
				fmt.Fprintf(w, "%s_bucket{engine=%q,le=%q} %d\n", f.name, s.Name, le, cum)
			}
			fmt.Fprintf(w, "%s_sum{engine=%q} %d\n", f.name, s.Name, h.Sum)
			fmt.Fprintf(w, "%s_count{engine=%q} %d\n", f.name, s.Name, cum)
		}
	}
	return nil
}

// histogramJSON is the JSON view of one histogram: totals plus the quantile
// summary the tables print.
type histogramJSON struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
}

func toHistogramJSON(h engine.HistogramSnapshot) histogramJSON {
	return histogramJSON{
		Count: h.Count(),
		Sum:   h.Sum,
		Mean:  math.Round(h.Mean()*100) / 100,
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

// engineJSON is the expvar-style JSON view of one engine.
type engineJSON struct {
	Name             string            `json:"name"`
	Stats            engine.Stats      `json:"stats"`
	CM               engine.CMStats    `json:"cm"`
	AbortsByCause    map[string]uint64 `json:"aborts_by_cause"`
	AttemptNanos     histogramJSON     `json:"attempt_ns"`
	CommitNanos      histogramJSON     `json:"commit_ns"`
	RetriesPerCommit histogramJSON     `json:"retries_per_commit"`
}

// WriteJSON renders the snapshots as an indented JSON document:
// {"engines": [...]}.
func WriteJSON(w io.Writer, snaps []EngineSnapshot) error {
	return WriteJSONWithSources(w, snaps, nil)
}

// WriteJSONWithSources renders engine and application-source snapshots as
// one indented JSON document: {"engines": [...], "sources": [...]} (the
// sources key is omitted when there are none).
func WriteJSONWithSources(w io.Writer, snaps []EngineSnapshot, sources []SourceSnapshot) error {
	out := struct {
		Engines []engineJSON `json:"engines"`
		Sources []sourceJSON `json:"sources,omitempty"`
	}{Engines: make([]engineJSON, 0, len(snaps))}
	for _, s := range sources {
		out.Sources = append(out.Sources, toSourceJSON(s))
	}
	for _, s := range snaps {
		causes := make(map[string]uint64, engine.NumAbortCauses)
		for _, c := range engine.AbortCauses {
			causes[c.String()] = s.Metrics.Aborts(c)
		}
		out.Engines = append(out.Engines, engineJSON{
			Name:             s.Name,
			Stats:            s.Stats,
			CM:               s.CM,
			AbortsByCause:    causes,
			AttemptNanos:     toHistogramJSON(s.Metrics.Attempts),
			CommitNanos:      toHistogramJSON(s.Metrics.Commits),
			RetriesPerCommit: toHistogramJSON(s.Metrics.Retries),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler serves the registry over HTTP: /metrics in Prometheus text format,
// /stats.json as JSON, and / with a short index.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r.Snapshot())
		_ = WriteSourcesPrometheus(w, r.SnapshotSources())
	})
	mux.HandleFunc("/stats.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = WriteJSONWithSources(w, r.Snapshot(), r.SnapshotSources())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "memtx observability: /metrics (Prometheus), /stats.json (JSON)\n")
	})
	return mux
}

// FormatNanos renders a nanosecond figure from the latency histograms as a
// rounded duration string for tables ("1.2µs", "340ms").
func FormatNanos(ns uint64) string {
	if ns > math.MaxInt64 {
		return "inf" // unbounded final bucket
	}
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond).String()
	default:
		return d.String()
	}
}
