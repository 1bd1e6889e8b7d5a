// Package obs exports application metric sources — the store's, the
// server's and the log's counters and gauges — in two wire formats: the
// Prometheus text exposition format and an expvar-style JSON document.
// Handler serves both over HTTP for `stmkvd -serve-metrics`.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Source is one named MetricSource on an exposition page; Name becomes the
// source label of every sample it exports.
type Source struct {
	Name string
	Src  MetricSource
}

func snapshot(sources []Source) []SourceSnapshot {
	snaps := make([]SourceSnapshot, len(sources))
	for i, s := range sources {
		snaps[i] = SourceSnapshot{Name: s.Name, Metrics: s.Src.ObsMetrics()}
	}
	return snaps
}

// writeJSON renders source snapshots as one indented JSON document:
// {"sources": [...]}.
func writeJSON(w io.Writer, snaps []SourceSnapshot) error {
	out := struct {
		Sources []sourceJSON `json:"sources"`
	}{Sources: make([]sourceJSON, 0, len(snaps))}
	for _, s := range snaps {
		out.Sources = append(out.Sources, toSourceJSON(s))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler serves sources, in the order given, over HTTP: /metrics in the
// Prometheus text format, /stats.json as JSON, and / with a short index.
// The list is fixed: a server builds its handler once its sources exist.
func Handler(sources ...Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteSourcesPrometheus(w, snapshot(sources))
	})
	mux.HandleFunc("/stats.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = writeJSON(w, snapshot(sources))
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
