package obs

import (
	"fmt"
	"io"
)

// MetricKind distinguishes monotonically non-decreasing counters from
// free-moving gauges in the exported TYPE lines.
type MetricKind uint8

const (
	// Counter is a monotonically non-decreasing cumulative count.
	Counter MetricKind = iota
	// Gauge is an instantaneous level (active connections, queue depth).
	Gauge
)

// String returns the Prometheus TYPE keyword.
func (k MetricKind) String() string {
	if k == Gauge {
		return "gauge"
	}
	return "counter"
}

// Label is one metric label pair.
type Label struct{ Key, Value string }

// Metric is one exported sample from an application-level MetricSource:
// a Prometheus family name plus optional labels and the current value.
// Every sample additionally receives a source="<Source.Name>" label on
// export, so two sources may share family names.
type Metric struct {
	Name   string
	Help   string
	Kind   MetricKind
	Labels []Label
	Value  uint64
}

// MetricSource exposes application-level metrics (server connection gauges,
// KV op counters, log and checkpoint counters). Implementations must be
// safe for concurrent use: ObsMetrics is called from HTTP scrape handlers
// while the application runs.
//
// Conventions (pinned by enginetest.RunMetricSource):
//
//   - the set of (Name, Labels) series is fixed for the source's lifetime;
//   - Counter-kind values never decrease between calls;
//   - Name is a valid Prometheus family name and Help is non-empty.
type MetricSource interface {
	ObsMetrics() []Metric
}

// SourceSnapshot pairs one source's name with a point-in-time copy of its
// metrics.
type SourceSnapshot struct {
	Name    string
	Metrics []Metric
}

// WriteSourcesPrometheus renders source snapshots in the Prometheus text
// exposition format. HELP/TYPE are emitted once per family (first
// occurrence wins), and every sample carries a source label ahead of its
// own labels.
func WriteSourcesPrometheus(w io.Writer, snaps []SourceSnapshot) error {
	type sample struct {
		source string
		m      Metric
	}
	var order []string
	families := map[string][]sample{}
	for _, s := range snaps {
		for _, m := range s.Metrics {
			if _, ok := families[m.Name]; !ok {
				order = append(order, m.Name)
			}
			families[m.Name] = append(families[m.Name], sample{s.Name, m})
		}
	}
	for _, fam := range order {
		samples := families[fam]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam, samples[0].m.Help, fam, samples[0].m.Kind)
		for _, sm := range samples {
			fmt.Fprintf(w, "%s{source=%q", fam, sm.source)
			for _, l := range sm.m.Labels {
				fmt.Fprintf(w, ",%s=%q", l.Key, l.Value)
			}
			fmt.Fprintf(w, "} %d\n", sm.m.Value)
		}
	}
	return nil
}

// sourceJSON is the JSON view of one source: metrics keyed by family name
// plus a {k="v"} label suffix when labelled.
type sourceJSON struct {
	Name    string            `json:"name"`
	Metrics map[string]uint64 `json:"metrics"`
}

func toSourceJSON(s SourceSnapshot) sourceJSON {
	out := sourceJSON{Name: s.Name, Metrics: make(map[string]uint64, len(s.Metrics))}
	for _, m := range s.Metrics {
		key := m.Name
		for _, l := range m.Labels {
			key += fmt.Sprintf("{%s=%q}", l.Key, l.Value)
		}
		out.Metrics[key] = m.Value
	}
	return out
}
