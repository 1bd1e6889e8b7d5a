package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// fakeSource is a deterministic MetricSource for exporter tests.
type fakeSource struct {
	conns uint64
	ops   map[string]uint64
}

func (f *fakeSource) ObsMetrics() []Metric {
	ms := []Metric{
		{Name: "test_connections_active", Help: "Open connections.", Kind: Gauge, Value: f.conns},
	}
	for _, op := range []string{"get", "set"} {
		ms = append(ms, Metric{
			Name:   "test_ops_total",
			Help:   "Ops by type.",
			Kind:   Counter,
			Labels: []Label{{Key: "op", Value: op}},
			Value:  f.ops[op],
		})
	}
	return ms
}

func TestWriteSourcesPrometheus(t *testing.T) {
	snaps := snapshot([]Source{
		{"kvd", &fakeSource{conns: 3, ops: map[string]uint64{"get": 7, "set": 2}}},
		{"kvd2", &fakeSource{conns: 1, ops: map[string]uint64{"get": 5}}},
	})
	var buf bytes.Buffer
	if err := WriteSourcesPrometheus(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP test_connections_active Open connections.",
		"# TYPE test_connections_active gauge",
		"# TYPE test_ops_total counter",
		`test_connections_active{source="kvd"} 3`,
		`test_ops_total{source="kvd",op="get"} 7`,
		`test_ops_total{source="kvd",op="set"} 2`,
		`test_ops_total{source="kvd2",op="get"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus source output missing %q\n---\n%s", want, out)
		}
	}
	// HELP/TYPE must appear once per family even with two sources exporting
	// the same family.
	if n := strings.Count(out, "# TYPE test_ops_total counter"); n != 1 {
		t.Errorf("TYPE line for shared family appears %d times, want 1", n)
	}
}

func TestWriteJSONWithSources(t *testing.T) {
	var buf bytes.Buffer
	snaps := snapshot([]Source{{"kvd", &fakeSource{conns: 4, ops: map[string]uint64{"get": 11, "set": 6}}}})
	if err := writeJSON(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Sources []struct {
			Name    string            `json:"name"`
			Metrics map[string]uint64 `json:"metrics"`
		} `json:"sources"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Sources) != 1 {
		t.Fatalf("got %d sources", len(doc.Sources))
	}
	s := doc.Sources[0]
	if s.Name != "kvd" {
		t.Fatalf("source name = %q", s.Name)
	}
	if s.Metrics[`test_ops_total{op="get"}`] != 11 || s.Metrics["test_connections_active"] != 4 {
		t.Fatalf("source metrics = %v", s.Metrics)
	}
}

// TestHandlerServesSources checks that both formats carry every source, in
// the order the handler was given them.
func TestHandlerServesSources(t *testing.T) {
	srv := httptest.NewServer(Handler(
		Source{"zeta", &fakeSource{conns: 9, ops: map[string]uint64{}}},
		Source{"alpha", &fakeSource{conns: 2, ops: map[string]uint64{"get": 3}}},
	))
	defer srv.Close()

	for path, want := range map[string][]string{
		"/metrics":    {`test_connections_active{source="zeta"} 9`, `test_connections_active{source="alpha"} 2`},
		"/stats.json": {`"name": "zeta"`, `"name": "alpha"`},
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		body := buf.String()
		first, second := strings.Index(body, want[0]), strings.Index(body, want[1])
		if first < 0 || second < 0 || first > second {
			t.Errorf("%s: want %q before %q\n---\n%s", path, want[0], want[1], body)
		}
	}
}
