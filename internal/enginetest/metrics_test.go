package enginetest

import (
	"testing"

	"memtx/internal/core"
	"memtx/internal/engine"
	"memtx/internal/ostm"
	"memtx/internal/wstm"
)

// allEngines lists the three instrumented STM engines. The uninstrumented
// rawengine baseline is excluded: it records nothing by design.
func allEngines() []struct {
	name string
	mk   Factory
} {
	return []struct {
		name string
		mk   Factory
	}{
		{"direct", func() engine.Engine { return core.New() }},
		{"wstm", func() engine.Engine { return wstm.New() }},
		{"ostm", func() engine.Engine { return ostm.New() }},
	}
}

// TestMetricsAcrossEngines runs the metrics conformance checks against every
// instrumented engine from this package, so that
//
//	go test -race ./internal/enginetest/...
//
// exercises concurrent metric recording and snapshotting on all three designs
// in one target (each engine's own package additionally runs the full suite).
func TestMetricsAcrossEngines(t *testing.T) {
	for _, cfg := range allEngines() {
		t.Run(cfg.name, func(t *testing.T) {
			t.Run("Quiescent", func(t *testing.T) { testMetricsQuiescent(t, cfg.mk()) })
			t.Run("Concurrent", func(t *testing.T) { testMetricsConcurrent(t, cfg.mk()) })
		})
	}
}

// TestCauseAttribution drives each engine into its characteristic conflict
// and asserts the abort lands in a sensible cause bucket: everything must be
// attributed (no abort defaults to "explicit" on a pure conflict workload).
func TestCauseAttribution(t *testing.T) {
	for _, cfg := range allEngines() {
		t.Run(cfg.name, func(t *testing.T) {
			e := cfg.mk()
			testMetricsQuiescent(t, e) // reuse the contended workload
			s := e.Stats()
			c := s.AbortsByCause
			conflict := c[engine.CauseValidation] + c[engine.CauseOwnership] +
				c[engine.CauseCMKill] + c[engine.CauseDoomed]
			// The workload's only explicit abort is the hand-rolled one in
			// testMetricsQuiescent; every other abort must carry a conflict
			// cause.
			if c[engine.CauseExplicit] != 1 {
				t.Errorf("explicit aborts = %d, want exactly 1 (conflicts misattributed): %v",
					c[engine.CauseExplicit], c)
			}
			if s.Aborts != conflict+1 {
				t.Errorf("cause sum mismatch: total=%d conflict=%d: %v", s.Aborts, conflict, c)
			}
		})
	}
}
