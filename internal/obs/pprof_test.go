package obs_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"memtx/internal/obs"
)

// TestDebugHandler checks that the pprof wrapper exposes the profiling index
// and still routes every metrics path through the wrapped handler.
func TestDebugHandler(t *testing.T) {
	h := obs.DebugHandler(obs.Handler())

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	if rec := get("/debug/pprof/"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("GET /debug/pprof/ = %d %q", rec.Code, rec.Body.String())
	}
	if rec := get("/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline = %d", rec.Code)
	}
	if rec := get("/metrics"); rec.Code != http.StatusOK {
		t.Errorf("GET /metrics through wrapper = %d", rec.Code)
	}
	if rec := get("/stats.json"); rec.Code != http.StatusOK {
		t.Errorf("GET /stats.json through wrapper = %d", rec.Code)
	}
	if rec := get("/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404 from the wrapped handler", rec.Code)
	}
}
