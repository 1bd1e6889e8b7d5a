package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandler(t *testing.T) {
	srv := httptest.NewServer(Handler(Source{"kvd", &fakeSource{conns: 1, ops: map[string]uint64{"get": 5}}}))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), buf.String()
	}

	code, ct, body := get("/metrics")
	if code != 200 || !strings.HasPrefix(ct, "text/plain") || !strings.Contains(body, `test_ops_total{source="kvd",op="get"} 5`) {
		t.Fatalf("/metrics: code=%d ct=%q body=%s", code, ct, body)
	}
	code, ct, body = get("/stats.json")
	if code != 200 || !strings.HasPrefix(ct, "application/json") || !strings.Contains(body, `"sources"`) {
		t.Fatalf("/stats.json: code=%d ct=%q body=%s", code, ct, body)
	}
	code, _, _ = get("/nope")
	if code != 404 {
		t.Fatalf("/nope: code=%d, want 404", code)
	}
}
