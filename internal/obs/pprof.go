package obs

import (
	"net/http"
	"net/http/pprof"
)

// DebugHandler wraps h (typically the one Handler returns) with the
// net/http/pprof profiling endpoints under /debug/pprof/, for serving
// binaries that opt in via a -pprof flag. Every other path falls through to
// h. The endpoints are kept off the default handler so that profiling a
// production server is an explicit choice, not a side effect of exporting
// metrics.
func DebugHandler(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
