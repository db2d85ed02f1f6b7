package obs

import (
	"expvar"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Snapshot returns a plain-data view of the registry: counter and gauge
// series map to their values, histogram series to {count, sum}. It backs
// the expvar bridge and is handy in tests.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.families))
	for name, f := range r.families {
		for _, s := range f.series {
			key := name + s.labels
			switch f.kind {
			case kindCounter:
				out[key] = s.c.Value()
			case kindGauge:
				out[key] = s.g.Value()
			default:
				_, count, sum := s.h.snapshot()
				out[key] = map[string]any{"count": count, "sum": sum}
			}
		}
	}
	return out
}

var (
	publishMu sync.Mutex
	published = map[string]bool{}
)

// PublishExpvar exposes the registry under the given expvar name
// (GET /debug/vars). Repeated calls with the same name are no-ops, so
// servers can be recreated in tests without tripping expvar's
// duplicate-name panic.
func (r *Registry) PublishExpvar(name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if published[name] {
		return
	}
	published[name] = true
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// RegisterOps mounts the operational endpoints on mux:
//
//	GET /metrics        Prometheus text exposition of reg
//	GET /debug/vars     expvar JSON (including the bridged registry)
//	GET /debug/pprof/*  net/http/pprof profiles
func RegisterOps(mux *http.ServeMux, reg *Registry) {
	reg.PublishExpvar("comparesets")
	mux.Handle("GET /metrics", reg.MetricsHandler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
