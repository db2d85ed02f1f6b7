package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"comparesets/internal/selectreq"
)

// benchRouter builds a quiet router over one mock-grade backend for
// handler-level benchmarks (no test logging, no health-transition noise).
// A backend that names no instance is never memoized, so every read is
// proxied.
func benchRouter(b *testing.B, namesInstance bool) (*Router, http.Handler, *httptest.Server) {
	b.Helper()
	mux := http.NewServeMux()
	payload := []byte(`{"selection":{"comparative":["c-1","c-2"],"unique":["u-1"]},"objective":3.217,"elapsed_ms":12}`)
	mux.HandleFunc("POST /api/v1/select", func(rw http.ResponseWriter, r *http.Request) {
		if namesInstance {
			rw.Header().Set(selectreq.InstanceHeader, "cam-1,cam-2")
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.Write(payload)
	})
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Write([]byte(`{"status":"ok"}`))
	})
	backend := httptest.NewServer(mux)
	b.Cleanup(backend.Close)
	// An hourly poll keeps poller noise out of the timing.
	rt, err := newRouter(RouterOptions{Backends: []string{backend.URL}}, pollEvery(time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	return rt, rt.Handler(), backend
}

var benchSelectBody = []byte(`{"category":"Cameras","target":"cam-1","m":3,"lambda":1,"mu":1}`)

func benchSelectOnce(b *testing.B, h http.Handler) int {
	req := httptest.NewRequest(http.MethodPost, "/api/v1/select", bytes.NewReader(benchSelectBody))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// BenchmarkRouterEdgeWarmHit measures the edge fast path: a warm read
// answered entirely at the router, no upstream exchange.
func BenchmarkRouterEdgeWarmHit(b *testing.B) {
	_, h, _ := benchRouter(b, true)
	if code := benchSelectOnce(b, h); code != http.StatusOK {
		b.Fatalf("warm-up status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := benchSelectOnce(b, h); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkRouterColdProxied measures the same request against a backend
// whose answers the edge never memoizes: every read pays the full proxied
// upstream round trip. The gap to BenchmarkRouterEdgeWarmHit is the fast
// path's win.
func BenchmarkRouterColdProxied(b *testing.B) {
	_, h, _ := benchRouter(b, false)
	if code := benchSelectOnce(b, h); code != http.StatusOK {
		b.Fatalf("warm-up status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := benchSelectOnce(b, h); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkEdgeSelectKey measures canonical-key construction, the per-read
// overhead the edge adds to every cacheable select.
func BenchmarkEdgeSelectKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := edgeSelectKey(benchSelectBody); !ok {
			b.Fatal("body not cacheable")
		}
	}
}
