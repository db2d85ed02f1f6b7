package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"comparesets/internal/dataset"
	"comparesets/internal/model"
)

// benchServer builds a handler over a synthetic corpus; the driver posts
// directly (no sockets) so the numbers isolate the serving path itself.
func benchServer(b *testing.B, opts Options) (*Server, http.Handler, SelectRequest) {
	b.Helper()
	c := cellphoneCorpus(b, 3)
	s := NewWithOptions(map[string]*model.Corpus{"Cellphone": c}, nil, opts)
	return s, s.Handler(), hotRequest(b, s)
}

func postBench(b *testing.B, h http.Handler, body []byte) {
	b.Helper()
	r := httptest.NewRequest(http.MethodPost, "/api/v1/select", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// BenchmarkSelectCold measures the full pipeline per request: every call
// is a response-cache miss, cycling through the corpus's targets and
// purging the cache once per cycle, so each one runs the pipeline behind
// the miss and the flight.
func BenchmarkSelectCold(b *testing.B) {
	s, h, req := benchServer(b, Options{})
	s.mu.RLock()
	targets := dataset.TargetIDs(s.corpora["Cellphone"])
	s.mu.RUnlock()
	bodies := make([][]byte, len(targets))
	for i, tgt := range targets {
		req.Target = tgt
		bodies[i], _ = json.Marshal(req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(bodies) == 0 {
			s.cache.Purge()
		}
		postBench(b, h, bodies[i%len(bodies)])
	}
}

// BenchmarkSelectWarm measures the hot-key fast path: one priming request,
// then every call is a shard-local cache hit.
func BenchmarkSelectWarm(b *testing.B) {
	_, h, req := benchServer(b, Options{})
	body, _ := json.Marshal(req)
	postBench(b, h, body) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBench(b, h, body)
	}
}

// benchConcurrentDistinct fires 8 concurrent same-shape requests for
// distinct targets per iteration, cache purged each time — the cold-path
// concurrency profile that batching targets (coalescing cannot help:
// every request is distinct).
func benchConcurrentDistinct(b *testing.B, opts Options) {
	c := cellphoneCorpus(b, 3)
	s := NewWithOptions(map[string]*model.Corpus{"Cellphone": c}, nil, opts)
	h := s.Handler()
	const fanout = 8
	s.mu.RLock()
	targets := dataset.TargetIDs(s.corpora["Cellphone"])[:fanout]
	s.mu.RUnlock()
	bodies := make([][]byte, fanout)
	for i, tgt := range targets {
		req := hotRequest(b, s)
		req.Target = tgt
		req.MaxComparative = 3
		bodies[i], _ = json.Marshal(req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Purge()
		var wg sync.WaitGroup
		for _, body := range bodies {
			wg.Add(1)
			go func(body []byte) {
				defer wg.Done()
				postBench(b, h, body)
			}(body)
		}
		wg.Wait()
	}
}

// BenchmarkSelectConcurrentDistinct is the unbatched baseline: 8 distinct
// cold requests each run their own full pipeline.
func BenchmarkSelectConcurrentDistinct(b *testing.B) {
	benchConcurrentDistinct(b, Options{})
}

// BenchmarkSelectConcurrentBatched is the same load with batching on: the
// 8 requests seal into one group sharing a slab pass and per-item
// regression problems. Divide by 8 for per-request cost.
func BenchmarkSelectConcurrentBatched(b *testing.B) {
	benchConcurrentDistinct(b, Options{BatchWindow: 10 * time.Millisecond, BatchMax: 8})
}

// BenchmarkSelectCoalesced measures the hot-key miss under concurrency:
// each iteration purges the cache and fires 8 identical requests at once,
// so one pipeline execution is amortized over all of them.
func BenchmarkSelectCoalesced(b *testing.B) {
	s, h, req := benchServer(b, Options{})
	body, _ := json.Marshal(req)
	const fanout = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Purge()
		var wg sync.WaitGroup
		for j := 0; j < fanout; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				postBench(b, h, body)
			}()
		}
		wg.Wait()
	}
}
