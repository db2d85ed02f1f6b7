package obs

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", Labels{"code": "200"})
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", "requests", Labels{"code": "200"}); again != c {
		t.Fatal("same (name, labels) must return the same counter")
	}
	if other := r.Counter("reqs_total", "requests", Labels{"code": "404"}); other == c {
		t.Fatal("different labels must return a different series")
	}

	g := r.Gauge("temp", "", nil)
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{0.1, 1, 10}, nil)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	cum, count, sum := h.snapshot()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if sum != 56.05 {
		t.Fatalf("sum = %v, want 56.05", sum)
	}
	want := []uint64{1, 3, 4, 5} // cumulative: ≤0.1, ≤1, ≤10, +Inf
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (%v)", i, cum[i], w, cum)
		}
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge", "", []float64{1, 2}, nil)
	h.Observe(1) // exactly on a bound counts into that bucket (le semantics)
	cum, _, _ := h.snapshot()
	if cum[0] != 1 {
		t.Fatalf("observation on bucket bound must land in that bucket, got %v", cum)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "", nil)
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("api_requests_total", "API requests.", Labels{"endpoint": "select", "code": "200"}).Add(3)
	r.Gauge("up", "", nil).Set(1)
	h := r.Histogram("req_seconds", "Latency.", []float64{0.5, 2}, Labels{"endpoint": "select"})
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(4)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP api_requests_total API requests.",
		"# TYPE api_requests_total counter",
		`api_requests_total{code="200",endpoint="select"} 3`,
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{endpoint="select",le="0.5"} 1`,
		`req_seconds_bucket{endpoint="select",le="2"} 2`,
		`req_seconds_bucket{endpoint="select",le="+Inf"} 3`,
		`req_seconds_sum{endpoint="select"} 5.25`,
		`req_seconds_count{endpoint="select"} 3`,
		"# TYPE up gauge",
		"up 1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must appear in sorted name order.
	if strings.Index(out, "api_requests_total") > strings.Index(out, "req_seconds") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits", "", nil).Inc()
	rec := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits 1") {
		t.Fatalf("body missing counter:\n%s", rec.Body.String())
	}
}

func TestOpsMux(t *testing.T) {
	mux := http.NewServeMux()
	RegisterOps(mux, NewRegistry())
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "", nil).Add(2)
	h := r.Histogram("h", "", []float64{1}, Labels{"s": "x"})
	h.Observe(0.5)
	snap := r.Snapshot()
	if snap["c"] != uint64(2) {
		t.Fatalf("snapshot c = %v", snap["c"])
	}
	hs, ok := snap[`h{s="x"}`].(map[string]any)
	if !ok || hs["count"] != uint64(1) {
		t.Fatalf("snapshot h = %v", snap[`h{s="x"}`])
	}
}

// TestConcurrentWrites exercises every write path under the race detector
// while a reader renders the exposition.
func TestConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c", "", Labels{"w": string(rune('a' + w%2))}).Inc()
				r.Gauge("g", "", nil).Add(1)
				r.Histogram("h", "", []float64{0.5, 1}, nil).Observe(float64(i%3) / 2)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_ = r.WritePrometheus(&b)
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Histogram("h", "", []float64{0.5, 1}, nil).Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
	if got := r.Gauge("g", "", nil).Value(); got != 8*500 {
		t.Fatalf("gauge = %v, want %v", got, 8*500)
	}
}

func TestStageTimer(t *testing.T) {
	h := StageHistogram(StageNOMP)
	before, sumBefore := h.Count(), h.Sum()
	span := StartStage(StageNOMP)
	time.Sleep(time.Millisecond)
	span.Stop()
	if got := h.Count(); got != before+1 {
		t.Fatalf("stage count = %d, want %d", got, before+1)
	}
	if d := h.Sum() - sumBefore; d < time.Millisecond.Seconds() {
		t.Fatalf("stage span recorded %gs, want at least the 1ms it covered", d)
	}
	ObserveStage("custom_stage", 5*time.Millisecond)
	if StageHistogram("custom_stage").Count() == 0 {
		t.Fatal("custom stage not recorded")
	}
	var b strings.Builder
	if err := Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `comparesets_pipeline_stage_duration_seconds_count{stage="nomp"}`) {
		t.Fatalf("default registry missing stage series:\n%s", b.String())
	}
}

// A CounterSet creates each series at its key's first use, so a registry
// driven through one renders byte-for-byte what uncached Counter lookups
// render for the same event sequence, including series that never fire.
func TestCounterSetMatchesUncachedExposition(t *testing.T) {
	type key struct{ route, code string }
	labels := func(k key) Labels { return Labels{"route": k.route, "code": k.code} }
	events := []key{{"read", "200"}, {"read", "200"}, {"mutate", "503"}, {"read", "499"}, {"mutate", "503"}}
	direct, cached := NewRegistry(), NewRegistry()
	set := NewCounterSet(cached, "reqs_total", "Requests.", labels)
	var want, got strings.Builder
	for i, k := range events {
		for _, r := range []*Registry{direct, cached} {
			r.Gauge("g", "", nil).Set(float64(i))
		}
		direct.Counter("reqs_total", "Requests.", labels(k)).Inc()
		set.With(k).Inc()
		want.Reset()
		got.Reset()
		_ = direct.WritePrometheus(&want)
		_ = cached.WritePrometheus(&got)
		if want.String() != got.String() {
			t.Fatalf("after event %d:\nuncached:\n%s\ncached:\n%s", i, want.String(), got.String())
		}
	}
	if set.With(key{"read", "200"}) != cached.Counter("reqs_total", "", labels(key{"read", "200"})) {
		t.Fatal("cached handle differs from the registry's series")
	}
}

// Concurrent first uses of one key resolve to the registry's single series.
func TestCounterSetConcurrentFirstUse(t *testing.T) {
	r := NewRegistry()
	set := NewCounterSet(r, "c_total", "", func(k int) Labels { return Labels{"k": strconv.Itoa(k)} })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				set.With(i % 5).Inc()
			}
		}()
	}
	wg.Wait()
	for k := 0; k < 5; k++ {
		if got := r.Counter("c_total", "", Labels{"k": strconv.Itoa(k)}).Value(); got != 8*40 {
			t.Fatalf("key %d: %d increments, want %d", k, got, 8*40)
		}
	}
}
