package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comparesets/internal/faultinject"
	"comparesets/internal/obs"
	"comparesets/internal/service"
)

// TestRouterEdgeWarmHitByteParityAgainstRealWorkers proves the edge cache's
// core contract end to end over real service replicas: a warm edge hit is
// the exact bytes of the proxied response it memoized, a direct worker
// answer matches modulo the elapsed_ms timing field, and a mutation's
// receipt forces the next read back upstream so post-write serves track the
// workers byte-for-byte.
func TestRouterEdgeWarmHitByteParityAgainstRealWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("real-corpus cluster test")
	}
	const seed = 42
	_, w1 := newWorker(t, seed)
	defer w1.Close()
	svc2, w2 := newWorker(t, seed)
	defer w2.Close()

	rt, err := newRouter(RouterOptions{
		Backends: []string{w1.URL, w2.URL},
		Logger:   testLogger(t),
	}, pollEvery(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	routerTS := httptest.NewServer(rt.Handler())
	defer routerTS.Close()

	client := &http.Client{Timeout: 15 * time.Second}
	cats := svc2.Categories()
	if len(cats) == 0 {
		t.Fatal("no categories loaded")
	}
	cat := cats[0]
	var targets []string
	if err := getJSON(client, routerTS.URL+"/api/v1/targets?category="+cat, &targets); err != nil {
		t.Fatalf("listing %s targets: %v", cat, err)
	}
	if len(targets) == 0 {
		t.Fatalf("no targets in %s", cat)
	}
	target := targets[0]
	body := selectBody(cat, target)

	status, cold, err := post(client, routerTS.URL+"/api/v1/select", body)
	if err != nil || status != http.StatusOK {
		t.Fatalf("cold routed select: status %d err %v", status, err)
	}
	status, warm, err := post(client, routerTS.URL+"/api/v1/select", body)
	if err != nil || status != http.StatusOK {
		t.Fatalf("warm routed select: status %d err %v", status, err)
	}
	// The warm hit replays the memoized proxied response exactly — even the
	// elapsed_ms bytes are the ones the worker sent.
	if string(warm) != string(cold) {
		t.Errorf("warm edge hit differs from the proxied response it memoized:\ncold %s\nwarm %s", cold, warm)
	}
	if hits := counterSnapshot(rt.Registry(), `comparesets_cache_hits_total{cache="router_edge"}`); hits != 1 {
		t.Errorf("edge hits = %d, want 1", hits)
	}
	// A worker answering directly produces the same selection bytes modulo
	// timing.
	status, direct, err := post(client, w2.URL+"/api/v1/select", body)
	if err != nil || status != http.StatusOK {
		t.Fatalf("direct select: status %d err %v", status, err)
	}
	if got, want := normalizeElapsed(warm), normalizeElapsed(direct); got != want {
		t.Errorf("edge bytes diverge from a direct worker answer:\n edge  %s\n direct %s", got, want)
	}

	// Write through the router: the quorum receipt must push the next read
	// past the edge so no stale selection is ever replayed.
	missesBefore := counterSnapshot(rt.Registry(), `comparesets_cache_misses_total{cache="router_edge"}`)
	status, receipt, err := post(client, routerTS.URL+"/api/v1/corpora/"+cat+"/items/"+target+"/reviews",
		appendBody("edge-parity-r1", target))
	if err != nil || status != http.StatusOK {
		t.Fatalf("routed mutation: status %d err %v body %s", status, err, receipt)
	}
	status, fresh, err := post(client, routerTS.URL+"/api/v1/select", body)
	if err != nil || status != http.StatusOK {
		t.Fatalf("post-mutation routed select: status %d err %v", status, err)
	}
	if got := counterSnapshot(rt.Registry(), `comparesets_cache_misses_total{cache="router_edge"}`); got <= missesBefore {
		t.Errorf("post-mutation select did not miss the edge (misses %d -> %d): stale bytes were replayed", missesBefore, got)
	}
	status, directFresh, err := post(client, w2.URL+"/api/v1/select", body)
	if err != nil || status != http.StatusOK {
		t.Fatalf("post-mutation direct select: status %d err %v", status, err)
	}
	if got, want := normalizeElapsed(fresh), normalizeElapsed(directFresh); got != want {
		t.Errorf("post-mutation edge bytes diverge from the worker:\n edge  %s\n direct %s", got, want)
	}
}

// TestRouterColdReadsCoalesceAtWorker: the edge does not coalesce, so
// identical concurrent cold reads through the router are plain forwards,
// and the worker's select flight group runs the pipeline once for all of
// them.
func TestRouterColdReadsCoalesceAtWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("real-corpus cluster test")
	}
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	const concurrency = 8
	// One replica behind the router pins where the reads land: a read can
	// never reach a replica whose flight group and cache the others missed.
	svc := service.NewWithOptions(defaultCorpora(42)(), testLogger(t), service.Options{})
	// The pipeline's one execution is held until every read has been
	// admitted at the worker: on that event, not on a fixed latency. A read
	// admitted while the flight runs joins it; one that reaches the cache
	// after the flight's fill is a hit.
	admitted := make(chan struct{})
	var arrivals atomic.Int32
	h := svc.Handler()
	w := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/select" && arrivals.Add(1) == concurrency {
			close(admitted)
		}
		h.ServeHTTP(rw, r)
	}))
	defer w.Close()

	rt, err := newRouter(RouterOptions{
		Backends: []string{w.URL},
		Logger:   testLogger(t),
	}, pollEvery(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	routerTS := httptest.NewServer(rt.Handler())
	defer routerTS.Close()

	client := &http.Client{Timeout: 15 * time.Second}
	cat := svc.Categories()[0]
	var targets []string
	if err := getJSON(client, routerTS.URL+"/api/v1/targets?category="+cat, &targets); err != nil || len(targets) == 0 {
		t.Fatalf("listing %s targets: %v (%d targets)", cat, err, len(targets))
	}
	body := selectBody(cat, targets[0])

	executions := obs.NewCacheMetrics(svc.Registry(), "selectflight").Executions
	before := executions.Value()
	fired := faultinject.Fires(faultinject.PointServiceSelect)
	// Latency only bounds the hold, so a read that never arrives fails the
	// test instead of hanging it.
	faultinject.Arm(faultinject.PointServiceSelect, faultinject.Fault{
		Mode: faultinject.ModeLatency, Latency: 5 * time.Second, Release: admitted, Remaining: 1,
	})

	bodies := make([][]byte, concurrency)
	var wg sync.WaitGroup
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, b, err := post(client, routerTS.URL+"/api/v1/select", body)
			if err != nil || status != http.StatusOK {
				t.Errorf("concurrent select %d: status %d err %v", i, status, err)
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()

	select {
	case <-admitted:
	default:
		t.Fatalf("only %d of %d reads reached the worker", arrivals.Load(), concurrency)
	}
	if got := faultinject.Fires(faultinject.PointServiceSelect) - fired; got != 1 {
		t.Errorf("held executions = %d, want 1", got)
	}
	for i := 1; i < concurrency; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("concurrent cold reads saw different bytes:\n%s\n%s", bodies[0], bodies[i])
		}
	}
	if got := executions.Value() - before; got != 1 {
		t.Errorf("select pipeline executions = %d, want exactly 1", got)
	}
}
