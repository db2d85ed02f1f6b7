package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comparesets/internal/faultinject"
	"comparesets/internal/model"
	"comparesets/internal/selectreq"
)

// mockWorker is a scriptable stand-in for a worker replica: per-route
// behavior is swapped at runtime so tests can decide failure roles after
// ring placement is known.
type mockWorker struct {
	ts *httptest.Server

	mu         sync.Mutex
	selectHits int
	mutateHits int
	bodies     []string // select bodies, in arrival order

	// fail makes every select answer 500; failMutate every mutation.
	fail       atomic.Bool
	failMutate atomic.Bool
	// delay stalls selects (for slow-replica and deadline tests).
	delay atomic.Int64 // nanoseconds
	// receipt is the mutation response body; tests vary it to simulate
	// divergent replicas.
	receipt atomic.Value // string
	// members maps a select target to the instance members its answer's
	// instance header names (default: the target alone); noInstance drops
	// the header entirely.
	members    atomic.Value // map[string][]string
	noInstance atomic.Bool
}

func newMockWorker(t *testing.T) *mockWorker {
	t.Helper()
	w := &mockWorker{}
	w.receipt.Store(`{"kind":"append","epoch":"1.00000000deadbeef","generation":1}`)
	mux := http.NewServeMux()
	w.members.Store(map[string][]string{})
	mux.HandleFunc("POST /api/v1/select", func(rw http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		// The delay is read before the hit is recorded, so a test that sees
		// the hit may change the delay for later selects only.
		d := w.delay.Load()
		w.mu.Lock()
		w.selectHits++
		w.bodies = append(w.bodies, string(body))
		// writes stamps the answer with the mutations applied when the
		// select arrived, so tests can tell pre-write bytes from post-write.
		writes := w.mutateHits
		w.mu.Unlock()
		if d > 0 {
			time.Sleep(time.Duration(d))
		}
		if w.fail.Load() {
			http.Error(rw, `{"error":{"code":"internal","message":"boom"}}`, http.StatusInternalServerError)
			return
		}
		var req struct {
			Target string `json:"target"`
		}
		json.Unmarshal(body, &req)
		if !w.noInstance.Load() {
			ids := w.members.Load().(map[string][]string)[req.Target]
			if ids == nil {
				ids = []string{req.Target}
			}
			items := make([]*model.Item, len(ids))
			for i, id := range ids {
				items[i] = &model.Item{ID: id}
			}
			rw.Header().Set(selectreq.InstanceHeader, selectreq.InstanceValue(items))
		}
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"items":[],"served_by":%q,"writes":%d}`, w.ts.URL, writes)
	})
	mux.HandleFunc("POST /api/v1/corpora/{category}/items/{item}/reviews", func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.mu.Lock()
		w.mutateHits++
		w.mu.Unlock()
		if w.failMutate.Load() {
			http.Error(rw, `{"error":{"code":"internal","message":"boom"}}`, http.StatusInternalServerError)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		io.WriteString(rw, w.receipt.Load().(string))
	})
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		io.WriteString(rw, `{"status":"ok"}`)
	})
	w.ts = httptest.NewServer(mux)
	t.Cleanup(w.ts.Close)
	return w
}

// proxyEveryRead makes the workers answer without the instance header, so
// the edge memoizes nothing and every read takes the proxied path.
func proxyEveryRead(workers []*mockWorker) {
	for _, w := range workers {
		w.noInstance.Store(true)
	}
}

func (w *mockWorker) stats() (selects, mutates int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.selectHits, w.mutateHits
}

func (w *mockWorker) selectBodies() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.bodies...)
}

// newTestRouter builds a started router over the mock workers with snappy
// test timings; mutate, when non-nil, adjusts the policy further.
func newTestRouter(t *testing.T, workers []*mockWorker, mutate func(*tuning)) (*Router, *httptest.Server, map[string]*mockWorker) {
	t.Helper()
	byAddr := map[string]*mockWorker{}
	addrs := make([]string, len(workers))
	for i, w := range workers {
		addrs[i] = w.ts.URL
		byAddr[w.ts.URL] = w
	}
	tun := defaultTuning
	tun.healthInterval = 20 * time.Millisecond
	tun.breaker.ConsecutiveFailures = 3
	tun.breaker.Cooldown = 100 * time.Millisecond
	tun.backoff = backoffConfig{Base: time.Millisecond, Cap: 4 * time.Millisecond}
	if mutate != nil {
		mutate(&tun)
	}
	rt, err := newRouter(RouterOptions{Backends: addrs, Logger: testLogger(t)}, tun)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	// Every backend starts unreachable until its first poll lands; wait for
	// the first sweep so candidate order is the ring's, not the order in
	// which the polls happened to finish.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		settled := true
		for _, st := range rt.health.States() {
			settled = settled && st != HealthUnreachable
		}
		if settled {
			break
		}
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts, byAddr
}

// pollEvery is the router policy with a /readyz poll period of d.
func pollEvery(d time.Duration) tuning {
	tun := defaultTuning
	tun.healthInterval = d
	return tun
}

func postSelect(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url+"/api/v1/select", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading select response: %v", err)
	}
	return resp, string(b)
}

// counterValue sums a counter family (across label sets) from the router's
// registry snapshot.
func counterValue(rt *Router, name string) uint64 {
	var total uint64
	for key, v := range rt.Registry().Snapshot() {
		if key == name || strings.HasPrefix(key, name+"{") {
			if c, ok := v.(uint64); ok {
				total += c
			}
		}
	}
	return total
}

func testLogger(t *testing.T) *log.Logger {
	return log.New(logWriter{t}, "", 0)
}

type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

func TestRouterRetriesPastFailingPrimary(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t), newMockWorker(t)}
	// No memoized answers: this test needs every select to reach the
	// proxied path so the failing primary keeps accumulating breaker
	// strikes.
	proxyEveryRead(workers)
	rt, ts, byAddr := newTestRouter(t, workers, nil)

	// Make the category's primary the failing replica so the first attempt
	// always needs a retry.
	primary := rt.Ring().Placement("Cameras")[0]
	byAddr[primary].fail.Store(true)

	for i := 0; i < 5; i++ {
		resp, body := postSelect(t, ts.URL, `{"category":"Cameras","target":"cam-1","m":3}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, resp.StatusCode, body)
		}
		if !strings.Contains(body, "served_by") {
			t.Fatalf("request %d: unexpected body %s", i, body)
		}
	}
	if got := counterValue(rt, "comparesets_router_retries_total"); got == 0 {
		t.Error("no retries recorded though the primary failed every select")
	}
	// The failing primary trips its breaker after 3 consecutive failures,
	// after which requests stop reaching it.
	deadline := time.Now().Add(2 * time.Second)
	for rt.breakers[primary].State() != BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatal("primary breaker never opened")
		}
		postSelect(t, ts.URL, `{"category":"Cameras","target":"cam-1","m":3}`)
	}
	before, _ := byAddr[primary].stats()
	postSelect(t, ts.URL, `{"category":"Cameras","target":"cam-1","m":3}`)
	after, _ := byAddr[primary].stats()
	if after != before {
		t.Errorf("open breaker still admitted a select (%d -> %d hits)", before, after)
	}
}

func TestRouterForwards4xxVerbatimWithoutRetry(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/select", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusNotFound)
		io.WriteString(rw, `{"error":{"code":"not_found","message":"unknown category \"Nope\""}}`)
	})
	workers[0].ts.Config.Handler = mux

	rt, ts, _ := newTestRouter(t, workers, nil)
	resp, body := postSelect(t, ts.URL, `{"category":"Nope","target":"x"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if want := `{"error":{"code":"not_found","message":"unknown category \"Nope\""}}`; body != want {
		t.Errorf("body not forwarded verbatim:\n got %s\nwant %s", body, want)
	}
	if got := counterValue(rt, "comparesets_router_retries_total"); got != 0 {
		t.Errorf("deterministic 4xx was retried %d times", got)
	}
}

func TestRouterRewritesDeadlineOnRetry(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t), newMockWorker(t)}
	rt, ts, byAddr := newTestRouter(t, workers, func(o *tuning) {
		// A visible backoff so the retry's remaining budget is measurably
		// smaller than the original.
		o.backoff = backoffConfig{Base: 60 * time.Millisecond, Cap: 60 * time.Millisecond}
	})
	primary := rt.Ring().Placement("Cameras")[0]
	byAddr[primary].fail.Store(true)

	resp, _ := postSelect(t, ts.URL, `{"category":"Cameras","target":"cam-1","timeout_ms":5000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var secondary *mockWorker
	for addr, w := range byAddr {
		if addr != primary {
			secondary = w
		}
	}
	bodies := secondary.selectBodies()
	if len(bodies) == 0 {
		t.Fatal("secondary never saw the retried select")
	}
	var got struct {
		TimeoutMS int `json:"timeout_ms"`
	}
	if err := json.Unmarshal([]byte(bodies[0]), &got); err != nil {
		t.Fatalf("retried body is not JSON: %v", err)
	}
	if got.TimeoutMS <= 0 || got.TimeoutMS >= 5000 {
		t.Errorf("retried timeout_ms = %d, want in (0, 5000): the deadline must shrink by elapsed time", got.TimeoutMS)
	}
}

// forwardOutcomes sums comparesets_router_forward_total over backends for
// one outcome.
func forwardOutcomes(rt *Router, outcome string) uint64 {
	var total uint64
	for key, v := range rt.Registry().Snapshot() {
		if strings.HasPrefix(key, "comparesets_router_forward_total{") &&
			strings.HasSuffix(key, `outcome="`+outcome+`"}`) {
			total += v.(uint64)
		}
	}
	return total
}

// TestRouterSlowPrimaryIsNotDuplicated: a slow but healthy primary is
// waited for, not raced — the read is answered by the primary and no second
// copy of the select reaches the other replica.
func TestRouterSlowPrimaryIsNotDuplicated(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t), newMockWorker(t)}
	rt, ts, byAddr := newTestRouter(t, workers, nil)
	placement := rt.Ring().Placement("Cameras")
	primary, secondary := byAddr[placement[0]], byAddr[placement[1]]
	primary.delay.Store(int64(400 * time.Millisecond))

	resp, body := postSelect(t, ts.URL, `{"category":"Cameras","target":"cam-1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, fmt.Sprintf(`"served_by":%q`, primary.ts.URL)) {
		t.Errorf("read not answered by the primary: %s", body)
	}
	if n, _ := secondary.stats(); n != 0 {
		t.Errorf("secondary saw %d selects, want 0", n)
	}
	if got := forwardOutcomes(rt, "ok"); got != 1 {
		t.Errorf("ok forwards = %d, want 1", got)
	}
}

func TestRouterMutationFanoutMarksDivergentAndDrains(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t), newMockWorker(t), newMockWorker(t)}
	// No memoized answers, so all ten post-divergence selects are proxied
	// and the drain assertion sees real routing decisions, not warm hits.
	proxyEveryRead(workers)
	rt, ts, byAddr := newTestRouter(t, workers, nil)
	placement := rt.Ring().Placement("Cameras")
	bad := byAddr[placement[1]]
	bad.failMutate.Store(true)

	resp, err := http.Post(ts.URL+"/api/v1/corpora/Cameras/items/cam-1/reviews",
		"application/json", strings.NewReader(`{"reviews":[{"id":"r-1","item_id":"cam-1","rating":4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation status = %d body %s", resp.StatusCode, body)
	}
	// Every replica saw the fan-out.
	for i, addr := range placement {
		if _, m := byAddr[addr].stats(); m != 1 {
			t.Errorf("replica %d (%s) saw %d mutations, want 1", i, addr, m)
		}
	}
	if !rt.isDivergent(placement[1], "Cameras") {
		t.Fatal("failed replica not marked divergent")
	}
	if rt.isDivergent(placement[0], "Cameras") || rt.isDivergent(placement[2], "Cameras") {
		t.Fatal("healthy replicas wrongly marked divergent")
	}
	// Subsequent reads for the category must drain away from the divergent
	// replica entirely.
	before, _ := bad.stats()
	for i := 0; i < 10; i++ {
		resp, _ := postSelect(t, ts.URL, `{"category":"Cameras","target":"cam-1"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-divergence select status = %d", resp.StatusCode)
		}
	}
	after, _ := bad.stats()
	if after != before {
		t.Errorf("divergent replica served %d selects after being drained", after-before)
	}
	if got := counterValue(rt, "comparesets_router_divergence_total"); got != 1 {
		t.Errorf("divergence counter = %d, want 1", got)
	}
}

func TestRouterMutationReceiptMismatchMarksDivergent(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t), newMockWorker(t)}
	rt, ts, byAddr := newTestRouter(t, workers, nil)
	placement := rt.Ring().Placement("Cameras")
	// Same epochSeq prefix rules: a differing fingerprint suffix must flag
	// divergence even when the write nominally succeeded.
	byAddr[placement[1]].receipt.Store(`{"kind":"append","epoch":"7.0000000000000bad","generation":1}`)

	resp, err := http.Post(ts.URL+"/api/v1/corpora/Cameras/items/cam-1/reviews",
		"application/json", strings.NewReader(`{"reviews":[{"id":"r-1","item_id":"cam-1","rating":4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation status = %d", resp.StatusCode)
	}
	if !rt.isDivergent(placement[1], "Cameras") {
		t.Error("fingerprint-mismatched replica not marked divergent")
	}
	if rt.isDivergent(placement[0], "Cameras") {
		t.Error("quorum replica wrongly marked divergent")
	}
}

func TestRouterEpochSeqPrefixDifferenceIsNotDivergence(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t), newMockWorker(t)}
	rt, ts, byAddr := newTestRouter(t, workers, nil)
	placement := rt.Ring().Placement("Cameras")
	// Different epochSeq, same fingerprint + generation: replicas agree.
	byAddr[placement[0]].receipt.Store(`{"kind":"append","epoch":"3.00000000deadbeef","generation":2}`)
	byAddr[placement[1]].receipt.Store(`{"kind":"append","epoch":"9.00000000deadbeef","generation":2}`)

	resp, err := http.Post(ts.URL+"/api/v1/corpora/Cameras/items/cam-1/reviews",
		"application/json", strings.NewReader(`{"reviews":[{"id":"r-1","item_id":"cam-1","rating":4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	for _, addr := range placement {
		if rt.isDivergent(addr, "Cameras") {
			t.Errorf("replica %s marked divergent though only the epochSeq prefix differs", addr)
		}
	}
}

// tripHalfOpen fails the category primary's selects until its breaker
// opens, heals it, and waits out the cooldown so the breaker is half-open.
func tripHalfOpen(t *testing.T, rt *Router, ts *httptest.Server, pw *mockWorker, primary string) {
	t.Helper()
	pw.fail.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for rt.breakers[primary].State() != BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatal("primary breaker never opened")
		}
		postSelect(t, ts.URL, `{"category":"Cameras","target":"cam-1"}`)
	}
	pw.fail.Store(false)
	time.Sleep(150 * time.Millisecond) // the test router's cooldown is 100ms
	if st := rt.breakers[primary].State(); st != BreakerHalfOpen {
		t.Fatalf("primary breaker %s after cooldown, want half-open", st)
	}
}

// requireAllow fails unless the breaker admits a request again, i.e. no
// abandoned attempt kept its half-open probe slot.
func requireAllow(t *testing.T, b *Breaker) {
	t.Helper()
	if !b.Allow() {
		t.Fatal("half-open breaker wedged: abandoned probe never released its slot")
	}
	b.Release()
}

// TestRouterAbandonedProbeDoesNotWedgeHalfOpenBreaker: a probe sent to a
// slow half-open primary is abandoned when the read's deadline expires. The
// abandoned attempt must release its Allow-claimed probe slot, or Allow
// refuses forever and the primary never rejoins rotation.
func TestRouterAbandonedProbeDoesNotWedgeHalfOpenBreaker(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t), newMockWorker(t)}
	// No memoized answers: every select must reach the proxied path.
	proxyEveryRead(workers)
	rt, ts, byAddr := newTestRouter(t, workers, nil)
	primary := rt.Ring().Placement("Cameras")[0]
	pw := byAddr[primary]
	tripHalfOpen(t, rt, ts, pw, primary)
	pw.delay.Store(int64(300 * time.Millisecond)) // the probe outlives the deadline

	resp, body := postSelect(t, ts.URL, `{"category":"Cameras","target":"cam-1","timeout_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d body %s, want 504", resp.StatusCode, body)
	}
	if got := forwardOutcomes(rt, "abandoned"); got != 1 {
		t.Errorf("abandoned forwards = %d, want 1", got)
	}
	requireAllow(t, rt.breakers[primary])
}

// TestRouterConnDropReleasesHalfOpenProbe: an injected conn-drop on the
// forward of a half-open probe tears the client's response down and gives
// no verdict on the backend, so the probe slot must be released.
func TestRouterConnDropReleasesHalfOpenProbe(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t), newMockWorker(t)}
	proxyEveryRead(workers)
	rt, ts, byAddr := newTestRouter(t, workers, nil)
	primary := rt.Ring().Placement("Cameras")[0]
	tripHalfOpen(t, rt, ts, byAddr[primary], primary)

	fired := faultinject.Fires(faultinject.PointRouterForward)
	faultinject.Arm(faultinject.PointRouterForward, faultinject.Fault{Mode: faultinject.ModeConnDrop, Remaining: 1})
	defer faultinject.Disarm(faultinject.PointRouterForward)
	// abortConn flushes the status line before it hijacks, so the drop
	// shows up as a torn body rather than a transport error.
	resp, err := http.Post(ts.URL+"/api/v1/select", "application/json",
		strings.NewReader(`{"category":"Cameras","target":"cam-1"}`))
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("conn-drop answered the read intact")
	}
	if fires := faultinject.Fires(faultinject.PointRouterForward) - fired; fires != 1 {
		t.Fatalf("conndrop fires = %d, want 1", fires)
	}
	requireAllow(t, rt.breakers[primary])
}

func TestRouterDivergentReplicaRejoinsOnMatchingReceipt(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t), newMockWorker(t)}
	rt, ts, byAddr := newTestRouter(t, workers, nil)
	placement := rt.Ring().Placement("Cameras")
	stray := byAddr[placement[1]]
	stray.receipt.Store(`{"kind":"append","epoch":"7.0000000000000bad","generation":1}`)

	post := func() {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/corpora/Cameras/items/cam-1/reviews",
			"application/json", strings.NewReader(`{"reviews":[{"id":"r-1","item_id":"cam-1","rating":4}]}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutation status = %d", resp.StatusCode)
		}
	}
	post()
	if !rt.isDivergent(placement[1], "Cameras") {
		t.Fatal("mismatched replica not marked divergent")
	}
	// The replica restarts and rebuilds through the snapshot join: its state
	// converges, so its next receipt matches the quorum (same fingerprint
	// and generation; the epochSeq prefix differing is expected).
	byAddr[placement[0]].receipt.Store(`{"kind":"append","epoch":"2.00000000deadbeef","generation":2}`)
	stray.receipt.Store(`{"kind":"append","epoch":"9.00000000deadbeef","generation":2}`)
	post()
	if rt.isDivergent(placement[1], "Cameras") {
		t.Error("converged replica still drained from reads")
	}
	if got := counterValue(rt, "comparesets_router_rejoins_total"); got == 0 {
		t.Error("no rejoin recorded in metrics")
	}
}

// A caller-supplied client with no Timeout must not make every probe expire
// instantly (context.WithTimeout(ctx, 0) would).
func TestHealthWatcherZeroTimeoutClient(t *testing.T) {
	w := newMockWorker(t)
	hw := NewHealthWatcher([]string{w.ts.URL}, &http.Client{}, time.Hour, nil)
	hw.sweep()
	if got := hw.State(w.ts.URL); got != HealthOK {
		t.Fatalf("state with zero-timeout client = %q, want %q", got, HealthOK)
	}
}

func TestReceiptIdentity(t *testing.T) {
	fp, gen, ok := receiptIdentity([]byte(`{"epoch":"12.00ab","generation":7}`))
	if !ok || fp != "00ab" || gen != 7 {
		t.Errorf("receiptIdentity = %q/%d/%v, want 00ab/7/true", fp, gen, ok)
	}
	if _, _, ok := receiptIdentity([]byte(`not json`)); ok {
		t.Error("garbage receipt parsed")
	}
}
