package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"comparesets/internal/core"
	"comparesets/internal/faultinject"
	"comparesets/internal/model"
	"comparesets/internal/obs"
	"comparesets/internal/selectreq"
	"comparesets/internal/simgraph"
)

// counterValue reads a registry counter without caring about help text
// (the registry keys on name+labels).
func counterValue(s *Server, name string, labels obs.Labels) uint64 {
	return s.reg.Counter(name, "", labels).Value()
}

func decodeSelect(t *testing.T, body []byte) *SelectResponse {
	t.Helper()
	var resp SelectResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding select response: %v (body %s)", err, body)
	}
	return &resp
}

func decodeErrorEnvelope(t *testing.T, body []byte) ErrorBody {
	t.Helper()
	var env ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decoding error envelope: %v (body %s)", err, body)
	}
	return env.Error
}

// TestHandlerPanicContained proves a panicking handler yields a 500 error
// envelope, increments the panic counter, and leaves the process able to
// serve the next request.
func TestHandlerPanicContained(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	c := cellphoneCorpus(t, 3)
	s := New(map[string]*model.Corpus{"Cellphone": c}, nil)
	h := s.Handler()
	req := hotRequest(t, s)

	before := counterValue(s, "comparesets_http_panics_total", obs.Labels{"endpoint": "select"})
	faultinject.Arm(faultinject.PointServiceHandler,
		faultinject.Fault{Mode: faultinject.ModePanic, PanicValue: "boom", Remaining: 1})
	w := postRecorded(t, h, "/api/v1/select", req)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", w.Code, w.Body.String())
	}
	e := decodeErrorEnvelope(t, w.Body.Bytes())
	if e.Code != CodeInternal || e.Message != "internal server error" {
		t.Errorf("envelope = %+v, want code %q with generic message", e, CodeInternal)
	}
	if strings.Contains(w.Body.String(), "boom") {
		t.Errorf("panic value leaked into the response: %s", w.Body.String())
	}
	if got := counterValue(s, "comparesets_http_panics_total", obs.Labels{"endpoint": "select"}); got != before+1 {
		t.Errorf("panics_total delta = %d, want 1", got-before)
	}
	// The process survived: the same request now succeeds.
	if w := postRecorded(t, h, "/api/v1/select", req); w.Code != http.StatusOK {
		t.Fatalf("post-panic request: status %d body %s", w.Code, w.Body.String())
	}
}

// TestFlightPanicContained proves a panic inside a coalesced flight
// surfaces as a 500 envelope (via servecache.PanicError) rather than
// killing the process, and is counted.
func TestFlightPanicContained(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	c := cellphoneCorpus(t, 3)
	s := New(map[string]*model.Corpus{"Cellphone": c}, nil)
	h := s.Handler()
	req := hotRequest(t, s)

	before := s.flightPanics.Value()
	faultinject.Arm(faultinject.PointServiceSelect,
		faultinject.Fault{Mode: faultinject.ModePanic, Remaining: 1})
	w := postRecorded(t, h, "/api/v1/select", req)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", w.Code, w.Body.String())
	}
	if e := decodeErrorEnvelope(t, w.Body.Bytes()); e.Code != CodeInternal {
		t.Errorf("envelope code = %q, want %q", e.Code, CodeInternal)
	}
	if got := s.flightPanics.Value(); got != before+1 {
		t.Errorf("flight panic counter delta = %d, want 1", got-before)
	}
	if w := postRecorded(t, h, "/api/v1/select", req); w.Code != http.StatusOK {
		t.Fatalf("post-panic request: status %d body %s", w.Code, w.Body.String())
	}
}

// TestAdmissionControlSheds proves a saturated limiter sheds with 503, the
// overloaded error code, a Retry-After hint, and a shed counter — and that
// releasing the slot restores service.
func TestAdmissionControlSheds(t *testing.T) {
	c := cellphoneCorpus(t, 3)
	s := NewWithOptions(map[string]*model.Corpus{"Cellphone": c}, nil,
		Options{MaxInflight: 1})
	s.limiter.maxQueue = 0 // no queue: a request beyond the slot is shed at once
	h := s.Handler()
	req := hotRequest(t, s)

	release, aerr := s.limiter.acquire(context.Background())
	if aerr != nil {
		t.Fatalf("acquire: %v", aerr)
	}
	before := counterValue(s, "comparesets_load_shed_total", obs.Labels{"reason": "queue_full"})
	w := postRecorded(t, h, "/api/v1/select", req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", w.Code, w.Body.String())
	}
	if e := decodeErrorEnvelope(t, w.Body.Bytes()); e.Code != CodeOverloaded {
		t.Errorf("envelope code = %q, want %q", e.Code, CodeOverloaded)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want ≥ 1 second", ra)
	}
	if got := counterValue(s, "comparesets_load_shed_total", obs.Labels{"reason": "queue_full"}); got != before+1 {
		t.Errorf("load_shed_total{queue_full} delta = %d, want 1", got-before)
	}

	release()
	if w := postRecorded(t, h, "/api/v1/select", req); w.Code != http.StatusOK {
		t.Fatalf("post-release request: status %d body %s", w.Code, w.Body.String())
	}
}

// TestLimiterDeadlineShed proves the limiter sheds a queued request whose
// deadline cannot outlast the expected wait, without consuming queue time.
func TestLimiterDeadlineShed(t *testing.T) {
	l := newLimiter(1, obs.Default())
	release, aerr := l.acquire(context.Background())
	if aerr != nil {
		t.Fatalf("first acquire: %v", aerr)
	}
	defer release()
	// Expected wait is the 50ms EWMA seed; a 5ms deadline can't make it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, aerr := l.acquire(ctx); aerr == nil || aerr.code != CodeOverloaded {
		t.Fatalf("aerr = %+v, want overloaded", aerr)
	}
}

// TestLimiterQueueWaits proves a queued request is admitted when a slot
// frees up, and that release is idempotent.
func TestLimiterQueueWaits(t *testing.T) {
	l := newLimiter(1, obs.Default())
	release, aerr := l.acquire(context.Background())
	if aerr != nil {
		t.Fatalf("first acquire: %v", aerr)
	}
	done := make(chan *apiError, 1)
	go func() {
		r2, aerr := l.acquire(context.Background())
		if aerr == nil {
			r2()
		}
		done <- aerr
	}()
	time.Sleep(10 * time.Millisecond)
	release()
	release() // second call must be a no-op, not a double slot return
	if aerr := <-done; aerr != nil {
		t.Fatalf("queued acquire: %v", aerr)
	}
	if len(l.slots) != l.capacity {
		t.Errorf("slots free = %d, want %d", len(l.slots), l.capacity)
	}
}

// TestStaleWhileError proves a pipeline failure on a previously served
// request shape answers with the last good payload, flagged degraded, and
// counts the degraded response.
func TestStaleWhileError(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	c := cellphoneCorpus(t, 3)
	s := New(map[string]*model.Corpus{"Cellphone": c}, nil)
	h := s.Handler()
	req := hotRequest(t, s)

	cold := postRecorded(t, h, "/api/v1/select", req)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: status %d body %s", cold.Code, cold.Body.String())
	}
	// Epoch bump invalidates the primary cache so the next request must
	// run the (now failing) pipeline; the stale copy is keyed without the
	// epoch and survives.
	s.AddCorpus("Cellphone", c)
	faultinject.Arm(faultinject.PointServiceSelect,
		faultinject.Fault{Mode: faultinject.ModeError})

	before := s.staleServed.Value()
	w := postRecorded(t, h, "/api/v1/select", req)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded: status %d body %s", w.Code, w.Body.String())
	}
	resp := decodeSelect(t, w.Body.Bytes())
	if !resp.Degraded {
		t.Fatalf("degraded flag missing: %s", w.Body.String())
	}
	if want := degradeBody(cold.Body.Bytes()); !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("degraded body is not the flagged cold payload\ngot  %s\nwant %s", w.Body.Bytes(), want)
	}
	if got := s.staleServed.Value(); got != before+1 {
		t.Errorf("degraded_responses_total delta = %d, want 1", got-before)
	}

	// With the fault cleared the pipeline recovers and serves fresh,
	// unflagged results again.
	faultinject.Reset()
	w = postRecorded(t, h, "/api/v1/select", req)
	if w.Code != http.StatusOK || strings.Contains(w.Body.String(), `"degraded"`) {
		t.Fatalf("recovered: status %d body %s", w.Code, w.Body.String())
	}
}

// TestStaleWhileErrorColdKeyFails proves stale serving never invents data:
// a failing pipeline on a never-served shape is a plain 500.
func TestStaleWhileErrorColdKeyFails(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	c := cellphoneCorpus(t, 3)
	s := New(map[string]*model.Corpus{"Cellphone": c}, nil)
	h := s.Handler()
	req := hotRequest(t, s)

	faultinject.Arm(faultinject.PointServiceSelect,
		faultinject.Fault{Mode: faultinject.ModeError})
	w := postRecorded(t, h, "/api/v1/select", req)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", w.Code, w.Body.String())
	}
	if e := decodeErrorEnvelope(t, w.Body.Bytes()); e.Code != CodeInternal {
		t.Errorf("envelope code = %q, want %q", e.Code, CodeInternal)
	}
}

// TestStaleWhileErrorAfterMutation: a mutation of an instance member
// re-tags the instance's cached answer rather than dropping it, so a
// pipeline failure after the write still serves the pre-write payload,
// flagged degraded. The stale lookup is not a cache lookup: the request
// moves the servecache counters by exactly its one miss.
func TestStaleWhileErrorAfterMutation(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	c := cellphoneCorpus(t, 3)
	s := New(map[string]*model.Corpus{"Cellphone": c}, nil)
	h := s.Handler()
	req := hotRequest(t, s)

	cold := postRecorded(t, h, "/api/v1/select", req)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: status %d body %s", cold.Code, cold.Body.String())
	}
	w := postRecorded(t, h, "/api/v1/corpora/Cellphone/items/"+req.Target+"/reviews",
		AppendReviewsBody{Reviews: []*model.Review{{ID: "stale-r1", Rating: 1}}})
	if w.Code != http.StatusOK {
		t.Fatalf("mutation: status %d body %s", w.Code, w.Body.String())
	}
	faultinject.Arm(faultinject.PointServiceSelect, faultinject.Fault{Mode: faultinject.ModeError})

	m := obs.NewCacheMetrics(s.reg, "servecache")
	hits, misses, served := m.Hits.Value(), m.Misses.Value(), s.staleServed.Value()
	w = postRecorded(t, h, "/api/v1/select", req)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded: status %d body %s", w.Code, w.Body.String())
	}
	if want := degradeBody(cold.Body.Bytes()); !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("degraded body is not the flagged pre-write payload\ngot  %s\nwant %s", w.Body.Bytes(), want)
	}
	if got := s.staleServed.Value(); got != served+1 {
		t.Errorf("degraded_responses_total delta = %d, want 1", got-served)
	}
	if dh, dm := m.Hits.Value()-hits, m.Misses.Value()-misses; dh != 0 || dm != 1 {
		t.Errorf("servecache deltas = %d hits / %d misses, want 0 / 1", dh, dm)
	}
}

// TestOlderEpochFillNeverServedFresh: a fill tagged with an instance epoch
// a write has since superseded (a flight that started before the write and
// finished after it) is never answered as a hit under the current epoch;
// the read recomputes and replaces it.
func TestOlderEpochFillNeverServedFresh(t *testing.T) {
	c := cellphoneCorpus(t, 3)
	s := New(map[string]*model.Corpus{"Cellphone": c}, nil)
	h := s.Handler()
	req := hotRequest(t, s)
	canonical := req
	selectreq.ApplyDefaults(&canonical)
	key := selectreq.Key(&canonical)

	s.mu.RLock()
	before := s.epochs["Cellphone"]
	s.mu.RUnlock()
	w := postRecorded(t, h, "/api/v1/corpora/Cellphone/items/"+req.Target+"/reviews",
		AppendReviewsBody{Reviews: []*model.Review{{ID: "late-r1", Rating: 5}}})
	if w.Code != http.StatusOK {
		t.Fatalf("mutation: status %d body %s", w.Code, w.Body.String())
	}
	late := []byte(`{"algorithm":"pre-write","objective":0,"items":null,"elapsed_ms":0}` + "\n")
	s.cache.Put(key, before, late)

	w = postRecorded(t, h, "/api/v1/select", req)
	if w.Code != http.StatusOK {
		t.Fatalf("select: status %d body %s", w.Code, w.Body.String())
	}
	if bytes.Equal(w.Body.Bytes(), late) {
		t.Fatal("a fill under the superseded epoch was served as a fresh hit")
	}
	if again := postRecorded(t, h, "/api/v1/select", req); !bytes.Equal(again.Body.Bytes(), w.Body.Bytes()) {
		t.Errorf("the recomputed answer did not replace the late fill:\n%s\n%s", w.Body.String(), again.Body.String())
	}
}

// computeDirect runs computeSelect outside the HTTP layer so tests can
// control the context and limiter state exactly.
func computeDirect(t *testing.T, s *Server, ctx context.Context, req *SelectRequest, solver simgraph.Solver) *SelectResponse {
	t.Helper()
	s.mu.RLock()
	c := s.corpora[req.Category]
	fs := s.feats[req.Category]
	s.mu.RUnlock()
	inst, err := c.NewInstance(req.Target, req.MaxComparative)
	if err != nil {
		t.Fatal(err)
	}
	algo := req.Algorithm
	if algo == "" {
		algo = "CompaReSetS+"
	}
	sel, ok := core.SelectorByName(algo)
	if !ok {
		t.Fatalf("unknown algorithm %q", algo)
	}
	resp, apiErr := s.computeSelect(ctx, req, inst, fs, sel, solver)
	if apiErr != nil {
		t.Fatalf("computeSelect: %v", apiErr)
	}
	return resp
}

// TestShortlistDegradationLadder proves the exact solver is shed to greedy
// under queue pressure, insufficient deadline headroom, and internal
// budget exhaustion — each marked optimal:false with the matching
// fallback-counter reason — while unpressured exact solves stay optimal.
func TestShortlistDegradationLadder(t *testing.T) {
	c := cellphoneCorpus(t, 3)
	s := NewWithOptions(map[string]*model.Corpus{"Cellphone": c}, nil,
		Options{MaxInflight: 1})
	req := hotRequest(t, s)
	req.Method = "exact"

	fallback := func(reason string) uint64 {
		return counterValue(s, "comparesets_shortlist_fallback_total", obs.Labels{"reason": reason})
	}
	assertShed := func(t *testing.T, resp *SelectResponse) {
		t.Helper()
		if resp.Optimal == nil || *resp.Optimal {
			t.Errorf("Optimal = %v, want false", resp.Optimal)
		}
		if len(resp.Shortlist) != req.K {
			t.Errorf("shortlist len = %d, want %d (fallback must still answer)", len(resp.Shortlist), req.K)
		}
	}

	t.Run("overload", func(t *testing.T) {
		// Simulate queue pressure: slot taken, a request waiting.
		<-s.limiter.slots
		s.limiter.queued.Add(1)
		defer func() {
			s.limiter.queued.Add(-1)
			s.limiter.slots <- struct{}{}
		}()
		before := fallback("overload")
		resp := computeDirect(t, s, context.Background(), &req, simgraph.Exact{Budget: 10 * time.Second})
		assertShed(t, resp)
		if got := fallback("overload"); got != before+1 {
			t.Errorf("fallback{overload} delta = %d, want 1", got-before)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		// Headroom below exactMinHeadroom at shortlist time: the deadline
		// is generous enough for selection but too tight for exact B&B.
		ctx, cancel := context.WithTimeout(context.Background(), exactMinHeadroom-5*time.Millisecond)
		defer cancel()
		before := fallback("deadline")
		resp := computeDirect(t, s, ctx, &req, simgraph.Exact{Budget: 10 * time.Second})
		assertShed(t, resp)
		if got := fallback("deadline"); got != before+1 {
			t.Errorf("fallback{deadline} delta = %d, want 1", got-before)
		}
	})

	t.Run("budget", func(t *testing.T) {
		before := fallback("budget")
		resp := computeDirect(t, s, context.Background(), &req, simgraph.Exact{Budget: time.Nanosecond})
		assertShed(t, resp)
		if got := fallback("budget"); got != before+1 {
			t.Errorf("fallback{budget} delta = %d, want 1", got-before)
		}
	})

	t.Run("unpressured stays optimal", func(t *testing.T) {
		resp := computeDirect(t, s, context.Background(), &req, simgraph.Exact{Budget: 10 * time.Second})
		if resp.Optimal != nil {
			t.Errorf("Optimal = %v, want omitted for a completed exact solve", *resp.Optimal)
		}
	})
}

// TestFallbackResultsNotCached proves a degraded shortlist result is never
// cached: once pressure clears, the same request recomputes optimally.
func TestFallbackResultsNotCached(t *testing.T) {
	c := cellphoneCorpus(t, 3)
	s := NewWithOptions(map[string]*model.Corpus{"Cellphone": c}, nil,
		Options{MaxInflight: 2})
	h := s.Handler()
	req := hotRequest(t, s)
	req.Method = "exact"

	// Pressure on: the e2e request sheds the exact solve.
	<-s.limiter.slots
	s.limiter.queued.Add(1)
	w := postRecorded(t, h, "/api/v1/select", req)
	s.limiter.queued.Add(-1)
	s.limiter.slots <- struct{}{}
	if w.Code != http.StatusOK {
		t.Fatalf("pressured: status %d body %s", w.Code, w.Body.String())
	}
	if resp := decodeSelect(t, w.Body.Bytes()); resp.Optimal == nil || *resp.Optimal {
		t.Fatalf("pressured response not marked optimal:false: %s", w.Body.String())
	}

	// Pressure off: the identical request must NOT come from the cache
	// (which would replay the degraded result) but re-solve optimally.
	w = postRecorded(t, h, "/api/v1/select", req)
	if w.Code != http.StatusOK {
		t.Fatalf("unpressured: status %d body %s", w.Code, w.Body.String())
	}
	if resp := decodeSelect(t, w.Body.Bytes()); resp.Optimal != nil {
		t.Errorf("degraded result was cached and replayed: %s", w.Body.String())
	}
}

// TestReadyzStates walks the readiness state machine end to end.
func TestReadyzStates(t *testing.T) {
	c := cellphoneCorpus(t, 3)
	probeErr := error(nil)
	s := NewWithOptions(map[string]*model.Corpus{"Cellphone": c}, nil,
		Options{StoreProbe: func() error { return probeErr }})
	h := s.Handler()

	readyz := func() (int, map[string]any, http.Header) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		var body map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("readyz body: %v (%s)", err, w.Body.String())
		}
		return w.Code, body, w.Header()
	}

	code, body, _ := readyz()
	if code != http.StatusOK || body["status"] != ReadyOK {
		t.Errorf("healthy: code %d status %v", code, body["status"])
	}

	probeErr = errors.New("disk on fire")
	code, body, _ = readyz()
	if code != http.StatusOK || body["status"] != ReadyDegraded {
		t.Errorf("store down: code %d status %v, want 200 degraded", code, body["status"])
	}
	probeErr = nil

	s.SetDraining(true)
	code, body, hdr := readyz()
	if code != http.StatusServiceUnavailable || body["status"] != ReadyOverloaded {
		t.Errorf("draining: code %d status %v, want 503 overloaded", code, body["status"])
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining: missing Retry-After")
	}
	s.SetDraining(false)

	empty := New(nil, nil)
	w := httptest.NewRecorder()
	empty.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("no corpora: code %d, want 503", w.Code)
	}
}

// abortWriter fails every write, simulating a client that disconnected
// mid-response.
type abortWriter struct{ h http.Header }

func (w *abortWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *abortWriter) WriteHeader(int)           {}
func (w *abortWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestClientAbortCounted proves failed response writes are counted as
// client aborts rather than ignored.
func TestClientAbortCounted(t *testing.T) {
	s := New(nil, nil)
	before := s.clientAborts.Value()
	s.writeJSON(&abortWriter{}, http.StatusOK, map[string]string{"a": "b"})
	s.writeRawJSON(&abortWriter{}, []byte("{}\n"))
	if got := s.clientAborts.Value(); got != before+2 {
		t.Errorf("client_aborts_total delta = %d, want 2", got-before)
	}
}

// TestUninjectedByteParity proves the resilience features are invisible
// when nothing is injected or shed: a server with admission control and a
// store probe serves byte-identical responses to a plain server, with no
// degraded/optimal keys anywhere.
func TestUninjectedByteParity(t *testing.T) {
	c := cellphoneCorpus(t, 3)
	plain := New(map[string]*model.Corpus{"Cellphone": c}, nil)
	hardened := NewWithOptions(map[string]*model.Corpus{"Cellphone": c}, nil,
		Options{MaxInflight: 8, StoreProbe: func() error { return nil }})
	req := hotRequest(t, plain)
	req.Method = "exact"

	wp := postRecorded(t, plain.Handler(), "/api/v1/select", req)
	wh := postRecorded(t, hardened.Handler(), "/api/v1/select", req)
	if wp.Code != http.StatusOK || wh.Code != http.StatusOK {
		t.Fatalf("status plain %d hardened %d", wp.Code, wh.Code)
	}
	// Cross-server comparison must ignore the wall-clock elapsed_ms field;
	// everything else must match exactly.
	rp, rh := decodeSelect(t, wp.Body.Bytes()), decodeSelect(t, wh.Body.Bytes())
	rp.ElapsedMS, rh.ElapsedMS = 0, 0
	jp, _ := json.Marshal(rp)
	jh, _ := json.Marshal(rh)
	if !bytes.Equal(jp, jh) {
		t.Errorf("hardened server response differs from plain server\nplain    %s\nhardened %s", jp, jh)
	}
	for _, key := range []string{`"degraded"`, `"optimal"`} {
		if strings.Contains(wp.Body.String(), key) {
			t.Errorf("uninjected response contains %s: %s", key, wp.Body.String())
		}
	}
	// Warm (cached) and coalesced replies reuse the cold bytes verbatim —
	// covered by TestWarmHitReturnsIdenticalBytes; here assert the warm
	// path of the hardened server too.
	warm := postRecorded(t, hardened.Handler(), "/api/v1/select", req)
	if !bytes.Equal(warm.Body.Bytes(), wh.Body.Bytes()) {
		t.Error("hardened warm response differs from its cold response")
	}
}

// TestChaos hammers a hardened server with probabilistic faults armed at
// every injection point. It runs only when FAULTINJECT opts the process in
// (CI's chaos job, or `make chaos`). Every response must be a well-formed
// JSON envelope or result, and the process must survive all of it.
func TestChaos(t *testing.T) {
	if !faultinject.EnvEnabled() {
		t.Skip("set FAULTINJECT=1 to run the chaos suite")
	}
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	t.Logf("chaos seed: FAULTINJECT_SEED=%d", faultinject.CurrentSeed())

	c := cellphoneCorpus(t, 3)
	s := NewWithOptions(map[string]*model.Corpus{"Cellphone": c}, nil,
		Options{MaxInflight: 4, StoreProbe: func() error { return nil }})
	h := s.Handler()
	req := hotRequest(t, s)

	spec := strings.Join([]string{
		"service.handler=panic@0.05",
		"service.select=error@0.2",
		"core.select=error@0.1",
		"featstore.fill=error@0.3",
		"core.select=latency:2ms@0.2",
	}, ",")
	// Later entries for the same point overwrite earlier ones; keep the
	// spec's last core.select mode (latency) plus the rest.
	if err := faultinject.ArmSpec(spec); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 200; i++ {
		w := postRecorded(t, h, "/api/v1/select", req)
		switch {
		case w.Code == http.StatusOK:
			decodeSelect(t, w.Body.Bytes())
		case w.Code >= 400:
			if e := decodeErrorEnvelope(t, w.Body.Bytes()); e.Code == "" {
				t.Fatalf("request %d: %d with malformed envelope %s", i, w.Code, w.Body.String())
			}
		default:
			t.Fatalf("request %d: unexpected status %d", i, w.Code)
		}
	}
	faultinject.Reset()
	if w := postRecorded(t, h, "/api/v1/select", req); w.Code != http.StatusOK {
		t.Fatalf("post-chaos request: status %d body %s", w.Code, w.Body.String())
	}
}
