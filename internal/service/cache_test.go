package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comparesets/internal/core"
	"comparesets/internal/datagen"
	"comparesets/internal/dataset"
	"comparesets/internal/faultinject"
	"comparesets/internal/lexicon"
	"comparesets/internal/model"
	"comparesets/internal/obs"
	"comparesets/internal/opinion"
	"comparesets/internal/selectreq"
)

func cellphoneCorpus(tb testing.TB, seed int64) *model.Corpus {
	tb.Helper()
	c, err := datagen.Generate(datagen.Config{
		Category: lexicon.Cellphone, Products: 30, Reviewers: 60,
		MeanReviews: 8, MeanAlsoBought: 5, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// postRecorded drives the handler directly (no network) and returns the
// recorded response.
func postRecorded(tb testing.TB, h http.Handler, url string, payload any) *httptest.ResponseRecorder {
	tb.Helper()
	buf, err := json.Marshal(payload)
	if err != nil {
		tb.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func hotRequest(tb testing.TB, s *Server) SelectRequest {
	tb.Helper()
	s.mu.RLock()
	targets := dataset.TargetIDs(s.corpora["Cellphone"])
	s.mu.RUnlock()
	return SelectRequest{
		Category: "Cellphone", Target: targets[0],
		M: 3, Lambda: 1, Mu: 0.1, K: 3, Method: "greedy",
	}
}

func TestWarmHitReturnsIdenticalBytes(t *testing.T) {
	c := cellphoneCorpus(t, 3)
	s := New(map[string]*model.Corpus{"Cellphone": c}, nil)
	h := s.Handler()
	req := hotRequest(t, s)

	hits := obs.NewCacheMetrics(s.reg, "servecache").Hits
	before := hits.Value()
	cold := postRecorded(t, h, "/api/v1/select", req)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: status %d body %s", cold.Code, cold.Body.String())
	}
	warm := postRecorded(t, h, "/api/v1/select", req)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm: status %d", warm.Code)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("warm response bytes differ from the cold response")
	}
	if warm.Header().Get("Content-Type") != "application/json" {
		t.Errorf("warm content type = %q", warm.Header().Get("Content-Type"))
	}
	if hits.Value() != before+1 {
		t.Errorf("hit counter delta = %d, want 1", hits.Value()-before)
	}
}

// The cached path (corpus features, shared problems, flight, cache fill)
// must produce the same payload as the same items sent inline, which run
// the pipeline directly with nothing memoized (modulo elapsed_ms, which
// measures real work).
func TestCachedAndUncachedPayloadsAgree(t *testing.T) {
	c := cellphoneCorpus(t, 3)
	cached := New(map[string]*model.Corpus{"Cellphone": c}, nil)
	req := hotRequest(t, cached)
	inst, err := c.NewInstance(req.Target, req.MaxComparative)
	if err != nil {
		t.Fatal(err)
	}
	inline := req
	inline.Category, inline.Target = "", ""
	inline.Aspects, inline.Items = c.Aspects.Names(), inst.Items

	norm := func(w *httptest.ResponseRecorder) string {
		var out map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		delete(out, "elapsed_ms")
		b, _ := json.Marshal(out)
		return string(b)
	}
	h := cached.Handler()
	a := postRecorded(t, h, "/api/v1/select", req)
	warm := postRecorded(t, h, "/api/v1/select", req)
	b := postRecorded(t, h, "/api/v1/select", inline)
	if a.Code != http.StatusOK || warm.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("status %d / %d / %d", a.Code, warm.Code, b.Code)
	}
	if norm(a) != norm(b) {
		t.Errorf("payloads disagree:\ncached:  %s\nuncached: %s", a.Body.String(), b.Body.String())
	}
	if !bytes.Equal(a.Body.Bytes(), warm.Body.Bytes()) {
		t.Errorf("warm hit differs from the fill:\ncold %s\nwarm %s", a.Body.String(), warm.Body.String())
	}
}

// elapsedField matches a select payload's wall-clock elapsed_ms member.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[^,}]*`)

// withoutElapsed blanks elapsed_ms, the one field that legitimately
// differs between two computations of the same answer.
func withoutElapsed(body []byte) []byte {
	return elapsedField.ReplaceAll(body, []byte(`"elapsed_ms":0`))
}

// Concurrent cold selects for distinct targets share one corpus's feature
// store and ProblemCache while they run; each must still return the bytes
// (modulo elapsed_ms) a fresh server computes for that request alone.
func TestConcurrentColdSelectsMatchFreshServers(t *testing.T) {
	c := cellphoneCorpus(t, 3)
	shared := New(map[string]*model.Corpus{"Cellphone": c}, nil)
	targets := dataset.TargetIDs(c)
	const n = 6
	if len(targets) < n {
		t.Fatalf("corpus has %d targets, need %d", len(targets), n)
	}
	targets = targets[:n]
	want := make([][]byte, n)
	for i, tgt := range targets {
		fresh := New(map[string]*model.Corpus{"Cellphone": c}, nil)
		req := hotRequest(t, fresh)
		req.Target = tgt
		w := postRecorded(t, fresh.Handler(), "/api/v1/select", req)
		if w.Code != http.StatusOK {
			t.Fatalf("fresh %s: status %d body %s", tgt, w.Code, w.Body.String())
		}
		want[i] = withoutElapsed(w.Body.Bytes())
	}

	h := shared.Handler()
	got := make([][]byte, n)
	var wg sync.WaitGroup
	for i, tgt := range targets {
		wg.Add(1)
		go func(i int, tgt string) {
			defer wg.Done()
			req := hotRequest(t, shared)
			req.Target = tgt
			w := postRecorded(t, h, "/api/v1/select", req)
			if w.Code != http.StatusOK {
				t.Errorf("shared %s: status %d body %s", tgt, w.Code, w.Body.String())
				return
			}
			got[i] = withoutElapsed(w.Body.Bytes())
		}(i, tgt)
	}
	wg.Wait()
	for i, tgt := range targets {
		if got[i] != nil && !bytes.Equal(got[i], want[i]) {
			t.Errorf("target %s: shared-server answer differs from a fresh server's\nshared %s\nfresh  %s", tgt, got[i], want[i])
		}
	}
}

// countingFeatures is a FeatureSource that counts its lookups.
type countingFeatures struct {
	core.FeatureSource
	calls atomic.Int64
}

func (f *countingFeatures) ItemFeatures(it *model.Item, sch opinion.Scheme, z int) (*opinion.Features, bool) {
	f.calls.Add(1)
	return f.FeatureSource.ItemFeatures(it, sch, z)
}

// A select with a shortlist (k > 0) looks each instance item up in the
// feature store once: the similarity graph reuses the targets the
// selector scored against. The answer is the one the server serves.
func TestShortlistSelectLooksEachItemUpOnce(t *testing.T) {
	c := cellphoneCorpus(t, 3)
	s := New(map[string]*model.Corpus{"Cellphone": c}, nil)
	s.mu.RLock()
	fs, pc := s.feats["Cellphone"], s.problems["Cellphone"]
	s.mu.RUnlock()
	for _, sel := range core.Selectors() {
		req := hotRequest(t, s)
		req.Algorithm = sel.Name()
		served := postRecorded(t, s.Handler(), "/api/v1/select", req)
		if served.Code != http.StatusOK {
			t.Fatalf("%s: status %d body %s", sel.Name(), served.Code, served.Body.String())
		}
		inst, err := c.NewInstance(req.Target, req.MaxComparative)
		if err != nil {
			t.Fatal(err)
		}
		solver, err := solverFor(req.Method)
		if err != nil {
			t.Fatal(err)
		}
		src := &countingFeatures{FeatureSource: fs}
		resp, apiErr := s.computeSelect(context.Background(), &req, inst, src, sel, solver, pc)
		if apiErr != nil {
			t.Fatalf("%s: computeSelect: %v", sel.Name(), apiErr)
		}
		if got, want := src.calls.Load(), int64(inst.NumItems()); got != want {
			t.Errorf("%s (k=%d): %d feature lookups for %d items, want one per item", sel.Name(), req.K, got, want)
		}
		if got, want := withoutElapsed(s.encodeSelectPayload(resp)), withoutElapsed(served.Body.Bytes()); !bytes.Equal(got, want) {
			t.Errorf("%s: payload differs from the served answer\ngot    %s\nserved %s", sel.Name(), got, want)
		}
	}
}

func TestAddCorpusBumpsEpochAndInvalidates(t *testing.T) {
	s := New(map[string]*model.Corpus{"Cellphone": cellphoneCorpus(t, 3)}, nil)
	h := s.Handler()
	req := hotRequest(t, s)

	s.mu.RLock()
	epochBefore := s.epochs["Cellphone"]
	s.mu.RUnlock()

	cold := postRecorded(t, h, "/api/v1/select", req)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: status %d", cold.Code)
	}
	if n := s.cache.Len(); n != 1 {
		t.Fatalf("cache entries after cold request = %d, want 1", n)
	}

	// Replace the corpus: same category, different content.
	s.AddCorpus("Cellphone", cellphoneCorpus(t, 99))
	s.mu.RLock()
	epochAfter := s.epochs["Cellphone"]
	s.mu.RUnlock()
	if epochAfter == epochBefore {
		t.Fatal("epoch token unchanged after AddCorpus")
	}

	// The old cached entry is unreachable: the same request recomputes
	// (a fresh entry appears instead of the old one being served).
	misses := obs.NewCacheMetrics(s.reg, "servecache").Misses
	before := misses.Value()
	resp := postRecorded(t, h, "/api/v1/select", req)
	// The old target may not exist in the replacement corpus; recompute is
	// proven by the miss counter either way.
	if resp.Code != http.StatusOK && resp.Code != http.StatusNotFound {
		t.Fatalf("post-replace: status %d body %s", resp.Code, resp.Body.String())
	}
	if misses.Value() != before+1 {
		t.Errorf("miss counter delta = %d, want 1 (old epoch entry must be unreachable)", misses.Value()-before)
	}
	// The refill replaced the old-epoch entry instead of adding a second
	// one beside it.
	if resp.Code == http.StatusOK {
		if n := s.cache.Len(); n != 1 {
			t.Errorf("cache entries after the refill = %d, want 1", n)
		}
	}
}

// Concurrent identical requests must execute the pipeline exactly once.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	s := New(map[string]*model.Corpus{"Cellphone": cellphoneCorpus(t, 3)}, nil)
	h := s.Handler()
	req := hotRequest(t, s)

	fm := obs.NewCacheMetrics(s.reg, "selectflight")
	execBefore := fm.Executions.Value()

	const callers = 12
	var wg sync.WaitGroup
	bodies := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postRecorded(t, h, "/api/v1/select", req)
			if w.Code != http.StatusOK {
				t.Errorf("caller %d: status %d", i, w.Code)
				return
			}
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()

	// Every response is byte-identical.
	for i := 1; i < callers; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("caller %d got different bytes", i)
		}
	}
	// The pipeline ran once, or — when some callers arrived after the
	// flight finished — their lookups were cache hits, never extra
	// executions.
	if got := fm.Executions.Value() - execBefore; got != 1 {
		t.Errorf("pipeline executions = %d, want exactly 1", got)
	}
}

// TestConcurrentCacheChurn exercises the full serving path while corpora
// are being replaced — the race certificate for the epoch/cache/flight
// interplay.
func TestConcurrentCacheChurn(t *testing.T) {
	s := New(map[string]*model.Corpus{"Cellphone": cellphoneCorpus(t, 3)}, nil)
	h := s.Handler()
	req := hotRequest(t, s)

	replacement := cellphoneCorpus(t, 3)
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.AddCorpus("Cellphone", replacement)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				rec := postRecorded(t, h, "/api/v1/select", req)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-churnDone
}

// TestSelectKeyCanonicalization: the worker keys its result cache on
// selectreq.Key after applying the defaults, so requests that differ only
// in timeout_ms or in spelled-out defaults share an entry, and a request
// differing in any payload-shaping field does not.
func TestSelectKeyCanonicalization(t *testing.T) {
	s := New(map[string]*model.Corpus{"Cellphone": cellphoneCorpus(t, 3)}, nil)
	h := s.Handler()
	hits := obs.NewCacheMetrics(s.reg, "servecache").Hits
	hit := func(req SelectRequest) bool {
		t.Helper()
		before := hits.Value()
		w := postRecorded(t, h, "/api/v1/select", req)
		if w.Code != http.StatusOK {
			t.Fatalf("%+v: status %d body %s", req, w.Code, w.Body.String())
		}
		return hits.Value() > before
	}
	base := hotRequest(t, s)
	base.Method = ""
	if hit(base) {
		t.Fatal("cold request hit")
	}
	same := []func(r *SelectRequest){
		func(r *SelectRequest) { r.TimeoutMS = 5000 },
		func(r *SelectRequest) { r.Algorithm = "CompaReSetS+" },
		func(r *SelectRequest) { r.Method = "greedy" },
	}
	for i, mutate := range same {
		v := base
		mutate(&v)
		if !hit(v) {
			t.Errorf("equivalent variant %d missed the cache: %+v", i, v)
		}
	}
	targets := dataset.TargetIDs(s.corpora["Cellphone"])
	distinct := []func(r *SelectRequest){
		func(r *SelectRequest) { r.Target = targets[1] },
		func(r *SelectRequest) { r.Algorithm = "CompaReSetS" },
		func(r *SelectRequest) { r.M = 4 },
		func(r *SelectRequest) { r.Lambda = 2 },
		func(r *SelectRequest) { r.Mu = 0.2 },
		func(r *SelectRequest) { r.MaxComparative = 2 },
		func(r *SelectRequest) { r.Method = "exact" },
		func(r *SelectRequest) { r.Summarize = 1 },
		func(r *SelectRequest) { r.Explain = 2 },
		func(r *SelectRequest) { r.Metrics = true },
	}
	for i, mutate := range distinct {
		v := base
		mutate(&v)
		if hit(v) {
			t.Errorf("variant %d shared the base entry: %+v", i, v)
		}
	}
}

// TestSelectAnswersCarryInstanceHeader: every canonical corpus-referenced
// select answer — servecache miss and hit — names its instance's members
// in instance order. Answers no cache may memoize carry no header: inline
// instances, stale-while-error serves, and shed exact shortlists,
// including the copy a coalesced waiter receives.
func TestSelectAnswersCarryInstanceHeader(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	c := cellphoneCorpus(t, 3)
	cached := NewWithOptions(map[string]*model.Corpus{"Cellphone": c}, nil, Options{MaxInflight: 3})
	req := hotRequest(t, cached)
	req.MaxComparative = 2
	inst, err := c.NewInstance(req.Target, req.MaxComparative)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, it := range inst.Items {
		ids = append(ids, url.QueryEscape(it.ID))
	}
	want := strings.Join(ids, ",")
	header := func(w *httptest.ResponseRecorder) string { return w.Header().Get(selectreq.InstanceHeader) }

	for _, name := range []string{"miss", "hit"} {
		w := postRecorded(t, cached.Handler(), "/api/v1/select", req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", name, w.Code)
		}
		if got := header(w); got != want {
			t.Errorf("%s: %s = %q, want %q", name, selectreq.InstanceHeader, got, want)
		}
	}

	inline := SelectRequest{Aspects: c.Aspects.Names(), Items: inst.Items, M: 2, Lambda: 1, Mu: 0.1}
	w := postRecorded(t, cached.Handler(), "/api/v1/select", inline)
	if w.Code != http.StatusOK {
		t.Fatalf("inline: status %d body %s", w.Code, w.Body.String())
	}
	if got := header(w); got != "" {
		t.Errorf("inline instance carried %s = %q", selectreq.InstanceHeader, got)
	}

	t.Run("stale-while-error", func(t *testing.T) {
		// As in TestStaleWhileError: the epoch bump misses the primary
		// cache, the pipeline fails, and the stale copy is served.
		cached.AddCorpus("Cellphone", c)
		faultinject.Arm(faultinject.PointServiceSelect, faultinject.Fault{Mode: faultinject.ModeError})
		defer faultinject.Reset()
		w := postRecorded(t, cached.Handler(), "/api/v1/select", req)
		if w.Code != http.StatusOK || !decodeSelect(t, w.Body.Bytes()).Degraded {
			t.Fatalf("want a degraded 200, got %d %s", w.Code, w.Body.String())
		}
		if got := header(w); got != "" {
			t.Errorf("stale serve carried %s = %q", selectreq.InstanceHeader, got)
		}
	})

	// Queue pressure sheds exact solves to greedy (optimal:false), as in
	// TestFallbackResultsNotCached: the slots the test's own requests do not
	// hold are taken, and one request is waiting.
	exact := req
	exact.Method = "exact"
	pressure := func(s *Server, free int) func() {
		taken := len(s.limiter.slots) - free
		for i := 0; i < taken; i++ {
			<-s.limiter.slots
		}
		s.limiter.queued.Add(1)
		return func() {
			s.limiter.queued.Add(-1)
			for i := 0; i < taken; i++ {
				s.limiter.slots <- struct{}{}
			}
		}
	}
	assertShed := func(t *testing.T, w *httptest.ResponseRecorder) {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("status %d body %s", w.Code, w.Body.String())
		}
		if resp := decodeSelect(t, w.Body.Bytes()); resp.Optimal == nil || *resp.Optimal {
			t.Fatalf("exact solve not shed: %s", w.Body.String())
		}
		if got := header(w); got != "" {
			t.Errorf("shed answer carried %s = %q", selectreq.InstanceHeader, got)
		}
	}
	t.Run("shed exact", func(t *testing.T) {
		release := pressure(cached, 1)
		defer release()
		assertShed(t, postRecorded(t, cached.Handler(), "/api/v1/select", exact))
	})

	t.Run("shed exact coalesced", func(t *testing.T) {
		// The leader is held in the pipeline long enough for an identical
		// request to join its flight; both must receive the leader's
		// verdict.
		release := pressure(cached, 2)
		defer release()
		faultinject.Arm(faultinject.PointServiceSelect,
			faultinject.Fault{Mode: faultinject.ModeLatency, Latency: 200 * time.Millisecond})
		defer faultinject.Reset()
		coalesced := counterValue(cached, "comparesets_cache_coalesced_waiters_total", obs.Labels{"cache": "selectflight"})
		h := cached.Handler()
		exact.Summarize = 1 // a key no earlier subtest has filled
		leader := make(chan *httptest.ResponseRecorder, 1)
		go func() { leader <- postRecorded(t, h, "/api/v1/select", exact) }()
		for deadline := time.Now().Add(5 * time.Second); cached.flights.InFlight() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("leader flight never started")
			}
			time.Sleep(time.Millisecond)
		}
		assertShed(t, postRecorded(t, h, "/api/v1/select", exact))
		assertShed(t, <-leader)
		if got := counterValue(cached, "comparesets_cache_coalesced_waiters_total", obs.Labels{"cache": "selectflight"}); got != coalesced+1 {
			t.Errorf("selectflight coalesced delta = %d, want 1", got-coalesced)
		}
	})
}

// TestInstanceHeaderValueEscapesSeparators: the instance header the worker
// writes escapes item IDs holding the separator, the escape character or a
// newline, so every member survives the trip to the edge.
func TestInstanceHeaderValueEscapesSeparators(t *testing.T) {
	s := New(map[string]*model.Corpus{"Cellphone": cellphoneCorpus(t, 3)}, nil)
	inst := &model.Instance{Items: []*model.Item{{ID: "a,b"}, {ID: "50%\noff"}, {ID: "plain"}}}
	w := httptest.NewRecorder()
	s.writeAnswer(w, inst, []byte("{}\n"))
	if got, want := w.Header().Get(selectreq.InstanceHeader), "a%2Cb,50%25%0Aoff,plain"; got != want {
		t.Errorf("%s = %q, want %q", selectreq.InstanceHeader, got, want)
	}
}
